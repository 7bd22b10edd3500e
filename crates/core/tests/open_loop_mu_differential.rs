//! Differential proptest suite for the shared open-loop run
//! ([`System::run_offsets`]): over generated open-loop systems, the one
//! run that serves a whole list of static mismatches must equal, for every
//! mismatch `μ`, the ordinary run of the same system with its sensor's
//! offset set to `μ` — every summary field and every recorded sample bit
//! for bit (a NaN matches any NaN, see `summary_fold`), and, with
//! telemetry attached, the same `core.*` counter totals.
//!
//! The generator covers both open-loop schemes (the fixed clock and the
//! free RO with a design-time extra length), fractional CDN delays, all
//! three TDC quantizations, both variation couplings, generator jitter,
//! sensor noise, a dynamic sensor mismatch, and warm-ups at and past the
//! run length. μ lists have 1 or 9 entries and may repeat values or hold
//! both signed zeros. The closed-loop schemes and multi-sensor banks,
//! whose runs cannot be shared exactly, must be refused with a typed
//! error.
//!
//! Configurations are derived from one proptest-drawn seed via splitmix64,
//! so each case is reproducible from `(seed, samples)` alone.

use std::sync::Arc;

use adaptive_clock::controller::IirConfig;
use adaptive_clock::event::{SummarySink, TraceSink};
use adaptive_clock::ro::Coupling;
use adaptive_clock::system::{RunSummary, Scheme, SensorSpec, System, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use adaptive_clock::{Error, RunTrace};
use clock_telemetry::Telemetry;
use proptest::prelude::*;
use variation::sources::Harmonic;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)`.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix(state) >> 11) as f64 / (1u64 << 53) as f64)
}

/// One generated open-loop panel: the builder without its sensor, the
/// sensor (whose offset each μ replaces), the HoDV, the μ list and a
/// readable description for failures.
struct Case {
    builder: SystemBuilder,
    sensor: SensorSpec,
    hodv: Harmonic,
    mus: Vec<f64>,
    what: String,
}

fn case(seed: u64) -> Case {
    let mut s = seed;
    let c = [16i64, 40, 64][(splitmix(&mut s) % 3) as usize];
    let cf = c as f64;
    let scheme = if splitmix(&mut s).is_multiple_of(2) {
        Scheme::Fixed
    } else {
        Scheme::FreeRo {
            extra_length: (splitmix(&mut s) % 6) as i64,
        }
    };
    let quantization = match splitmix(&mut s) % 3 {
        0 => Quantization::Floor,
        1 => Quantization::Nearest,
        _ => Quantization::None,
    };
    // Fractional CDN delays, from a quarter of a period to a few periods.
    let t_clk = uniform(&mut s, 0.25, 3.0) * cf;
    let coupling = if splitmix(&mut s).is_multiple_of(3) {
        Coupling::Multiplicative { c_ref: c }
    } else {
        Coupling::Additive
    };
    let mut sensor = SensorSpec::offset(uniform(&mut s, -0.2, 0.2) * cf);
    if splitmix(&mut s).is_multiple_of(3) {
        sensor = sensor.with_noise(uniform(&mut s, 0.0, 1.5), seed.rotate_left(7));
    }
    if splitmix(&mut s).is_multiple_of(4) {
        let period = uniform(&mut s, 5.0, 60.0) * cf;
        sensor.dynamic = Some(Arc::new(Harmonic::new(0.05 * cf, period, 0.3)));
    }
    let mut builder = SystemBuilder::new(c)
        .cdn_delay(t_clk)
        .scheme(scheme.clone())
        .quantization(quantization)
        .coupling(coupling);
    let jitter = splitmix(&mut s)
        .is_multiple_of(3)
        .then(|| uniform(&mut s, 0.0, 1.5));
    if let Some(sigma) = jitter {
        builder = builder.jitter(sigma, seed.rotate_left(17));
    }
    let amplitude = uniform(&mut s, 0.0, 0.25) * cf;
    let te = uniform(&mut s, 6.0, 80.0) * cf;
    // One or nine μ values, with repeats and both signed zeros.
    let n_mus = if splitmix(&mut s).is_multiple_of(3) {
        1
    } else {
        9
    };
    let mut mus: Vec<f64> = (0..n_mus)
        .map(|_| match splitmix(&mut s) % 6 {
            0 => 0.0,
            1 => -0.0,
            _ => uniform(&mut s, -0.2, 0.2) * cf,
        })
        .collect();
    if n_mus > 1 {
        let (from, to) = (
            (splitmix(&mut s) % 9) as usize,
            (splitmix(&mut s) % 9) as usize,
        );
        mus[to] = mus[from];
    }
    let what = format!(
        "c={c} scheme={} q={quantization:?} t_clk={t_clk} {coupling:?} \
         sensor={sensor:?} jitter={jitter:?} amp={amplitude} te={te} mus={mus:?}",
        scheme.canonical_id(),
    );
    Case {
        builder,
        sensor,
        hodv: Harmonic::new(amplitude, te, 0.1),
        mus,
        what,
    }
}

impl Case {
    /// The system with its one sensor at static offset `offset`.
    fn with_offset(&self, offset: f64, telemetry: &Telemetry) -> System {
        self.builder
            .clone()
            .sensors(vec![SensorSpec {
                offset,
                ..self.sensor.clone()
            }])
            .telemetry(telemetry.clone())
            .build()
            .expect("generated configurations are valid")
    }
}

/// Equal bits, or both NaN.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_summary(a: RunSummary, b: RunSummary) -> bool {
    a.to_values()
        .iter()
        .zip(b.to_values())
        .all(|(&x, y)| same(x, y))
}

fn same_trace(a: &RunTrace, b: &RunTrace) -> bool {
    same(a.setpoint(), b.setpoint())
        && a.len() == b.len()
        && a.samples().iter().zip(b.samples()).all(|(x, y)| {
            [
                (x.time, y.time),
                (x.period, y.period),
                (x.tau, y.tau),
                (x.delta, y.delta),
                (x.lro, y.lro),
            ]
            .iter()
            .all(|&(p, q)| same(p, q))
        })
}

/// Warm-ups before, at and past the run length.
fn warmups(samples: usize) -> [usize; 4] {
    [0, samples / 3, samples, samples + 11]
}

const CORE_COUNTERS: [&str; 5] = [
    "core.samples",
    "core.timing_violations",
    "core.controller_steps",
    "core.ro_saturations",
    "core.sensor_dropouts",
];

proptest! {
    /// Every lane of the shared run equals the per-μ run: summaries at
    /// every warm-up, and the recorded traces.
    #[test]
    fn shared_run_equals_per_mu_runs(
        seed in 0u64..u64::MAX,
        samples in 1usize..600,
    ) {
        let case = case(seed);
        let off = Telemetry::disabled();
        let shared_system = case.with_offset(0.5, &off);
        for warmup in warmups(samples) {
            let shared = shared_system
                .run_offsets(&case.hodv, samples, &case.mus, || SummarySink::with_warmup(warmup))
                .expect("open-loop, one sensor");
            prop_assert_eq!(shared.len(), case.mus.len());
            for (&mu, &lane) in case.mus.iter().zip(&shared) {
                let alone = case
                    .with_offset(mu, &off)
                    .run_with(&case.hodv, samples, SummarySink::with_warmup(warmup));
                prop_assert!(
                    same_summary(lane, alone),
                    "μ={} warmup {}: {:?} vs {:?}: {}", mu, warmup, lane, alone, case.what
                );
            }
        }
        let traces = shared_system
            .run_offsets(&case.hodv, samples, &case.mus, TraceSink::default)
            .expect("open-loop, one sensor");
        for (&mu, lane) in case.mus.iter().zip(&traces) {
            let alone = case.with_offset(mu, &off).run(&case.hodv, samples);
            prop_assert!(same_trace(lane, &alone), "trace μ={}: {}", mu, case.what);
        }
    }

    /// With telemetry attached, the shared run's `core.*` counters total
    /// what the per-μ runs total.
    #[test]
    fn shared_run_counts_what_per_mu_runs_count(
        seed in 0u64..u64::MAX,
        samples in 1usize..400,
    ) {
        let case = case(seed);
        let shared_tel = Telemetry::enabled();
        case.with_offset(0.5, &shared_tel)
            .run_offsets(&case.hodv, samples, &case.mus, || SummarySink::with_warmup(0))
            .expect("open-loop, one sensor");
        let per_mu_tel = Telemetry::enabled();
        for &mu in &case.mus {
            case.with_offset(mu, &per_mu_tel)
                .run_with(&case.hodv, samples, SummarySink::with_warmup(0));
        }
        let (a, b) = (shared_tel.snapshot(), per_mu_tel.snapshot());
        for name in CORE_COUNTERS {
            prop_assert_eq!(a.counter(name), b.counter(name), "{}: {}", name, case.what);
        }
    }
}

/// The schemes whose controller reads τ, and banks of other than one
/// sensor, are refused with a typed error before anything runs.
#[test]
fn unshareable_configurations_are_refused() {
    let hodv = Harmonic::new(6.4, 2400.0, 0.0);
    let mus = [-3.0, 0.0, 3.0];
    let fold = || SummarySink::with_warmup(0);
    for scheme in [
        Scheme::TeaTime,
        Scheme::iir_paper(),
        Scheme::IirFloat(IirConfig::paper()),
    ] {
        let label = scheme.label();
        let system = SystemBuilder::new(64).scheme(scheme).build().unwrap();
        assert_eq!(
            system.run_offsets(&hodv, 100, &mus, fold).unwrap_err(),
            Error::ClosedLoop { scheme: label }
        );
    }
    for scheme in [Scheme::Fixed, Scheme::FreeRo { extra_length: 2 }] {
        let two = SystemBuilder::new(64)
            .scheme(scheme)
            .sensors(vec![SensorSpec::offset(1.0), SensorSpec::offset(-2.0)])
            .build()
            .unwrap();
        assert_eq!(
            two.run_offsets(&hodv, 100, &mus, fold).unwrap_err(),
            Error::NotOneSensor { sensors: 2 }
        );
    }
    let empty = SystemBuilder::new(64)
        .scheme(Scheme::Fixed)
        .build()
        .unwrap()
        .run_offsets(&hodv, 100, &[], fold)
        .unwrap();
    assert!(empty.is_empty());
}
