//! Differential proptest suite for the event engine's sinks: over generated
//! system configurations, a [`SummarySink`] run must equal the summarized
//! [`TraceSink`] run **bit for bit**, and a warm-up-skipping trace sink must
//! record exactly what the whole run leaves after [`RunTrace::skip`].
//!
//! The generator covers every [`Scheme`], fractional CDN delays, static
//! mismatches of either sign, all three TDC quantizations, generator
//! jitter, sensor noise, dynamic per-sensor mismatch, multiplicative
//! coupling, multi-sensor banks, and warm-ups at and past the run length.
//! With telemetry attached, both sinks must also leave identical counters
//! and event streams: the sink only decides where samples go, never how
//! the loop advances.
//!
//! Configurations are derived from one proptest-drawn seed via splitmix64,
//! so each case is reproducible from `(seed, samples)` alone.

use std::sync::Arc;

use adaptive_clock::controller::IirConfig;
use adaptive_clock::event::{SummarySink, TraceSink};
use adaptive_clock::ro::Coupling;
use adaptive_clock::system::{RunSummary, Scheme, SensorSpec, System, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use adaptive_clock::RunTrace;
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

/// One generated configuration: the builder (telemetry still to attach),
/// the homogeneous waveform, and a readable description for failures.
struct Case {
    builder: SystemBuilder,
    hodv: Harmonic,
    what: String,
}

fn case(seed: u64) -> Case {
    let mut s = seed;
    let c = [16i64, 40, 64][(splitmix(&mut s) % 3) as usize];
    let cf = c as f64;
    let scheme = match splitmix(&mut s) % 5 {
        0 => Scheme::Fixed,
        1 => Scheme::FreeRo {
            extra_length: (splitmix(&mut s) % 6) as i64,
        },
        2 => Scheme::TeaTime,
        3 => Scheme::iir_paper(),
        _ => Scheme::IirFloat(IirConfig::paper()),
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
    let n_sensors = 1 + (splitmix(&mut s) % 3) as usize;
    let sensors: Vec<SensorSpec> = (0..n_sensors)
        .map(|k| {
            // Static mismatch of either sign, up to ±0.2c.
            let mut spec = SensorSpec::offset(uniform(&mut s, -0.2, 0.2) * cf);
            if splitmix(&mut s).is_multiple_of(3) {
                spec = spec.with_noise(uniform(&mut s, 0.0, 1.5), seed ^ k as u64);
            }
            if splitmix(&mut s).is_multiple_of(4) {
                let period = uniform(&mut s, 5.0, 60.0) * cf;
                spec.dynamic = Some(Arc::new(Harmonic::new(0.05 * cf, period, 0.3)));
            }
            spec
        })
        .collect();
    let mut builder = SystemBuilder::new(c)
        .cdn_delay(t_clk)
        .scheme(scheme.clone())
        .quantization(quantization)
        .coupling(coupling)
        .sensors(sensors);
    let jitter = splitmix(&mut s)
        .is_multiple_of(3)
        .then(|| uniform(&mut s, 0.0, 1.5));
    if let Some(sigma) = jitter {
        builder = builder.jitter(sigma, seed.rotate_left(17));
    }
    let amplitude = uniform(&mut s, 0.0, 0.25) * cf;
    let te = uniform(&mut s, 6.0, 80.0) * cf;
    Case {
        builder,
        hodv: Harmonic::new(amplitude, te, 0.1),
        what: format!(
            "c={c} scheme={} q={quantization:?} t_clk={t_clk} {coupling:?} \
             sensors={n_sensors} jitter={jitter:?} amp={amplitude} te={te}",
            scheme.canonical_id()
        ),
    }
}

fn build(builder: &SystemBuilder, telemetry: &Telemetry) -> System {
    builder
        .clone()
        .telemetry(telemetry.clone())
        .build()
        .expect("generated configurations are valid")
}

fn bits(summary: RunSummary) -> [u64; RunSummary::FIELDS] {
    summary.to_values().map(f64::to_bits)
}

/// Warm-ups before, at and past the run length.
fn warmups(samples: usize) -> [usize; 5] {
    [0, samples / 3, samples - 1, samples, samples + 37]
}

proptest! {
    /// The traceless fold equals the recorded run summarized, every field
    /// bit for bit, and the warm-up-skipping trace equals the skipped trace.
    #[test]
    fn summary_sink_bit_identical_to_summarized_trace(
        seed in 0u64..u64::MAX,
        samples in 1usize..700,
    ) {
        let case = case(seed);
        let system = build(&case.builder, &Telemetry::disabled());
        let whole: RunTrace = system.run(&case.hodv, samples);
        for warmup in warmups(samples) {
            let skipped = whole.skip(warmup);
            let recorded = system.run_with(&case.hodv, samples, TraceSink::with_warmup(warmup));
            prop_assert_eq!(&recorded, &skipped, "trace sink, warmup {}: {}", warmup, case.what);
            let folded = system.run_with(&case.hodv, samples, SummarySink::with_warmup(warmup));
            prop_assert_eq!(
                bits(folded),
                bits(RunSummary::of(&skipped)),
                "summary sink, warmup {}: {}",
                warmup,
                case.what
            );
        }
    }

    /// With telemetry attached, the recording and the folding run leave the
    /// same counters and the same event stream.
    #[test]
    fn sinks_leave_identical_telemetry(
        seed in 0u64..u64::MAX,
        samples in 1usize..500,
    ) {
        let case = case(seed);
        let warmup = samples / 4;
        let traced_tel = Telemetry::with_ring_capacity(1 << 16);
        let folded_tel = Telemetry::with_ring_capacity(1 << 16);
        let trace = build(&case.builder, &traced_tel)
            .run_with(&case.hodv, samples, TraceSink::with_warmup(warmup));
        let folded = build(&case.builder, &folded_tel)
            .run_with(&case.hodv, samples, SummarySink::with_warmup(warmup));
        prop_assert_eq!(bits(folded), bits(RunSummary::of(&trace)), "{}", case.what);
        let (a, b) = (traced_tel.snapshot(), folded_tel.snapshot());
        prop_assert_eq!(&a.counters, &b.counters, "counters: {}", case.what);
        prop_assert_eq!(a.events_total, b.events_total, "events: {}", case.what);
        prop_assert_eq!(&a.events_by_kind, &b.events_by_kind, "event kinds: {}", case.what);
        prop_assert_eq!(
            traced_tel.recent_events(),
            folded_tel.recent_events(),
            "event stream: {}",
            case.what
        );
        prop_assert_eq!(a.counter("core.samples"), Some(trace.len() as u64 + warmup as u64));
    }
}
