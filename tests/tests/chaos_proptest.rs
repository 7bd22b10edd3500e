//! Chaos property tests: an *arbitrary* fault schedule, run through any
//! control scheme with or without hardening, must never panic and must
//! never leak NaN/Inf into the margin and violation metrics.
//!
//! These are the robustness counterparts of `proptest_system.rs`: instead
//! of sweeping variation parameters, they sweep the fault space itself
//! (class, rate, seed) and check the *accounting* stays well-defined —
//! the simulated clock is allowed to violate timing, it is not allowed to
//! produce meaningless numbers.

use adaptive_clock::batch::{BatchLoop, TraceSink};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::event::Sample;
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::system::{RunSummary, RunTrace};
use adaptive_clock::tdc::Quantization;
use clock_faults::{FaultClass, FaultSchedule};
use clock_metrics::violation_report;
use proptest::prelude::*;

const C: i64 = 64;
const STEPS: usize = 600;
const SENSORS: usize = 3;

/// The scheme line-up every schedule is run through: unhardened and
/// hardened integer IIR, the float reference, TEAtime, and a free RO.
fn lanes() -> Vec<(Controller, Resilience)> {
    let cfg = IirConfig::paper();
    vec![
        (
            Controller::int_iir(&cfg, C).expect("paper config"),
            Resilience::default(),
        ),
        (
            Controller::int_iir(&cfg, C).expect("paper config"),
            Resilience::hardened(C as f64),
        ),
        (
            Controller::float_iir(&cfg, C as f64).expect("paper config"),
            Resilience::hardened(C as f64),
        ),
        (Controller::teatime(C, 1.0), Resilience::default()),
        (Controller::free(C), Resilience::hardened(C as f64)),
    ]
}

/// Adapt a faulted loop trace to the [`RunTrace`] the margin metrics
/// consume.
fn as_run_trace(tau: &[f64], lro: &[f64]) -> RunTrace {
    let samples = tau
        .iter()
        .zip(lro)
        .enumerate()
        .map(|(n, (&tau, &lro))| Sample {
            time: (n as f64 + 1.0) * C as f64,
            period: lro,
            tau,
            delta: C as f64 - tau,
            lro,
        })
        .collect();
    RunTrace::from_samples(C as f64, samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (class, rate, seed) strike plan, through every scheme: the run
    /// completes, every recorded signal is finite, and every derived
    /// metric — `RunSummary::required_margin`,
    /// `RunSummary::needed_adaptive_period`, the full violation report — is
    /// finite.
    #[test]
    fn any_schedule_any_scheme_yields_finite_metrics(
        seed in 0u64..10_000,
        class_idx in 0usize..FaultClass::ALL.len(),
        rate in 0.25f64..12.0,
    ) {
        let class = FaultClass::ALL[class_idx];
        let schedule = FaultSchedule::random(seed, class, rate, STEPS as u64, SENSORS);
        let mut batch = BatchLoop::new();
        let line_up = lanes();
        let n_lanes = line_up.len();
        for (ctrl, resilience) in line_up {
            batch.push_with(1, ctrl, Quantization::Floor, schedule.clone(), resilience);
        }
        let setpoint = constant(C as f64);
        let zero = constant(0.0);
        let hodv = |n: i64| 3.2 * (std::f64::consts::TAU * n as f64 / 4000.0).sin();
        let inputs: Vec<LoopInputs<'_>> = (0..n_lanes)
            .map(|_| LoopInputs {
                setpoint: &setpoint,
                homogeneous: &hodv,
                heterogeneous: &zero,
            })
            .collect();
        let tr = batch.run(&inputs, STEPS, TraceSink::default());
        for lane in 0..n_lanes {
            let trace = tr.lane(lane);
            for (n, (&tau, &lro)) in trace.tau.iter().zip(&trace.lro).enumerate() {
                prop_assert!(tau.is_finite(), "lane {lane} τ[{n}] = {tau}");
                prop_assert!(lro.is_finite(), "lane {lane} l_RO[{n}] = {lro}");
            }
            let summary = RunSummary::of(&as_run_trace(&trace.tau, &trace.lro));
            let m = summary.required_margin();
            prop_assert!(m.is_finite(), "lane {lane} required_margin {m}");
            let p = summary.needed_adaptive_period();
            prop_assert!(p.is_finite(), "lane {lane} needed period {p}");
            let report = violation_report(C as f64, &trace.tau, 6.0, 2.0, 20);
            prop_assert!(report.violation_rate.is_finite());
            prop_assert!(report.worst_excursion.is_finite());
            prop_assert!(report.mean_time_to_relock.is_finite());
            prop_assert!(report.max_time_to_relock.is_finite());
        }
    }

    /// The inert guard: an *empty* schedule plus `Resilience::default()`
    /// must be bit-identical to a plain, fault-free run of the same lane —
    /// this is the property that keeps the committed `everything-quick`
    /// golden fixture byte-identical while the fault plumbing is wired
    /// through every engine.
    #[test]
    fn empty_schedule_and_default_resilience_are_bit_exact(
        mu in -6.0f64..6.0,
        amp in 0.0f64..8.0,
    ) {
        let cfg = IirConfig::paper();
        let hodv = move |n: i64| amp * (std::f64::consts::TAU * n as f64 / 900.0).sin();
        let het = move |_: i64| mu;
        let setpoint = constant(C as f64);
        let inputs = LoopInputs {
            setpoint: &setpoint,
            homogeneous: &hodv,
            heterogeneous: &het,
        };
        let ctrl = Controller::int_iir(&cfg, C).expect("paper config");
        let mut plain = DiscreteLoop::new(1, ctrl.clone(), Quantization::Floor);
        let mut guarded = DiscreteLoop::new(1, ctrl, Quantization::Floor)
            .with_faults(FaultSchedule::new(SENSORS))
            .with_resilience(Resilience::default());
        let a = plain.run(&inputs, 400);
        let b = guarded.run(&inputs, 400);
        prop_assert_eq!(a, b);
    }
}

/// Faults make a lane diverge from its clean twin, and resetting the
/// batch restores run-to-run determinism (same schedule → same trace).
#[test]
fn faulted_runs_are_deterministic_across_reset() {
    let cfg = IirConfig::paper();
    let schedule = FaultSchedule::random(7, FaultClass::SeuLroWord, 4.0, STEPS as u64, SENSORS);
    let mut batch = BatchLoop::new();
    batch.push_with(
        1,
        Controller::int_iir(&cfg, C).expect("paper config"),
        Quantization::Floor,
        schedule,
        Resilience::hardened(C as f64),
    );
    let setpoint = constant(C as f64);
    let zero = constant(0.0);
    let inputs = [LoopInputs {
        setpoint: &setpoint,
        homogeneous: &zero,
        heterogeneous: &zero,
    }];
    let first = batch.run(&inputs, STEPS, TraceSink::default());
    batch.reset();
    let second = batch.run(&inputs, STEPS, TraceSink::default());
    assert_eq!(first.lane(0), second.lane(0), "chaos must be reproducible");
}
