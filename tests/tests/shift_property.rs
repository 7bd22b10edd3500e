//! Verifies the shift property that `clock-metrics` relies on for its
//! margin accounting: adding `m` stages of set-point (or design length)
//! shifts the whole `τ` trajectory by exactly `+m`, so the margin read off
//! a nominal run really is the margin a re-margined system would enjoy.

use adaptive_clock::system::{Scheme, SystemBuilder};
use adaptive_clock::RunSummary;
use integration_tests::steady_run;
use variation::sources::Harmonic;

fn hodv() -> Harmonic {
    Harmonic::new(12.8, 64.0 * 37.5, 0.0)
}

/// For the loop-controlled schemes, re-run with the set-point raised by the
/// measured margin and check the re-run is violation-free against the
/// original requirement, with the predicted mean period.
#[test]
fn setpoint_shift_eliminates_violations_for_iir() {
    shift_check(Scheme::iir_paper());
}

#[test]
fn setpoint_shift_eliminates_violations_for_teatime() {
    shift_check(Scheme::TeaTime);
}

fn shift_check(scheme: Scheme) {
    let c_req = 64i64;
    let nominal = SystemBuilder::new(c_req)
        .cdn_delay(c_req as f64)
        .scheme(scheme.clone())
        .build()
        .expect("valid");
    let summary = RunSummary::of(&steady_run(&nominal, &hodv()));
    let m = summary.required_margin().ceil() as i64;

    let shifted = SystemBuilder::new(c_req + m)
        .cdn_delay(c_req as f64)
        .scheme(scheme.clone())
        .build()
        .expect("valid");
    let run2 = steady_run(&shifted, &hodv());
    // No sample may deliver fewer than c_req stages.
    let violations = run2
        .samples()
        .iter()
        .filter(|s| s.tau < c_req as f64)
        .count();
    assert_eq!(
        violations,
        0,
        "{}: margined system must be violation-free",
        scheme.label()
    );
    // Mean period shifts by m. The shift is exact in the discrete
    // per-period model; in the event engine the longer periods sample the
    // harmonic at slightly different phases, leaving a sub-stage residual.
    let want = summary.mean_period + m as f64;
    let got = RunSummary::of(&run2).mean_period;
    assert!(
        (got - want).abs() < 0.5,
        "{}: mean period {got} vs predicted {want}",
        scheme.label(),
    );
}

/// Free-running RO: the margin is added as design length.
#[test]
fn design_length_shift_for_free_ro() {
    let c_req = 64i64;
    let nominal = SystemBuilder::new(c_req)
        .cdn_delay(c_req as f64)
        .scheme(Scheme::FreeRo { extra_length: 0 })
        .build()
        .expect("valid");
    let run = steady_run(&nominal, &hodv());
    let m = RunSummary::of(&run).required_margin().ceil() as i64;

    let shifted = SystemBuilder::new(c_req)
        .cdn_delay(c_req as f64)
        .scheme(Scheme::FreeRo { extra_length: m })
        .build()
        .expect("valid");
    let run2 = steady_run(&shifted, &hodv());
    let violations = run2
        .samples()
        .iter()
        .filter(|s| s.tau < c_req as f64)
        .count();
    assert_eq!(violations, 0, "margined free RO must be violation-free");
    // Same sampling-phase caveat as the set-point shift: sub-stage residual.
    let got = RunSummary::of(&run2).mean_period;
    let want = RunSummary::of(&run).mean_period + m as f64;
    assert!(
        (got - want).abs() < 0.5,
        "free RO mean period must shift by the margin (got {got}, want {want})"
    );
}

/// Fixed clock: the margined period is `c + m`, and running a fixed system
/// at that set-point is violation-free against the original requirement.
#[test]
fn fixed_period_shift() {
    let c_req = 64i64;
    let nominal = SystemBuilder::new(c_req)
        .cdn_delay(c_req as f64)
        .scheme(Scheme::Fixed)
        .build()
        .expect("valid");
    let run = steady_run(&nominal, &hodv());
    let needed = RunSummary::of(&run).needed_fixed_period().ceil() as i64;
    assert!(needed > c_req, "the fixed clock must need real margin");

    let shifted = SystemBuilder::new(needed)
        .cdn_delay(c_req as f64)
        .scheme(Scheme::Fixed)
        .build()
        .expect("valid");
    let run2 = steady_run(&shifted, &hodv());
    let violations = run2
        .samples()
        .iter()
        .filter(|s| s.tau < c_req as f64)
        .count();
    assert_eq!(violations, 0, "margined fixed clock must be violation-free");
}

/// The margin is tight: shaving 2 stages off the margined set-point must
/// reintroduce violations (otherwise the accounting overstates the cost).
#[test]
fn margin_is_tight_for_fixed_clock() {
    let c_req = 64i64;
    let nominal = SystemBuilder::new(c_req)
        .cdn_delay(c_req as f64)
        .scheme(Scheme::Fixed)
        .build()
        .expect("valid");
    let run = steady_run(&nominal, &hodv());
    let needed = RunSummary::of(&run).needed_fixed_period().ceil() as i64;

    let shaved = SystemBuilder::new(needed - 2)
        .cdn_delay(c_req as f64)
        .scheme(Scheme::Fixed)
        .build()
        .expect("valid");
    let run2 = steady_run(&shaved, &hodv());
    let violations = run2
        .samples()
        .iter()
        .filter(|s| s.tau < c_req as f64)
        .count();
    assert!(violations > 0, "under-margined fixed clock must violate");
}
