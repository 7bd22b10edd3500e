//! End-to-end checks of the paper's headline claims, driven exclusively
//! through the public APIs (the way a downstream user would).

use adaptive_clock::system::Scheme;
use adaptive_clock::RunSummary;
use clock_metrics::worked::WorkedExample;
use integration_tests::{all_schemes, paper_system, steady_run};
use variation::sources::{Harmonic, SingleEvent};

/// §IV-A headline: under a slow HoDV, every adaptive system needs less
/// margin than a fixed clock; the relative adaptive period sits below 1.
#[test]
fn adaptive_clocks_reduce_safety_margin_under_slow_hodv() {
    let hodv = Harmonic::new(12.8, 64.0 * 50.0, 0.0);
    let fixed = steady_run(&paper_system(Scheme::Fixed, 0.0), &hodv);
    let fixed_needed = RunSummary::of(&fixed).needed_fixed_period();
    assert!(fixed_needed > 75.0, "fixed clock must pay the full 0.2c");
    for scheme in all_schemes() {
        if matches!(scheme, Scheme::Fixed) {
            continue;
        }
        let label = scheme.label();
        let run = steady_run(&paper_system(scheme, 0.0), &hodv);
        let ratio = RunSummary::of(&run).relative_to(&RunSummary::of(&fixed));
        assert!(
            ratio < 0.95,
            "{label}: relative adaptive period {ratio} must be well below 1"
        );
    }
}

/// §V conclusion: "the free running ring oscillator can not be used alone
/// as a source of adaptive clock" — under heterogeneous variation it keeps
/// a persistent error that the IIR loop cancels.
#[test]
fn free_ro_cannot_fight_heterogeneous_variation_iir_can() {
    let mu = -12.0;
    let quiet = variation::sources::NoVariation;
    let free = steady_run(
        &paper_system(Scheme::FreeRo { extra_length: 0 }, mu),
        &quiet,
    );
    let iir = steady_run(&paper_system(Scheme::iir_paper(), mu), &quiet);
    let m_free = RunSummary::of(&free).required_margin();
    let m_iir = RunSummary::of(&iir).required_margin();
    assert!(m_free >= 11.0, "free RO margin {m_free} must pay ≈ |μ|");
    assert!(
        m_iir <= 1.0,
        "IIR margin {m_iir} must be ≈ 0 after compensation"
    );
}

/// §II-A.2: single-event droop — no adaptive benefit once the CDN delay
/// exceeds half the event duration (Eq. 3 saturation).
#[test]
fn droop_benefit_vanishes_beyond_half_duration() {
    // Tν = 20c so the loop's intrinsic ~1-period measurement skew is small
    // relative to the droop (Eq. 3 is stated for the CDN delay alone).
    let c = 64.0;
    let droop = SingleEvent::new(12.8, 20.0 * c, 200.0 * c);
    let short_sys = adaptive_clock::system::SystemBuilder::new(64)
        .cdn_delay(0.5 * c) // t_clk = Tν/40
        .scheme(Scheme::FreeRo { extra_length: 0 })
        .build()
        .expect("valid");
    let long_sys = adaptive_clock::system::SystemBuilder::new(64)
        .cdn_delay(16.0 * c) // t_clk = 0.8·Tν > Tν/2
        .scheme(Scheme::FreeRo { extra_length: 0 })
        .build()
        .expect("valid");
    let fixed_sys = adaptive_clock::system::SystemBuilder::new(64)
        .scheme(Scheme::Fixed)
        .build()
        .expect("valid");
    let short = short_sys.run(&droop, 20_000).skip(100);
    let long = long_sys.run(&droop, 20_000).skip(100);
    let fixed = fixed_sys.run(&droop, 20_000).skip(100);
    let m_short = RunSummary::of(&short).required_margin();
    let m_long = RunSummary::of(&long).required_margin();
    let m_fixed = RunSummary::of(&fixed).required_margin();
    assert!(
        m_short < 0.35 * m_fixed,
        "short CDN must attenuate the droop: {m_short} vs fixed {m_fixed}"
    );
    assert!(
        m_long > 0.9 * m_fixed,
        "long CDN must see ≈ the full droop: {m_long} vs fixed {m_fixed}"
    );
}

/// §IV worked examples: the arithmetic the paper closes §IV with.
#[test]
fn worked_examples_reproduce_60_and_70_percent() {
    let a = WorkedExample::hodv_paper().compute();
    assert_eq!(a.margined_setpoint, 77);
    assert!((a.sm_reduction_pct - 60.0).abs() < 1e-9);
    let b = WorkedExample::hedv_paper().compute();
    assert_eq!(b.margined_setpoint, 90);
    assert!((b.sm_reduction_pct - 70.0).abs() < 1e-9);
}

/// §IV-A (Fig. 7 narration): the adaptation error shrinks monotonically
/// across the paper's three perturbation periods for the IIR RO.
#[test]
fn iir_margin_monotone_in_perturbation_period() {
    let mut margins = Vec::new();
    for te in [25.0, 37.5, 50.0] {
        let hodv = Harmonic::new(12.8, 64.0 * te, 0.0);
        let run = steady_run(&paper_system(Scheme::iir_paper(), 0.0), &hodv);
        margins.push(RunSummary::of(&run).required_margin());
    }
    assert!(
        margins[0] >= margins[1] && margins[1] >= margins[2],
        "margins must not grow as Te grows: {margins:?}"
    );
    assert!(
        margins[2] < margins[0],
        "Te=50c must strictly beat Te=25c: {margins:?}"
    );
}

/// The paper's Eq. (8) design rule is not vacuous: an IIR violating it
/// fails to cancel a static mismatch (nonzero steady-state error), while
/// the compliant filter succeeds. Verified in the z-domain — the integer
/// implementation refuses to construct the invalid filter at all.
#[test]
fn eq10_violation_leaves_steady_state_error() {
    use zdomain::{closedloop, Polynomial, TransferFunction};
    // A "leaky" variant: D(1) != 0 (taps sum 4 but constant 5 ≠ 1/k*·…).
    let leaky = TransferFunction::new(
        Polynomial::delay(1),
        Polynomial::new(vec![5.0, -2.0, -1.0, -0.5, -0.25, -0.125, -0.125]),
    )
    .expect("causal");
    assert!(!closedloop::satisfies_constraints(&leaky));
    let err = closedloop::steady_state_error(&leaky, 1, 1.0, 0.0, 0.0).expect("stable");
    assert!(
        err.abs() > 0.1,
        "violating Eq. (8) must leave residual error, got {err}"
    );
    // The compliant paper filter: zero residual.
    let good = zdomain::iir_paper_filter();
    let err = closedloop::steady_state_error(&good, 1, 1.0, 0.0, 0.0).expect("stable");
    assert!(err.abs() < 1e-9);
    // And the integer control block rejects the violating gains outright.
    let bad_cfg = adaptive_clock::controller::IirConfig {
        kexp_exp: 3,
        k_star_exp: -1,
        tap_exps: vec![1, 0, -1, -2, -3, -3],
    };
    assert!(adaptive_clock::controller::IntIirControl::new(bad_cfg, 64).is_err());
}
