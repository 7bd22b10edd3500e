//! Ablation of the paper's additive variation model against the physically
//! grounded multiplicative one (stage delays scale by `1 + e/c_ref`).
//!
//! The paper models variations additively (its Fig. 4 injects `e` as a
//! plain summand). These tests quantify what that approximation costs: at
//! the paper's 20 % amplitudes and with the RO near the reference length,
//! nothing that changes any conclusion.

use adaptive_clock::ro::Coupling;
use adaptive_clock::system::{Scheme, SystemBuilder};
use adaptive_clock::RunSummary;
use variation::sources::Harmonic;

fn margin_with(coupling: Coupling, scheme: Scheme, te_over_c: f64) -> f64 {
    let c = 64i64;
    let hodv = Harmonic::new(0.2 * c as f64, te_over_c * c as f64, 0.0);
    let run = SystemBuilder::new(c)
        .cdn_delay(c as f64)
        .scheme(scheme)
        .coupling(coupling)
        .build()
        .expect("valid")
        .run(&hodv, 6000)
        .skip(1000);
    RunSummary::of(&run).required_margin()
}

/// The two couplings agree to within about a stage for the loop-controlled
/// schemes, whose RO hovers near the reference length.
#[test]
fn couplings_agree_for_controlled_schemes() {
    for scheme in [Scheme::iir_paper(), Scheme::TeaTime] {
        for te in [25.0, 50.0] {
            let add = margin_with(Coupling::Additive, scheme.clone(), te);
            let mul = margin_with(Coupling::Multiplicative { c_ref: 64 }, scheme.clone(), te);
            assert!(
                (add - mul).abs() <= 1.5,
                "{} Te={te}c: additive {add} vs multiplicative {mul}",
                scheme.label()
            );
        }
    }
}

/// The free RO (fixed length = reference length) agrees even closer: the
/// couplings coincide exactly at `l_RO = c_ref`, so only quantization
/// differs.
#[test]
fn couplings_coincide_for_free_ro_at_reference_length() {
    let add = margin_with(Coupling::Additive, Scheme::FreeRo { extra_length: 0 }, 37.5);
    let mul = margin_with(
        Coupling::Multiplicative { c_ref: 64 },
        Scheme::FreeRo { extra_length: 0 },
        37.5,
    );
    assert!(
        (add - mul).abs() <= 1.0,
        "free RO: additive {add} vs multiplicative {mul}"
    );
}

/// Under multiplicative coupling the common-mode cancellation is exact in
/// a quiet-but-offset world: a constant slowdown is invisible to the loop.
#[test]
fn multiplicative_static_slowdown_is_invisible() {
    let c = 64i64;
    let slow = variation::sources::ConstantOffset::new(12.8); // +20% everywhere
    let run = SystemBuilder::new(c)
        .cdn_delay(c as f64)
        .scheme(Scheme::iir_paper())
        .coupling(Coupling::Multiplicative { c_ref: 64 })
        .build()
        .expect("valid")
        .run(&slow, 2000)
        .skip(200);
    // No timing error beyond quantization: the RO slows with the logic.
    assert!(
        RunSummary::of(&run).worst_negative_error <= 1.0,
        "margin {}",
        RunSummary::of(&run).worst_negative_error
    );
    // But the period is genuinely 20% longer — the clock adapted.
    assert!(
        (RunSummary::of(&run).mean_period - 76.8).abs() < 1.0,
        "mean period {}",
        RunSummary::of(&run).mean_period
    );
}

/// Where the couplings genuinely diverge: a compensated mismatch pushes
/// the RO away from the reference length, and the multiplicative model
/// then scales the variation with the longer chain. The divergence stays
/// second-order (≲ `|μ|/c_ref · amplitude`).
#[test]
fn divergence_bounded_when_ro_leaves_reference_length() {
    let c = 64i64;
    let mu = -12.0; // pushes l_RO to ≈ 76
    let hodv = Harmonic::new(0.2 * c as f64, 50.0 * c as f64, 0.0);
    let margin_of = |coupling: Coupling| {
        let run = SystemBuilder::new(c)
            .cdn_delay(c as f64)
            .scheme(Scheme::iir_paper())
            .coupling(coupling)
            .single_sensor_mu(mu)
            .build()
            .expect("valid")
            .run(&hodv, 6000)
            .skip(1500);
        RunSummary::of(&run).required_margin()
    };
    let add = margin_of(Coupling::Additive);
    let mul = margin_of(Coupling::Multiplicative { c_ref: 64 });
    // second-order bound: (12/64)·12.8 ≈ 2.4 stages of slack plus a stage
    // of quantization
    assert!(
        (add - mul).abs() <= 3.5,
        "additive {add} vs multiplicative {mul}"
    );
}
