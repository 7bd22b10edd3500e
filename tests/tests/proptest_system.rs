//! Property-based integration tests over the full system API.

use adaptive_clock::system::{Scheme, SensorSpec, SystemBuilder};
use adaptive_clock::RunSummary;
use proptest::prelude::*;
use variation::sources::{Harmonic, NoVariation};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The IIR loop cancels any static mismatch within the RO's authority:
    /// post-transient margin ≈ 0 regardless of μ.
    #[test]
    fn iir_cancels_any_static_mismatch(mu in -12.0f64..12.0) {
        let system = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(Scheme::iir_paper())
            .single_sensor_mu(mu)
            .build()
            .expect("valid");
        let run = system.run(&NoVariation, 2500).skip(2000);
        prop_assert!(
            RunSummary::of(&run).required_margin() <= 1.0,
            "μ={mu}: residual margin {}",
            RunSummary::of(&run).required_margin()
        );
    }

    /// Relative adaptive period is invariant under exchanging μ's sign for
    /// the fixed clock baseline denominator... weaker but robust: the
    /// fixed clock's needed period is exactly c + max(e) − μ (within
    /// quantization), for any phase of the harmonic.
    #[test]
    fn fixed_clock_needed_period_is_analytic(
        mu in -10.0f64..10.0,
        phase in 0.0f64..std::f64::consts::TAU,
        te_over_c in 20.0f64..80.0,
    ) {
        let c = 64.0;
        let hodv = Harmonic::new(12.8, te_over_c * c, phase);
        let system = SystemBuilder::new(64)
            .scheme(Scheme::Fixed)
            .single_sensor_mu(mu)
            .build()
            .expect("valid");
        let run = system.run(&hodv, 8000).skip(1000);
        let needed = RunSummary::of(&run).needed_fixed_period();
        let analytic = c + 12.8 - mu;
        prop_assert!(
            (needed - analytic).abs() <= 1.2,
            "needed {needed} vs analytic {analytic}"
        );
    }

    /// Adding a sensor can only increase (never decrease) the margin a
    /// free-running RO needs: the worst-of-N reading is monotone in the
    /// sensor set.
    #[test]
    fn free_ro_margin_monotone_in_sensors(
        offs in proptest::collection::vec(-8.0f64..8.0, 1..6),
        extra in -8.0f64..8.0,
    ) {
        let hodv = Harmonic::new(6.4, 64.0 * 40.0, 0.0);
        let margin_for = |offsets: &[f64]| -> f64 {
            let sensors: Vec<SensorSpec> =
                offsets.iter().map(|&o| SensorSpec::offset(o)).collect();
            let system = SystemBuilder::new(64)
                .cdn_delay(64.0)
                .scheme(Scheme::FreeRo { extra_length: 0 })
                .sensors(sensors)
                .build()
                .expect("valid");
            RunSummary::of(&system.run(&hodv, 4000).skip(500)).required_margin()
        };
        let base = margin_for(&offs);
        let mut bigger = offs.clone();
        bigger.push(extra);
        let grown = margin_for(&bigger);
        prop_assert!(
            grown + 1e-9 >= base,
            "adding a sensor shrank the margin: {base} -> {grown}"
        );
    }

    /// Runs are deterministic: identical configurations and waveforms give
    /// identical traces (no hidden global state anywhere in the tower).
    #[test]
    fn runs_are_pure_functions_of_config(
        mu in -5.0f64..5.0,
        te_over_c in 10.0f64..60.0,
        scheme_idx in 0usize..3,
    ) {
        let scheme = match scheme_idx {
            0 => Scheme::iir_paper(),
            1 => Scheme::TeaTime,
            _ => Scheme::FreeRo { extra_length: 2 },
        };
        let hodv = Harmonic::new(12.8, te_over_c * 64.0, 0.0);
        let build = || SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(scheme.clone())
            .single_sensor_mu(mu)
            .build()
            .expect("valid");
        let a = build().run(&hodv, 600);
        let b = build().run(&hodv, 600);
        prop_assert_eq!(a, b);
    }
}
