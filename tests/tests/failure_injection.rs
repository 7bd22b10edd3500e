//! Failure injection: the system must stay well-behaved (no panics, no
//! non-finite signals, bounded state) under abusive inputs — saturating
//! mismatches, absurd variation amplitudes, degenerate configurations.

use adaptive_clock::ro::RoBounds;
use adaptive_clock::system::{RunSummary, Scheme, SensorSpec, SystemBuilder};
use integration_tests::all_schemes;
use variation::sources::{ConstantOffset, Harmonic, Waveform};

/// A mismatch far beyond the RO bounds: the controller saturates at the
/// design maximum and the system keeps running with a persistent error,
/// rather than diverging.
#[test]
fn ro_length_saturates_at_design_bounds() {
    let c = 64i64;
    let system = SystemBuilder::new(c)
        .cdn_delay(c as f64)
        .scheme(Scheme::iir_paper())
        .ro_bounds(RoBounds { min: 32, max: 96 })
        .single_sensor_mu(-200.0) // would need l_RO = 264
        .build()
        .expect("valid");
    let run = system.run(&variation::sources::NoVariation, 3000);
    for s in run.samples() {
        assert!(
            s.lro <= 96.0,
            "RO length must respect max bound, got {}",
            s.lro
        );
        assert!(
            s.lro >= 32.0,
            "RO length must respect min bound, got {}",
            s.lro
        );
        assert!(s.tau.is_finite() && s.period.is_finite());
    }
    // the loop cannot close the gap; a persistent negative error remains
    let tail = run.skip(2500);
    assert!(
        RunSummary::of(&tail).worst_negative_error > 100.0,
        "saturated loop must report the uncovered mismatch"
    );
}

/// A variation so deep it would drive the period negative: the RO model
/// floors at one stage delay and time keeps advancing.
#[test]
fn period_floor_prevents_time_reversal() {
    let c = 8i64;
    let system = SystemBuilder::new(c)
        .cdn_delay(c as f64)
        .scheme(Scheme::FreeRo { extra_length: 0 })
        .build()
        .expect("valid");
    let crush = ConstantOffset::new(-1000.0);
    let run = system.run(&crush, 500);
    assert_eq!(run.len(), 500);
    let mut prev = f64::MIN;
    for s in run.samples() {
        assert!(s.period >= 1.0, "period {} fell below one stage", s.period);
        assert!(s.time > prev, "time must advance monotonically");
        prev = s.time;
    }
}

/// NaN-producing waveform: the period floor absorbs the NaN (max(1.0)
/// selects the finite operand), so the run completes with finite times.
#[test]
fn nan_waveform_does_not_poison_the_run() {
    struct EvilWave;
    impl Waveform for EvilWave {
        fn value(&self, t: f64) -> f64 {
            if (5000.0..5200.0).contains(&t) {
                f64::NAN
            } else {
                0.0
            }
        }
        fn amplitude_bound(&self) -> f64 {
            0.0
        }
    }
    let system = SystemBuilder::new(64)
        .cdn_delay(64.0)
        .scheme(Scheme::FreeRo { extra_length: 0 })
        .build()
        .expect("valid");
    let run = system.run(&EvilWave, 300);
    for s in run.samples() {
        assert!(s.time.is_finite(), "edge times must stay finite");
        assert!(s.period.is_finite(), "periods must stay finite");
    }
}

/// Sensor dropout modelled as one sensor reading absurdly low: the loop
/// follows the worst sensor into saturation but recovers the moment the
/// reading returns (step back at t = 100 000).
#[test]
fn loop_recovers_from_transient_sensor_glitch() {
    let c = 64i64;
    // glitch low between t=64k and t=128k stage units
    struct Glitch;
    impl Waveform for Glitch {
        fn value(&self, t: f64) -> f64 {
            if (64_000.0..128_000.0).contains(&t) {
                -40.0
            } else {
                0.0
            }
        }
        fn amplitude_bound(&self) -> f64 {
            40.0
        }
    }
    let system = SystemBuilder::new(c)
        .cdn_delay(c as f64)
        .scheme(Scheme::iir_paper())
        .sensors(vec![SensorSpec {
            offset: 0.0,
            dynamic: Some(std::sync::Arc::new(Glitch)),
            noise: None,
        }])
        .build()
        .expect("valid");
    let run = system.run(&variation::sources::NoVariation, 4000);
    // during the glitch the loop stretched the RO
    let mid: Vec<f64> = run
        .samples()
        .iter()
        .filter(|s| (70_000.0..120_000.0).contains(&s.time))
        .map(|s| s.lro)
        .collect();
    assert!(
        mid.iter().any(|&l| l > 95.0),
        "loop must chase the glitched sensor"
    );
    // well after recovery the loop is back at equilibrium
    let tail = run
        .samples()
        .iter()
        .filter(|s| s.time > 180_000.0)
        .collect::<Vec<_>>();
    assert!(!tail.is_empty(), "run must extend past recovery");
    for s in tail {
        assert!(
            (s.lro - c as f64).abs() <= 2.0,
            "post-glitch l_RO {} must return to ≈ c",
            s.lro
        );
    }
}

/// Degenerate configurations are rejected with typed errors, not panics.
#[test]
fn builder_rejects_degenerate_configs_for_every_scheme() {
    for scheme in all_schemes() {
        assert!(SystemBuilder::new(-3)
            .scheme(scheme.clone())
            .build()
            .is_err());
        assert!(SystemBuilder::new(64)
            .scheme(scheme.clone())
            .cdn_delay(f64::NAN)
            .build()
            .is_err());
        assert!(SystemBuilder::new(64)
            .scheme(scheme.clone())
            .sensors(vec![])
            .build()
            .is_err());
    }
}

/// Extreme but finite variation amplitudes: every scheme completes a run
/// with finite signals (the paper's model is additive, so nothing blows
/// up — the clock just gets slow).
#[test]
fn extreme_amplitudes_stay_finite_for_all_schemes() {
    let wild = Harmonic::new(500.0, 1000.0, 0.0);
    for scheme in all_schemes() {
        let system = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(scheme.clone())
            .build()
            .expect("valid");
        let run = system.run(&wild, 1000);
        assert!(!run.is_empty());
        for s in run.samples() {
            assert!(
                s.tau.is_finite() && s.period.is_finite() && s.lro.is_finite(),
                "{}: non-finite sample {s:?}",
                scheme.label()
            );
        }
    }
}
