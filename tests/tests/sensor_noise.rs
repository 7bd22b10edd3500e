//! Sensor-noise rejection ablation: TDC measurement noise feeds straight
//! into the control error, so the control block's filtering matters. The
//! paper's IIR (a low-pass with DC-unity loop) averages the noise away;
//! TEAtime chases the sign of every noisy reading and random-walks.

use adaptive_clock::system::{RunSummary, Scheme, SensorSpec, SystemBuilder};
use clock_metrics::Summary;
use variation::sources::NoVariation;

fn lro_std(scheme: Scheme, sigma: f64) -> f64 {
    let system = SystemBuilder::new(64)
        .cdn_delay(64.0)
        .scheme(scheme)
        .sensors(vec![SensorSpec::ideal().with_noise(sigma, 2024)])
        .build()
        .expect("valid");
    let run = system.run(&NoVariation, 8000).skip(2000);
    let lro: Vec<f64> = run.samples().iter().map(|s| s.lro).collect();
    Summary::of(&lro).expect("non-empty").std
}

/// Under pure measurement noise (quiet die), the IIR keeps the RO length
/// markedly steadier than TEAtime.
#[test]
fn iir_rejects_sensor_noise_better_than_teatime() {
    let sigma = 2.0;
    let iir = lro_std(Scheme::iir_paper(), sigma);
    let tea = lro_std(Scheme::TeaTime, sigma);
    assert!(
        iir < 0.7 * tea,
        "IIR l_RO std {iir} should be well below TEAtime's {tea}"
    );
}

/// The induced period wobble grows with the noise level for both loops,
/// and vanishes when the noise does.
#[test]
fn noise_response_scales_with_sigma() {
    for scheme in [Scheme::iir_paper(), Scheme::TeaTime] {
        let s0 = lro_std(scheme.clone(), 0.0);
        let s1 = lro_std(scheme.clone(), 1.0);
        let s3 = lro_std(scheme.clone(), 3.0);
        assert!(
            s1 > s0,
            "{}: noise must perturb the loop ({s0} -> {s1})",
            scheme.label()
        );
        assert!(
            s3 > s1,
            "{}: more noise, more wobble ({s1} -> {s3})",
            scheme.label()
        );
    }
    // TEAtime's noiseless baseline is its quiescent hold (zero wander).
    assert!(lro_std(Scheme::TeaTime, 0.0) < 1e-9);
}

/// The free-running RO ignores its sensors entirely, so sensor noise
/// cannot move it — the degenerate but important control case.
#[test]
fn free_ro_is_immune_to_sensor_noise() {
    let std = lro_std(Scheme::FreeRo { extra_length: 0 }, 4.0);
    assert_eq!(std, 0.0);
}

/// Mean period stays pinned at the set-point under zero-mean noise: noise
/// must not bias the loop (the integer floor is the only asymmetry, worth
/// a fraction of a stage).
#[test]
fn zero_mean_noise_does_not_bias_the_period() {
    for scheme in [Scheme::iir_paper(), Scheme::TeaTime] {
        let system = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(scheme.clone())
            .sensors(vec![SensorSpec::ideal().with_noise(2.0, 99)])
            .build()
            .expect("valid");
        let run = system.run(&NoVariation, 8000).skip(2000);
        let mean = RunSummary::of(&run).mean_period;
        assert!(
            (mean - 64.0).abs() < 1.5,
            "{}: mean period {mean} drifted",
            scheme.label()
        );
    }
}
