//! Ablation benches for the design choices DESIGN.md calls out: IIR
//! coefficient sets (adaptation speed vs ripple), TDC quantization modes,
//! and sensor-bank size. Each prints its quality metrics once, then times
//! the underlying run so regressions in simulation cost are also visible.

use adaptive_clock::controller::IirConfig;
use adaptive_clock::system::{RunSummary, Scheme, SensorSpec, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use variation::sources::Harmonic;

fn coefficient_sets() -> Vec<(&'static str, IirConfig)> {
    vec![
        ("paper-6tap", IirConfig::paper()),
        (
            "aggressive-1tap",
            IirConfig {
                kexp_exp: 3,
                k_star_exp: -2,
                tap_exps: vec![2],
            },
        ),
        (
            "sluggish-8tap",
            IirConfig {
                kexp_exp: 3,
                k_star_exp: -3,
                tap_exps: vec![0; 8],
            },
        ),
    ]
}

fn bench_iir_coefficients(c: &mut Criterion) {
    let hodv = Harmonic::new(12.8, 64.0 * 25.0, 0.0);
    let mut g = c.benchmark_group("ablation-iir-coefficients");
    g.sample_size(10);
    for (name, cfg) in coefficient_sets() {
        let system = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(Scheme::Iir(cfg))
            .build()
            .expect("valid config");
        let run = RunSummary::of(&system.run(&hodv, 6000).skip(2000));
        println!(
            "[ablation/iir] {name}: margin {:.2} stages, mean period {:.2}",
            run.worst_negative_error, run.mean_period
        );
        g.bench_function(BenchmarkId::new("6k-periods", name), |b| {
            b.iter(|| black_box(system.run(&hodv, 6000)))
        });
    }
    g.finish();
}

fn bench_quantization(c: &mut Criterion) {
    let hodv = Harmonic::new(12.8, 64.0 * 37.5, 0.0);
    let mut g = c.benchmark_group("ablation-quantization");
    g.sample_size(10);
    for (name, q) in [
        ("floor", Quantization::Floor),
        ("nearest", Quantization::Nearest),
        ("none", Quantization::None),
    ] {
        let system = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(Scheme::iir_paper())
            .quantization(q)
            .build()
            .expect("valid config");
        let run = RunSummary::of(&system.run(&hodv, 6000).skip(2000));
        println!(
            "[ablation/quantization] {name}: margin {:.2} stages",
            run.worst_negative_error
        );
        g.bench_function(BenchmarkId::new("6k-periods", name), |b| {
            b.iter(|| black_box(system.run(&hodv, 6000)))
        });
    }
    g.finish();
}

fn bench_sensor_count(c: &mut Criterion) {
    let hodv = Harmonic::new(12.8, 64.0 * 37.5, 0.0);
    let mut g = c.benchmark_group("ablation-sensor-count");
    g.sample_size(10);
    for n in [1usize, 4, 16, 64] {
        let sensors: Vec<SensorSpec> = (0..n)
            .map(|i| SensorSpec::offset(-(i as f64) * 8.0 / n.max(1) as f64))
            .collect();
        let system = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(Scheme::iir_paper())
            .sensors(sensors)
            .build()
            .expect("valid config");
        let run = RunSummary::of(&system.run(&hodv, 4000).skip(1000));
        println!(
            "[ablation/sensors] n={n}: margin {:.2} stages, mean period {:.2}",
            run.worst_negative_error, run.mean_period
        );
        g.throughput(Throughput::Elements(4000));
        g.bench_function(BenchmarkId::new("4k-periods", n), |b| {
            b.iter(|| black_box(system.run(&hodv, 4000)))
        });
    }
    g.finish();
}

fn bench_jitter(c: &mut Criterion) {
    let hodv = Harmonic::new(12.8, 64.0 * 50.0, 0.0);
    let mut g = c.benchmark_group("ablation-jitter");
    g.sample_size(10);
    for sigma in [0.0f64, 0.5, 1.0, 2.0] {
        let mut builder = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(Scheme::iir_paper());
        if sigma > 0.0 {
            builder = builder.jitter(sigma, 4242);
        }
        let system = builder.build().expect("valid config");
        let run = RunSummary::of(&system.run(&hodv, 6000).skip(2000));
        println!(
            "[ablation/jitter] σ={sigma}: margin {:.2} stages (unpredictable floor no loop reclaims)",
            run.worst_negative_error
        );
        g.bench_function(
            BenchmarkId::new("6k-periods", format!("sigma{sigma}")),
            |b| b.iter(|| black_box(system.run(&hodv, 6000))),
        );
    }
    g.finish();
}

criterion_group!(
    ablation,
    bench_iir_coefficients,
    bench_quantization,
    bench_sensor_count,
    bench_jitter
);
criterion_main!(ablation);
