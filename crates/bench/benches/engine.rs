//! Microbenchmarks of the simulation substrates.

use adaptive_clock::controller::{FloatIir, IirConfig, IntIirControl, TeaTime};
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::system::{Scheme, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtsim::blocks::{Constant, Probe, Sum, UnitDelay};
use dtsim::GraphBuilder;
use std::hint::black_box;
use variation::sources::Harmonic;
use zdomain::{jury_stable, polynomial_roots, Polynomial};

fn bench_event_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("event-loop");
    let n = 10_000usize;
    g.throughput(Throughput::Elements(n as u64));
    for scheme in [
        Scheme::iir_paper(),
        Scheme::TeaTime,
        Scheme::FreeRo { extra_length: 0 },
        Scheme::Fixed,
    ] {
        let system = SystemBuilder::new(64)
            .cdn_delay(64.0)
            .scheme(scheme.clone())
            .build()
            .expect("valid config");
        let hodv = Harmonic::new(12.8, 64.0 * 37.5, 0.0);
        g.bench_function(BenchmarkId::new("10k-periods", scheme.label()), |b| {
            b.iter(|| black_box(system.run(&hodv, n)))
        });
    }
    g.finish();
}

fn bench_discrete_loop(c: &mut Criterion) {
    let n = 10_000usize;
    let mut g = c.benchmark_group("discrete-loop");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("int-iir-10k", |b| {
        b.iter(|| {
            let ctrl = IntIirControl::new(IirConfig::paper(), 64).expect("paper config");
            let mut dl = DiscreteLoop::new(1, ctrl, Quantization::Floor);
            let cs = constant(64.0);
            let zero = constant(0.0);
            let e = |k: i64| 12.8 * (k as f64 * 0.01).sin();
            black_box(dl.run(
                &LoopInputs {
                    setpoint: &cs,
                    homogeneous: &e,
                    heterogeneous: &zero,
                },
                n,
            ))
        })
    });
    g.finish();
}

fn bench_dtsim_graph(c: &mut Criterion) {
    // accumulator loop: sum + delay + probe
    let n = 10_000u64;
    let mut g = c.benchmark_group("dtsim");
    g.throughput(Throughput::Elements(n));
    g.bench_function("acc-loop-10k-steps", |b| {
        b.iter(|| {
            let mut gb = GraphBuilder::new();
            let one = gb.add(Constant::new("one", 1.0));
            let sum = gb.add(Sum::new("sum", "++"));
            let dly = gb.add(UnitDelay::new("dly", 0.0));
            let p = gb.add(Probe::new("p"));
            gb.connect(one, 0, sum, 0).expect("wiring");
            gb.connect(dly, 0, sum, 1).expect("wiring");
            gb.connect(sum, 0, dly, 0).expect("wiring");
            gb.connect(dly, 0, p, 0).expect("wiring");
            let mut sim = gb.build().expect("valid graph");
            sim.run(n).expect("clean run");
            black_box(sim.trace("p").map(|t| t.len()))
        })
    });
    g.finish();
}

fn bench_controllers(c: &mut Criterion) {
    let mut g = c.benchmark_group("controller-step");
    g.throughput(Throughput::Elements(1));
    g.bench_function("int-iir", |b| {
        let mut ctrl = IntIirControl::new(IirConfig::paper(), 64).expect("paper config");
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 1) % 7;
            black_box(ctrl.step((k - 3) as f64))
        })
    });
    g.bench_function("float-iir", |b| {
        let mut ctrl = FloatIir::from_config(&IirConfig::paper(), 64.0).expect("paper config");
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 1) % 7;
            black_box(ctrl.step((k - 3) as f64))
        })
    });
    g.bench_function("teatime", |b| {
        let mut ctrl = TeaTime::new(64);
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 1) % 7;
            black_box(ctrl.step((k - 3) as f64))
        })
    });
    g.finish();
}

fn bench_zdomain(c: &mut Criterion) {
    let char_poly = zdomain::closedloop::characteristic_polynomial(&zdomain::iir_paper_filter(), 4);
    let coeffs: Vec<f64> = char_poly.coeffs().iter().rev().copied().collect();
    let mut g = c.benchmark_group("zdomain");
    g.bench_function("roots-deg12", |b| {
        b.iter(|| black_box(polynomial_roots(&coeffs)))
    });
    g.bench_function("jury-deg12", |b| {
        b.iter(|| black_box(jury_stable(&char_poly)))
    });
    g.bench_function("poly-mul-deg32", |b| {
        let p = Polynomial::new((0..33).map(|k| 1.0 / (k + 1) as f64).collect());
        b.iter(|| black_box(p.mul(&p)))
    });
    g.finish();
}

criterion_group!(
    engine,
    bench_event_loop,
    bench_discrete_loop,
    bench_dtsim_graph,
    bench_controllers,
    bench_zdomain
);
criterion_main!(engine);
