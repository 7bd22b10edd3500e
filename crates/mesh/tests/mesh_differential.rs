//! Differential proptest suite pinning the mesh engine to the scalar
//! `DiscreteLoop`: a one-domain mesh with no links must be
//! **bit-identical** to the scalar loop for arbitrary schemes, CDN
//! depths, quantizations, fault schedules, resilience configs, static
//! variation, and global power events. This is the refactor guard for
//! the `DomainBank` strategy model — any drift between the bank runner
//! and the original scalar arithmetic fails here first.

use adaptive_clock::batch::BatchTrace;
use adaptive_clock::controller::{
    Controller, FloatIir, FreeRunning, IirConfig, IntIirControl, TeaTime,
};
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use clock_faults::{FaultClass, FaultSchedule};
use clock_mesh::{Mesh, Scenario, Topology};

use proptest::prelude::*;

const STEPS: usize = 500;
const SETPOINT: i64 = 64;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct DomainSpec {
    m: usize,
    quant: Quantization,
    scheme: usize,
    faults: FaultSchedule,
    resilience: Resilience,
    variation: f64,
}

impl DomainSpec {
    fn derive(seed: u64) -> DomainSpec {
        let mut s = seed;
        let mix = splitmix(&mut s);
        let scheme = (mix % 4) as usize;
        let m = ((mix >> 8) % 3) as usize;
        let quant = match (mix >> 16) % 3 {
            0 => Quantization::Floor,
            1 => Quantization::Nearest,
            _ => Quantization::None,
        };
        let faults = if (mix >> 24) & 1 == 1 {
            let class = FaultClass::ALL[((mix >> 32) % FaultClass::ALL.len() as u64) as usize];
            FaultSchedule::random(splitmix(&mut s), class, 30.0, STEPS as u64, 3)
        } else {
            FaultSchedule::default()
        };
        let resilience = if (mix >> 40) & 1 == 1 {
            Resilience::hardened(SETPOINT as f64)
        } else {
            Resilience::default()
        };
        let variation = ((mix >> 48) % 13) as f64 - 6.0;
        DomainSpec {
            m,
            quant,
            scheme,
            faults,
            resilience,
            variation,
        }
    }

    fn controller(&self) -> Controller {
        let cfg = IirConfig::paper();
        match self.scheme {
            0 => IntIirControl::new(cfg, SETPOINT)
                .expect("paper config")
                .into(),
            1 => FloatIir::from_config(&cfg, SETPOINT as f64)
                .expect("paper config")
                .into(),
            2 => TeaTime::new(SETPOINT).into(),
            _ => FreeRunning::new(SETPOINT).into(),
        }
    }
}

/// Run the spec through a one-domain, zero-link mesh under `scenario`.
fn run_mesh(spec: &DomainSpec, scenario: &Scenario) -> clock_mesh::MeshRun {
    let mut bank = adaptive_clock::bank::DomainBank::new();
    bank.push_with(
        spec.m,
        spec.controller(),
        spec.quant,
        spec.faults.clone(),
        spec.resilience,
    );
    bank.set_variation(0, spec.variation);
    let mut mesh = Mesh::new(bank, Topology::new(1), SETPOINT as f64).unwrap();
    mesh.run(scenario, STEPS)
}

/// Run the spec through the scalar `DiscreteLoop` with equivalent inputs.
fn run_twin(spec: &DomainSpec, e: &dyn Fn(i64) -> f64) -> BatchTrace {
    let sp = constant(SETPOINT as f64);
    let mu = constant(spec.variation);
    DiscreteLoop::new(spec.m, spec.controller(), spec.quant)
        .with_faults(spec.faults.clone())
        .with_resilience(spec.resilience)
        .run(
            &LoopInputs {
                setpoint: &sp,
                homogeneous: e,
                heterogeneous: &mu,
            },
            STEPS,
        )
}

fn assert_bits(run: &clock_mesh::MeshRun, twin: &BatchTrace) {
    let out = &run.domains[0].trace;
    for n in 0..STEPS {
        assert_eq!(
            out.tau[n].to_bits(),
            twin.tau[n].to_bits(),
            "tau[{n}]: {} vs {}",
            out.tau[n],
            twin.tau[n]
        );
        assert_eq!(
            out.delta[n].to_bits(),
            twin.delta[n].to_bits(),
            "delta[{n}]"
        );
        assert_eq!(out.lro[n].to_bits(), twin.lro[n].to_bits(), "lro[{n}]");
    }
}

proptest! {
    /// Nominal scenario: a one-domain mesh is the scalar loop, bit for
    /// bit, faults and hardening included.
    #[test]
    fn one_domain_mesh_bit_identical_to_discrete_loop(seed in 0u64..u64::MAX) {
        let spec = DomainSpec::derive(seed);
        let run = run_mesh(&spec, &Scenario::Nominal);
        let twin = run_twin(&spec, &constant(0.0));
        assert_bits(&run, &twin);
    }

    /// Power-event scenario: the mesh's global droop is exactly a
    /// homogeneous-variation window on the scalar loop.
    #[test]
    fn one_domain_power_event_matches_homogeneous_window(
        seed in 0u64..u64::MAX,
        at in 0u64..300,
        droop_q in 1u32..40,
        duration in 1u64..200,
    ) {
        let spec = DomainSpec::derive(seed);
        let droop = f64::from(droop_q) / 2.0;
        let scen = Scenario::PowerEvent { at, droop, duration };
        let run = run_mesh(&spec, &scen);
        let e = move |i: i64| -> f64 {
            if i >= at as i64 && i < (at + duration) as i64 { -droop } else { 0.0 }
        };
        let twin = run_twin(&spec, &e);
        assert_bits(&run, &twin);
    }
}

/// The acceptance scenario, pinned deterministically: a Byzantine
/// neighbour in a hardened-IIR ring is quarantined while every healthy
/// domain re-locks, and two independent runs reproduce the outcome bit
/// for bit.
#[test]
fn byzantine_ring_reproduces_bit_for_bit() {
    let build = || {
        let mut bank = adaptive_clock::bank::DomainBank::new();
        for d in 0..8 {
            bank.push_with(
                1,
                IntIirControl::new(IirConfig::paper(), SETPOINT).unwrap(),
                Quantization::Floor,
                FaultSchedule::default(),
                Resilience::hardened(SETPOINT as f64),
            );
            bank.set_variation(d, [0.0, 1.5, -2.0, 0.5][d % 4]);
        }
        let cdn = adaptive_clock::cdn::Cdn::new(SETPOINT as f64).unwrap();
        Mesh::new(bank, Topology::ring(8, cdn), SETPOINT as f64).unwrap()
    };
    let scen = Scenario::Byzantine {
        domain: 3,
        at: 120,
        seed: 0x0F47_A1E5,
    };
    let a = build().run(&scen, 2000);
    let b = build().run(&scen, 2000);
    assert!(a.is_contained(3), "Byzantine domain must be quarantined");
    for (d, out) in a.domains.iter().enumerate() {
        if d != 3 {
            assert!(!out.report.unresolved, "healthy domain {d} must re-lock");
        }
    }
    assert_eq!(a.boundary_violations, b.boundary_violations);
    assert_eq!(a.quarantined_links(), b.quarantined_links());
    for d in 0..8 {
        for n in 0..2000 {
            assert_eq!(
                a.domains[d].trace.tau[n].to_bits(),
                b.domains[d].trace.tau[n].to_bits(),
                "domain {d} tau[{n}]"
            );
        }
    }
}
