//! Engine-level property tests over randomly generated block diagrams:
//! whatever the topology, the engine must be deterministic, reset-clean,
//! and loop-safe.

use dtsim::blocks::{Constant, DelayN, FunctionSource, Gain, Probe, StatefulFnBlock, Sum};
use dtsim::{BlockId, GraphBuilder, Simulation};
use proptest::prelude::*;

/// A recipe for one randomly generated, always-valid diagram: a chain of
/// stages, each either combinational (gain/offset/saturate) or a delay,
/// with optional delayed feedback taps from later stages to earlier sums.
#[derive(Debug, Clone)]
struct Recipe {
    stages: Vec<Stage>,
    feedback: Option<(usize, f64)>,
}

#[derive(Debug, Clone)]
enum Stage {
    Gain(f64),
    Offset(f64),
    Saturate(f64),
    Delay(usize),
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (-2.0f64..2.0).prop_map(Stage::Gain),
        (-3.0f64..3.0).prop_map(Stage::Offset),
        (0.5f64..4.0).prop_map(Stage::Saturate),
        (1usize..4).prop_map(Stage::Delay),
    ]
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec(stage_strategy(), 1..8),
        proptest::option::of((1usize..4, -0.5f64..0.5)),
    )
        .prop_map(|(stages, feedback)| Recipe { stages, feedback })
}

/// `u + o`: a two-input sum fed by a constant.
fn offset(g: &mut GraphBuilder, name: &str, o: f64) -> BlockId {
    let k = g.add(Constant::new(format!("{name}_k"), o));
    let sum = g.add(Sum::new(name, "++"));
    g.connect(k, 0, sum, 1).unwrap();
    sum
}

/// `clamp(u, lo, hi)`: a stateless feedthrough block.
fn saturate(g: &mut GraphBuilder, name: &str, lo: f64, hi: f64) -> BlockId {
    g.add(StatefulFnBlock::new(
        name,
        1,
        1,
        true,
        (),
        move |_, i, o| o[0] = i[0].clamp(lo, hi),
        |_, _| {},
    ))
}

/// Build the diagram described by a recipe. Returns a simulation with a
/// probe named `out`.
fn build(recipe: &Recipe) -> Simulation {
    let mut g = GraphBuilder::new();
    let src = g.add(FunctionSource::new("src", |t| (t * 0.37).sin() * 2.0));
    // Entry sum lets feedback join the signal path. The feedback branch is
    // always behind a delay, so no algebraic loop can form.
    let entry = g.add(Sum::new("entry", "++"));
    g.connect(src, 0, entry, 0).unwrap();
    let mut prev = entry;
    let mut last_block = entry;
    for (i, stage) in recipe.stages.iter().enumerate() {
        let b = match stage {
            Stage::Gain(k) => g.add(Gain::new(format!("g{i}"), *k)),
            Stage::Offset(o) => offset(&mut g, &format!("o{i}"), *o),
            Stage::Saturate(s) => saturate(&mut g, &format!("s{i}"), -s, *s),
            Stage::Delay(d) => g.add(DelayN::new(format!("d{i}"), *d, 0.0)),
        };
        g.connect(prev, 0, b, 0).unwrap();
        prev = b;
        last_block = b;
    }
    // Feedback tap (bounded gain keeps trajectories finite within the
    // tested horizon even when the small-gain condition is not strict).
    match recipe.feedback {
        Some((delay, gain)) => {
            let fb_gain = g.add(Gain::new("fb_gain", gain));
            let fb_delay = g.add(DelayN::new("fb_delay", delay, 0.0));
            let sat = saturate(&mut g, "fb_sat", -100.0, 100.0);
            g.connect(last_block, 0, sat, 0).unwrap();
            g.connect(sat, 0, fb_gain, 0).unwrap();
            g.connect(fb_gain, 0, fb_delay, 0).unwrap();
            g.connect(fb_delay, 0, entry, 1).unwrap();
        }
        None => {
            let zero = g.add(Constant::new("zero", 0.0));
            g.connect(zero, 0, entry, 1).unwrap();
        }
    }
    let probe = g.add(Probe::new("out"));
    g.connect(last_block, 0, probe, 0).unwrap();
    g.build().expect("recipes generate valid diagrams")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two simulations of the same recipe agree sample-for-sample.
    #[test]
    fn runs_are_deterministic(recipe in recipe_strategy()) {
        let mut a = build(&recipe);
        let mut b = build(&recipe);
        a.run(100).expect("clean run");
        b.run(100).expect("clean run");
        prop_assert_eq!(
            a.trace("out").expect("probe"),
            b.trace("out").expect("probe")
        );
    }

    /// Reset brings the simulation back to its exact initial behaviour.
    #[test]
    fn reset_is_a_time_machine(recipe in recipe_strategy()) {
        let mut sim = build(&recipe);
        sim.run(60).expect("clean run");
        let first: Vec<f64> = sim.trace("out").expect("probe").samples().to_vec();
        sim.reset();
        sim.run(60).expect("clean run");
        prop_assert_eq!(sim.trace("out").expect("probe").samples(), &first[..]);
    }

    /// Signals stay finite (the saturating feedback bounds every recipe).
    #[test]
    fn signals_stay_finite(recipe in recipe_strategy()) {
        let mut sim = build(&recipe);
        sim.run(300).expect("no non-finite signal may appear");
        for (_, v) in sim.trace("out").expect("probe").iter() {
            prop_assert!(v.is_finite());
        }
    }

    /// Without feedback and delays the diagram is memoryless: outputs at
    /// equal input values are equal.
    #[test]
    fn combinational_chains_are_memoryless(
        gains in proptest::collection::vec(-2.0f64..2.0, 1..5),
    ) {
        let mut g = GraphBuilder::new();
        // period-2 source: values alternate a, b, a, b ...
        let src = g.add(FunctionSource::new("src", |t| {
            if (t as u64).is_multiple_of(2) { 1.3 } else { -0.4 }
        }));
        let mut prev = src;
        for (i, k) in gains.iter().enumerate() {
            let b = g.add(Gain::new(format!("g{i}"), *k));
            g.connect(prev, 0, b, 0).unwrap();
            prev = b;
        }
        let p = g.add(Probe::new("out"));
        g.connect(prev, 0, p, 0).unwrap();
        let mut sim = g.build().unwrap();
        sim.run(20).unwrap();
        let s = sim.trace("out").unwrap().samples().to_vec();
        for k in 2..20 {
            prop_assert!((s[k] - s[k - 2]).abs() < 1e-12, "k={k}");
        }
    }
}
