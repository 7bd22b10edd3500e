//! Differential proptest suite for the lane-block batch engine: for
//! arbitrary lane counts (including non-multiples of the block width),
//! mixed control schemes, random fault schedules and resilience configs,
//! every lane of a [`BatchLoop::run`] must be **bit-identical** to its
//! scalar [`DiscreteLoop`] twin and to a lockstep run of the same bank
//! through the public `DomainBank::runner` stepping interface.
//!
//! The engine steps each block through a tile of periods at a time
//! ([`Sink::TILE`]: short for the traced sink, a whole Monte Carlo run for
//! the summary sink), so horizons are generated around the tile heights —
//! 0, 1, tile − 1, tile, tile + 1 and beyond — and warm-ups are placed on
//! and across tile boundaries. The twin differentials also run every
//! case for [`STEPS`] periods, long enough for the fault schedules, the
//! μ steps at `n = 25`, hardened-lane relocks and IIR settling to show.
//! CDN depths run up to the engine's `l_RO` ring depth.
//!
//! Lane configurations are derived from a single proptest-drawn seed via
//! splitmix64, so each case is reproducible from `(lanes, seed, steps)`
//! alone and the generator stays in lock-step between the batch under
//! test and the scalar twins.
//!
//! Bits are compared exactly ([`exact`]). Only the static-μ checks, whose
//! offsets include NaN, let a NaN match any NaN ([`same`]): the sign and
//! payload of a NaN a fold produces depend on codegen.

use adaptive_clock::bank::DomainBank;
use adaptive_clock::batch::{
    BatchInputs, BatchLoop, BatchTrace, Sink, SummarySink, TraceSink, BLOCK_WIDTH,
};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::loopsim::{constant, step_at, DiscreteLoop, LoopInputs};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use adaptive_clock::RunSummary;
use clock_faults::{FaultClass, FaultSchedule};
use proptest::prelude::*;

const STEPS: usize = 400;
const SETPOINT: i64 = 64;
/// Periods per tile of the traced and of the summary sink.
const TRACE_TILE: usize = <TraceSink as Sink>::TILE;
const SUMMARY_TILE: usize = <SummarySink as Sink>::TILE;

type MuFn = Box<dyn Fn(i64) -> f64>;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Horizons around a tile height — empty, one period, the tile ± 1 and
/// anything up to three tiles — or long runs: [`STEPS`] or up to 1 000
/// periods, each of those drawn twice as often.
fn horizon(tile: usize) -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(tile - 1),
        Just(tile),
        Just(tile + 1),
        2usize..3 * tile + 2,
        Just(STEPS),
        Just(STEPS),
        50usize..1000,
        50usize..1000,
    ]
}

/// A warm-up on or next to a tile boundary of either sink, or anywhere;
/// [`warmup_in`] fits it into the run.
fn warmup_pick() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(SUMMARY_TILE - 1),
        Just(SUMMARY_TILE),
        Just(SUMMARY_TILE + 1),
        Just(TRACE_TILE),
        Just(2 * TRACE_TILE + 1),
        0usize..STEPS,
        0usize..2 * SUMMARY_TILE,
    ]
}

/// `pick` if it leaves a measured period of `steps`, else a warm-up
/// drawn from it that does.
fn warmup_in(pick: usize, steps: usize) -> usize {
    if pick < steps {
        pick
    } else {
        pick % steps
    }
}

/// How the lanes of a case are drawn.
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    /// Every lane its own scheme, quantization, CDN depth, μ input,
    /// faults and hardening.
    Mixed,
    /// One scheme, quantization, CDN depth and shared μ for every lane, so
    /// the clean lanes form several full blocks of one group plus a tail;
    /// some lanes still carry faults.
    Uniform,
}

/// Everything that defines one lane, derived deterministically from the
/// per-lane mix word so the batch lane and its scalar twin are built from
/// the same recipe.
struct LaneSpec {
    m: usize,
    quant: Quantization,
    scheme: usize,
    faults: FaultSchedule,
    resilience: Resilience,
    /// `None` = the shared zero closure (exercises closure dedup);
    /// `Some(k)` = a private `step_at` mismatch step of height `k`.
    mu_step: Option<f64>,
}

impl LaneSpec {
    fn derive(seed: u64, lane: usize, steps: usize, mix: Mix) -> LaneSpec {
        let mut s = seed ^ (lane as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let lane_mix = splitmix(&mut s);
        let case_mix = splitmix(&mut { seed });
        let own = if mix == Mix::Mixed {
            lane_mix
        } else {
            case_mix
        };
        let scheme = (own % 4) as usize;
        // mm = m + 2 up to 8: the deepest lane fills the power-of-two
        // `l_RO` ring exactly.
        let m = ((own >> 8) % 7) as usize;
        let quant = match (own >> 16) % 3 {
            0 => Quantization::Floor,
            1 => Quantization::Nearest,
            _ => Quantization::None,
        };
        // Roughly a quarter of the lanes carry live fault schedules, so
        // most cases mix blocked and scalar-fallback lanes.
        let faulted = (lane_mix >> 24).is_multiple_of(4);
        let faults = if faulted {
            let class = FaultClass::ALL[((lane_mix >> 32) % FaultClass::ALL.len() as u64) as usize];
            FaultSchedule::random(splitmix(&mut s), class, 30.0, steps as u64, 3)
        } else {
            FaultSchedule::default()
        };
        let resilience = if mix == Mix::Mixed && (lane_mix >> 40) & 1 == 1 {
            Resilience::hardened(SETPOINT as f64)
        } else {
            Resilience::default()
        };
        let mu_step = (mix == Mix::Mixed && (lane_mix >> 48) & 1 == 1)
            .then_some(((lane_mix >> 50) % 13) as f64 - 6.0);
        LaneSpec {
            m,
            quant,
            scheme,
            faults,
            resilience,
            mu_step,
        }
    }

    fn controller(&self) -> Controller {
        let cfg = IirConfig::paper();
        match self.scheme {
            0 => Controller::int_iir(&cfg, SETPOINT).expect("paper config"),
            1 => Controller::float_iir(&cfg, SETPOINT as f64).expect("paper config"),
            2 => Controller::teatime(SETPOINT, 1.0),
            _ => Controller::free(SETPOINT),
        }
    }

    fn twin(&self) -> DiscreteLoop {
        DiscreteLoop::new(self.m, self.controller(), self.quant)
            .with_faults(self.faults.clone())
            .with_resilience(self.resilience)
    }
}

/// One case: its lane specs and the batch built from them.
struct Case {
    specs: Vec<LaneSpec>,
    steps: usize,
}

impl Case {
    fn new(lanes: usize, seed: u64, steps: usize, mix: Mix) -> Case {
        let specs = (0..lanes)
            .map(|k| LaneSpec::derive(seed, k, steps, mix))
            .collect();
        Case { specs, steps }
    }

    fn batch(&self) -> BatchLoop {
        let mut batch = BatchLoop::new();
        for spec in &self.specs {
            batch.push_with(
                spec.m,
                spec.controller(),
                spec.quant,
                spec.faults.clone(),
                spec.resilience,
            );
        }
        batch
    }

    /// The per-lane μ closures: `None` lanes share the zero closure.
    fn mus(&self) -> Vec<Option<MuFn>> {
        self.specs
            .iter()
            .map(|spec| spec.mu_step.map(|amp| Box::new(step_at(25, amp)) as MuFn))
            .collect()
    }
}

fn hodv(n: i64) -> f64 {
    7.3 * (std::f64::consts::TAU * n as f64 / 41.0).sin()
}

/// `inputs` with the case's shared set-point and HoDV and μ per lane.
fn with_inputs<T>(case: &Case, f: impl FnOnce(&[LoopInputs<'_>]) -> T) -> T {
    let sp = constant(SETPOINT as f64);
    let zero = constant(0.0);
    let mus = case.mus();
    let inputs: Vec<LoopInputs<'_>> = mus
        .iter()
        .map(|mu| LoopInputs {
            setpoint: &sp,
            homogeneous: &hodv,
            heterogeneous: mu.as_deref().unwrap_or(&zero),
        })
        .collect();
    f(&inputs)
}

/// The lockstep scalar reference: every lane of `bank` advanced one period
/// at a time through `DomainBank::runner`, the stepping path the mesh uses.
fn lockstep(bank: &mut DomainBank, inputs: &[LoopInputs<'_>], steps: usize) -> Vec<BatchTrace> {
    let mm: Vec<i64> = (0..bank.len()).map(|d| bank.m(d) as i64 + 2).collect();
    let mut out = vec![BatchTrace::single_lane(steps); bank.len()];
    let mut runner = bank.runner();
    for n in 0..steps as i64 {
        for (d, li) in inputs.iter().enumerate() {
            let i = n - mm[d];
            let s = runner.step(
                d,
                n,
                (li.setpoint)(n),
                (li.homogeneous)(i),
                (li.homogeneous)(n - 1),
                (li.heterogeneous)(i),
            );
            out[d].push(s.tau, s.delta, s.lro);
        }
    }
    out
}

/// Run the whole batch through the blocked engine and collect the lockstep
/// bank-runner reference plus per-lane scalar `DiscreteLoop` twins, all
/// from the same derived specs.
fn run_all(case: &Case) -> (BatchTrace, Vec<BatchTrace>, Vec<BatchTrace>) {
    with_inputs(case, |inputs| {
        let mut blocked = case.batch();
        let want_bank = lockstep(&mut blocked.bank().clone(), inputs, case.steps);
        let got = blocked.run(inputs, case.steps, TraceSink::default());
        let twins = case
            .specs
            .iter()
            .zip(inputs)
            .map(|(spec, input)| spec.twin().run(input, case.steps))
            .collect();
        (got, want_bank, twins)
    })
}

/// The same case through the traceless summary path, folding only periods
/// `warmup..steps`.
fn run_summaries(case: &Case, warmup: usize) -> Vec<RunSummary> {
    with_inputs(case, |inputs| {
        case.batch()
            .run(inputs, case.steps, SummarySink::with_warmup(warmup))
    })
}

/// `trace.summarize_after(inputs, warmup)` with the suite's inputs: the
/// set-point is the only input a summary reads.
fn summarize_after(trace: &BatchTrace, warmup: usize) -> Vec<RunSummary> {
    let sp = constant(SETPOINT as f64);
    let zero = constant(0.0);
    let input = LoopInputs {
        setpoint: &sp,
        homogeneous: &zero,
        heterogeneous: &zero,
    };
    trace.summarize_after(&vec![input; trace.lanes()], warmup)
}

/// Equal bits.
fn exact(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Equal bits, or both NaN.
fn same(a: f64, b: f64) -> bool {
    exact(a, b) || (a.is_nan() && b.is_nan())
}

/// Every sample of one lane equal under `eq`.
fn assert_lane_bits(got: &BatchTrace, want: &BatchTrace, lane: usize, eq: fn(f64, f64) -> bool) {
    assert_eq!(got.steps(), want.steps(), "lane {lane} steps");
    let signals = [
        ("tau", &got.tau, &want.tau),
        ("delta", &got.delta, &want.delta),
        ("lro", &got.lro, &want.lro),
    ];
    for (name, g, w) in signals {
        for n in 0..got.steps() {
            assert!(
                eq(g[n], w[n]),
                "lane {lane} {name}[{n}]: {} vs {}",
                g[n],
                w[n]
            );
        }
    }
}

/// Every blocked lane against both references, bit for bit.
fn assert_both_references(got: &BatchTrace, bank: &[BatchTrace], twins: &[BatchTrace]) {
    assert_eq!((bank.len(), twins.len()), (got.lanes(), got.lanes()));
    for (lane, (b, twin)) in bank.iter().zip(twins).enumerate() {
        let view = got.lane(lane);
        assert_lane_bits(&view, b, lane, exact);
        assert_lane_bits(&view, twin, lane, exact);
    }
}

/// Every field of every summary equal under `eq`.
fn assert_summaries(got: &[RunSummary], want: &[RunSummary], what: &str, eq: fn(f64, f64) -> bool) {
    assert_eq!(got.len(), want.len(), "{what}: lane count");
    for (lane, (g, w)) in got.iter().zip(want).enumerate() {
        let (g, w) = (g.to_values(), w.to_values());
        assert!(
            g.iter().zip(&w).all(|(&a, &b)| eq(a, b)),
            "{what}: lane {lane}: {g:?} vs {w:?}"
        );
    }
}

/// Assert that a traceless lane summary carries the same bits as the
/// margin arithmetic computed from the lane's full trace: the
/// required margin is the `fold(0.0, max)` of `c − τ` (which the trace
/// records as `δ`), the worst positive error the fold of `−δ`, and the
/// mean period the step-ordered sum of `l_RO` divided by the step count.
fn assert_summary_matches_trace(got: &RunSummary, trace: &BatchTrace, lane: usize) {
    let view = trace.lane(lane);
    let steps = view.steps();
    let margin = view.delta.iter().fold(0.0, |acc: f64, &d| acc.max(d));
    let wpe = view.delta.iter().fold(0.0, |acc: f64, &d| acc.max(-d));
    let mean = view.lro.iter().sum::<f64>() / steps as f64;
    assert_eq!(got.setpoint, SETPOINT as f64, "lane {lane} set-point");
    assert_eq!(got.samples, steps as u64, "lane {lane} samples");
    let fields = [
        ("required margin", got.required_margin(), margin),
        ("worst positive error", got.worst_positive_error, wpe),
        ("mean period", got.mean_period, mean),
        ("last l_RO", got.last_lro, view.lro[steps - 1]),
    ];
    for (name, g, w) in fields {
        assert!(exact(g, w), "lane {lane} {name}: {g} vs {w}");
    }
}

/// Static per-lane offsets, including signed zeros, NaN and infinities.
fn static_mus(lanes: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..lanes)
        .map(|_| match splitmix(&mut s) % 16 {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            k => (k as f64 - 9.5) * 0.75,
        })
        .collect()
}

/// The `StaticMu` form of a case with one static offset per lane against
/// per-lane `constant(μ)` closures and the scalar twins: traces, then
/// summaries from `warmup` on.
fn assert_static_mu_matches(case: &Case, mus: &[f64], warmup: usize) {
    let sp = constant(SETPOINT as f64);
    let statics = BatchInputs::StaticMu {
        setpoint: &sp,
        homogeneous: &hodv,
        mu: mus,
    };
    let closures: Vec<MuFn> = mus.iter().map(|&m| Box::new(constant(m)) as MuFn).collect();
    let per_lane: Vec<LoopInputs<'_>> = closures
        .iter()
        .map(|mu| LoopInputs {
            setpoint: &sp,
            homogeneous: &hodv,
            heterogeneous: mu.as_ref(),
        })
        .collect();
    let steps = case.steps;
    let got = case.batch().run(statics, steps, TraceSink::default());
    let want = case.batch().run(&per_lane, steps, TraceSink::default());
    let twins: Vec<BatchTrace> = case
        .specs
        .iter()
        .zip(&per_lane)
        .map(|(spec, input)| spec.twin().run(input, steps))
        .collect();
    for (lane, twin) in twins.iter().enumerate() {
        let view = got.lane(lane);
        assert_lane_bits(&view, &want.lane(lane), lane, same);
        assert_lane_bits(&view, twin, lane, same);
    }
    if steps > 0 {
        let summaries = case
            .batch()
            .run(statics, steps, SummarySink::with_warmup(warmup));
        let closure_summaries =
            case.batch()
                .run(&per_lane, steps, SummarySink::with_warmup(warmup));
        assert_summaries(
            &summaries,
            &closure_summaries,
            "static vs closure summaries",
            same,
        );
        assert_summaries(
            &summaries,
            &got.summarize_after(statics, warmup),
            "static summaries vs traced",
            same,
        );
    }
}

proptest! {
    /// Arbitrary lane counts and seeds, each run for [`STEPS`] periods and
    /// for a horizon around the traced sink's tile: the blocked engine's
    /// every lane is bit-identical to its scalar `DiscreteLoop` twin and
    /// to the lockstep bank runner.
    #[test]
    fn blocked_lanes_bit_identical_to_scalar_twins(
        lanes in 1usize..21,
        seed in 0u64..u64::MAX,
        steps in horizon(TRACE_TILE),
    ) {
        for steps in [STEPS, steps] {
            let (got, want_bank, twins) = run_all(&Case::new(lanes, seed, steps, Mix::Mixed));
            assert_both_references(&got, &want_bank, &twins);
        }
    }

    /// Lane counts straddling multiples of the block width: uniform
    /// lanes form several full blocks of one group, plus tails of every
    /// length, against their twins, at [`STEPS`] and around the tile.
    #[test]
    fn block_tails_of_every_length_stay_exact(
        blocks in 1usize..4,
        extra in 0usize..(BLOCK_WIDTH + 1),
        seed in 0u64..u64::MAX,
        steps in horizon(TRACE_TILE),
    ) {
        for steps in [STEPS, steps] {
            let case = Case::new(blocks * BLOCK_WIDTH + extra, seed, steps, Mix::Uniform);
            let (got, want_bank, twins) = run_all(&case);
            assert_both_references(&got, &want_bank, &twins);
        }
    }

    /// Static μ — including ±0, NaN and ±∞ — is the same run as per-lane
    /// `constant(μ)` closures and the scalar twins, traced and summarized.
    #[test]
    fn static_mu_matches_constant_closures_and_scalar_twins(
        lanes in 1usize..21,
        uniform in 0usize..2,
        seed in 0u64..u64::MAX,
        steps in horizon(TRACE_TILE),
        warmup in warmup_pick(),
    ) {
        let mix = if uniform == 1 { Mix::Uniform } else { Mix::Mixed };
        let case = Case::new(lanes, seed, steps, mix);
        assert_static_mu_matches(&case, &static_mus(lanes, seed), warmup_in(warmup, steps.max(1)));
    }

    /// Traceless summaries over horizons around the summary sink's tile:
    /// bit-identical both to the engine's own trace-then-summarize fold
    /// (`BatchTrace::summarize`) and to the margin arithmetic recomputed
    /// from the full trace.
    #[test]
    fn traceless_summaries_bit_identical_to_margin_from_trace(
        lanes in 1usize..21,
        uniform in 0usize..2,
        seed in 0u64..u64::MAX,
        steps in horizon(SUMMARY_TILE),
    ) {
        let mix = if uniform == 1 { Mix::Uniform } else { Mix::Mixed };
        let case = Case::new(lanes, seed, steps, mix);
        let (trace, _, _) = run_all(&case);
        let got = run_summaries(&case, 0);
        assert_summaries(&got, &summarize_after(&trace, 0), "summary sink vs BatchTrace::summarize", exact);
        if steps > 0 {
            for (lane, summary) in got.iter().enumerate() {
                assert_summary_matches_trace(summary, &trace, lane);
            }
        }
    }

    /// The warm-up window, on and across tile boundaries: folding only
    /// periods `warmup..steps` on the traceless path is bit-identical to
    /// `summarize_after` on the full trace.
    #[test]
    fn warmup_skipping_summaries_match_trace_fold(
        lanes in 1usize..13,
        uniform in 0usize..2,
        seed in 0u64..u64::MAX,
        steps in prop_oneof![
            Just(SUMMARY_TILE + 1),
            Just(SUMMARY_TILE + 2),
            Just(2 * SUMMARY_TILE + 1),
            1usize..2 * SUMMARY_TILE + 3,
            Just(STEPS),
            Just(STEPS),
            Just(STEPS),
        ],
        warmup in warmup_pick(),
    ) {
        let mix = if uniform == 1 { Mix::Uniform } else { Mix::Mixed };
        let case = Case::new(lanes, seed, steps, mix);
        let warmup = warmup_in(warmup, steps);
        let (trace, _, _) = run_all(&case);
        let got = run_summaries(&case, warmup);
        assert_summaries(&got, &summarize_after(&trace, warmup),
            &format!("summary sink vs BatchTrace::summarize_after (warmup {warmup})"), exact);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Static μ across the summary sink's tile boundary.
    #[test]
    fn static_mu_summaries_match_across_the_summary_tile(
        lanes in 1usize..9,
        seed in 0u64..u64::MAX,
        steps in horizon(SUMMARY_TILE),
        warmup in warmup_pick(),
    ) {
        let case = Case::new(lanes, seed, steps, Mix::Uniform);
        assert_static_mu_matches(&case, &static_mus(lanes, seed), warmup_in(warmup, steps.max(1)));
    }
}

/// One deterministic heavy case beyond the proptest horizon: every scheme,
/// every quantization, every fault class, both resilience configs, at a
/// lane count that forms several full blocks per scheme plus tails.
#[test]
fn kitchen_sink_case_is_bit_exact() {
    let case = Case::new(41, 0xDEAD_BEEF_CAFE_F00D, STEPS, Mix::Mixed);
    let (got, want_bank, twins) = run_all(&case);
    assert_both_references(&got, &want_bank, &twins);
    // The same kitchen sink through the traceless path: every summary
    // bit-identical to the margin arithmetic over the full trace.
    let summaries = run_summaries(&case, 0);
    assert_summaries(&summaries, &summarize_after(&got, 0), "kitchen sink", exact);
    for (lane, summary) in summaries.iter().enumerate() {
        assert_summary_matches_trace(summary, &got, lane);
    }
    // And once more with a warmup window.
    let warm = run_summaries(&case, 100);
    assert_summaries(
        &warm,
        &summarize_after(&got, 100),
        "kitchen sink, warmup 100",
        exact,
    );
}

/// A run with more unique input closures than the summary sink's tile
/// has room for runs shorter tiles: 30 per-lane `constant(μ)` closures
/// plus the shared set-point and HoDV make 32 columns, which the engine's
/// 1 MiB input staging cuts to 4 096-period tiles, while the static-μ
/// form of the same lanes (two columns) runs 8 192-period ones. Both,
/// and the scalar twins, agree across either boundary and with warm-ups
/// on it.
#[test]
fn many_closures_shorten_the_summary_tile_exactly() {
    let lanes = 30;
    let seed = 0x5EED_5EED_0F71_11E0;
    let case = Case::new(lanes, seed, 2 * 4096 + 1, Mix::Uniform);
    for warmup in [0, 4095, 4096, 4097, 8192] {
        assert_static_mu_matches(&case, &static_mus(lanes, seed), warmup);
    }
}
