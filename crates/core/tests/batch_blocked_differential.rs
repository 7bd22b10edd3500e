//! Differential proptest suite for the lane-block batch engine: for
//! arbitrary lane counts (including non-multiples of the block width),
//! mixed control schemes, random fault schedules and resilience configs,
//! every lane of a [`BatchLoop::run`] must be **bit-identical** to its
//! scalar [`DiscreteLoop`] twin and to a lockstep run of the same bank
//! through the public `DomainBank::runner` stepping interface.
//!
//! Lane configurations are derived from a single proptest-drawn seed via
//! splitmix64, so each case is reproducible from `(lanes, seed)` alone and
//! the generator stays in lock-step between the batch under test and the
//! scalar twins.

use adaptive_clock::bank::DomainBank;
use adaptive_clock::batch::{BatchLoop, BatchTrace, SummarySink, TraceSink, BLOCK_WIDTH};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::loopsim::{constant, step_at, DiscreteLoop, LoopInputs};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use adaptive_clock::RunSummary;
use clock_faults::{FaultClass, FaultSchedule};
use proptest::prelude::*;

const STEPS: usize = 400;
const SETPOINT: i64 = 64;

type MuFn = Box<dyn Fn(i64) -> f64>;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    fn derive(seed: u64, lane: usize) -> LaneSpec {
        let mut s = seed ^ (lane as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mix = splitmix(&mut s);
        let scheme = (mix % 4) as usize;
        let m = ((mix >> 8) % 3) as usize;
        let quant = match (mix >> 16) % 3 {
            0 => Quantization::Floor,
            1 => Quantization::Nearest,
            _ => Quantization::None,
        };
        // Roughly a quarter of the lanes carry live fault schedules, so
        // most cases mix blocked and scalar-fallback lanes.
        let faulted = (mix >> 24).is_multiple_of(4);
        let faults = if faulted {
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
        let mu_step = ((mix >> 48) & 1 == 1).then_some(((mix >> 50) % 13) as f64 - 6.0);
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
}

/// The lockstep scalar reference: every lane of `bank` advanced one period
/// at a time through `DomainBank::runner`, the stepping path the mesh uses.
fn lockstep(bank: &mut DomainBank, inputs: &[LoopInputs<'_>]) -> Vec<BatchTrace> {
    let mm: Vec<i64> = (0..bank.len()).map(|d| bank.m(d) as i64 + 2).collect();
    let mut out = vec![BatchTrace::single_lane(STEPS); bank.len()];
    let mut runner = bank.runner();
    for n in 0..STEPS as i64 {
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
fn run_all(lanes: usize, seed: u64) -> (BatchTrace, Vec<BatchTrace>, Vec<BatchTrace>) {
    let specs: Vec<LaneSpec> = (0..lanes).map(|k| LaneSpec::derive(seed, k)).collect();
    let sp = constant(SETPOINT as f64);
    let e = |n: i64| 7.3 * (std::f64::consts::TAU * n as f64 / 41.0).sin();
    let zero = constant(0.0);
    let mus: Vec<Option<MuFn>> = specs
        .iter()
        .map(|spec| spec.mu_step.map(|amp| Box::new(step_at(25, amp)) as MuFn))
        .collect();
    let inputs: Vec<LoopInputs<'_>> = mus
        .iter()
        .map(|mu| LoopInputs {
            setpoint: &sp,
            homogeneous: &e,
            heterogeneous: mu.as_deref().unwrap_or(&zero),
        })
        .collect();

    let mut blocked = BatchLoop::new();
    for spec in &specs {
        blocked.push_with(
            spec.m,
            spec.controller(),
            spec.quant,
            spec.faults.clone(),
            spec.resilience,
        );
    }
    let want_bank = lockstep(&mut blocked.bank().clone(), &inputs);
    let got = blocked.run(&inputs, STEPS, TraceSink::default());
    let twins: Vec<BatchTrace> = specs
        .iter()
        .zip(&inputs)
        .map(|(spec, input)| {
            DiscreteLoop::new(spec.m, spec.controller(), spec.quant)
                .with_faults(spec.faults.clone())
                .with_resilience(spec.resilience)
                .run(input, STEPS)
        })
        .collect();
    (got, want_bank, twins)
}

fn assert_lane_bits(got: &BatchTrace, want: &BatchTrace, lane: usize) {
    for n in 0..STEPS {
        assert_eq!(
            got.tau[n].to_bits(),
            want.tau[n].to_bits(),
            "lane {lane} tau[{n}]: {} vs {}",
            got.tau[n],
            want.tau[n]
        );
        assert_eq!(
            got.delta[n].to_bits(),
            want.delta[n].to_bits(),
            "lane {lane} delta[{n}]"
        );
        assert_eq!(
            got.lro[n].to_bits(),
            want.lro[n].to_bits(),
            "lane {lane} lro[{n}]"
        );
    }
}

/// Every blocked lane against both references, bit for bit.
fn assert_both_references(got: &BatchTrace, bank: &[BatchTrace], twins: &[BatchTrace]) {
    assert_eq!((bank.len(), twins.len()), (got.lanes(), got.lanes()));
    for (lane, (b, twin)) in bank.iter().zip(twins).enumerate() {
        let view = got.lane(lane);
        assert_lane_bits(&view, b, lane);
        assert_lane_bits(&view, twin, lane);
    }
}

/// Run the same derived batch through the traceless summary path,
/// folding only periods `warmup..STEPS`.
fn run_all_summaries(lanes: usize, seed: u64, warmup: usize) -> Vec<RunSummary> {
    let specs: Vec<LaneSpec> = (0..lanes).map(|k| LaneSpec::derive(seed, k)).collect();
    let sp = constant(SETPOINT as f64);
    let e = |n: i64| 7.3 * (std::f64::consts::TAU * n as f64 / 41.0).sin();
    let zero = constant(0.0);
    let mus: Vec<Option<MuFn>> = specs
        .iter()
        .map(|spec| spec.mu_step.map(|amp| Box::new(step_at(25, amp)) as MuFn))
        .collect();
    let inputs: Vec<LoopInputs<'_>> = mus
        .iter()
        .map(|mu| LoopInputs {
            setpoint: &sp,
            homogeneous: &e,
            heterogeneous: mu.as_deref().unwrap_or(&zero),
        })
        .collect();
    let mut batch = BatchLoop::new();
    for spec in &specs {
        batch.push_with(
            spec.m,
            spec.controller(),
            spec.quant,
            spec.faults.clone(),
            spec.resilience,
        );
    }
    batch.run(&inputs, STEPS, SummarySink::with_warmup(warmup))
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

/// Assert that a traceless lane summary carries the same bits as the
/// margin arithmetic computed from the lane's full trace: the
/// required margin is the `fold(0.0, max)` of `c − τ` (which the trace
/// records as `δ`), the worst positive error the fold of `−δ`, and the
/// mean period the step-ordered sum of `l_RO` divided by the step count.
fn assert_summary_matches_trace(got: &RunSummary, trace: &BatchTrace, lane: usize) {
    let view = trace.lane(lane);
    let margin = view.delta.iter().fold(0.0, |acc: f64, &d| acc.max(d));
    let wpe = view.delta.iter().fold(0.0, |acc: f64, &d| acc.max(-d));
    let mean = view.lro.iter().sum::<f64>() / STEPS as f64;
    assert_eq!(got.setpoint, SETPOINT as f64, "lane {lane} set-point");
    assert_eq!(got.samples, STEPS as u64, "lane {lane} samples");
    assert_eq!(
        got.required_margin().to_bits(),
        margin.to_bits(),
        "lane {lane} required margin: {} vs {}",
        got.required_margin(),
        margin
    );
    assert_eq!(
        got.worst_positive_error.to_bits(),
        wpe.to_bits(),
        "lane {lane} worst positive error"
    );
    assert_eq!(
        got.mean_period.to_bits(),
        mean.to_bits(),
        "lane {lane} mean period: {} vs {}",
        got.mean_period,
        mean
    );
    assert_eq!(
        got.last_lro.to_bits(),
        view.lro[STEPS - 1].to_bits(),
        "lane {lane} last l_RO"
    );
}

proptest! {
    /// Arbitrary lane counts and seeds: the blocked engine's every lane is
    /// bit-identical to its scalar `DiscreteLoop` twin and to the lockstep
    /// bank runner.
    #[test]
    fn blocked_lanes_bit_identical_to_scalar_twins(
        lanes in 1usize..21,
        seed in 0u64..u64::MAX,
    ) {
        let (got, want_bank, twins) = run_all(lanes, seed);
        assert_both_references(&got, &want_bank, &twins);
    }

    /// Traceless summaries: for arbitrary lane counts, schemes, and fault
    /// schedules, a summary-sink run is bit-identical both to the engine's
    /// own trace-then-summarize fold (`BatchTrace::summarize`) and to the
    /// margin arithmetic recomputed from the full trace.
    #[test]
    fn traceless_summaries_bit_identical_to_margin_from_trace(
        lanes in 1usize..21,
        seed in 0u64..u64::MAX,
    ) {
        let (trace, _, _) = run_all(lanes, seed);
        let got = run_all_summaries(lanes, seed, 0);
        prop_assert_eq!(&got, &summarize_after(&trace, 0), "summary sink vs BatchTrace::summarize");
        for (lane, summary) in got.iter().enumerate() {
            assert_summary_matches_trace(summary, &trace, lane);
        }
    }

    /// The warmup window: folding only periods `warmup..STEPS` on the
    /// traceless path is bit-identical to `summarize_after` on the full
    /// trace, for arbitrary warmup lengths.
    #[test]
    fn warmup_skipping_summaries_match_trace_fold(
        lanes in 1usize..13,
        warmup in 0usize..STEPS,
        seed in 0u64..u64::MAX,
    ) {
        let (trace, _, _) = run_all(lanes, seed);
        let got = run_all_summaries(lanes, seed, warmup);
        prop_assert_eq!(&got, &summarize_after(&trace, warmup),
            "summary sink vs BatchTrace::summarize_after (warmup {})", warmup);
    }

    /// Lane counts straddling multiples of the block width, with uniform
    /// schemes to maximize how many full blocks form: tails of every
    /// length against their twins.
    #[test]
    fn block_tails_of_every_length_stay_exact(
        extra in 0usize..(BLOCK_WIDTH + 1),
        seed in 0u64..u64::MAX,
    ) {
        let lanes = 2 * BLOCK_WIDTH + extra;
        let (got, want_bank, twins) = run_all(lanes, seed);
        assert_both_references(&got, &want_bank, &twins);
    }
}

/// One deterministic heavy case beyond the proptest horizon: every scheme,
/// every quantization, every fault class, both resilience configs, at a
/// lane count that forms several full blocks per scheme plus tails.
#[test]
fn kitchen_sink_case_is_bit_exact() {
    let (got, want_bank, twins) = run_all(41, 0xDEAD_BEEF_CAFE_F00D);
    assert_both_references(&got, &want_bank, &twins);
    // The same kitchen sink through the traceless path: every summary
    // bit-identical to the margin arithmetic over the full trace.
    let summaries = run_all_summaries(41, 0xDEAD_BEEF_CAFE_F00D, 0);
    assert_eq!(summaries, summarize_after(&got, 0));
    for (lane, summary) in summaries.iter().enumerate() {
        assert_summary_matches_trace(summary, &got, lane);
    }
    // And once more with a warmup window.
    let warm = run_all_summaries(41, 0xDEAD_BEEF_CAFE_F00D, 100);
    assert_eq!(warm, summarize_after(&got, 100));
}
