//! The one summary fold, against the folds it replaced.
//!
//! Every [`RunSummary`] comes out of [`Fold`]. Before it existed, the event
//! engine summarized with iterator folds over a recorded run:
//! `fold(0.0, f64::max)` over `c − τ` and over `τ − c`, and a period sum
//! started from `−0.0`. The oracle below is an inline copy of those folds,
//! and every path into `Fold` must match it bit for bit, any NaN matching
//! any NaN: `Fold` itself, [`RunSummary::of`] and the event engine's
//! `SummarySink`. Inputs include both zeros, NaN readings, infinities and
//! empty windows.
//!
//! The second test pins the sign of zero. In a locked quantized loop
//! `τ == c` exactly, so the lane engine's `−δ` is `−0.0` while the event
//! engine's `τ − c` is `+0.0`, and `f64::max` leaves open which zero wins
//! a tie. Both engines report `+0.0` for both worst errors; the test
//! holds them there.

use adaptive_clock::batch::{BatchLoop, SummarySink as LaneSummarySink, TraceSink, BLOCK_WIDTH};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::event::{Sample, Sink, SummarySink};
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::system::{Fold, RunSummary, RunTrace, Scheme, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use proptest::prelude::*;
use variation::sources::NoVariation;

/// The summary folds as the event engine wrote them before [`Fold`].
fn oracle(c: f64, samples: &[Sample]) -> [f64; RunSummary::FIELDS] {
    let wne = samples.iter().map(|s| c - s.tau).fold(0.0, f64::max);
    let wpe = samples.iter().map(|s| s.tau - c).fold(0.0, f64::max);
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.iter().fold(-0.0, |acc, s| acc + s.period) / samples.len() as f64
    };
    let last = samples.last().map_or(f64::NAN, |s| s.lro);
    [c, samples.len() as f64, mean, wne, wpe, last]
}

/// The fields' bits, every NaN as one canonical NaN: Rust leaves the sign
/// and payload of a NaN that arithmetic produces unspecified (they follow
/// operand order, which the optimizer may commute), so only "is NaN" is
/// a property of the fold.
fn bits(values: [f64; RunSummary::FIELDS]) -> [u64; RunSummary::FIELDS] {
    values.map(|x| if x.is_nan() { f64::NAN } else { x }.to_bits())
}

/// One drawn value: an index into the awkward ones (both zeros, NaN,
/// both infinities, the set-point itself for an exact tie) or, past
/// them, the finite spread `x`.
type Pick = (usize, f64);

fn resolve((which, x): Pick, c: f64) -> f64 {
    [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, c]
        .get(which)
        .copied()
        .unwrap_or(x)
}

fn pick() -> (std::ops::Range<usize>, std::ops::Range<f64>) {
    (0..8, -100.0..100.0)
}

/// A set-point and the samples of a run against it, empty runs included.
fn samples(c: Pick, picks: &[(Pick, Pick, Pick)]) -> (f64, Vec<Sample>) {
    let c = resolve(c, 64.0);
    let samples = picks
        .iter()
        .map(|&(tau, period, lro)| {
            let tau = resolve(tau, c);
            Sample {
                time: 0.0,
                period: resolve(period, c),
                tau,
                delta: c - tau,
                lro: resolve(lro, c),
            }
        })
        .collect();
    (c, samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Fold`, `RunSummary::of` and the event `SummarySink` all equal the
    /// iterator folds they replaced, field for field and bit for bit.
    #[test]
    fn fold_matches_the_iterator_folds(
        c in pick(),
        picks in proptest::collection::vec((pick(), pick(), pick()), 0..24),
    ) {
        let (c, samples) = samples(c, &picks);
        let want = bits(oracle(c, &samples));

        let mut fold = Fold::new();
        for s in &samples {
            fold.push(c - s.tau, s.tau - c, s.period);
        }
        let last = samples.last().map_or(f64::NAN, |s| s.lro);
        let folded = fold.finish(c, samples.len() as u64, last);
        prop_assert_eq!(bits(folded.to_values()), want, "Fold");

        let run = RunTrace::from_samples(c, samples.clone());
        prop_assert_eq!(bits(RunSummary::of(&run).to_values()), want, "RunSummary::of");

        let mut sink = SummarySink::with_warmup(0);
        sink.begin(c, samples.len());
        for (i, s) in samples.iter().enumerate() {
            sink.sample(i, s);
        }
        prop_assert_eq!(bits(sink.finish().to_values()), want, "event SummarySink");
    }
}

/// `+0.0`, the sign both engines give a worst error that never left zero.
const POS_ZERO: u64 = 0;

/// An exactly locked quantized run: the paper's integer IIR, floor
/// quantization, no variation, so `τ == c` in every period.
#[test]
fn sign_of_zero_is_pinned_on_a_locked_quantized_run() {
    let c = 64;

    // Event engine: folds `c − τ` and `τ − c`, both `+0.0` here.
    let system = SystemBuilder::new(c)
        .scheme(Scheme::iir_paper())
        .quantization(Quantization::Floor)
        .build()
        .unwrap();
    let run = system.run(&NoVariation, 300);
    assert!(run.samples().iter().all(|s| s.tau == c as f64), "locked");
    let folded = system.run_with(&NoVariation, 300, SummarySink::with_warmup(50));
    for (what, s) in [
        ("RunSummary::of", RunSummary::of(&run)),
        ("SummarySink", folded),
    ] {
        assert_eq!(s.worst_negative_error.to_bits(), POS_ZERO, "event {what}");
        assert_eq!(s.worst_positive_error.to_bits(), POS_ZERO, "event {what}");
    }

    // Lane engine: folds `δ = +0.0` and `−δ = −0.0`, on full blocks and
    // on the scalar tail, traced and traceless, and the scalar loop.
    let cf = constant(c as f64);
    let zero = constant(0.0);
    let input = LoopInputs {
        setpoint: &cf,
        homogeneous: &zero,
        heterogeneous: &zero,
    };
    let lanes = 2 * BLOCK_WIDTH + 1;
    let inputs = vec![input; lanes];
    let build = || {
        let mut batch = BatchLoop::new();
        for _ in 0..lanes {
            let ctrl = Controller::int_iir(&IirConfig::paper(), c).unwrap();
            batch.push(1, ctrl, Quantization::Floor);
        }
        batch
    };
    let trace = build().run(&inputs, 300, TraceSink::default());
    assert!(
        trace.delta.iter().all(|d| d.to_bits() == POS_ZERO),
        "locked"
    );
    assert!(trace
        .delta
        .iter()
        .all(|d| (-d).to_bits() == (-0.0f64).to_bits()));
    let scalar = DiscreteLoop::new(
        1,
        Controller::int_iir(&IirConfig::paper(), c).unwrap(),
        Quantization::Floor,
    )
    .run(&input, 300)
    .summarize_after(std::slice::from_ref(&input), 50);
    let traceless = build().run(&inputs, 300, LaneSummarySink::with_warmup(50));
    let traced = trace.summarize_after(&inputs, 50);
    for (what, all) in [("sink", traceless), ("trace", traced), ("scalar", scalar)] {
        for (lane, s) in all.iter().enumerate() {
            assert_eq!(
                s.worst_negative_error.to_bits(),
                POS_ZERO,
                "{what} lane {lane}"
            );
            assert_eq!(
                s.worst_positive_error.to_bits(),
                POS_ZERO,
                "{what} lane {lane}"
            );
        }
    }
}
