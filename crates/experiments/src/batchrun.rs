//! Multi-threaded lane-chunk dispatch for [`BatchLoop`] workloads.
//!
//! The lane-block engine in `adaptive-clock` is single-threaded by design
//! (the core crate spawns no threads); this module scales it across
//! `REPRO_THREADS` workers by splitting a batch's *lanes* into contiguous
//! chunks, running each chunk as an independent `BatchLoop` on the sweep
//! worker pool, and handing back the per-chunk results in lane order —
//! traces recombine with [`BatchTrace::concat`], summaries by flattening.
//!
//! Lane independence is what makes this exact rather than approximate:
//! lanes of a batch never interact, so running lanes `[0..k)` and
//! `[k..B)` in separate engines and concatenating is **bit-identical** to
//! one `B`-lane run — for any chunk size and any worker count. The
//! callback builds the chunk's `BatchLoop` *and* its input closures
//! itself because [`LoopInputs`](adaptive_clock::loopsim::LoopInputs)
//! borrows `&dyn Fn` (not `Sync`); each worker therefore constructs
//! private closures, which also keeps per-chunk closure deduplication
//! intact inside the blocked engine.
//!
//! [`BatchLoop`]: adaptive_clock::batch::BatchLoop

use std::ops::Range;

use adaptive_clock::batch::BatchTrace;
use clock_telemetry::Telemetry;

use crate::sweep::{parallel_map_planned, Plan};

/// A chunk result that knows how many lanes it covers.
pub trait Lanes {
    /// Number of lanes in this part.
    fn lanes(&self) -> usize;
}

impl Lanes for BatchTrace {
    fn lanes(&self) -> usize {
        BatchTrace::lanes(self)
    }
}

impl<T> Lanes for Vec<T> {
    fn lanes(&self) -> usize {
        self.len()
    }
}

/// Split `lanes` lanes into `chunk`-sized ranges, run every range through
/// `run_chunk` on the sweep worker pool, and return the per-chunk parts
/// in lane order.
///
/// `run_chunk(r)` must return a part covering exactly `r.len()` lanes;
/// the usual shape is "build a `BatchLoop` and its inputs for lanes `r`,
/// call `run`". Dispatch cost hints are proportional to chunk width, so
/// the longest-job-first scheduler keeps a ragged final chunk off the
/// critical path. Under `--profile`, dispatch lands on the
/// `batch.dispatch` span, with the per-chunk block kernels under each
/// worker's own `engine.batch` spans; callers recombine the parts under a
/// `batch.recombine` span.
///
/// # Panics
///
/// Panics when `chunk == 0` or a chunk returns the wrong number of lanes.
pub fn run_chunks<T, F>(lanes: usize, chunk: usize, telemetry: &Telemetry, run_chunk: F) -> Vec<T>
where
    T: Lanes + Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    assert!(chunk > 0, "chunk width must be positive");
    let ranges: Vec<Range<usize>> = (0..lanes)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(lanes))
        .collect();
    let mut scope = telemetry.scope("batch.dispatch");
    scope.attr("lanes", lanes);
    scope.attr("chunks", ranges.len());
    parallel_map_planned(
        &ranges,
        |r| Plan::Compute(r.len() as u64),
        |r| {
            let part = run_chunk(r.clone());
            assert_eq!(
                part.lanes(),
                r.len(),
                "chunk {r:?} returned a wrong lane count"
            );
            part
        },
        telemetry,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::set_threads;
    use adaptive_clock::batch::{BatchLoop, Sink, SummarySink, TraceSink};
    use adaptive_clock::controller::{Controller, IirConfig};
    use adaptive_clock::loopsim::{constant, step_at, LoopInputs};
    use adaptive_clock::system::RunSummary;
    use adaptive_clock::tdc::Quantization;

    /// Run lanes `r` of a reference 23-lane mixed-scheme workload into
    /// `sink`.
    fn run_range<S: Sink>(r: Range<usize>, steps: usize, sink: S) -> S::Output {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 6.0 * (std::f64::consts::TAU * n as f64 / 80.0).sin();
        let mut batch = BatchLoop::new();
        let mus: Vec<Box<dyn Fn(i64) -> f64>> = r
            .clone()
            .map(|k| Box::new(step_at(12, k as f64 - 5.0)) as Box<dyn Fn(i64) -> f64>)
            .collect();
        for k in r {
            match k % 3 {
                0 => batch.push(
                    k % 2,
                    Controller::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                ),
                1 => batch.push(
                    1,
                    Controller::float_iir(&cfg, 64.0).unwrap(),
                    Quantization::None,
                ),
                _ => batch.push(0, Controller::teatime(64, 1.0), Quantization::Floor),
            };
        }
        let inputs: Vec<LoopInputs<'_>> = mus
            .iter()
            .map(|mu| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: mu.as_ref(),
            })
            .collect();
        batch.run(&inputs, steps, sink)
    }

    #[test]
    fn dispatch_is_bit_identical_for_any_chunking_and_worker_count() {
        let (lanes, steps) = (23usize, 250usize);
        let whole = run_range(0..lanes, steps, TraceSink::default());
        let telemetry = Telemetry::disabled();
        for chunk in [1, 4, 7, 23, 64] {
            for workers in [None, Some(1), Some(3)] {
                set_threads(workers);
                let parts = run_chunks(lanes, chunk, &telemetry, |r| {
                    run_range(r, steps, TraceSink::default())
                });
                set_threads(None);
                assert_eq!(parts.len(), lanes.div_ceil(chunk));
                assert_eq!(
                    BatchTrace::concat(&parts),
                    whole,
                    "chunk={chunk} workers={workers:?} diverged from the single run"
                );
            }
        }
    }

    #[test]
    fn dispatch_records_chunk_spans() {
        let telemetry = Telemetry::enabled();
        telemetry.enable_tracing();
        let parts = run_chunks(9, 4, &telemetry, |r| run_range(r, 50, TraceSink::default()));
        let tr = BatchTrace::concat(&parts);
        assert_eq!(tr.lanes(), 9);
        assert_eq!(tr.steps(), 50);
        let spans = telemetry.trace_spans();
        let dispatch = spans
            .iter()
            .find(|s| s.name == "batch.dispatch")
            .expect("dispatch span recorded");
        let attr = |k: &str| {
            dispatch
                .attrs
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!((attr("lanes"), attr("chunks")), (Some("9"), Some("3")));
    }

    #[test]
    fn summary_dispatch_is_bit_identical_for_any_chunking_and_worker_count() {
        let (lanes, steps) = (23usize, 250usize);
        let whole = run_range(0..lanes, steps, SummarySink::default());
        let c = constant(64.0);
        let inputs = vec![
            LoopInputs {
                setpoint: &c,
                ..LoopInputs::zero()
            };
            lanes
        ];
        assert_eq!(
            whole,
            run_range(0..lanes, steps, TraceSink::default()).summarize(&inputs)
        );
        let telemetry = Telemetry::disabled();
        for chunk in [1, 4, 7, 23, 64] {
            for workers in [None, Some(1), Some(3)] {
                set_threads(workers);
                let parts = run_chunks(lanes, chunk, &telemetry, |r| {
                    run_range(r, steps, SummarySink::default())
                });
                set_threads(None);
                let got: Vec<RunSummary> = parts.into_iter().flatten().collect();
                assert_eq!(
                    got, whole,
                    "chunk={chunk} workers={workers:?} diverged from the single run"
                );
            }
        }
    }

    #[test]
    fn zero_lanes_is_an_empty_trace() {
        let telemetry = Telemetry::disabled();
        let parts = run_chunks(0, 8, &telemetry, |r| run_range(r, 10, TraceSink::default()));
        assert!(parts.is_empty());
        assert_eq!(BatchTrace::concat(&parts).lanes(), 0);
    }
}
