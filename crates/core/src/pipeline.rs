//! Pipeline timing-error model.
//!
//! The paper requires that "the pipeline needs, at least, error detection
//! capacities" — a Razor-style design where a period that delivers fewer
//! stages than the critical path needs is *detected* and repaired by
//! replaying, at a cost of several cycles, instead of silently corrupting
//! state. This module models that contract so runs can be scored by
//! **effective throughput** (useful work per unit time) rather than only by
//! safety margins:
//!
//! * every delivered period retires one instruction, *unless*
//! * the period's worst TDC reading `τ` fell below the true critical-path
//!   requirement `c_req`, in which case the instruction (and the pipeline
//!   contents) replay: the violating period plus `replay_penalty − 1`
//!   subsequent periods retire nothing.
//!
//! This is what makes the §V set-point trade-off quantitative: lowering the
//! set-point raises clock frequency but raises the violation rate; the
//! throughput-optimal set-point sits just above the point where replays
//! start eating the gains.

use serde::{Deserialize, Serialize};

use crate::event::{sealed, Sample, Sink};
use crate::system::RunTrace;

/// The pipeline's timing contract and recovery cost.
///
/// # Example
///
/// ```
/// use adaptive_clock::pipeline::PipelineModel;
/// use adaptive_clock::system::{Scheme, SystemBuilder};
/// use variation::sources::NoVariation;
///
/// # fn main() -> Result<(), adaptive_clock::Error> {
/// let run = SystemBuilder::new(64)
///     .scheme(Scheme::iir_paper())
///     .build()?
///     .run(&NoVariation, 1000);
/// let report = PipelineModel::new(64.0, 8).evaluate(&run);
/// assert_eq!(report.violations, 0);
/// assert!((report.relative_throughput(64.0) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineModel {
    /// True critical-path requirement in stages: a period is violated when
    /// `τ < c_req`.
    pub c_req: f64,
    /// Total periods consumed by one violation (the violating period plus
    /// the replay). Must be at least 1.
    pub replay_penalty: usize,
}

impl PipelineModel {
    /// A pipeline with the given requirement and replay cost.
    ///
    /// # Panics
    ///
    /// Panics if `replay_penalty == 0` (a violation always costs at least
    /// its own period).
    pub fn new(c_req: f64, replay_penalty: usize) -> Self {
        assert!(replay_penalty >= 1, "replay penalty must be at least 1");
        PipelineModel {
            c_req,
            replay_penalty,
        }
    }

    /// Score a recorded run.
    pub fn evaluate(&self, run: &RunTrace) -> PipelineReport {
        let mut score = Score::default();
        for s in run.samples() {
            score.push(self, s);
        }
        score.report()
    }

    /// A sink that scores a run while it runs, from `warmup` on, without
    /// recording it: `system.run_with(e, n, model.sink(warmup))` equals
    /// `model.evaluate(&system.run(e, n).skip(warmup))` bit for bit.
    pub fn sink(self, warmup: usize) -> PipelineSink {
        PipelineSink {
            model: self,
            warmup,
            score: Score::default(),
        }
    }
}

/// The running state of one scoring pass, folded one period at a time.
#[derive(Debug, Default)]
struct Score {
    retired: u64,
    violations: u64,
    periods: u64,
    elapsed: f64,
    replay_left: usize,
}

impl Score {
    #[inline]
    fn push(&mut self, model: &PipelineModel, s: &Sample) {
        self.periods += 1;
        self.elapsed += s.period;
        if self.replay_left > 0 {
            self.replay_left -= 1;
            return;
        }
        if s.tau < model.c_req {
            self.violations += 1;
            self.replay_left = model.replay_penalty - 1;
        } else {
            self.retired += 1;
        }
    }

    fn report(self) -> PipelineReport {
        PipelineReport {
            retired: self.retired,
            violations: self.violations,
            periods: self.periods,
            elapsed: self.elapsed,
            throughput: if self.elapsed > 0.0 {
                self.retired as f64 / self.elapsed
            } else {
                0.0
            },
        }
    }
}

/// The scoring [`Sink`] of [`PipelineModel::sink`]: a run scored inline
/// by the same per-period fold as [`PipelineModel::evaluate`].
#[derive(Debug)]
pub struct PipelineSink {
    model: PipelineModel,
    warmup: usize,
    score: Score,
}

impl sealed::Sealed for PipelineSink {}

impl Sink for PipelineSink {
    type Output = PipelineReport;

    fn begin(&mut self, _setpoint: f64, _n_samples: usize) {}

    #[inline]
    fn sample(&mut self, index: usize, sample: &Sample) {
        if index >= self.warmup {
            self.score.push(&self.model, sample);
        }
    }

    fn finish(self) -> PipelineReport {
        self.score.report()
    }
}

/// Outcome of scoring a run against a [`PipelineModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Instructions retired.
    pub retired: u64,
    /// Timing violations detected.
    pub violations: u64,
    /// Total periods simulated.
    pub periods: u64,
    /// Total elapsed time (stage units).
    pub elapsed: f64,
    /// Effective throughput: instructions per stage-time.
    pub throughput: f64,
}

impl PipelineReport {
    /// Fraction of periods that violated timing.
    pub fn violation_rate(&self) -> f64 {
        if self.periods == 0 {
            0.0
        } else {
            self.violations as f64 / self.periods as f64
        }
    }

    /// Throughput normalized to an ideal violation-free clock of period
    /// `ideal_period` (1.0 = as good as that clock).
    pub fn relative_throughput(&self, ideal_period: f64) -> f64 {
        self.throughput * ideal_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Sample;
    use crate::system::{Scheme, SystemBuilder};
    use variation::sources::Harmonic;

    fn synthetic_run(setpoint: f64, taus: &[f64], period: f64) -> RunTrace {
        let samples: Vec<Sample> = taus
            .iter()
            .enumerate()
            .map(|(k, &tau)| Sample {
                time: k as f64 * period,
                period,
                tau,
                delta: setpoint - tau,
                lro: period,
            })
            .collect();
        RunTrace::from_samples(setpoint, samples)
    }

    #[test]
    fn clean_run_retires_every_period() {
        let run = synthetic_run(64.0, &[64.0; 100], 64.0);
        let rep = PipelineModel::new(64.0, 5).evaluate(&run);
        assert_eq!(rep.retired, 100);
        assert_eq!(rep.violations, 0);
        assert_eq!(rep.violation_rate(), 0.0);
        assert!((rep.throughput - 1.0 / 64.0).abs() < 1e-12);
        assert!((rep.relative_throughput(64.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_violation_costs_penalty_periods() {
        let mut taus = vec![64.0; 20];
        taus[5] = 60.0; // one violation
        let run = synthetic_run(64.0, &taus, 64.0);
        let rep = PipelineModel::new(64.0, 4).evaluate(&run);
        assert_eq!(rep.violations, 1);
        // 20 periods, 1 violating + 3 replay periods retire nothing
        assert_eq!(rep.retired, 16);
    }

    #[test]
    fn violations_during_replay_are_absorbed() {
        let mut taus = vec![64.0; 20];
        taus[5] = 60.0;
        taus[6] = 60.0; // would violate, but the pipeline is replaying
        let run = synthetic_run(64.0, &taus, 64.0);
        let rep = PipelineModel::new(64.0, 4).evaluate(&run);
        assert_eq!(rep.violations, 1);
        assert_eq!(rep.retired, 16);
    }

    #[test]
    fn back_to_back_violations_counted_after_replay() {
        let mut taus = vec![64.0; 20];
        taus[2] = 60.0;
        taus[4] = 60.0; // replay of first covers index 3,4 with penalty 3
        taus[8] = 60.0; // fresh violation
        let run = synthetic_run(64.0, &taus, 64.0);
        let rep = PipelineModel::new(64.0, 3).evaluate(&run);
        assert_eq!(rep.violations, 2);
        assert_eq!(rep.retired, 20 - 2 * 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_penalty_rejected() {
        let _ = PipelineModel::new(64.0, 0);
    }

    #[test]
    fn faster_clock_with_some_violations_can_still_win() {
        // 76-stage periods (heavily margined), clean:
        let safe = synthetic_run(76.0, &[76.0; 100], 76.0);
        // 64-stage periods with 2% violations and penalty 5:
        let mut taus = vec![64.0; 100];
        for k in (0..100).step_by(50) {
            taus[k] = 60.0;
        }
        let risky = synthetic_run(64.0, &taus, 64.0);
        let model = PipelineModel::new(64.0, 5);
        let t_safe = model.evaluate(&safe).throughput;
        let t_risky = model.evaluate(&risky).throughput;
        assert!(
            t_risky > t_safe,
            "risky {t_risky} should beat safe {t_safe} at this violation rate"
        );
    }

    /// End-to-end: under a HoDV, running the IIR clock with a small margin
    /// yields higher effective throughput than the conservatively-margined
    /// fixed clock, even counting replays.
    #[test]
    fn adaptive_clock_wins_on_effective_throughput() {
        let c_req = 64.0;
        let hodv = Harmonic::new(12.8, 64.0 * 50.0, 0.0);
        let model = PipelineModel::new(c_req, 8);

        // Fixed clock margined for zero violations: period 77.
        let fixed = SystemBuilder::new(77)
            .scheme(Scheme::Fixed)
            .build()
            .expect("valid")
            .run(&hodv, 6000)
            .skip(1000);
        let t_fixed = model.evaluate(&fixed);
        assert_eq!(t_fixed.violations, 0, "margined fixed clock must be clean");

        // IIR clock margined by its own (much smaller) requirement: c+4.
        let iir = SystemBuilder::new(68)
            .cdn_delay(64.0)
            .scheme(Scheme::iir_paper())
            .build()
            .expect("valid")
            .run(&hodv, 6000)
            .skip(1000);
        let t_iir = model.evaluate(&iir);
        assert!(
            t_iir.throughput > 1.1 * t_fixed.throughput,
            "IIR throughput {} must clearly beat fixed {}",
            t_iir.throughput,
            t_fixed.throughput
        );
    }

    /// The scoring sink folds the same periods in the same order as
    /// `evaluate` on the post-warm-up trace, so the reports are identical
    /// to the bit, violations and replays included.
    #[test]
    fn scoring_sink_equals_evaluate_on_the_skipped_trace() {
        let hodv = Harmonic::new(12.8, 64.0 * 50.0, 0.0);
        for (c_ctrl, scheme) in [(62, Scheme::iir_paper()), (70, Scheme::Fixed)] {
            let system = SystemBuilder::new(c_ctrl)
                .cdn_delay(64.0)
                .scheme(scheme)
                .build()
                .expect("valid");
            let model = PipelineModel::new(64.0, 6);
            let traced = model.evaluate(&system.run(&hodv, 3000).skip(500));
            let folded = system.run_with(&hodv, 3000, model.sink(500));
            assert!(traced.violations > 0 || c_ctrl == 70, "exercise replays");
            assert_eq!(folded, traced);
            assert_eq!(folded.elapsed.to_bits(), traced.elapsed.to_bits());
            assert_eq!(folded.throughput.to_bits(), traced.throughput.to_bits());
        }
    }
}
