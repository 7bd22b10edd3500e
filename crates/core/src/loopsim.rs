//! Paper-faithful discrete-time simulation of the Fig. 4 loop with a
//! *fixed* whole-period CDN delay `M`.
//!
//! Per delivered period `n` (all quantities in stage units):
//!
//! ```text
//! τ[n]   = Q( l_RO[n−M−2] + e[n−M−2] − e[n−1] + μ[n−M−2] )
//! δ[n]   = c[n] − τ[n]
//! l_RO[n+1] = control(δ[n])
//! ```
//!
//! which reproduces the paper's loop transfer functions exactly: with the
//! quantizer `Q` disabled and a linear control block `H = N/D`, the
//! sequences `δ` and `l_RO` match the inverse transforms of
//! `H_δ(z)·p(z)` and `H_lRO(z)·p(z)` (Eq. 4–5) sample-for-sample — the
//! cross-validation tests in this module and in the `zdomain` integration
//! suite rely on this.
//!
//! The index arithmetic mirrors the block diagram: one `z⁻¹` inside the
//! control block (built into the [`Controller`] calling convention), one
//! `z⁻¹` of generation/measurement registering, and `z⁻ᴹ` of clock
//! distribution. Inputs are supplied as sequences over a *signed* index so
//! callers can choose the pre-start history (the loop queries negative
//! indices during the first `M+2` periods).

use clock_faults::FaultSchedule;
use clock_telemetry::{Event as TelemetryEvent, Telemetry};

use crate::bank::DomainBank;
use crate::batch::BatchTrace;
use crate::controller::Controller;
use crate::resilience::Resilience;
use crate::tdc::Quantization;

/// Input sequences of the discrete loop. Functions are queried with signed
/// indices; return the pre-start value for negative arguments.
#[derive(Clone, Copy)]
pub struct LoopInputs<'a> {
    /// Set-point sequence `c[n]`.
    pub setpoint: &'a dyn Fn(i64) -> f64,
    /// Homogeneous variation sequence `e[n]` (RO side +, TDC side −).
    pub homogeneous: &'a dyn Fn(i64) -> f64,
    /// Heterogeneous variation sequence `μ[n]` (TDC side).
    pub heterogeneous: &'a dyn Fn(i64) -> f64,
}

impl<'a> LoopInputs<'a> {
    /// All-zero inputs (useful as a starting point in tests).
    pub fn zero() -> LoopInputs<'static> {
        LoopInputs {
            setpoint: &|_| 0.0,
            homogeneous: &|_| 0.0,
            heterogeneous: &|_| 0.0,
        }
    }
}

/// The discrete closed loop.
///
/// # Example
///
/// Run the paper's loop from equilibrium against a static mismatch step
/// and watch the integrator null the error:
///
/// ```
/// use adaptive_clock::controller::{IirConfig, IntIirControl};
/// use adaptive_clock::loopsim::{constant, step_at, DiscreteLoop, LoopInputs};
/// use adaptive_clock::tdc::Quantization;
///
/// # fn main() -> Result<(), adaptive_clock::Error> {
/// let ctrl = IntIirControl::new(IirConfig::paper(), 64)?;
/// let mut dl = DiscreteLoop::new(1, ctrl, Quantization::Floor);
/// let c = constant(64.0);
/// let zero = constant(0.0);
/// let mu = step_at(10, -8.0);
/// let tr = dl.run(
///     &LoopInputs { setpoint: &c, homogeneous: &zero, heterogeneous: &mu },
///     400,
/// );
/// assert!(tr.delta[399].abs() <= 1.0); // compensated to within a stage
/// # Ok(())
/// # }
/// ```
pub struct DiscreteLoop {
    /// A one-domain [`DomainBank`]: the scalar loop is the bank's
    /// simplest stepping strategy.
    bank: DomainBank,
    telemetry: Telemetry,
}

impl std::fmt::Debug for DiscreteLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscreteLoop")
            .field("m", &self.bank.m(0))
            .field("quantization", &self.bank.domains[0].quantization)
            .finish_non_exhaustive()
    }
}

impl DiscreteLoop {
    /// A loop with CDN delay of `m` whole periods driving `controller`.
    ///
    /// The controller's resting output doubles as the pre-start generation
    /// history (the value `l_RO[n]` for `n < 0`).
    pub fn new(m: usize, controller: impl Into<Controller>, quantization: Quantization) -> Self {
        let mut bank = DomainBank::new();
        bank.push(m, controller, quantization);
        DiscreteLoop {
            bank,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach an instrumentation handle. A disabled handle (the default)
    /// keeps the run path free of any recording work. Event timestamps are
    /// the discrete period index `n`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Inject the given fault schedule into every subsequent run. An empty
    /// schedule (the default) leaves the run path untouched — clean runs
    /// stay bit-identical to a loop built without faults.
    #[must_use]
    pub fn with_faults(mut self, schedule: FaultSchedule) -> Self {
        self.bank.set_faults(0, schedule);
        self
    }

    /// Harden the controller with the given [`Resilience`] guards.
    /// [`Resilience::default`] (all guards off) keeps the run path
    /// untouched.
    #[must_use]
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        self.bank.set_resilience(0, resilience);
        self
    }

    /// Run `steps` periods and record the loop signals `τ[n]`,
    /// `δ[n] = c[n] − τ[n]` and `l_RO[n]` (the value used for generation
    /// at period `n`) in a one-lane [`BatchTrace`].
    pub fn run(&mut self, inputs: &LoopInputs<'_>, steps: usize) -> BatchTrace {
        let mut run_scope = self.telemetry.scope("engine.discrete");
        run_scope.attr("steps", steps);
        let observed = self.telemetry.is_enabled();
        let c_steps = self.telemetry.counter("discrete.controller_steps");
        let c_violations = self.telemetry.counter("discrete.timing_violations");
        let mm = (self.bank.m(0) + 2) as i64;
        let mut trace = BatchTrace::single_lane(steps);
        // The runner holds the per-run state (fault path, l_RO history);
        // this loop samples the input sequences and forwards telemetry.
        let mut runner = self.bank.runner();
        for n in 0..steps as i64 {
            let gen = n - mm;
            let c_n = (inputs.setpoint)(n);
            let out = runner.step(
                0,
                n,
                c_n,
                (inputs.homogeneous)(gen),
                (inputs.homogeneous)(n - 1),
                (inputs.heterogeneous)(gen),
            );
            c_steps.inc();
            if observed {
                if out.delta > 0.0 && out.tau.is_finite() {
                    c_violations.inc();
                    self.telemetry.emit(
                        n as f64,
                        TelemetryEvent::TimingViolation {
                            tau: out.tau,
                            setpoint: c_n,
                            margin: out.delta,
                        },
                    );
                }
                if out.next != out.lro && out.next.is_finite() && out.delta.is_finite() {
                    self.telemetry.emit(
                        n as f64,
                        TelemetryEvent::ControllerUpdate {
                            delta: out.delta,
                            length: out.next,
                        },
                    );
                }
            }
            trace.push(out.tau, out.delta, out.lro);
        }
        if runner.is_faulted() {
            self.telemetry
                .counter("faults.injected")
                .add(runner.injected_before(steps as u64));
            self.telemetry
                .counter("controller.relocks")
                .add(runner.relocks());
        }
        trace
    }

    /// Reset the control block to its initial state.
    pub fn reset(&mut self) {
        self.bank.reset();
    }
}

/// Convenience: a step sequence `amplitude · u[n − at]`.
pub fn step_at(at: i64, amplitude: f64) -> impl Fn(i64) -> f64 {
    move |n| if n >= at { amplitude } else { 0.0 }
}

/// Convenience: a constant sequence.
pub fn constant(value: f64) -> impl Fn(i64) -> f64 {
    move |_| value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{FloatIir, FreeRunning, IirConfig, IntIirControl, TeaTime};
    use zdomain::closedloop;

    fn paper_float_loop(m: usize) -> DiscreteLoop {
        let ctrl = FloatIir::from_config(&IirConfig::paper(), 0.0).unwrap();
        DiscreteLoop::new(m, ctrl, Quantization::None)
    }

    /// The central cross-validation: the time-domain loop from rest must
    /// match the z-domain error transfer function H_δ (Eq. 5) for a
    /// set-point step, for several CDN depths.
    #[test]
    fn delta_matches_zdomain_for_setpoint_step() {
        let h = zdomain::iir_paper_filter();
        for m in 0..4usize {
            let mut dl = paper_float_loop(m);
            let c = step_at(0, 1.0);
            let zero = constant(0.0);
            let tr = dl.run(
                &LoopInputs {
                    setpoint: &c,
                    homogeneous: &zero,
                    heterogeneous: &zero,
                },
                80,
            );
            let hd = closedloop::error_transfer(&h, m);
            let want = hd.step_response(80);
            for (k, &want_k) in want.iter().enumerate() {
                assert!(
                    (tr.delta[k] - want_k).abs() < 1e-9,
                    "M={m} k={k}: sim {} vs theory {want_k}",
                    tr.delta[k]
                );
            }
        }
    }

    /// Same cross-validation for the RO length via H_lRO (Eq. 4).
    #[test]
    fn lro_matches_zdomain_for_setpoint_step() {
        let h = zdomain::iir_paper_filter();
        for m in [0usize, 1, 3] {
            let mut dl = paper_float_loop(m);
            let c = step_at(0, 1.0);
            let zero = constant(0.0);
            let tr = dl.run(
                &LoopInputs {
                    setpoint: &c,
                    homogeneous: &zero,
                    heterogeneous: &zero,
                },
                80,
            );
            let hl = closedloop::length_transfer(&h, m);
            let want = hl.step_response(80);
            for (k, &want_k) in want.iter().enumerate() {
                assert!(
                    (tr.lro[k] - want_k).abs() < 1e-9,
                    "M={m} k={k}: sim {} vs theory {want_k}",
                    tr.lro[k]
                );
            }
        }
    }

    /// Homogeneous-variation input enters through the weight
    /// `(1 − z^{−M−1}) z^{−1}` of p(z).
    #[test]
    fn delta_matches_zdomain_for_homogeneous_step() {
        let h = zdomain::iir_paper_filter();
        let m = 2usize;
        let mut dl = paper_float_loop(m);
        let e = step_at(0, 1.0);
        let zero = constant(0.0);
        let tr = dl.run(
            &LoopInputs {
                setpoint: &zero,
                homogeneous: &e,
                heterogeneous: &zero,
            },
            80,
        );
        let hd = closedloop::error_transfer(&h, m);
        let w = closedloop::input_weights(m);
        let weighted =
            zdomain::TransferFunction::new(hd.num().mul(&w.homogeneous), hd.den().clone()).unwrap();
        let want = weighted.step_response(80);
        for (k, &want_k) in want.iter().enumerate() {
            assert!(
                (tr.delta[k] - want_k).abs() < 1e-9,
                "k={k}: sim {} vs theory {want_k}",
                tr.delta[k]
            );
        }
    }

    /// Heterogeneous-variation input enters through `−z^{−M−2}`.
    #[test]
    fn delta_matches_zdomain_for_mismatch_step() {
        let h = zdomain::iir_paper_filter();
        let m = 1usize;
        let mut dl = paper_float_loop(m);
        let mu = step_at(0, 1.0);
        let zero = constant(0.0);
        let tr = dl.run(
            &LoopInputs {
                setpoint: &zero,
                homogeneous: &zero,
                heterogeneous: &mu,
            },
            80,
        );
        let hd = closedloop::error_transfer(&h, m);
        let w = closedloop::input_weights(m);
        let weighted =
            zdomain::TransferFunction::new(hd.num().mul(&w.heterogeneous), hd.den().clone())
                .unwrap();
        let want = weighted.step_response(80);
        for (k, &want_k) in want.iter().enumerate() {
            assert!(
                (tr.delta[k] - want_k).abs() < 1e-9,
                "k={k}: sim {} vs theory {want_k}",
                tr.delta[k]
            );
        }
    }

    /// From equilibrium (length = c), a static mismatch must be fully
    /// compensated: τ returns to c and l_RO settles at c − μ.
    #[test]
    fn integer_loop_cancels_static_mismatch() {
        let c = 64.0;
        let ctrl = IntIirControl::new(IirConfig::paper(), 64).unwrap();
        let mut dl = DiscreteLoop::new(1, ctrl, Quantization::Floor);
        let cseq = constant(c);
        let zero = constant(0.0);
        let mu = step_at(50, 12.0); // 0.1875c mismatch kicks in at period 50
        let tr = dl.run(
            &LoopInputs {
                setpoint: &cseq,
                homogeneous: &zero,
                heterogeneous: &mu,
            },
            600,
        );
        // before the step: perfect equilibrium
        for k in 0..50 {
            assert_eq!(tr.delta[k], 0.0, "k={k}");
        }
        // long after the step: error back within quantization (±1 stage)
        for k in 400..600 {
            assert!(tr.delta[k].abs() <= 1.0, "k={k}: δ={}", tr.delta[k]);
        }
        let tail_lro = tr.lro[599];
        assert!(
            (tail_lro - (c - 12.0)).abs() <= 1.5,
            "l_RO settled at {tail_lro}, expected ≈ {}",
            c - 12.0
        );
    }

    #[test]
    fn teatime_loop_cancels_static_mismatch_with_limit_cycle() {
        let c = 64.0;
        let mut dl = DiscreteLoop::new(1, TeaTime::new(64), Quantization::Floor);
        let cseq = constant(c);
        let zero = constant(0.0);
        let mu = step_at(10, -10.0);
        let tr = dl.run(
            &LoopInputs {
                setpoint: &cseq,
                homogeneous: &zero,
                heterogeneous: &mu,
            },
            400,
        );
        // TEAtime hunts around the target with a small limit cycle.
        for k in 300..400 {
            assert!(tr.delta[k].abs() <= 3.0, "k={k}: δ={}", tr.delta[k]);
        }
    }

    #[test]
    fn free_running_ignores_mismatch() {
        let mut dl = DiscreteLoop::new(1, FreeRunning::new(64), Quantization::None);
        let cseq = constant(64.0);
        let zero = constant(0.0);
        let mu = constant(-8.0);
        let tr = dl.run(
            &LoopInputs {
                setpoint: &cseq,
                homogeneous: &zero,
                heterogeneous: &mu,
            },
            50,
        );
        // error never decays: the free RO cannot see μ
        assert!((tr.delta[49] - 8.0).abs() < 1e-12);
        assert_eq!(tr.lro[49], 64.0);
    }

    #[test]
    fn homogeneous_variation_cancels_at_zero_cdn_delay_in_steady_state() {
        // With M = 0 the RO and the TDC see (nearly) the same e: only the
        // one-period registration skew remains, so a slow e produces a tiny
        // error even for a free-running RO.
        let mut dl = DiscreteLoop::new(0, FreeRunning::new(64), Quantization::None);
        let cseq = constant(64.0);
        let zero = constant(0.0);
        let e = |n: i64| 12.8 * (std::f64::consts::TAU * n as f64 / 1000.0).sin();
        let tr = dl.run(
            &LoopInputs {
                setpoint: &cseq,
                homogeneous: &e,
                heterogeneous: &zero,
            },
            1000,
        );
        let worst = tr.delta.iter().cloned().fold(0.0f64, |a, d| a.max(d.abs()));
        // e[n-2] - e[n-1] for a slow sinusoid is ~ 2π·12.8/1000 ≈ 0.08
        assert!(worst < 0.1, "worst |δ| = {worst}");
    }

    #[test]
    fn empty_faults_and_default_resilience_change_nothing() {
        use crate::resilience::Resilience;
        use clock_faults::FaultSchedule;
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let zero = constant(0.0);
        let e = |n: i64| 9.0 * (std::f64::consts::TAU * n as f64 / 77.0).sin();
        let inputs = LoopInputs {
            setpoint: &c,
            homogeneous: &e,
            heterogeneous: &zero,
        };
        let plain = DiscreteLoop::new(
            1,
            IntIirControl::new(cfg.clone(), 64).unwrap(),
            Quantization::Floor,
        )
        .run(&inputs, 500);
        let dressed =
            DiscreteLoop::new(1, IntIirControl::new(cfg, 64).unwrap(), Quantization::Floor)
                .with_faults(FaultSchedule::new(3))
                .with_resilience(Resilience::default())
                .run(&inputs, 500);
        assert_eq!(plain, dressed);
    }

    #[test]
    fn seu_perturbs_and_loop_relocks_with_fault_telemetry() {
        use clock_faults::{FaultEvent, FaultKind, FaultSchedule};
        let t = clock_telemetry::Telemetry::enabled();
        let schedule = FaultSchedule::new(1).with(FaultEvent {
            at: 100,
            duration: 1,
            kind: FaultKind::SeuLroWord { bit: 5 },
        });
        let ctrl = IntIirControl::new(IirConfig::paper(), 64).unwrap();
        let mut dl = DiscreteLoop::new(1, ctrl, Quantization::Floor)
            .with_faults(schedule)
            .with_telemetry(t.clone());
        let c = constant(64.0);
        let zero = constant(0.0);
        let tr = dl.run(
            &LoopInputs {
                setpoint: &c,
                homogeneous: &zero,
                heterogeneous: &zero,
            },
            800,
        );
        // before the strike: equilibrium
        assert_eq!(tr.delta[50], 0.0);
        // the strike shows up (l_RO[101] carries the flipped word)
        assert_eq!(tr.lro[101], (64 ^ 32) as f64);
        // and the loop pulls back to lock
        assert!(tr.delta[799].abs() <= 1.0, "δ end = {}", tr.delta[799]);
        assert_eq!(t.snapshot().counter("faults.injected"), Some(1));
    }

    #[test]
    fn watchdog_relock_is_counted() {
        use crate::resilience::Resilience;
        use clock_faults::{FaultEvent, FaultKind, FaultSchedule};
        let t = clock_telemetry::Telemetry::enabled();
        let schedule = FaultSchedule::new(1).with(FaultEvent {
            at: 60,
            duration: 40,
            kind: FaultKind::TdcDropout { sensor: 0 },
        });
        let ctrl = IntIirControl::new(IirConfig::paper(), 64).unwrap();
        let mut dl = DiscreteLoop::new(1, ctrl, Quantization::Floor)
            .with_faults(schedule)
            .with_resilience(Resilience::hardened(64.0))
            .with_telemetry(t.clone());
        let c = constant(64.0);
        let zero = constant(0.0);
        let _ = dl.run(
            &LoopInputs {
                setpoint: &c,
                homogeneous: &zero,
                heterogeneous: &zero,
            },
            400,
        );
        assert_eq!(t.snapshot().counter("controller.relocks"), Some(1));
    }

    #[test]
    fn reset_restores_equilibrium() {
        let ctrl = IntIirControl::new(IirConfig::paper(), 64).unwrap();
        let mut dl = DiscreteLoop::new(1, ctrl, Quantization::Floor);
        let cseq = constant(64.0);
        let zero = constant(0.0);
        let mu = constant(5.0);
        let _ = dl.run(
            &LoopInputs {
                setpoint: &cseq,
                homogeneous: &zero,
                heterogeneous: &mu,
            },
            100,
        );
        dl.reset();
        let tr = dl.run(
            &LoopInputs {
                setpoint: &cseq,
                homogeneous: &zero,
                heterogeneous: &zero,
            },
            20,
        );
        for d in tr.delta {
            assert_eq!(d, 0.0);
        }
    }
}
