//! Timing-violation and re-lock accounting for faulted runs.
//!
//! The margin accounting of the [crate docs](crate) assumes a clean run
//! whose worst excursion *is* the needed safety margin. Under fault
//! injection the question inverts: given a deployed margin, **how often is
//! it violated, how far, and how fast does the loop re-lock?**
//! [`violation_report`] answers all three from a `τ` trace.
//!
//! Every output is guaranteed finite for any input (non-finite `τ` samples
//! are counted as *dropped* and excluded from the accounting; all divisions
//! are guarded), which the chaos proptests rely on.

/// Violation and re-lock statistics of one faulted run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViolationReport {
    /// Samples inspected (the trace length).
    pub samples: usize,
    /// Samples excluded because `τ` was non-finite.
    pub dropped: usize,
    /// Delivered edges whose excursion `c − τ` exceeded the deployed
    /// margin — each one is a setup-time violation.
    pub violations: usize,
    /// `violations / samples` (0 for an empty trace).
    pub violation_rate: f64,
    /// Largest excursion `c − τ` observed, clamped below at 0 (a run that
    /// never undershoots reports 0).
    pub worst_excursion: f64,
    /// Out-of-lock episodes that ended with the loop re-locked.
    pub relock_events: usize,
    /// Mean periods from losing lock to re-locking (0 with no events).
    pub mean_time_to_relock: f64,
    /// Worst re-lock time in periods (0 with no events).
    pub max_time_to_relock: f64,
    /// Whether the run ended still out of lock.
    pub unresolved: bool,
}

/// Scan a `τ` trace against set-point `setpoint` with a deployed safety
/// margin of `margin` stages.
///
/// A sample violates timing when it is finite and `setpoint − τ > margin`
/// (the delivered period ate through the whole margin). Lock is tracked by
/// the absolute error: an out-of-lock episode opens when
/// `|setpoint − τ| > lock_tolerance` and closes at the first sample that
/// starts `lock_run` consecutive samples back inside the tolerance; the
/// episode's re-lock time is the number of periods from its opening to
/// that sample. Non-finite samples drop out of both accountings.
pub fn violation_report(
    setpoint: f64,
    tau: &[f64],
    margin: f64,
    lock_tolerance: f64,
    lock_run: usize,
) -> ViolationReport {
    let lock_run = lock_run.max(1);
    let mut dropped = 0usize;
    let mut violations = 0usize;
    let mut worst = 0.0f64;
    let mut episode_start: Option<usize> = None;
    let mut quiet_run = 0usize;
    let mut relock_times: Vec<f64> = Vec::new();
    for (n, &t) in tau.iter().enumerate() {
        if !t.is_finite() {
            dropped += 1;
            // an unreadable sample cannot attest lock
            quiet_run = 0;
            continue;
        }
        let excursion = setpoint - t;
        if excursion > margin {
            violations += 1;
        }
        if excursion > worst {
            worst = excursion;
        }
        if excursion.abs() > lock_tolerance {
            if episode_start.is_none() {
                episode_start = Some(n);
            }
            quiet_run = 0;
        } else if let Some(start) = episode_start {
            quiet_run += 1;
            if quiet_run >= lock_run {
                // re-locked at the first sample of the quiet run
                let relock_at = n + 1 - quiet_run;
                relock_times.push((relock_at - start) as f64);
                episode_start = None;
                quiet_run = 0;
            }
        }
    }
    let samples = tau.len();
    let violation_rate = if samples > 0 {
        violations as f64 / samples as f64
    } else {
        0.0
    };
    let relock_events = relock_times.len();
    let (mean_ttr, max_ttr) = if relock_events > 0 {
        let sum: f64 = relock_times.iter().sum();
        let max = relock_times.iter().cloned().fold(0.0f64, f64::max);
        (sum / relock_events as f64, max)
    } else {
        (0.0, 0.0)
    };
    ViolationReport {
        samples,
        dropped,
        violations,
        violation_rate,
        worst_excursion: if worst.is_finite() { worst } else { 0.0 },
        relock_events,
        mean_time_to_relock: mean_ttr,
        max_time_to_relock: max_ttr,
        unresolved: episode_start.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_trace_reports_nothing() {
        let tau = vec![64.0; 100];
        let r = violation_report(64.0, &tau, 6.0, 2.0, 5);
        assert_eq!(r.samples, 100);
        assert_eq!(r.violations, 0);
        assert_eq!(r.violation_rate, 0.0);
        assert_eq!(r.worst_excursion, 0.0);
        assert_eq!(r.relock_events, 0);
        assert!(!r.unresolved);
    }

    #[test]
    fn one_burst_counts_violations_and_relock_time() {
        let mut tau = vec![64.0; 50];
        // periods 10..14 undershoot by 10 stages (margin 6 → violations)
        for t in &mut tau[10..15] {
            *t = 54.0;
        }
        // 15..19 undershoot by 3 (out of lock tol 2, inside margin)
        for t in &mut tau[15..20] {
            *t = 61.0;
        }
        let r = violation_report(64.0, &tau, 6.0, 2.0, 5);
        assert_eq!(r.violations, 5);
        assert_eq!(r.worst_excursion, 10.0);
        assert_eq!(r.relock_events, 1);
        // lock lost at 10, regained at 20
        assert_eq!(r.mean_time_to_relock, 10.0);
        assert_eq!(r.max_time_to_relock, 10.0);
        assert!(!r.unresolved);
    }

    #[test]
    fn overshoot_is_locked_out_but_not_a_violation() {
        let mut tau = vec![64.0; 30];
        for t in &mut tau[5..10] {
            *t = 80.0; // long periods: safe, but out of lock
        }
        let r = violation_report(64.0, &tau, 6.0, 2.0, 3);
        assert_eq!(r.violations, 0);
        assert_eq!(r.worst_excursion, 0.0);
        assert_eq!(r.relock_events, 1);
        assert_eq!(r.mean_time_to_relock, 5.0);
    }

    #[test]
    fn unresolved_episode_is_flagged() {
        let mut tau = vec![64.0; 20];
        for t in &mut tau[15..20] {
            *t = 40.0;
        }
        let r = violation_report(64.0, &tau, 6.0, 2.0, 5);
        assert!(r.unresolved);
        assert_eq!(r.relock_events, 0);
        assert_eq!(r.mean_time_to_relock, 0.0);
    }

    #[test]
    fn non_finite_samples_drop_out_and_outputs_stay_finite() {
        let tau = vec![f64::NAN, 64.0, f64::INFINITY, 30.0, f64::NEG_INFINITY, 64.0];
        let r = violation_report(64.0, &tau, 6.0, 2.0, 2);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.violations, 1);
        for v in [
            r.violation_rate,
            r.worst_excursion,
            r.mean_time_to_relock,
            r.max_time_to_relock,
        ] {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let r = violation_report(64.0, &[], 6.0, 2.0, 5);
        assert_eq!(r.samples, 0);
        assert_eq!(r.violation_rate, 0.0);
        assert!(!r.unresolved);
    }

    #[test]
    fn multiple_episodes_average() {
        let mut tau = vec![64.0; 60];
        for t in &mut tau[10..14] {
            *t = 50.0; // 4-period episode
        }
        for t in &mut tau[30..38] {
            *t = 50.0; // 8-period episode
        }
        let r = violation_report(64.0, &tau, 6.0, 2.0, 3);
        assert_eq!(r.relock_events, 2);
        assert_eq!(r.mean_time_to_relock, 6.0);
        assert_eq!(r.max_time_to_relock, 8.0);
    }
}
