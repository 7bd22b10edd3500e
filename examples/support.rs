//! Shared helpers for the example binaries.

use adaptive_clock::{RunSummary, RunTrace};
use clock_metrics::Summary;

/// Print a one-line comparison row for a scheme run.
pub fn report_run(label: &str, run: &RunTrace) {
    let errors = run.timing_errors();
    let s = Summary::of(&errors).expect("non-empty run");
    let summary = RunSummary::of(run);
    println!(
        "  {label:<14} margin needed {:6.2} stages | τ−c mean {:6.2}, range [{:6.2}, {:6.2}] | ⟨T⟩ = {:7.2}",
        summary.worst_negative_error,
        s.mean,
        s.min,
        s.max,
        summary.mean_period,
    );
}

/// Render a compact sparkline of a signal (for console storytelling).
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::MAX, f64::min);
    let hi = values.iter().cloned().fold(f64::MIN, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - lo) / span) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.contains('▁'));
        assert!(s.contains('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
