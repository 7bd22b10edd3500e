//! `adaptive-clock-bench` — shared helpers for the Criterion benchmark
//! suite in `benches/`.
//!
//! Three benchmark groups live here:
//!
//! * `figures` — one benchmark per paper artifact (Table I, Fig. 2, the
//!   Fig. 7 panels, both Fig. 8 panels, a Fig. 9 panel, the §IV worked
//!   examples and the §III-A constraint/stability analysis). Each prints a
//!   compact headline of the regenerated rows before timing, so a bench
//!   run doubles as a reproduction run.
//! * `engine` — microbenchmarks of the substrates (event loop, discrete
//!   loop, batched lanes, dtsim graph, controllers, root finding, Jury
//!   test).
//! * `ablation` — design-choice sweeps the paper motivates: IIR
//!   coefficient sets, TDC quantization, sensor-bank size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use experiments::results::ExperimentResult;

/// Print a one-line headline for a regenerated figure (outside timing
/// loops): series labels plus first/last y values.
pub fn headline(result: &ExperimentResult) {
    let mut parts = Vec::new();
    for s in &result.series {
        if let (Some(first), Some(last)) = (s.y.first(), s.y.last()) {
            parts.push(format!("{}: {:.3}→{:.3}", s.label, first, last));
        }
    }
    println!("[{}] {}", result.id, parts.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::results::Series;

    #[test]
    fn headline_does_not_panic_on_empty() {
        headline(&ExperimentResult::new("x", "y"));
        let r = ExperimentResult::new("a", "b").with_series(Series::new(
            "s",
            vec![1.0, 2.0],
            vec![3.0, 4.0],
        ));
        headline(&r);
    }
}
