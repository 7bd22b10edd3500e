//! Extension: robustness under realistic broadband variation instead of
//! the paper's single-tone HoDV — band-limited supply noise, an
//! Ornstein–Uhlenbeck temperature drift, and a train of SSN droop bursts,
//! all at once.
//!
//! The single-tone figures say adaptation wins when the perturbation is
//! slow relative to the loop delay; a broadband profile contains both
//! regimes, so this experiment checks which fraction of the fixed clock's
//! margin survives in the mix.

use adaptive_clock::event::SummarySink;
use adaptive_clock::system::{Scheme, SystemBuilder};
use variation::sources::Composite;
use variation::stochastic::{OuProcess, SsnBursts, SsnConfig};

use crate::cache::CacheKeyExt as _;
use crate::config::PaperParams;
use crate::render::{fmt, Table};
use crate::results::{ExperimentResult, Series};
use crate::runner::{adaptive_schemes, cached_map, Codec, RunCtx};

/// Build the broadband profile for a given seed: slow OU temperature drift
/// (σ = 0.1c, τ = 400c) + occasional SSN droops (amplitude up to 0.1c,
/// duration 20–60c, mean gap 300c).
pub fn broadband_profile(params: &PaperParams, seed: u64, horizon: f64) -> Composite {
    let c = params.setpoint as f64;
    Composite::new()
        .with(OuProcess::new(seed, 0.1 * c, 400.0 * c, horizon, c / 4.0))
        .with(SsnBursts::new(
            seed.wrapping_add(1),
            SsnConfig {
                mean_gap: 300.0 * c,
                amplitude: (0.02 * c, 0.1 * c),
                duration: (20.0 * c, 60.0 * c),
                horizon,
            },
        ))
}

/// Relative adaptive period per scheme, averaged over `seeds` independent
/// broadband profiles.
///
/// One plan covers every seed: a seed builds its profile once, runs the
/// fixed-clock baseline once, and measures the three adaptive schemes
/// against it. The result cache is still consulted per `(scheme, seed)`
/// grid point; a seed short-circuits only when all three of its points
/// hit.
pub fn run(ctx: &RunCtx, seeds: &[u64]) -> ExperimentResult {
    let params = &ctx.params;
    let c = params.setpoint;
    let samples = 20_000usize;
    let horizon = (samples as f64 + 10.0) * 1.5 * c as f64;
    let schemes = adaptive_schemes();
    let point_key = |scheme: &Scheme, seed: u64| {
        crate::cache::key("ext-noise")
            .params(params)
            .scheme(scheme)
            .u64("seed", seed)
            .u64("budget.samples", samples as u64)
            .finish()
    };

    // One row of per-scheme ratios per seed, rows back to back.
    let ratios = cached_map(
        ctx,
        seeds,
        Codec::SCALAR,
        |&seed| schemes.iter().map(|s| point_key(s, seed)).collect(),
        // The fixed baseline plus one run per adaptive scheme.
        |_| (1 + schemes.len() as u64) * samples as u64,
        |&seed| {
            let profile = broadband_profile(params, seed, horizon);
            let fold = || SummarySink::with_warmup(params.warmup);
            let fixed = SystemBuilder::new(c)
                .scheme(Scheme::Fixed)
                .build()
                .expect("valid configuration")
                .run_with(&profile, samples, fold());
            schemes
                .iter()
                .map(|scheme| {
                    SystemBuilder::new(c)
                        .cdn_delay(c as f64)
                        .scheme(scheme.clone())
                        .build()
                        .expect("valid configuration")
                        .run_with(&profile, samples, fold())
                        .relative_to(&fixed)
                })
                .collect()
        },
    );
    let mut result = ExperimentResult::new(
        "ext-noise",
        format!(
            "Relative adaptive period under broadband variation \
             (OU drift σ=0.1c τ=400c + SSN droops; c = {c}, t_clk = c; \
             {} seeds)",
            seeds.len()
        ),
    );
    let xs: Vec<f64> = seeds.iter().map(|&s| s as f64).collect();
    for (i, scheme) in schemes.iter().enumerate() {
        let ys = ratios.chunks(schemes.len()).map(|row| row[i]).collect();
        result = result.with_series(Series::new(scheme.label(), xs.clone(), ys));
    }
    result
}

/// Render as a per-seed table with per-scheme means.
pub fn render(result: &ExperimentResult) -> String {
    let mut headers = vec!["seed".to_owned()];
    headers.extend(result.series.iter().map(|s| s.label.clone()));
    let mut t = Table::new(headers);
    if let Some(first) = result.series.first() {
        for (i, &x) in first.x.iter().enumerate() {
            let mut row = vec![format!("{x}")];
            row.extend(result.series.iter().map(|s| fmt(s.y[i])));
            t.row(row);
        }
    }
    let mut out = format!("Extension — {}\n\n{}", result.description, t.render());
    for s in &result.series {
        if s.y.is_empty() {
            continue;
        }
        let ci = clock_metrics::bootstrap::bootstrap_mean_ci(&s.y, 0.95, 2000, 0xBEEF);
        out.push_str(&format!(
            "mean ratio for {}: {:.4}  (95% bootstrap CI [{:.4}, {:.4}])\n",
            s.label, ci.mean, ci.lo, ci.hi
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SweepCache;
    use clock_telemetry::Telemetry;
    use variation::Waveform;

    /// The per-`(scheme, seed)` key recipe caches written by earlier
    /// releases hold; spelled out here so a change to it fails a test.
    fn pinned_key(params: &PaperParams, scheme: &Scheme, seed: u64) -> clock_rescache::Key {
        crate::cache::key("ext-noise")
            .params(params)
            .scheme(scheme)
            .u64("seed", seed)
            .u64("budget.samples", 20_000)
            .finish()
    }

    fn series_bits(r: &ExperimentResult) -> Vec<(String, Vec<u64>)> {
        r.series
            .iter()
            .map(|s| (s.label.clone(), s.y.iter().map(|y| y.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn reads_existing_caches_under_the_pinned_keys() {
        let params = PaperParams::default();
        let cache = SweepCache::in_memory(&Telemetry::disabled());
        let seeds = [5, 6];
        for (i, scheme) in adaptive_schemes().iter().enumerate() {
            for &seed in &seeds {
                let sentinel = 0.25 + i as f64 + seed as f64 / 100.0;
                cache.put_f64s(pinned_key(&params, scheme, seed), &[sentinel]);
            }
        }
        let r = run(&RunCtx::new(params).with_cache(cache.clone()), &seeds);
        for (i, s) in r.series.iter().enumerate() {
            let want: Vec<f64> = seeds
                .iter()
                .map(|&seed| 0.25 + i as f64 + seed as f64 / 100.0)
                .collect();
            assert_eq!(s.y, want, "{}", s.label);
        }
        assert_eq!(cache.stats().expect("enabled").misses, 0);
    }

    #[test]
    fn warm_rerun_computes_nothing_and_partial_caches_recompute_identically() {
        let params = PaperParams::default();
        let seeds = [11, 22];
        let uncached = run(&RunCtx::new(params), &seeds);

        let telemetry = Telemetry::enabled();
        let cache = SweepCache::in_memory(&telemetry);
        let ctx = RunCtx::new(params).with_cache(cache.clone());
        let cold = run(&ctx, &seeds);
        let written = telemetry.snapshot().counter("cache.bytes_written");
        let cold_stats = cache.stats().expect("enabled");
        let warm = run(&ctx, &seeds);
        let warm_stats = cache.stats().expect("enabled");
        assert_eq!(warm_stats.misses, cold_stats.misses, "warm rerun missed");
        assert_eq!(warm_stats.hits - cold_stats.hits, 3 * seeds.len() as u64);
        assert_eq!(telemetry.snapshot().counter("cache.bytes_written"), written);
        assert_eq!(series_bits(&cold), series_bits(&uncached));
        assert_eq!(series_bits(&warm), series_bits(&uncached));

        // Only the IIR RO point of each seed cached: the seed recomputes
        // and the other schemes' ratios come out the same.
        let partial = SweepCache::in_memory(&Telemetry::disabled());
        let iir = uncached.series_named("IIR RO").expect("series present");
        for (&seed, &y) in seeds.iter().zip(&iir.y) {
            partial.put_f64s(pinned_key(&params, &Scheme::iir_paper(), seed), &[y]);
        }
        let mixed = run(&RunCtx::new(params).with_cache(partial), &seeds);
        assert_eq!(series_bits(&mixed), series_bits(&uncached));
    }

    #[test]
    fn adaptive_schemes_beat_fixed_under_broadband_variation() {
        let ctx = RunCtx::new(PaperParams::default());
        let r = run(&ctx, &[11, 22]);
        for s in &r.series {
            for (seed, ratio) in s.x.iter().zip(&s.y) {
                assert!(
                    *ratio < 1.0,
                    "{} seed {seed}: ratio {ratio} should be below 1 (slow-dominated profile)",
                    s.label
                );
                assert!(*ratio > 0.5, "{}: ratio {ratio} suspiciously low", s.label);
            }
        }
    }

    #[test]
    fn profile_is_reproducible() {
        let params = PaperParams::default();
        let a = broadband_profile(&params, 5, 1e6);
        let b = broadband_profile(&params, 5, 1e6);
        for k in 0..100 {
            let t = k as f64 * 1234.5;
            assert_eq!(a.value(t), b.value(t));
        }
    }

    #[test]
    fn render_reports_means_with_confidence_intervals() {
        let ctx = RunCtx::new(PaperParams::default());
        let r = run(&ctx, &[3, 4]);
        let text = render(&r);
        assert!(text.contains("mean ratio for IIR RO"));
        assert!(text.contains("95% bootstrap CI"));
    }
}
