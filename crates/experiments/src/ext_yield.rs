//! `ext-yield` — Monte Carlo statistical timing: yield vs safety margin.
//!
//! The paper demonstrates its self-adaptive clock on *one* device; this
//! extension asks the production question: across a **population** of
//! devices drawn from a process distribution, what safety margin must a
//! deployed scheme budget to hit a target timing yield? Following the
//! post-silicon-tuning SSTA framing, each sampled instance gets a static
//! per-die delay offset (die-to-die + spatially-correlated + local
//! components from [`ProcessSpec`], observed by the paper's TDC sensor
//! grid), rides a slow background HoDV drift inside the loop bandwidth,
//! and is scored by the margin arithmetic of `RunSummary` — the
//! *required margin* being the worst `c − τ` excursion over the
//! **post-lock** window (the first `warmup` periods step the loop but
//! are excluded from the folds, the same methodology fig8 uses).
//!
//! Every cell (scheme × process-σ scale) pushes its whole instance panel
//! through the traceless lane-block path
//! ([`McPanel::summaries`]) — no per-instance traces
//! ever exist — and folds the per-instance summaries into streaming
//! statistics ([`McStats`]: Welford moments + mergeable
//! quantile sketch) plus a timing-yield curve over a deployed-margin
//! grid. Cells are cached under the distribution spec's canonical id,
//! the seed and the panel shape, so re-running a statistical sweep is
//! incremental.
//!
//! [`ProcessSpec`]: variation::process::ProcessSpec

use clock_rescache::Key;
use variation::process::ProcessSpec;

use crate::cache::{key, CacheKeyExt};
use crate::montecarlo::{McPanel, McStats, Scheme, SCHEMES};
use crate::render::{fmt, Table};
use crate::runner::{cached_map, Codec, RunCtx};

/// The fixed Monte Carlo seed: every instance draw derives from it, so
/// the whole panel is reproducible run-to-run and machine-to-machine.
pub const MC_SEED: u64 = 0x0000_1E1D;

/// TDC sensors observing each instance (mean over the grid).
pub const SENSORS: usize = 4;

/// Background HoDV period in clock periods: slow drift well inside the
/// loop bandwidth, so post-lock margins isolate what the sweep is
/// after — the *static process offset* each scheme does (IIR) or does
/// not (free-running) adapt out.
const TE_PERIODS: f64 = 200.0;

/// Deployed-margin grid (stages) the yield curve is evaluated on.
pub const MARGIN_GRID: [f64; 9] = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0];

/// Per-instance lanes per dispatch chunk.
const CHUNK: usize = 128;

/// One cell of the yield sweep: a scheme at a process-σ scale, scored
/// over the whole sampled population.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldCell {
    /// Control scheme.
    pub scheme: Scheme,
    /// Multiplier applied to every sigma of the base [`ProcessSpec`].
    pub sigma_scale: f64,
    /// Instances sampled.
    pub samples: u64,
    /// Mean required safety margin (stages).
    pub margin_mean: f64,
    /// Sample σ of the required margin.
    pub margin_sigma: f64,
    /// Margin quantiles p50 / p90 / p99 (stages).
    pub margin_p50: f64,
    /// 90th percentile margin.
    pub margin_p90: f64,
    /// 99th percentile margin.
    pub margin_p99: f64,
    /// Worst margin over the population.
    pub margin_max: f64,
    /// Mean adapted period over the population (stages).
    pub period_mean: f64,
    /// Timing yield at each [`MARGIN_GRID`] deployed margin.
    pub yields: Vec<f64>,
}

const PAYLOAD: usize = 8 + MARGIN_GRID.len();

pub(crate) fn panel(ctx: &RunCtx, sigma_scale: f64, quick: bool) -> McPanel {
    let (instances, steps) = if quick { (512, 2_000) } else { (4_096, 8_000) };
    McPanel {
        spec: ProcessSpec::paper().scaled(sigma_scale),
        seed: MC_SEED,
        instances,
        steps,
        warmup: ctx.params.warmup,
        chunk: CHUNK,
        sensors: SENSORS,
        setpoint: ctx.params.setpoint,
        m: 1,
        amplitude: ctx.params.amplitude(),
        te_periods: TE_PERIODS,
    }
}

fn cell_key(ctx: &RunCtx, scheme: Scheme, sigma_scale: f64, quick: bool) -> Key {
    let p = panel(ctx, sigma_scale, quick);
    let mut k = key("yield-cell")
        .params(&ctx.params)
        .str("spec", &p.spec.canonical_id())
        .u64("seed", MC_SEED)
        .str("scheme", scheme.label())
        .u64("instances", p.instances as u64)
        .u64("steps", p.steps as u64)
        .u64("warmup", p.warmup as u64)
        .u64("sensors", SENSORS as u64)
        .u64("m", p.m as u64)
        .f64("te_periods", TE_PERIODS);
    for (i, &m) in MARGIN_GRID.iter().enumerate() {
        k = k.f64(&format!("grid{i}"), m);
    }
    k.finish()
}

/// A cell's payload: its scalar statistics in declaration order, then the
/// yield curve.
const CELL: Codec<(Scheme, f64), YieldCell> = Codec {
    arity: Some(PAYLOAD),
    encode: |cell| {
        let mut v = vec![
            cell.samples as f64,
            cell.margin_mean,
            cell.margin_sigma,
            cell.margin_p50,
            cell.margin_p90,
            cell.margin_p99,
            cell.margin_max,
            cell.period_mean,
        ];
        v.extend_from_slice(&cell.yields);
        v
    },
    decode: |&(scheme, sigma_scale), v| YieldCell {
        scheme,
        sigma_scale,
        samples: v[0] as u64,
        margin_mean: v[1],
        margin_sigma: v[2],
        margin_p50: v[3],
        margin_p90: v[4],
        margin_p99: v[5],
        margin_max: v[6],
        period_mean: v[7],
        yields: v[8..].to_vec(),
    },
};

fn compute_cell(ctx: &RunCtx, scheme: Scheme, sigma_scale: f64, quick: bool) -> YieldCell {
    let p = panel(ctx, sigma_scale, quick);
    let summaries = p.summaries(scheme, &ctx.telemetry);
    // Fold per-chunk statistics and merge in chunk order — the same
    // recombination a distributed panel would do, deterministic because
    // the Welford merge order is fixed and the sketch merge is
    // order-invariant.
    let mut stats = McStats::new();
    for part in summaries.chunks(CHUNK) {
        let mut s = McStats::new();
        s.push_all(part);
        stats.merge(&s);
    }
    let yields = MARGIN_GRID
        .iter()
        .map(|&m| stats.yield_at(&summaries, m))
        .collect();
    YieldCell {
        scheme,
        sigma_scale,
        samples: stats.samples,
        margin_mean: stats.margin.mean(),
        margin_sigma: stats.margin.sigma(),
        margin_p50: stats.margin_sketch.quantile(0.5).unwrap_or(f64::NAN),
        margin_p90: stats.margin_sketch.quantile(0.9).unwrap_or(f64::NAN),
        margin_p99: stats.margin_sketch.quantile(0.99).unwrap_or(f64::NAN),
        margin_max: stats.margin_sketch.max().unwrap_or(f64::NAN),
        period_mean: stats.period.mean(),
        yields,
    }
}

/// The process-σ scales [`run`] sweeps.
pub(crate) fn scales(quick: bool) -> &'static [f64] {
    if quick {
        &[1.0]
    } else {
        &[0.5, 1.0, 2.0]
    }
}

/// Run the yield sweep: every scheme at σ-scale 1.0 (quick) or
/// {0.5, 1.0, 2.0} (full). The cells run one after another, one
/// `cached_map` call each, so a cell to compute runs on the calling
/// thread: each cell already spreads its instance panel across the worker
/// pool.
pub fn run(ctx: &RunCtx, quick: bool) -> Vec<YieldCell> {
    let scales = scales(quick);
    let mut cells = Vec::with_capacity(SCHEMES.len() * scales.len());
    for &scale in scales {
        for scheme in SCHEMES {
            cells.extend(cached_map(
                ctx,
                &[(scheme, scale)],
                CELL,
                |&(scheme, scale)| vec![cell_key(ctx, scheme, scale, quick)],
                // A lone task: its cost orders nothing.
                |_| 1,
                |&(scheme, scale)| vec![compute_cell(ctx, scheme, scale, quick)],
            ));
        }
    }
    cells
}

/// Render the margin-statistics table, the yield-curve table and the
/// grep-able totals line.
pub fn render(cells: &[YieldCell]) -> String {
    let mut stats = Table::new([
        "scheme", "sigma x", "margin", "sigma", "p50", "p90", "p99", "max", "period",
    ]);
    for c in cells {
        stats.row([
            c.scheme.label().to_owned(),
            fmt(c.sigma_scale),
            fmt(c.margin_mean),
            fmt(c.margin_sigma),
            fmt(c.margin_p50),
            fmt(c.margin_p90),
            fmt(c.margin_p99),
            fmt(c.margin_max),
            fmt(c.period_mean),
        ]);
    }
    let mut curve = Table::new(
        ["scheme", "sigma x"]
            .into_iter()
            .map(str::to_owned)
            .chain(MARGIN_GRID.iter().map(|m| format!("y@{m:.0}")))
            .collect::<Vec<String>>(),
    );
    for c in cells {
        curve.row(
            [c.scheme.label().to_owned(), fmt(c.sigma_scale)]
                .into_iter()
                .chain(c.yields.iter().map(|&y| fmt(y)))
                .collect::<Vec<String>>(),
        );
    }
    let samples: u64 = cells.iter().map(|c| c.samples).sum();
    format!(
        "ext-yield — Monte Carlo timing yield at seed {MC_SEED:#x}: per-instance process \
         offsets (die-to-die + correlated + local, {SENSORS} sensors) through the traceless \
         lane-block path.\n\
         Required margin: worst c − τ over the post-warmup window. Yield at m: \
         fraction of instances with margin <= m.\n\n\
         {}\n\ntiming yield vs deployed margin (stages):\n\n{}\n\
         total: {samples} instances across {} cells\n",
        stats.render(),
        curve.render(),
        cells.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;

    fn ctx() -> RunCtx {
        RunCtx::new(PaperParams::default())
    }

    #[test]
    fn yield_sweep_is_deterministic() {
        let a = run(&ctx(), true);
        let b = run(&ctx(), true);
        assert_eq!(a, b);
        assert_eq!(a.len(), SCHEMES.len());
        for cell in &a {
            assert_eq!(cell.samples, 512);
            assert_eq!(cell.yields.len(), MARGIN_GRID.len());
        }
    }

    #[test]
    fn closed_loop_needs_less_margin_than_free_running() {
        let cells = run(&ctx(), true);
        let by = |s: Scheme| cells.iter().find(|c| c.scheme == s).unwrap();
        let iir = by(Scheme::IntIir);
        let free = by(Scheme::Free);
        assert!(
            iir.margin_p90 < free.margin_p90,
            "IIR p90 {} vs Free p90 {}",
            iir.margin_p90,
            free.margin_p90
        );
        assert!(iir.margin_mean < free.margin_mean);
        // At any realistic deployed margin the adaptive scheme yields at
        // least as many good devices. (m = 0 is excluded: the IIR's ±1
        // quantization ripple means it always needs *some* margin, while
        // a lucky fast free-running die needs none.)
        for (i, (yi, yf)) in iir.yields.iter().zip(&free.yields).enumerate() {
            if MARGIN_GRID[i] < 2.0 {
                continue;
            }
            assert!(yi >= yf, "margin {}: IIR {yi} < Free {yf}", MARGIN_GRID[i]);
        }
    }

    #[test]
    fn yield_curves_are_monotone_probabilities() {
        for cell in run(&ctx(), true) {
            let mut prev = 0.0;
            for (&m, &y) in MARGIN_GRID.iter().zip(&cell.yields) {
                assert!(
                    (0.0..=1.0).contains(&y),
                    "{} y@{m} = {y}",
                    cell.scheme.label()
                );
                assert!(
                    y >= prev,
                    "{} yield not monotone at {m}",
                    cell.scheme.label()
                );
                prev = y;
            }
        }
    }

    #[test]
    fn all_outputs_are_finite() {
        for c in run(&ctx(), true) {
            for v in [
                c.margin_mean,
                c.margin_sigma,
                c.margin_p50,
                c.margin_p90,
                c.margin_p99,
                c.margin_max,
                c.period_mean,
            ] {
                assert!(v.is_finite(), "{}: non-finite stat", c.scheme.label());
            }
        }
    }

    #[test]
    fn render_ends_with_greppable_totals() {
        let out = render(&run(&ctx(), true));
        let last = out.trim_end().lines().last().unwrap();
        assert!(last.starts_with("total: "), "missing totals line: {last}");
        assert!(out.contains("timing yield vs deployed margin"));
    }

    #[test]
    fn cached_cells_roundtrip_exactly() {
        use crate::cache::SweepCache;
        use clock_telemetry::Telemetry;
        let t = Telemetry::disabled();
        let ctx = RunCtx::new(PaperParams::default()).with_cache(SweepCache::in_memory(&t));
        let cold = run(&ctx, true);
        let warm = run(&ctx, true);
        assert_eq!(cold, warm);
    }
}
