//! `ext-faults` — chaos experiment: fault class × rate × scheme.
//!
//! The paper's robustness story is about *variation* — slow HoDV drift,
//! static mismatch, jitter. This extension asks the harsher question a
//! deployed self-adaptive clock faces: what happens under *faults* —
//! sensor dropout, stuck TDC codes, SEU bit-flips in the controller state
//! or the `l_RO` word, clock-edge glitches, dying RO stages?
//!
//! Every cell of the sweep runs the same deterministic
//! [`FaultSchedule::random`] strike plan (seeded from [`CHAOS_SEED`])
//! through four lanes of one [`BatchLoop`]:
//!
//! 1. **IIR RO** — the paper's integer IIR controller, unhardened;
//! 2. **IIR+res RO** — the same controller behind
//!    [`Resilience::hardened`] (median-of-sensors vote, saturation
//!    clamps, stale-sample watchdog with free-run + re-lock);
//! 3. **TEAtime RO** — the bang-bang baseline;
//! 4. **Free RO** — no feedback at all.
//!
//! Each lane is scored with [`violation_report`] against a deployed
//! safety margin of [`MARGIN`] stages: violation count and rate, worst
//! excursion, re-lock episodes, and mean/max time-to-re-lock (MTTR).
//! Identical schedules across lanes make the columns directly
//! comparable: the *fault exposure* is held fixed while the *scheme*
//! varies.
//!
//! Cells are cached under a key that hashes the canonical schedule id
//! and the resilience configuration, so faulted results can never
//! collide with clean-run summaries (different `kind`, and a "clean"
//! schedule id is itself part of the key).

use adaptive_clock::batch::{BatchLoop, TraceSink};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::loopsim::{constant, LoopInputs};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use clock_faults::{FaultClass, FaultSchedule};
use clock_metrics::{violation_report, ViolationReport};
use clock_rescache::Key;

use crate::cache::{key, CacheKeyExt};
use crate::render::{fmt, Table};
use crate::runner::{cached_map, Codec, RunCtx};

/// The fixed chaos seed: every strike plan derives from it, so the whole
/// table is reproducible run-to-run and machine-to-machine.
pub const CHAOS_SEED: u64 = 0x000C_1A05;

/// Deployed safety margin (stages) the violation accounting is scored
/// against: an edge with `c − τ > MARGIN` is a timing violation.
pub const MARGIN: f64 = 6.0;

/// Lock is lost while `|c − τ|` exceeds this band (stages).
const LOCK_TOLERANCE: f64 = 2.0;

/// Consecutive in-band samples required to declare the loop re-locked.
const LOCK_RUN: usize = 20;

/// Redundant TDC sensors visible to the fault models and the median vote.
pub const SENSORS: usize = 3;

/// Background HoDV period in clock periods (slow drift, well inside the
/// loop bandwidth — the faults, not the drift, drive the violations).
const TE_PERIODS: f64 = 200.0;

/// Lane line-up, in table order.
pub const SCHEMES: [&str; 4] = ["IIR RO", "IIR+res RO", "TEAtime RO", "Free RO"];

/// Violation scoring of one scheme under one cell's strike plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneOutcome {
    /// Scheme label (one of [`SCHEMES`]).
    pub scheme: &'static str,
    /// Violation / re-lock statistics of the lane's `τ` trace.
    pub report: ViolationReport,
}

/// One cell of the chaos grid: a fault class at an injection rate,
/// scored across the whole scheme line-up.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCell {
    /// Fault class injected.
    pub class: FaultClass,
    /// Requested injection rate (strikes per 1000 periods, before
    /// refractory thinning).
    pub rate: f64,
    /// Fault events that actually fired inside the horizon.
    pub injected: u64,
    /// One outcome per scheme, in [`SCHEMES`] order.
    pub lanes: Vec<LaneOutcome>,
}

const LANE_FIELDS: usize = 9;
const PAYLOAD: usize = 1 + SCHEMES.len() * LANE_FIELDS;

fn schedule_for(class: FaultClass, rate: f64, horizon: usize) -> FaultSchedule {
    FaultSchedule::random(
        CHAOS_SEED ^ rate.to_bits(),
        class,
        rate,
        horizon as u64,
        SENSORS,
    )
}

fn cell_key(ctx: &RunCtx, class: FaultClass, rate: f64, horizon: usize) -> Key {
    let schedule = schedule_for(class, rate, horizon);
    key("fault-cell")
        .params(&ctx.params)
        .str("class", class.label())
        .f64("rate", rate)
        .u64("horizon", horizon as u64)
        .u64("seed", CHAOS_SEED)
        .str("faults", &schedule.canonical_id())
        .str(
            "resilience",
            &Resilience::hardened(ctx.params.setpoint as f64).canonical_id(),
        )
        .str("schemes", &SCHEMES.join(","))
        .f64("margin", MARGIN)
        .f64("lock_tolerance", LOCK_TOLERANCE)
        .u64("lock_run", LOCK_RUN as u64)
        .u64("sensors", SENSORS as u64)
        .f64("te_periods", TE_PERIODS)
        .finish()
}

/// A cell's payload: the injected count, then [`LANE_FIELDS`] values per
/// lane in [`SCHEMES`] order.
const CELL: Codec<(FaultClass, f64), FaultCell> = Codec {
    arity: Some(PAYLOAD),
    encode: |cell| {
        let mut values = vec![cell.injected as f64];
        for r in cell.lanes.iter().map(|lane| &lane.report) {
            values.extend([
                r.samples as f64,
                r.dropped as f64,
                r.violations as f64,
                r.violation_rate,
                r.worst_excursion,
                r.relock_events as f64,
                r.mean_time_to_relock,
                r.max_time_to_relock,
                if r.unresolved { 1.0 } else { 0.0 },
            ]);
        }
        values
    },
    decode: |&(class, rate), v| FaultCell {
        class,
        rate,
        injected: v[0] as u64,
        lanes: SCHEMES
            .iter()
            .zip(v[1..].chunks(LANE_FIELDS))
            .map(|(&scheme, v)| LaneOutcome {
                scheme,
                report: ViolationReport {
                    samples: v[0] as usize,
                    dropped: v[1] as usize,
                    violations: v[2] as usize,
                    violation_rate: v[3],
                    worst_excursion: v[4],
                    relock_events: v[5] as usize,
                    mean_time_to_relock: v[6],
                    max_time_to_relock: v[7],
                    unresolved: v[8] != 0.0,
                },
            })
            .collect(),
    },
};

fn compute_cell(ctx: &RunCtx, class: FaultClass, rate: f64, horizon: usize) -> FaultCell {
    let c = ctx.params.setpoint;
    let schedule = schedule_for(class, rate, horizon);
    let cfg = IirConfig::paper();
    let iir = || Controller::int_iir(&cfg, c).expect("paper IIR gains are a valid configuration");
    let mut batch = BatchLoop::new().with_telemetry(ctx.telemetry.clone());
    batch.push_with(
        1,
        iir(),
        Quantization::Floor,
        schedule.clone(),
        Resilience::default(),
    );
    batch.push_with(
        1,
        iir(),
        Quantization::Floor,
        schedule.clone(),
        Resilience::hardened(c as f64),
    );
    batch.push_with(
        1,
        Controller::teatime(c, 1.0),
        Quantization::Floor,
        schedule.clone(),
        Resilience::default(),
    );
    batch.push_with(
        1,
        Controller::free(c),
        Quantization::Floor,
        schedule.clone(),
        Resilience::default(),
    );

    let setpoint = constant(c as f64);
    let zero = constant(0.0);
    let amp = ctx.params.amplitude();
    let hodv = move |n: i64| amp * (std::f64::consts::TAU * n as f64 / TE_PERIODS).sin();
    let inputs: Vec<LoopInputs<'_>> = (0..SCHEMES.len())
        .map(|_| LoopInputs {
            setpoint: &setpoint,
            homogeneous: &hodv,
            heterogeneous: &zero,
        })
        .collect();
    let tr = batch.run(&inputs, horizon, TraceSink::default());

    let lanes: Vec<LaneOutcome> = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, &scheme)| LaneOutcome {
            scheme,
            report: violation_report(c as f64, &tr.lane(i).tau, MARGIN, LOCK_TOLERANCE, LOCK_RUN),
        })
        .collect();
    ctx.telemetry
        .counter("faults.violations")
        .add(lanes.iter().map(|l| l.report.violations as u64).sum());
    FaultCell {
        class,
        rate,
        injected: schedule.injected_before(horizon as u64),
        lanes,
    }
}

/// Run the chaos grid: every [`FaultClass`] at one rate (quick) or two
/// rates (full), horizon 4 000 (quick) or 12 000 (full) periods.
pub fn run(ctx: &RunCtx, quick: bool) -> Vec<FaultCell> {
    let horizon: usize = if quick { 4_000 } else { 12_000 };
    let rates: &[f64] = if quick { &[2.0] } else { &[1.0, 4.0] };
    let grid: Vec<(FaultClass, f64)> = FaultClass::ALL
        .iter()
        .flat_map(|&class| rates.iter().map(move |&rate| (class, rate)))
        .collect();
    cached_map(
        ctx,
        &grid,
        CELL,
        |&(class, rate)| vec![cell_key(ctx, class, rate, horizon)],
        |_| (SCHEMES.len() * horizon) as u64,
        |&(class, rate)| vec![compute_cell(ctx, class, rate, horizon)],
    )
}

/// Render the violation-rate / MTTR table plus the grep-able totals line.
pub fn render(cells: &[FaultCell]) -> String {
    let mut table = Table::new([
        "fault class",
        "rate/kP",
        "scheme",
        "inj",
        "viol",
        "viol rate",
        "worst",
        "re-locks",
        "MTTR",
        "lock",
    ]);
    for cell in cells {
        for lane in &cell.lanes {
            let r = &lane.report;
            table.row([
                cell.class.label().to_owned(),
                fmt(cell.rate),
                lane.scheme.to_owned(),
                cell.injected.to_string(),
                r.violations.to_string(),
                fmt(r.violation_rate),
                fmt(r.worst_excursion),
                r.relock_events.to_string(),
                fmt(r.mean_time_to_relock),
                if r.unresolved { "lost" } else { "ok" }.to_owned(),
            ]);
        }
    }
    let injected: u64 = cells.iter().map(|c| c.injected).sum();
    let (violations, relocks) = cells
        .iter()
        .flat_map(|c| c.lanes.iter())
        .fold((0usize, 0usize), |(v, l), lane| {
            (v + lane.report.violations, l + lane.report.relock_events)
        });
    format!(
        "ext-faults — chaos sweep at seed {CHAOS_SEED:#x}: deterministic fault schedules \
         (per class, {SENSORS} sensors) driven through four schemes sharing each schedule.\n\
         Violation: c − τ > {MARGIN} stages. Lock band: ±{LOCK_TOLERANCE} stages, re-lock \
         after {LOCK_RUN} quiet periods; MTTR in periods.\n\n{}\n\
         total: {injected} injected, {violations} violations, {relocks} re-locks\n",
        table.render()
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
    fn chaos_grid_is_deterministic() {
        let a = run(&ctx(), true);
        let b = run(&ctx(), true);
        assert_eq!(a, b);
        assert_eq!(a.len(), FaultClass::ALL.len());
        for cell in &a {
            assert_eq!(cell.lanes.len(), SCHEMES.len());
            assert!(cell.injected > 0, "{:?} injected nothing", cell.class);
        }
    }

    #[test]
    fn hardened_iir_beats_unhardened_on_seus_and_relocks_every_strike() {
        let cells = run(&ctx(), true);
        for cell in cells.iter().filter(|c| {
            matches!(
                c.class,
                FaultClass::SeuControlState | FaultClass::SeuLroWord
            )
        }) {
            let unhardened = &cell.lanes[0].report;
            let hardened = &cell.lanes[1].report;
            assert!(
                unhardened.violations > hardened.violations,
                "{:?}: unhardened {} vs hardened {}",
                cell.class,
                unhardened.violations,
                hardened.violations
            );
            assert!(
                !hardened.unresolved,
                "{:?}: hardened ended out of lock",
                cell.class
            );
            assert!(
                hardened.relock_events as u64 >= cell.injected,
                "{:?}: {} re-locks for {} strikes",
                cell.class,
                hardened.relock_events,
                cell.injected
            );
        }
    }

    #[test]
    fn all_outputs_are_finite() {
        for cell in run(&ctx(), true) {
            for lane in &cell.lanes {
                let r = &lane.report;
                for v in [
                    r.violation_rate,
                    r.worst_excursion,
                    r.mean_time_to_relock,
                    r.max_time_to_relock,
                ] {
                    assert!(
                        v.is_finite(),
                        "{:?}/{}: non-finite",
                        cell.class,
                        lane.scheme
                    );
                }
            }
        }
    }

    #[test]
    fn render_ends_with_greppable_totals() {
        let out = render(&run(&ctx(), true));
        let last = out.trim_end().lines().last().unwrap();
        assert!(last.starts_with("total: "), "missing totals line: {last}");
        assert!(last.contains("violations"));
        assert!(out.contains("fault class"));
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
