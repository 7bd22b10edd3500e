//! `ext-mesh` — GALS clock-mesh scenarios over the domain bank.
//!
//! The paper's loop regulates one clock domain; this extension wires
//! banks of hardened IIR domains into `clock-mesh` topologies (ring,
//! grid, tree) with per-boundary CDN delays and runs the three scenarios
//! the FATAL+ line of work cares about:
//!
//! 1. **domain-failure** — one domain permanently loses RO stages; its
//!    own loop compensates, which drags its operating point off its
//!    neighbours' until every boundary it feeds quarantines it;
//! 2. **byzantine** — one domain advertises deterministic garbage to its
//!    boundaries while suffering a seeded SEU strike plan; the healthy
//!    domains must quarantine it and re-lock;
//! 3. **power-event** — a global supply droop hits every domain at once;
//!    the relative-skew boundaries common-mode it out (no quarantine)
//!    and the whole mesh re-locks.
//!
//! Every cell is a pure function of [`MESH_SEED`], the topology, and the
//! scenario, so the table is byte-stable run-to-run and cell results are
//! cached via `rescache` (keys hash the scenario, topology, and both
//! boundary and lock policies).

use adaptive_clock::bank::DomainBank;
use adaptive_clock::cdn::Cdn;
use adaptive_clock::controller::{IirConfig, IntIirControl};
use adaptive_clock::resilience::Resilience;
use adaptive_clock::tdc::Quantization;
use clock_faults::FaultSchedule;
use clock_mesh::{Mesh, Scenario, Topology};
use clock_rescache::Key;
use variation::rng::SplitMix64;

use crate::cache::{key, CacheKeyExt};
use crate::render::{fmt, Table};
use crate::runner::{cached_map, Codec, RunCtx};

/// Seed for the per-domain variation spread and the Byzantine strike
/// plan — the whole table derives from it.
pub const MESH_SEED: u64 = 0x0000_6A15;

/// Boundary capture tolerance (stages).
const TOLERANCE: f64 = 8.0;
/// Synchronizer resolution window τ_s (stages).
const SYNC_WINDOW: f64 = 2.0;
/// Consecutive boundary violations before a link is quarantined.
const QUARANTINE_AFTER: usize = 3;

/// The topology line-up, in table order.
pub const TOPOLOGIES: [&str; 3] = ["ring8", "grid9", "tree7"];

/// The scenario line-up, in table order.
pub const SCENARIOS: [&str; 3] = ["domain-failure", "byzantine", "power-event"];

/// One cell: a scenario on a topology, aggregated over every domain and
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshCell {
    /// Scenario label (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Topology label (one of [`TOPOLOGIES`]).
    pub topology: &'static str,
    /// Domains in the mesh.
    pub domains: usize,
    /// Directed links in the mesh.
    pub links: usize,
    /// Fault events injected into the bank before the horizon.
    pub injected: u64,
    /// Watchdog re-lock events across the hardened domains.
    pub relocks: u64,
    /// Handshake violations across all boundaries.
    pub boundary_violations: u64,
    /// Links the quarantine policy cut off.
    pub quarantined: usize,
    /// Whether the scenario's target domain ended contained (every link
    /// it feeds quarantined); `false` for target-less scenarios.
    pub contained: bool,
    /// Healthy (non-target) domains that ended out of lock.
    pub unresolved_healthy: usize,
    /// Worst boundary skew observed (stages).
    pub worst_skew: f64,
    /// Mean metastability risk across boundaries.
    pub mean_risk: f64,
    /// Worst per-domain time-to-re-lock (periods).
    pub max_ttr: f64,
}

const PAYLOAD: usize = 13;

fn topology_for(name: &str, c: f64) -> Topology {
    let cdn = Cdn::new(c).expect("one set-point period is a valid CDN delay");
    match name {
        "ring8" => Topology::ring(8, cdn),
        "grid9" => Topology::grid(3, 3, cdn),
        "tree7" => Topology::tree(7, 2, cdn),
        other => unreachable!("unknown topology {other}"),
    }
}

fn scenario_for(name: &str) -> (Scenario, Option<usize>) {
    match name {
        "domain-failure" => (
            Scenario::DomainFailure {
                domain: 0,
                at: 150,
                stages: 16.0,
            },
            Some(0),
        ),
        "byzantine" => (
            Scenario::Byzantine {
                domain: 1,
                at: 120,
                seed: MESH_SEED,
            },
            Some(1),
        ),
        "power-event" => (
            Scenario::PowerEvent {
                at: 200,
                droop: 10.0,
                duration: 120,
            },
            None,
        ),
        other => unreachable!("unknown scenario {other}"),
    }
}

/// The deterministic static-variation spread: domain `d` of every mesh
/// carries this offset (stages), |v| ≤ 2.5 — inside the boundary
/// tolerance, so nominal skews never quarantine.
fn variation_for(d: usize) -> f64 {
    let seed = MESH_SEED ^ (d as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    ((SplitMix64::new(seed).next() % 11) as f64) / 2.0 - 2.5
}

fn build_mesh(ctx: &RunCtx, topology: &str) -> Mesh {
    let c = ctx.params.setpoint;
    let topo = topology_for(topology, c as f64);
    let mut bank = DomainBank::new();
    for d in 0..topo.domains() {
        let ctrl = IntIirControl::new(IirConfig::paper(), c)
            .expect("paper IIR gains are a valid configuration");
        bank.push_with(
            1,
            ctrl,
            Quantization::Floor,
            FaultSchedule::default(),
            Resilience::hardened(c as f64),
        );
        bank.set_variation(d, variation_for(d));
    }
    Mesh::new(bank, topo, c as f64)
        .expect("bank is built to the topology's size")
        .with_telemetry(ctx.telemetry.clone())
        .with_boundary(TOLERANCE, SYNC_WINDOW, QUARANTINE_AFTER)
}

fn cell_key(ctx: &RunCtx, scenario: &str, topology: &str, horizon: usize) -> Key {
    key("mesh-cell")
        .params(&ctx.params)
        .str("scenario", scenario)
        .str("topology", topology)
        .u64("horizon", horizon as u64)
        .u64("seed", MESH_SEED)
        .f64("tolerance", TOLERANCE)
        .f64("window", SYNC_WINDOW)
        .u64("quarantine_after", QUARANTINE_AFTER as u64)
        .str(
            "resilience",
            &Resilience::hardened(ctx.params.setpoint as f64).canonical_id(),
        )
        .finish()
}

/// A cell's payload: its eleven fields in declaration order, then two
/// zeros.
const CELL: Codec<(&str, &str), MeshCell> = Codec {
    arity: Some(PAYLOAD),
    encode: |cell| {
        vec![
            cell.domains as f64,
            cell.links as f64,
            cell.injected as f64,
            cell.relocks as f64,
            cell.boundary_violations as f64,
            cell.quarantined as f64,
            if cell.contained { 1.0 } else { 0.0 },
            cell.unresolved_healthy as f64,
            cell.worst_skew,
            cell.mean_risk,
            cell.max_ttr,
            0.0,
            0.0,
        ]
    },
    decode: |&(scenario, topology), v| MeshCell {
        scenario,
        topology,
        domains: v[0] as usize,
        links: v[1] as usize,
        injected: v[2] as u64,
        relocks: v[3] as u64,
        boundary_violations: v[4] as u64,
        quarantined: v[5] as usize,
        contained: v[6] != 0.0,
        unresolved_healthy: v[7] as usize,
        worst_skew: v[8],
        mean_risk: v[9],
        max_ttr: v[10],
    },
};

fn compute_cell(
    ctx: &RunCtx,
    scenario: &'static str,
    topology: &'static str,
    horizon: usize,
) -> MeshCell {
    let mut mesh = build_mesh(ctx, topology);
    let (scen, target) = scenario_for(scenario);
    let run = mesh.run(&scen, horizon);
    let worst_skew = run
        .boundaries
        .iter()
        .fold(0.0f64, |a, b| a.max(b.report.worst_skew));
    let mean_risk = if run.boundaries.is_empty() {
        0.0
    } else {
        run.boundaries
            .iter()
            .map(|b| b.report.mean_metastability_risk)
            .sum::<f64>()
            / run.boundaries.len() as f64
    };
    let max_ttr = run
        .domains
        .iter()
        .fold(0.0f64, |a, d| a.max(d.report.max_time_to_relock));
    MeshCell {
        scenario,
        topology,
        domains: run.domains.len(),
        links: run.boundaries.len(),
        injected: run.injected,
        relocks: run.relocks,
        boundary_violations: run.boundary_violations,
        quarantined: run.quarantined_links(),
        contained: target.map(|t| run.is_contained(t)).unwrap_or(false),
        unresolved_healthy: run
            .domains
            .iter()
            .enumerate()
            .filter(|(d, out)| Some(*d) != target && out.report.unresolved)
            .count(),
        worst_skew,
        mean_risk,
        max_ttr,
    }
}

/// Run the scenario × topology grid: horizon 1 500 periods (quick) or
/// 6 000 (full).
pub fn run(ctx: &RunCtx, quick: bool) -> Vec<MeshCell> {
    let horizon: usize = if quick { 1_500 } else { 6_000 };
    let grid: Vec<(&'static str, &'static str)> = SCENARIOS
        .iter()
        .flat_map(|&s| TOPOLOGIES.iter().map(move |&t| (s, t)))
        .collect();
    cached_map(
        ctx,
        &grid,
        CELL,
        |&(s, t)| vec![cell_key(ctx, s, t, horizon)],
        |&(_, t)| (topology_for(t, ctx.params.setpoint as f64).domains() * horizon) as u64,
        |&(s, t)| vec![compute_cell(ctx, s, t, horizon)],
    )
}

/// Render the scenario table plus grep-able totals and re-lock lines.
pub fn render(cells: &[MeshCell]) -> String {
    let mut table = Table::new([
        "scenario",
        "topology",
        "domains",
        "links",
        "b-viol",
        "quarantined",
        "contained",
        "re-locks",
        "worst skew",
        "risk",
        "max TTR",
    ]);
    for cell in cells {
        table.row([
            cell.scenario.to_owned(),
            cell.topology.to_owned(),
            cell.domains.to_string(),
            cell.links.to_string(),
            cell.boundary_violations.to_string(),
            cell.quarantined.to_string(),
            match (cell.scenario, cell.contained) {
                ("power-event", _) => "-".to_owned(),
                (_, true) => "yes".to_owned(),
                (_, false) => "NO".to_owned(),
            },
            cell.relocks.to_string(),
            fmt(cell.worst_skew),
            fmt(cell.mean_risk),
            fmt(cell.max_ttr),
        ]);
    }
    let injected: u64 = cells.iter().map(|c| c.injected).sum();
    let bviol: u64 = cells.iter().map(|c| c.boundary_violations).sum();
    let quarantined: usize = cells.iter().map(|c| c.quarantined).sum();
    let unresolved: usize = cells.iter().map(|c| c.unresolved_healthy).sum();
    let relock_line = if unresolved == 0 {
        format!(
            "relock: all healthy domains re-locked across {} cells",
            cells.len()
        )
    } else {
        format!("relock: {unresolved} healthy domains still out of lock")
    };
    format!(
        "ext-mesh — GALS clock-mesh scenarios at seed {MESH_SEED:#x}: banks of hardened IIR \
         domains coupled through per-boundary CDNs (tolerance {TOLERANCE} stages, \
         quarantine after {QUARANTINE_AFTER} consecutive violations).\n\
         Scenarios: local RO failure, Byzantine neighbour (advertised garbage + SEU strikes), \
         global power droop.\n\n{}\n\
         total: {injected} injected, {bviol} boundary violations, {quarantined} quarantined links\n\
         {relock_line}\n",
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
    fn mesh_grid_is_deterministic() {
        let a = run(&ctx(), true);
        let b = run(&ctx(), true);
        assert_eq!(a, b);
        assert_eq!(a.len(), SCENARIOS.len() * TOPOLOGIES.len());
    }

    #[test]
    fn faulty_domains_are_contained_and_healthy_domains_relock() {
        for cell in run(&ctx(), true) {
            assert_eq!(
                cell.unresolved_healthy, 0,
                "{}/{}: healthy domains out of lock",
                cell.scenario, cell.topology
            );
            match cell.scenario {
                "domain-failure" | "byzantine" => {
                    assert!(
                        cell.contained,
                        "{}/{}: target not contained",
                        cell.scenario, cell.topology
                    );
                    assert!(cell.quarantined > 0);
                }
                "power-event" => {
                    assert_eq!(
                        cell.quarantined, 0,
                        "{}: global droop must common-mode out",
                        cell.topology
                    );
                }
                other => unreachable!("unknown scenario {other}"),
            }
        }
    }

    #[test]
    fn all_outputs_are_finite() {
        for cell in run(&ctx(), true) {
            for v in [cell.worst_skew, cell.mean_risk, cell.max_ttr] {
                assert!(v.is_finite(), "{}/{}", cell.scenario, cell.topology);
            }
        }
    }

    #[test]
    fn render_ends_with_greppable_lines() {
        let out = render(&run(&ctx(), true));
        let lines: Vec<&str> = out.trim_end().lines().collect();
        let totals = lines[lines.len() - 2];
        let relock = lines[lines.len() - 1];
        assert!(totals.starts_with("total: "), "{totals}");
        assert!(totals.contains("boundary violations"), "{totals}");
        assert!(
            relock.starts_with("relock: all healthy domains re-locked"),
            "{relock}"
        );
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
