//! The single table every `repro` surface is driven from: experiment ids,
//! descriptions, step budgets, bundle membership and dispatch itself.
//!
//! `repro --list`, id validation and the per-experiment runners all read
//! [`REGISTRY`], so an experiment added here is automatically listable,
//! dispatchable, and reachable through the meta bundles (`all`,
//! `extensions`, `everything`). The CLI (`src/bin/repro.rs`) owns only
//! flag parsing and the shared-handle plumbing; everything id-shaped
//! lives here.

use crate::runner::RunCtx;
use crate::{
    bench, constraints, ext_coupling, ext_faults, ext_lock, ext_mesh, ext_noise, ext_sensitivity,
    ext_stability, ext_throughput, ext_yield, fig2, fig7, fig8, fig9, table1, worked,
};

/// Everything one dispatch threads through to an experiment: the shared
/// [`RunCtx`] (parameters, result cache, telemetry) plus the CLI output
/// mode.
#[derive(Debug, Clone, Copy)]
pub struct Invocation<'a> {
    /// Parameters, result cache and telemetry for the run.
    pub ctx: &'a RunCtx,
    /// `--quick`: shrink the sweep grids for smoke runs.
    pub quick: bool,
    /// `--json`: machine-readable series on stdout instead of text.
    pub json: bool,
    /// `--json <out.json>`: write the payload to a file instead of stdout
    /// (honoured by `bench`).
    pub json_path: Option<&'a str>,
    /// `bench --compare <baseline.json>`: check the fresh report against a
    /// committed baseline and fail on regression.
    pub compare: Option<&'a str>,
    /// Relative speedup loss treated as timer noise by `--compare`
    /// (`--noise`, default [`bench::DEFAULT_COMPARE_NOISE`]).
    pub noise: f64,
}

impl Invocation<'_> {
    /// Grid size for a sweep: the classic point count, or the `--quick`
    /// shrink.
    #[must_use]
    pub fn points(&self, classic: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            classic
        }
    }
}

/// How a registry id runs.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// One experiment; returns `false` on failure.
    Leaf(fn(&Invocation<'_>) -> bool),
    /// A meta-id expanding to other registry ids, run in listed order.
    Bundle(&'static [&'static str]),
}

/// One `repro` experiment id: what `--list` shows and how it dispatches.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentDef {
    /// The id given on the command line.
    pub id: &'static str,
    /// One-line description (shown by `--list`).
    pub description: &'static str,
    /// Approximate simulated-step budget (shown by `--list`; "analytic"
    /// means no time-domain simulation at all).
    pub steps: &'static str,
    /// How the id runs.
    pub runner: Runner,
}

/// The members of the `all` bundle: every paper artifact, in paper order.
const ALL: &[&str] = &[
    "table1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "worked-examples",
    "constraints",
];

/// The members of the `extensions` bundle.
const EXTENSIONS: &[&str] = &[
    "ext-sensitivity",
    "ext-throughput",
    "ext-noise",
    "ext-stability",
    "ext-lock",
    "ext-coupling",
];

/// Every dispatchable experiment, in `--list` order.
pub static REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        id: "table1",
        description: "Table I — variability taxonomy",
        steps: "static",
        runner: Runner::Leaf(run_table1),
    },
    ExperimentDef {
        id: "fig2",
        description: "Fig. 2 — worst-case induced mismatch vs t_clk/Tv",
        steps: "analytic",
        runner: Runner::Leaf(run_fig2),
    },
    ExperimentDef {
        id: "fig7",
        description: "Fig. 7 — timing-error traces for the four schemes",
        steps: "~20k steps",
        runner: Runner::Leaf(run_fig7),
    },
    ExperimentDef {
        id: "fig8",
        description: "Fig. 8 — relative adaptive period vs CDN delay / HoDV period",
        steps: "~800k steps",
        runner: Runner::Leaf(run_fig8),
    },
    ExperimentDef {
        id: "fig9",
        description: "Fig. 9 — relative adaptive period vs RO-TDC mismatch",
        steps: "~0.9M steps",
        runner: Runner::Leaf(run_fig9),
    },
    ExperimentDef {
        id: "worked-examples",
        description: "§IV worked examples (60 % / 70 % SM reduction)",
        steps: "~40k steps",
        runner: Runner::Leaf(run_worked),
    },
    ExperimentDef {
        id: "constraints",
        description: "§III-A constraints and the stability bound",
        steps: "analytic",
        runner: Runner::Leaf(run_constraints),
    },
    ExperimentDef {
        id: "bench",
        description: "engine benchmarks: batched loops, warm fig9, result cache, LJF dispatch, traceless summaries, domain bank",
        steps: "~3M steps",
        runner: Runner::Leaf(run_bench),
    },
    ExperimentDef {
        id: "ext-sensitivity",
        description: "z-domain prediction of the adaptation error envelope",
        steps: "~200k steps",
        runner: Runner::Leaf(run_ext_sensitivity),
    },
    ExperimentDef {
        id: "ext-throughput",
        description: "Razor-style pipeline throughput vs operated set-point",
        steps: "~80k steps",
        runner: Runner::Leaf(run_ext_throughput),
    },
    ExperimentDef {
        id: "ext-noise",
        description: "broadband (OU + SSN burst) robustness",
        steps: "~100k steps",
        runner: Runner::Leaf(run_ext_noise),
    },
    ExperimentDef {
        id: "ext-stability",
        description: "clock-domain-size stability map across gain sets",
        steps: "analytic",
        runner: Runner::Leaf(run_ext_stability),
    },
    ExperimentDef {
        id: "ext-lock",
        description: "cold-start lock time vs the modal-analysis prediction",
        steps: "~30k steps",
        runner: Runner::Leaf(run_ext_lock),
    },
    ExperimentDef {
        id: "ext-coupling",
        description: "additive (paper) vs multiplicative variation coupling",
        steps: "~20k steps",
        runner: Runner::Leaf(run_ext_coupling),
    },
    ExperimentDef {
        id: "ext-faults",
        description: "chaos sweep: fault class × rate × scheme violation/MTTR table",
        steps: "~670k steps",
        runner: Runner::Leaf(run_ext_faults),
    },
    ExperimentDef {
        id: "ext-yield",
        description: "Monte Carlo timing yield vs safety margin on the traceless batch path",
        steps: "~295M steps",
        runner: Runner::Leaf(run_ext_yield),
    },
    ExperimentDef {
        id: "ext-mesh",
        description: "GALS clock-mesh scenarios: domain failure, Byzantine neighbour, power event",
        steps: "~280k steps",
        runner: Runner::Leaf(run_ext_mesh),
    },
    ExperimentDef {
        id: "selftest-panic",
        description: "service selftest: panics on purpose (supervision demo; not in bundles)",
        steps: "instant",
        runner: Runner::Leaf(run_selftest_panic),
    },
    ExperimentDef {
        id: "selftest-slow",
        description: "service selftest: ~20 s (quick: ~2 s) cancellable idle loop (not in bundles)",
        steps: "wall-clock",
        runner: Runner::Leaf(run_selftest_slow),
    },
    ExperimentDef {
        id: "all",
        description: "bundle: every paper artifact",
        steps: "~1.8M steps",
        runner: Runner::Bundle(ALL),
    },
    ExperimentDef {
        id: "extensions",
        description: "bundle: every extension experiment",
        steps: "~450k steps",
        runner: Runner::Bundle(EXTENSIONS),
    },
    ExperimentDef {
        id: "everything",
        description: "bundle: all + extensions",
        steps: "~2.3M steps",
        runner: Runner::Bundle(&["all", "extensions"]),
    },
];

/// Look up a registry entry by id.
#[must_use]
pub fn find(id: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Run a registry id: a leaf directly, a bundle by running every member in
/// order — each leaf member under a `================ id ================`
/// banner, nested bundles flattened into their own members' banners.
/// Bundles always report success; unknown ids report failure.
pub fn run(id: &str, inv: &Invocation<'_>) -> bool {
    match find(id).map(|e| e.runner) {
        Some(Runner::Leaf(f)) => f(inv),
        Some(Runner::Bundle(members)) => {
            for member in members {
                match find(member).map(|e| e.runner) {
                    Some(Runner::Leaf(f)) => {
                        println!("================ {member} ================\n");
                        f(inv);
                    }
                    _ => {
                        run(member, inv);
                    }
                }
            }
            true
        }
        None => false,
    }
}

fn run_table1(_inv: &Invocation<'_>) -> bool {
    println!("{}", table1::render());
    true
}

fn run_fig2(inv: &Invocation<'_>) -> bool {
    let r = fig2::run(inv.ctx, 4.0, 401);
    if inv.json {
        println!("{}", r.to_json().expect("plain data serializes"));
    } else {
        println!("{}", fig2::render(&r));
    }
    true
}

fn run_fig7(inv: &Invocation<'_>) -> bool {
    for panel in fig7::run(inv.ctx) {
        if inv.json {
            println!("{}", panel.to_json().expect("plain data serializes"));
        } else {
            println!("{}", fig7::render(&panel));
            println!("needed safety margins (stages):");
            for (label, m) in fig7::panel_margins(&panel) {
                println!("  {label:<12} {m:.2}");
            }
            println!();
        }
    }
    true
}

fn run_fig8(inv: &Invocation<'_>) -> bool {
    let points = inv.points(17, 9);
    let upper = fig8::run_upper(inv.ctx, points);
    let lower = fig8::run_lower(inv.ctx, points);
    if inv.json {
        println!("{}", upper.to_json().expect("plain data serializes"));
        println!("{}", lower.to_json().expect("plain data serializes"));
    } else {
        println!("{}", fig8::render(&upper, "t_clk/c"));
        println!("{}", fig8::render(&lower, "Te/c"));
    }
    true
}

fn run_fig9(inv: &Invocation<'_>) -> bool {
    for panel in fig9::run(inv.ctx, inv.points(fig9::MU_POINTS, 5)) {
        if inv.json {
            println!("{}", panel.to_json().expect("plain data serializes"));
        } else {
            println!("{}", fig9::render(&panel));
        }
    }
    true
}

fn run_worked(_inv: &Invocation<'_>) -> bool {
    println!("{}", worked::render(&worked::run()));
    true
}

fn run_constraints(_inv: &Invocation<'_>) -> bool {
    println!("{}", constraints::render(&constraints::run(30)));
    true
}

/// Run the engine benchmark suite and emit the report as a table, as JSON
/// on stdout, or as a JSON file when `--json <out.json>` named one. With
/// `--compare <baseline.json>` the fresh speedups are then checked against
/// the stored baseline, and a regression fails the run.
fn run_bench(inv: &Invocation<'_>) -> bool {
    // Load the baseline first, so a bad path fails before the timed run.
    let baseline = match inv.compare.map(bench::BenchReport::load).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    // Refuse a baseline of the other mode or pool before timing anything.
    if let (Some(path), Some(baseline)) = (inv.compare, &baseline) {
        let workers = crate::sweep::pool_size() as u64;
        if let Err(e) = bench::check_comparable(baseline, inv.quick, workers) {
            eprintln!("error: cannot compare against {path}: {e}");
            return false;
        }
    }
    let report = bench::run(&inv.ctx.params, inv.quick);
    if let Some(path) = inv.json_path {
        let payload = report.to_json().expect("plain data serializes");
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: cannot write {path}: {e}");
            return false;
        }
        println!("{}", bench::render(&report));
        println!("bench report written to {path}");
    } else if inv.json {
        println!("{}", report.to_json().expect("plain data serializes"));
    } else {
        println!("{}", bench::render(&report));
    }
    if let (Some(path), Some(baseline)) = (inv.compare, baseline) {
        let cmp = match bench::compare(&report, &baseline, inv.noise) {
            Ok(cmp) => cmp,
            Err(e) => {
                eprintln!("error: cannot compare against {path}: {e}");
                return false;
            }
        };
        println!("{}", bench::render_compare(&cmp, &baseline));
        if cmp.regressed() {
            eprintln!("error: benchmark speedups regressed against {path}");
            return false;
        }
    }
    true
}

fn run_ext_sensitivity(inv: &Invocation<'_>) -> bool {
    let r = ext_sensitivity::run(inv.ctx, inv.points(13, 7));
    if inv.json {
        println!("{}", r.to_json().expect("plain data serializes"));
    } else {
        println!("{}", ext_sensitivity::render(&r));
    }
    true
}

fn run_ext_throughput(inv: &Invocation<'_>) -> bool {
    let r = ext_throughput::run(inv.ctx, 8);
    if inv.json {
        println!("{}", r.to_json().expect("plain data serializes"));
    } else {
        println!("{}", ext_throughput::render(&r));
    }
    true
}

fn run_ext_noise(inv: &Invocation<'_>) -> bool {
    let seeds: &[u64] = if inv.quick { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    let r = ext_noise::run(inv.ctx, seeds);
    if inv.json {
        println!("{}", r.to_json().expect("plain data serializes"));
    } else {
        println!("{}", ext_noise::render(&r));
    }
    true
}

fn run_ext_stability(inv: &Invocation<'_>) -> bool {
    println!(
        "{}",
        ext_stability::render(&ext_stability::run(inv.ctx, 300))
    );
    true
}

fn run_ext_lock(_inv: &Invocation<'_>) -> bool {
    println!("{}", ext_lock::render(&ext_lock::run()));
    true
}

fn run_ext_coupling(inv: &Invocation<'_>) -> bool {
    println!("{}", ext_coupling::render(&ext_coupling::run(inv.ctx)));
    true
}

fn run_ext_faults(inv: &Invocation<'_>) -> bool {
    println!(
        "{}",
        ext_faults::render(&ext_faults::run(inv.ctx, inv.quick))
    );
    true
}

fn run_ext_mesh(inv: &Invocation<'_>) -> bool {
    println!("{}", ext_mesh::render(&ext_mesh::run(inv.ctx, inv.quick)));
    true
}

fn run_ext_yield(inv: &Invocation<'_>) -> bool {
    println!("{}", ext_yield::render(&ext_yield::run(inv.ctx, inv.quick)));
    true
}

fn run_selftest_panic(_inv: &Invocation<'_>) -> bool {
    crate::service::selftest_panic()
}

fn run_selftest_slow(inv: &Invocation<'_>) -> bool {
    crate::service::selftest_slow(inv.ctx, inv.quick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_unique() {
        let mut seen = BTreeSet::new();
        for def in REGISTRY {
            assert!(seen.insert(def.id), "duplicate registry id {}", def.id);
        }
    }

    #[test]
    fn bundle_members_resolve_to_registry_entries() {
        for def in REGISTRY {
            if let Runner::Bundle(members) = def.runner {
                for member in members {
                    assert!(
                        find(member).is_some(),
                        "{}: bundle member {member} is not a registry id",
                        def.id
                    );
                }
            }
        }
    }

    /// `everything` must transitively reach every leaf except `bench`
    /// (which is a benchmark, not a paper artifact or extension),
    /// `ext-faults` (the chaos sweep is opt-in so the `everything`
    /// golden fixture stays fault-free and byte-stable), `ext-yield`
    /// (the Monte Carlo panel is opt-in for the same reason — the MC
    /// path stays inert unless explicitly invoked), `ext-mesh` (the
    /// clock-mesh scenarios run standalone so the golden fixture never
    /// depends on the mesh layer) and the `selftest-*` ids (service
    /// supervision probes: one panics on purpose, one idles for seconds —
    /// neither belongs in a bundle).
    #[test]
    fn everything_covers_every_leaf_but_bench() {
        fn expand(id: &str, into: &mut BTreeSet<&'static str>) {
            match find(id).expect("resolvable").runner {
                Runner::Leaf(_) => {
                    into.insert(find(id).expect("resolvable").id);
                }
                Runner::Bundle(members) => {
                    for m in members {
                        expand(m, into);
                    }
                }
            }
        }
        let mut reached = BTreeSet::new();
        expand("everything", &mut reached);
        let leaves: BTreeSet<&str> = REGISTRY
            .iter()
            .filter(|d| {
                matches!(d.runner, Runner::Leaf(_))
                    && d.id != "bench"
                    && d.id != "ext-faults"
                    && d.id != "ext-yield"
                    && d.id != "ext-mesh"
                    && !d.id.starts_with("selftest-")
            })
            .map(|d| d.id)
            .collect();
        assert_eq!(reached, leaves);
    }

    /// `--list` states ext-yield's budget as its sizing computes it: the
    /// full sweep's cells × instances × periods, in lane-steps.
    #[test]
    fn ext_yield_budget_matches_its_sizing() {
        let ctx = RunCtx::new(PaperParams::default());
        let panel = crate::ext_yield::panel(&ctx, 1.0, false);
        let cells = crate::ext_yield::scales(false).len() * crate::montecarlo::SCHEMES.len();
        let millions = (cells * panel.instances * panel.steps) as f64 / 1e6;
        let want = format!("~{millions:.0}M steps");
        assert_eq!(find("ext-yield").expect("registered").steps, want);
    }

    /// `--list` states fig9's budget as its sizing computes it: per panel
    /// of the full grid, one shared run per open-loop scheme and one run
    /// per μ of every closed-loop scheme, each `samples_for(T_e)` steps.
    #[test]
    fn fig9_budget_matches_its_sizing() {
        let params = PaperParams::default();
        let runs_per_panel: usize = crate::fig9::panel_schemes()
            .iter()
            .map(|s| if s.is_open_loop() { 1 } else { fig9::MU_POINTS })
            .sum();
        let steps: usize = fig9::TE_GRID
            .iter()
            .map(|&te| fig9::T_CLK_GRID.len() * runs_per_panel * params.samples_for(te))
            .sum();
        let want = format!("~{:.1}M steps", steps as f64 / 1e6);
        assert_eq!(find("fig9").expect("registered").steps, want);
    }
}
