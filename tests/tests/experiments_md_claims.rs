//! Guards EXPERIMENTS.md against code drift: the headline numbers quoted
//! in the document are re-measured here with tolerances. If one of these
//! tests fails after an intentional change, update EXPERIMENTS.md in the
//! same commit. The cargo commands the user-facing documents quote are
//! checked against the workspace's packages and targets the same way.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use experiments::config::PaperParams;
use experiments::runner::RunCtx;
use experiments::{fig7, fig8, fig9};

fn ctx() -> RunCtx {
    RunCtx::new(PaperParams::default())
}

/// EXPERIMENTS.md Fig. 7 table: margins per scheme per perturbation period.
#[test]
fn fig7_margin_table_matches_documentation() {
    let documented: &[(f64, &[(&str, f64)])] = &[
        (
            25.0,
            &[
                ("IIR RO", 7.0),
                ("Free RO", 7.0),
                ("TEAtime RO", 8.0),
                ("Fixed clock", 13.0),
            ],
        ),
        (
            37.5,
            &[
                ("IIR RO", 4.0),
                ("Free RO", 5.0),
                ("TEAtime RO", 5.0),
                ("Fixed clock", 13.0),
            ],
        ),
        (
            50.0,
            &[
                ("IIR RO", 3.0),
                ("Free RO", 4.0),
                ("TEAtime RO", 4.0),
                ("Fixed clock", 13.0),
            ],
        ),
    ];
    for (te, rows) in documented {
        let panel = fig7::run_panel(&ctx(), *te);
        let margins = fig7::panel_margins(&panel);
        for (label, want) in *rows {
            let got = margins
                .iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("missing {label}"))
                .1;
            assert!(
                (got - want).abs() <= 1.0,
                "Te={te}c {label}: measured {got}, EXPERIMENTS.md says {want}"
            );
        }
    }
}

/// EXPERIMENTS.md Fig. 8 upper rows (selected): IIR plateau ≈ 0.83 at small
/// delay, 0.91 at t_clk = 10c; TEAtime crosses 1 near the right edge.
#[test]
fn fig8_upper_rows_match_documentation() {
    let r = fig8::run_upper(&ctx(), 9);
    let iir = adaptive_clock::system::Scheme::iir_paper();
    let tea = adaptive_clock::system::Scheme::TeaTime;
    let y_small = fig8::y_at(&r, &iir, 0.1);
    let y_large = fig8::y_at(&r, &iir, 10.0);
    assert!((y_small - 0.833).abs() < 0.03, "IIR @0.1c: {y_small}");
    assert!((y_large - 0.914).abs() < 0.05, "IIR @10c: {y_large}");
    let tea_large = fig8::y_at(&r, &tea, 10.0);
    assert!(
        tea_large > 1.0,
        "TEAtime must cross 1 by t_clk = 10c: {tea_large}"
    );
}

/// EXPERIMENTS.md Fig. 8 lower rows: above-1 hump near Te/c ≈ 3.65, free RO
/// first below 1, convergence by Te/c = 1000.
#[test]
fn fig8_lower_rows_match_documentation() {
    let r = fig8::run_lower(&ctx(), 9);
    let iir = adaptive_clock::system::Scheme::iir_paper();
    let free = adaptive_clock::system::Scheme::FreeRo { extra_length: 0 };
    // the hump: somewhere in 2..8 every scheme exceeds 1
    let hump = fig8::y_at(&r, &iir, 3.65);
    assert!(hump > 1.05, "IIR hump: {hump}");
    // convergence at the slow end
    let yi = fig8::y_at(&r, &iir, 1000.0);
    let yf = fig8::y_at(&r, &free, 1000.0);
    assert!((yi - 0.832).abs() < 0.03, "IIR @1000c: {yi}");
    assert!((yi - yf).abs() < 0.05, "IIR/free convergence: {yi} vs {yf}");
}

/// EXPERIMENTS.md Fig. 9 headline panel (t_clk = 0.75c, Te = 25c): the
/// free RO undercuts the IIR exactly at strongly negative mismatch, and the
/// quoted corner values hold.
#[test]
fn fig9_panel_rows_match_documentation() {
    let panel = fig9::run_panel(&ctx(), 0.75, 25.0, 9);
    let free = panel.series_named("Free RO").expect("series");
    let iir = panel.series_named("IIR RO").expect("series");
    let f_neg = free.nearest(-0.2).expect("point");
    let i_neg = iir.nearest(-0.2).expect("point");
    assert!(
        f_neg < i_neg,
        "at μ = -0.2c the free RO must win: {f_neg} vs {i_neg}"
    );
    assert!((f_neg - 0.908).abs() < 0.03, "free @-0.2: {f_neg}");
    let f_pos = free.nearest(0.2).expect("point");
    let i_pos = iir.nearest(0.2).expect("point");
    assert!((f_pos - 1.277).abs() < 0.05, "free @+0.2: {f_pos}");
    assert!(
        i_pos < 0.9,
        "IIR must stay well below 1 at μ = +0.2c: {i_pos}"
    );
}

/// EXPERIMENTS.md constraints section: stability bound M = 10.
#[test]
fn stability_bound_matches_documentation() {
    let h = zdomain::iir_paper_filter();
    let bound = zdomain::closedloop::max_stable_cdn_delay(&h, 50).expect("stable at M=0");
    assert_eq!(bound, 10, "EXPERIMENTS.md documents M = 10");
}

/// EXPERIMENTS.md ext-stability table values.
#[test]
fn stability_map_matches_documentation() {
    let rows = experiments::ext_stability::run(&ctx(), 300);
    let get = |needle: &str| {
        rows.iter()
            .find(|r| r.label.contains(needle))
            .unwrap_or_else(|| panic!("row {needle}"))
    };
    assert_eq!(get("paper").max_stable_m, Some(10));
    assert_eq!(get("aggressive").max_stable_m, Some(3));
    assert_eq!(get("sluggish").max_stable_m, Some(51));
    let paper = get("paper");
    assert!((paper.radius_at_m1 - 0.809).abs() < 0.01);
    assert!((paper.phase_margin_deg.expect("crossing") - 70.8).abs() < 1.0);
    assert!((paper.sensitivity_peak - 1.42).abs() < 0.02);
}

/// EXPERIMENTS.md ext-faults headline numbers (the `--quick` chaos grid
/// is fully deterministic, so these are exact).
#[test]
fn ext_faults_headlines_match_documentation() {
    let cells = experiments::ext_faults::run(&ctx(), true);
    let injected: u64 = cells.iter().map(|c| c.injected).sum();
    assert_eq!(injected, 28, "EXPERIMENTS.md documents 28 strikes");
    let lane = |cell: &experiments::ext_faults::FaultCell, scheme: &str| {
        cell.lanes
            .iter()
            .find(|l| l.scheme == scheme)
            .unwrap_or_else(|| panic!("lane {scheme}"))
            .report
    };
    let cell = |label: &str| {
        cells
            .iter()
            .find(|c| c.class.label() == label)
            .unwrap_or_else(|| panic!("cell {label}"))
    };
    // the median vote erases a stuck-at sensor: 642 violations -> 0
    let stuck = cell("tdc-stuck-at");
    assert_eq!(lane(stuck, "IIR RO").violations, 642);
    assert_eq!(lane(stuck, "IIR+res RO").violations, 0);
    // hardened IIR survives SEUs with zero violations, one re-lock per strike
    for label in ["seu-ctl-state", "seu-lro-word"] {
        let seu = cell(label);
        let hardened = lane(seu, "IIR+res RO");
        assert_eq!(hardened.violations, 0, "{label}");
        assert_eq!(hardened.relock_events as u64, seu.injected, "{label}");
        assert!(lane(seu, "IIR RO").violations > 0, "{label}");
    }
    // a dying RO stage is fatal only without feedback
    let ro = cell("ro-stage-fail");
    assert_eq!(lane(ro, "Free RO").violations, 3148);
    assert!(lane(ro, "IIR RO").violations <= 4);
}

/// Stems of the `*.rs` files directly in `dir` (none when it is missing).
fn rs_stems(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// The double-quoted strings of one manifest line.
fn quoted(line: &str) -> impl Iterator<Item = String> + '_ {
    line.split('"').skip(1).step_by(2).map(str::to_owned)
}

/// The workspace's package names, and the names of every bin, test,
/// example and bench target of those packages: the `name`s of the
/// manifests' `[[...]]` tables plus cargo's auto-discovered `src/main.rs`,
/// `src/bin/`, `tests/`, `examples/` and `benches/` files.
fn workspace_targets(root: &Path) -> (BTreeSet<String>, BTreeSet<String>) {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("workspace members");
    let mut dirs = Vec::new();
    for member in quoted(members) {
        match member.strip_suffix("/*") {
            Some(parent) => {
                for entry in fs::read_dir(root.join(parent)).expect("member glob directory") {
                    let dir = entry.expect("readable directory entry").path();
                    if dir.join("Cargo.toml").is_file() {
                        dirs.push(dir);
                    }
                }
            }
            None => dirs.push(root.join(member)),
        }
    }
    let (mut packages, mut targets) = (BTreeSet::new(), BTreeSet::new());
    for dir in dirs {
        let text = fs::read_to_string(dir.join("Cargo.toml")).expect("member manifest");
        let mut section = "";
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if line.starts_with("name") {
                let name = quoted(line).next().expect("quoted name");
                if section == "[package]" {
                    if dir.join("src/main.rs").is_file() {
                        targets.insert(name.clone());
                    }
                    packages.insert(name);
                } else if section.starts_with("[[") {
                    targets.insert(name);
                }
            }
        }
        for sub in ["src/bin", "tests", "examples", "benches"] {
            targets.extend(rs_stems(&dir.join(sub)));
        }
    }
    (packages, targets)
}

/// Every `-p <package>` and `--bin`/`--test`/`--example`/`--bench <name>`
/// quoted in the README, DESIGN.md, EXPERIMENTS.md and the verify skill
/// names a workspace package or target that exists, so deleting a crate or
/// a target cannot leave a documented command behind. A `-p` followed by a
/// path (`mkdir -p dir/`) is not a cargo package and is skipped.
#[test]
fn documented_cargo_targets_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let (packages, targets) = workspace_targets(&root);
    assert!(packages.contains("experiments") && targets.contains("repro"));
    let trim = |w: &str| {
        w.trim_matches(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_'))
            .to_owned()
    };
    let mut stale = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let (flag, name) = (trim(pair[0]), trim(pair[1]));
            let known = match flag.as_str() {
                "-p" | "--package" if !pair[1].contains('/') => &packages,
                "--bin" | "--test" | "--example" | "--bench" => &targets,
                _ => continue,
            };
            if !known.contains(&name) {
                stale.push(format!("{doc}: {flag} {name}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documented cargo targets that do not exist: {stale:?}"
    );
}

/// Every `experiments::<module>` path quoted in the README, DESIGN.md and
/// EXPERIMENTS.md names a module file under `crates/experiments/src/`, so
/// deleting or renaming a module cannot leave a documented path behind.
#[test]
fn documented_experiments_modules_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let src = root.join("crates/experiments/src");
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut stale = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (i, prefix) in text.match_indices("experiments::") {
            if text[..i].ends_with(is_ident) {
                continue;
            }
            let rest = &text[i + prefix.len()..];
            let module = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
            if !module.is_empty() && !src.join(format!("{module}.rs")).is_file() {
                stale.push(format!("{doc}: experiments::{module}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documented experiments modules that do not exist: {stale:?}"
    );
}
