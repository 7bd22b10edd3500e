//! Extension: the clock-domain-size stability map.
//!
//! The paper's conclusions warn that the CDN delay limits adaptive
//! clocking; its §III-A gives the tools (the closed-loop polynomials) but
//! no numbers. This experiment produces the numbers: for a family of
//! Eq.(10)-compliant IIR gain sets, the maximum stable CDN depth `M`, the
//! spectral radius at the paper's operating point (`M = 1`), and the
//! classical phase margin of the open loop.

use adaptive_clock::controller::IirConfig;
use clock_telemetry::Telemetry;
use zdomain::{closedloop, margins, TransferFunction};

use crate::render::{fmt, Table};
use crate::runner::RunCtx;
use crate::sweep::parallel_map;

/// One row of the stability map.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityRow {
    /// Human-readable description of the gain set.
    pub label: String,
    /// Largest stable whole-period CDN delay.
    pub max_stable_m: Option<usize>,
    /// Spectral radius of the closed loop at `M = 1`.
    pub radius_at_m1: f64,
    /// Phase margin (degrees) of the open loop at `M = 1`.
    pub phase_margin_deg: Option<f64>,
    /// Peak sensitivity `max|H_δ|` at `M = 1`.
    pub sensitivity_peak: f64,
}

/// The candidate gain sets (all satisfy Eq. 10).
pub fn candidates() -> Vec<(String, IirConfig)> {
    vec![
        (
            "paper k=[2,1,.5,.25,.125,.125] k*=1/4".into(),
            IirConfig::paper(),
        ),
        (
            "aggressive k=[4] k*=1/4".into(),
            IirConfig {
                kexp_exp: 3,
                k_star_exp: -2,
                tap_exps: vec![2],
            },
        ),
        (
            "moderate k=[2,2] k*=1/4".into(),
            IirConfig {
                kexp_exp: 3,
                k_star_exp: -2,
                tap_exps: vec![1, 1],
            },
        ),
        (
            "sluggish k=[1]x8 k*=1/8".into(),
            IirConfig {
                kexp_exp: 3,
                k_star_exp: -3,
                tap_exps: vec![0; 8],
            },
        ),
        (
            "gentle k=[1]x16 k*=1/16".into(),
            IirConfig {
                kexp_exp: 3,
                k_star_exp: -4,
                tap_exps: vec![0; 16],
            },
        ),
    ]
}

/// Analyze one gain set.
pub fn analyze(label: &str, config: &IirConfig, max_m: usize) -> StabilityRow {
    let h: TransferFunction = config.transfer_function();
    let hd = closedloop::error_transfer(&h, 1);
    let open = h.series(&TransferFunction::delay(3)); // z^{-(M+2)} at M = 1
    StabilityRow {
        label: label.to_owned(),
        max_stable_m: closedloop::max_stable_cdn_delay(&h, max_m),
        radius_at_m1: closedloop::stability(&h, 1).spectral_radius,
        phase_margin_deg: margins::loop_margins(&open, 4096)
            .phase_margin_deg
            .map(|(pm, _)| pm),
        sensitivity_peak: margins::sensitivity_peak(&hd, 2048).0,
    }
}

/// Run the full map, one gain set per sweep worker (the rows are
/// independent, so the map is the same at any worker count); a fired
/// `ctx.cancel` stops it before the next gain set.
pub fn run(ctx: &RunCtx, max_m: usize) -> Vec<StabilityRow> {
    parallel_map(
        &candidates(),
        |_| 1,
        |(label, cfg)| analyze(label, cfg, max_m),
        &Telemetry::disabled(),
        &ctx.cancel,
    )
}

/// Render the map.
pub fn render(rows: &[StabilityRow]) -> String {
    let mut t = Table::new([
        "gain set",
        "max stable M",
        "radius @ M=1",
        "phase margin (deg)",
        "peak |Hδ|",
    ]);
    for r in rows {
        t.row([
            r.label.clone(),
            r.max_stable_m
                .map_or("unstable".to_owned(), |m| m.to_string()),
            fmt(r.radius_at_m1),
            r.phase_margin_deg.map_or("-".to_owned(), fmt),
            fmt(r.sensitivity_peak),
        ]);
    }
    format!(
        "Extension — clock-domain-size stability map (Eq. 4–5 closed loop)\n\n{}\n\
         Reading: slower gain sets buy CDN-depth headroom (bigger clock domains)\n\
         and lower sensitivity peaks, at the cost of adaptation speed — the\n\
         quantitative form of the paper's clock-domain-size warning.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;

    fn map(max_m: usize) -> Vec<StabilityRow> {
        run(&RunCtx::new(PaperParams::default()), max_m)
    }

    #[test]
    fn every_candidate_is_eq10_compliant_and_stable_at_m1() {
        for (label, cfg) in candidates() {
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
            let row = analyze(&label, &cfg, 100);
            assert!(
                row.max_stable_m.unwrap_or(0) >= 1,
                "{label}: must be stable at the paper's operating point"
            );
            assert!(row.radius_at_m1 < 1.0, "{label}");
        }
    }

    #[test]
    fn slower_gains_tolerate_deeper_cdn() {
        let rows = map(200);
        let get = |needle: &str| {
            rows.iter()
                .find(|r| r.label.contains(needle))
                .unwrap_or_else(|| panic!("row {needle}"))
                .max_stable_m
                .expect("stable")
        };
        let aggressive = get("aggressive");
        let paper = get("paper");
        let gentle = get("gentle");
        assert!(
            aggressive <= paper && paper <= gentle,
            "CDN headroom must grow as gains slow: {aggressive} <= {paper} <= {gentle}"
        );
        assert!(gentle > paper, "the gentle set must buy real headroom");
    }

    #[test]
    fn phase_margin_consistent_with_radius() {
        for row in map(60) {
            if let Some(pm) = row.phase_margin_deg {
                assert_eq!(
                    pm > 0.0,
                    row.radius_at_m1 < 1.0,
                    "{}: phase margin {pm} vs radius {}",
                    row.label,
                    row.radius_at_m1
                );
            }
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render(&map(60));
        for (label, _) in candidates() {
            let head: String = label.chars().take(12).collect();
            assert!(text.contains(&head), "missing {label}");
        }
    }
}
