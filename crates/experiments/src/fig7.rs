//! Fig. 7 — timing error `τ − c` traces for the four clock generation
//! systems under a 20 % HoDV, CDN delay `t_clk = c`, no mismatch.
//!
//! Three panels with perturbation periods `T_e ∈ {25c, 37.5c, 50c}`; the
//! paper plots period numbers 500–600. The paper's observations, asserted
//! by the tests here:
//!
//! * upper panel (fast perturbation): the adaptive systems' negative error
//!   is close to the fixed clock's (little margin saved), though the error
//!   amplitude is already reduced;
//! * middle/lower panels: as `T_e` grows the adaptive systems track better
//!   and the error shrinks — "reduced to a minimum value" at `T_e = 50c`.

use adaptive_clock::system::Scheme;
use clock_rescache::Key;
use clock_telemetry::Event;

use crate::cache::CacheKeyExt as _;
use crate::config::PaperParams;
use crate::render::ascii_chart;
use crate::results::{ExperimentResult, Series};
use crate::runner::{cached_map, run_scheme, Codec, OperatingPoint, RunCtx};

/// The paper's three perturbation periods, in multiples of `c`.
pub const PANELS: [f64; 3] = [25.0, 37.5, 50.0];

/// The plotted window of period numbers.
pub const WINDOW: (usize, usize) = (500, 600);

/// The four schemes of the figure's legend.
fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::iir_paper(),
        Scheme::FreeRo { extra_length: 0 },
        Scheme::TeaTime,
        Scheme::Fixed,
    ]
}

/// The content key of one scheme's windowed timing-error series.
fn errors_key(params: &PaperParams, scheme: &Scheme, point: OperatingPoint) -> Key {
    crate::cache::key("fig7-errors")
        .params(params)
        .scheme(scheme)
        .point(point)
        .u64("window.start", WINDOW.0 as u64)
        .u64("window.end", WINDOW.1 as u64)
        .u64("budget.samples", params.samples_for(point.te_over_c) as u64)
        .u64("budget.warmup", params.warmup as u64)
        .finish()
}

/// Run one panel: timing-error series over the plotted window for each
/// scheme. The result cache is consulted per `(scheme, Te)` point (the
/// cached payload is the plotted window's timing-error series); engine
/// counters/events flow through `ctx.telemetry`, and each scheme's needed
/// margin is reported as one margin-search iteration at coordinate
/// `te_over_c`.
pub fn run_panel(ctx: &RunCtx, te_over_c: f64) -> ExperimentResult {
    let params = &ctx.params;
    let point = OperatingPoint::new(1.0, te_over_c);
    let tasks = schemes();
    // The window's length is the record's: a trace shorter than the
    // window stores what it has.
    let errors_codec = Codec {
        arity: None,
        encode: Vec::clone,
        decode: |_, errors| errors,
    };
    let error_series = cached_map(
        ctx,
        &tasks,
        errors_codec,
        |scheme| vec![errors_key(params, scheme, point)],
        |_| params.samples_for(te_over_c) as u64,
        |scheme| {
            let run = run_scheme(ctx, scheme.clone(), point);
            vec![run.window(WINDOW.0, WINDOW.1).timing_errors()]
        },
    );
    let series: Vec<Series> = tasks
        .iter()
        .zip(error_series)
        .map(|(scheme, errors)| {
            let x: Vec<f64> = (WINDOW.0..WINDOW.0 + errors.len())
                .map(|n| n as f64)
                .collect();
            Series::new(scheme.label(), x, errors)
        })
        .collect();
    if ctx.telemetry.is_enabled() {
        for s in &series {
            let worst = s.y.iter().fold(0.0f64, |a, &v| a.min(v));
            let margin = -worst;
            if margin.is_finite() {
                ctx.telemetry.emit(
                    te_over_c,
                    Event::MarginSearchIteration {
                        experiment: "fig7".to_owned(),
                        scheme: s.label.clone(),
                        x: te_over_c,
                        value: margin,
                    },
                );
            }
        }
    }
    let mut result = ExperimentResult::new(
        format!("fig7-te{te_over_c}c"),
        format!(
            "Timing error τ−c, c = {}, HoDV amplitude 0.2c, t_clk = c, Te = {te_over_c}c, \
             period numbers {}..{}",
            params.setpoint, WINDOW.0, WINDOW.1
        ),
    );
    for s in series {
        result = result.with_series(s);
    }
    result
}

/// Run all three panels.
pub fn run(ctx: &RunCtx) -> Vec<ExperimentResult> {
    PANELS.iter().map(|&te| run_panel(ctx, te)).collect()
}

/// Render one panel as an ASCII chart.
pub fn render(result: &ExperimentResult) -> String {
    let series: Vec<(&str, &[f64])> = result
        .series
        .iter()
        .map(|s| (s.label.as_str(), s.y.as_slice()))
        .collect();
    format!(
        "Fig. 7 panel — {}\n\n{}",
        result.description,
        ascii_chart(&series, 100, 18)
    )
}

/// Worst negative error per scheme of one panel (the needed safety margin).
pub fn panel_margins(result: &ExperimentResult) -> Vec<(String, f64)> {
    result
        .series
        .iter()
        .map(|s| {
            let worst = s.y.iter().fold(0.0f64, |a, &v| a.min(v));
            (s.label.clone(), -worst)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RunCtx {
        RunCtx::new(PaperParams::default())
    }

    fn margins_of(te: f64) -> Vec<(String, f64)> {
        panel_margins(&run_panel(&ctx(), te))
    }

    fn margin(ms: &[(String, f64)], label: &str) -> f64 {
        ms.iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("missing series {label}"))
            .1
    }

    #[test]
    fn all_four_series_present_and_window_sized() {
        let r = run_panel(&ctx(), 25.0);
        assert_eq!(r.series.len(), 4);
        for s in &r.series {
            assert_eq!(s.len(), WINDOW.1 - WINDOW.0, "{}", s.label);
            assert_eq!(s.x[0], WINDOW.0 as f64);
        }
    }

    #[test]
    fn adaptation_error_shrinks_as_perturbation_slows() {
        // Paper: middle plot shows "an appreciable adaptation error
        // reduction … once the perturbation frequency is decreased", lower
        // plot "reduced to a minimum value".
        let fast = margins_of(25.0);
        let slow = margins_of(50.0);
        for label in ["IIR RO", "Free RO", "TEAtime RO"] {
            let mf = margin(&fast, label);
            let ms = margin(&slow, label);
            assert!(
                ms < mf,
                "{label}: margin at Te=50c ({ms}) must beat Te=25c ({mf})"
            );
        }
    }

    #[test]
    fn fixed_clock_margin_tracks_full_amplitude_at_any_te() {
        for te in PANELS {
            let ms = margins_of(te);
            let mfix = margin(&ms, "Fixed clock");
            assert!(
                (mfix - 12.8).abs() < 1.5,
                "Te={te}c: fixed margin {mfix}, expected ≈ 12.8"
            );
        }
    }

    #[test]
    fn adaptive_beats_fixed_at_te_50c() {
        let ms = margins_of(50.0);
        let mfix = margin(&ms, "Fixed clock");
        for label in ["IIR RO", "Free RO", "TEAtime RO"] {
            let m = margin(&ms, label);
            assert!(
                m < 0.75 * mfix,
                "{label}: margin {m} vs fixed {mfix} at Te=50c"
            );
        }
    }

    #[test]
    fn upper_panel_margin_close_to_fixed_but_amplitude_reduced() {
        // Paper (upper plot): "the negative timing error … is quite close
        // to the margin that would need a fixed clock …, nevertheless the
        // τ−c amplitude is reduced."
        let r = run_panel(&ctx(), 25.0);
        let amp = |label: &str| -> f64 {
            let s = r.series_named(label).unwrap();
            let max = s.y.iter().fold(f64::MIN, |a, &v| a.max(v));
            let min = s.y.iter().fold(f64::MAX, |a, &v| a.min(v));
            max - min
        };
        let fixed_amp = amp("Fixed clock");
        let iir_amp = amp("IIR RO");
        assert!(
            iir_amp < fixed_amp,
            "IIR amplitude {iir_amp} vs fixed {fixed_amp}"
        );
        let ms = panel_margins(&r);
        let m_iir = margin(&ms, "IIR RO");
        let m_fix = margin(&ms, "Fixed clock");
        assert!(m_iir > 0.4 * m_fix, "at Te=25c the margin saving is modest");
    }

    #[test]
    fn render_has_legend() {
        let text = render(&run_panel(&ctx(), 37.5));
        for label in ["IIR RO", "Free RO", "TEAtime RO", "Fixed clock"] {
            assert!(text.contains(label));
        }
    }
}
