//! Set-point auto-tuning — the extension the paper sketches in its
//! conclusions: vary the set-point from observed timing errors to maximize
//! throughput at zero errors.
//!
//! The scenario: the critical path truly needs `c_req = 64` stages per
//! period, but the designer only knows a conservative `c₀ = 80`. An AIMD
//! tuner watches for violations window by window and walks the set-point
//! down until it hunts just above the real requirement, reclaiming the
//! difference as clock frequency.
//!
//! Run with: `cargo run -p adaptive-clock-examples --example setpoint_autotune`

use adaptive_clock::setpoint::{SetPointTuner, TunerConfig};
use adaptive_clock::system::{RunSummary, Scheme, SystemBuilder};
use variation::sources::Harmonic;

fn main() -> Result<(), adaptive_clock::Error> {
    let c_req = 64i64; // what the pipeline actually needs
    let c0 = 80i64; // the conservative design guess
    let window = 200usize;

    let tuner_cfg = TunerConfig {
        window,
        backoff: 3,
        probe: 1,
        floor: 32,
        ceiling: 128,
    };
    let mut tuner = SetPointTuner::new(c0, tuner_cfg);
    let hodv = Harmonic::new(0.05 * c_req as f64, 60.0 * c_req as f64, 0.0);

    println!("Set-point auto-tuning — true requirement c_req = {c_req}, starting at c = {c0}\n");
    println!(
        "{:>6} | {:>9} | {:>11} | {:>12} | {:>9}",
        "epoch", "set-point", "mean period", "violations", "action"
    );

    let mut history = Vec::new();
    for epoch in 0..40 {
        let c_now = tuner.setpoint();
        // One observation window: run the adaptive clock at the current
        // set-point; a violation is any period delivering fewer than c_req
        // stages of usable time.
        let system = SystemBuilder::new(c_now)
            .cdn_delay(c_req as f64)
            .scheme(Scheme::iir_paper())
            .build()?;
        let run = system.run(&hodv, window + 100).skip(100);
        let violations = run
            .samples()
            .iter()
            .filter(|s| s.tau < c_req as f64)
            .count();
        // Feed the tuner. A violation burst triggers one immediate backoff
        // (after which the set-point has already changed, so the rest of
        // the stale window is discarded); a clean window feeds through
        // period by period.
        let mut action = "hold".to_owned();
        if violations > 0 {
            if let adaptive_clock::setpoint::TunerAction::Raised { to } = tuner.observe(true) {
                action = format!("raise → {to}");
            }
        } else {
            for _ in 0..window {
                if let adaptive_clock::setpoint::TunerAction::Lowered { to } = tuner.observe(false)
                {
                    action = format!("lower → {to}");
                }
            }
        }
        println!(
            "{epoch:>6} | {c_now:>9} | {:>11.2} | {violations:>12} | {action:>9}",
            RunSummary::of(&run).mean_period
        );
        history.push(c_now);
    }

    let tail: Vec<i64> = history.iter().rev().take(10).copied().collect();
    let avg = tail.iter().sum::<i64>() as f64 / tail.len() as f64;
    println!(
        "\nsteady-state set-point ≈ {avg:.1} (true requirement {c_req}); the reclaimed\n\
         {:.1} stages ≈ {:.0}% extra clock frequency over the conservative design guess.",
        c0 as f64 - avg,
        100.0 * (c0 as f64 - avg) / c0 as f64
    );
    Ok(())
}
