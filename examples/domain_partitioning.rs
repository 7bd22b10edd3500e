//! Clock-domain partitioning study — the paper's conclusion made concrete:
//! the CDN delay (and with it, the tolerable variation frequency) scales
//! with domain size, so a die partitioned into more, smaller adaptive
//! domains rides out faster supply events.
//!
//! The scenario: one die, hit by an SSN droop train. Partitionings: one
//! monolithic domain (deep clock tree, t_clk = 4c), four quadrants
//! (t_clk = c), sixteen tiles (t_clk = c/4). Each partitioning is scored by
//! the worst per-domain safety margin and the spread of mean periods
//! (inter-domain asynchrony the interconnect must absorb).
//!
//! Run with: `cargo run -p adaptive-clock-examples --example domain_partitioning`

use adaptive_clock::event::SummarySink;
use adaptive_clock::system::{RunSummary, Scheme, SystemBuilder};
use variation::stochastic::{SsnBursts, SsnConfig};

/// One IIR RO domain per tile under the shared droop train, each folded to
/// its summary over the post-warm-up periods.
fn partitioning(
    droops: &SsnBursts,
    n_domains: usize,
    t_clk: f64,
    mu_spread: f64,
) -> Vec<RunSummary> {
    (0..n_domains)
        .map(|k| {
            // spread static process tilt across the domains
            let mu = if n_domains == 1 {
                0.0
            } else {
                mu_spread * (k as f64 / (n_domains - 1) as f64 - 0.5)
            };
            SystemBuilder::new(64)
                .cdn_delay(t_clk)
                .scheme(Scheme::iir_paper())
                .single_sensor_mu(mu)
                .build()
                .expect("valid domain")
                .run_with(droops, 12_000, SummarySink::with_warmup(1000))
        })
        .collect()
}

fn main() {
    let c = 64.0;
    // SSN droop train: ~8c-long events every ~120c, up to 0.15c deep.
    let droops = SsnBursts::new(
        2026,
        SsnConfig {
            mean_gap: 120.0 * c,
            amplitude: (0.05 * c, 0.15 * c),
            duration: (6.0 * c, 12.0 * c),
            horizon: 3.0e6,
        },
    );
    println!(
        "Domain partitioning under an SSN droop train ({} bursts, IIR RO everywhere)\n",
        droops.len()
    );
    println!(
        "{:<22} | {:>8} | {:>14} | {:>15}",
        "partitioning", "t_clk", "worst margin", "period spread"
    );
    for (label, n, t_clk) in [
        ("1 monolithic domain", 1usize, 4.0 * c),
        ("4 quadrants", 4, c),
        ("16 tiles", 16, 0.25 * c),
    ] {
        let domains = partitioning(&droops, n, t_clk, 6.0);
        // The die budgets its worst domain's margin; the interconnect
        // absorbs the spread of mean periods.
        let worst_margin = domains
            .iter()
            .map(|d| d.worst_negative_error)
            .fold(0.0, f64::max);
        let (lo, hi) = domains.iter().fold((f64::MAX, f64::MIN), |(lo, hi), d| {
            (lo.min(d.mean_period), hi.max(d.mean_period))
        });
        println!(
            "{label:<22} | {:>7.1}c | {:>13.2}  | {:>14.2}",
            t_clk / c,
            worst_margin,
            hi - lo
        );
    }
    println!(
        "\nSmaller domains see the droop 'from nearby' (t_clk ≪ droop duration), so the\n\
         RO period bends with the droop before the logic feels it — Eq. 3's linear\n\
         attenuation regime. The price is asynchrony: sixteen independent adaptive\n\
         clocks drift apart by the process tilt the loop compensates locally."
    );
}
