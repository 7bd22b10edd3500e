//! `trace-dump` — run one clock system and dump its per-period trace as
//! CSV (`time,period,tau,delta,lro`) for external plotting.
//!
//! ```text
//! trace-dump <iir|teatime|free|fixed> [--te <periods>] [--tclk <periods>]
//!            [--mu <frac>] [--n <samples>] [--jitter <sigma>] [--out <path>]
//! ```
//!
//! `--te`/`--tclk` are in multiples of the set-point `c = 64`; `--mu` is a
//! fraction of `c`. Defaults: te = 37.5, tclk = 1, mu = 0, n = 4000,
//! stdout.

use std::io::Write;
use std::process::ExitCode;

use adaptive_clock::system::{RunSummary, Scheme, SystemBuilder};
use variation::sources::Harmonic;

struct Args {
    scheme: Scheme,
    te_over_c: f64,
    t_clk_over_c: f64,
    mu_over_c: f64,
    n: usize,
    jitter: f64,
    out: Option<String>,
}

fn parse(mut argv: Vec<String>) -> Result<Args, String> {
    if argv.is_empty() {
        return Err("missing scheme".into());
    }
    let scheme = match argv.remove(0).as_str() {
        "iir" => Scheme::iir_paper(),
        "teatime" => Scheme::TeaTime,
        "free" => Scheme::FreeRo { extra_length: 0 },
        "fixed" => Scheme::Fixed,
        other => return Err(format!("unknown scheme `{other}`")),
    };
    let mut args = Args {
        scheme,
        te_over_c: 37.5,
        t_clk_over_c: 1.0,
        mu_over_c: 0.0,
        n: 4000,
        jitter: 0.0,
        out: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--te" => args.te_over_c = value.parse().map_err(|e| format!("--te: {e}"))?,
            "--tclk" => args.t_clk_over_c = value.parse().map_err(|e| format!("--tclk: {e}"))?,
            "--mu" => args.mu_over_c = value.parse().map_err(|e| format!("--mu: {e}"))?,
            "--n" => args.n = value.parse().map_err(|e| format!("--n: {e}"))?,
            "--jitter" => args.jitter = value.parse().map_err(|e| format!("--jitter: {e}"))?,
            "--out" => args.out = Some(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: trace-dump <iir|teatime|free|fixed> [--te f] [--tclk f] \
                 [--mu f] [--n u] [--jitter f] [--out path]"
            );
            return ExitCode::FAILURE;
        }
    };
    let c = 64i64;
    let mut builder = SystemBuilder::new(c)
        .cdn_delay(args.t_clk_over_c * c as f64)
        .scheme(args.scheme.clone())
        .single_sensor_mu(args.mu_over_c * c as f64);
    if args.jitter > 0.0 {
        builder = builder.jitter(args.jitter, 0xC10C);
    }
    let system = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let hodv = Harmonic::new(0.2 * c as f64, args.te_over_c * c as f64, 0.0);
    let run = system.run(&hodv, args.n);

    let mut out: Box<dyn Write> = match &args.out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::stdout().lock()),
    };
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "time,period,tau,delta,lro")?;
        for s in run.samples() {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.time, s.period, s.tau, s.delta, s.lro
            )?;
        }
        out.flush()
    };
    match write() {
        Ok(()) => {
            let summary = RunSummary::of(&run);
            eprintln!(
                "# {} | {} samples | margin {:.2} stages | mean period {:.2}",
                args.scheme.label(),
                run.len(),
                summary.worst_negative_error,
                summary.mean_period
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_defaults() {
        let a = parse(args("iir")).unwrap();
        assert_eq!(a.te_over_c, 37.5);
        assert_eq!(a.t_clk_over_c, 1.0);
        assert_eq!(a.mu_over_c, 0.0);
        assert_eq!(a.n, 4000);
        assert_eq!(a.jitter, 0.0);
        assert!(a.out.is_none());
        assert_eq!(a.scheme.label(), "IIR RO");
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(args(
            "fixed --te 50 --tclk 0.75 --mu -0.2 --n 100 --jitter 1.5 --out x.csv",
        ))
        .unwrap();
        assert_eq!(a.scheme.label(), "Fixed clock");
        assert_eq!(a.te_over_c, 50.0);
        assert_eq!(a.t_clk_over_c, 0.75);
        assert_eq!(a.mu_over_c, -0.2);
        assert_eq!(a.n, 100);
        assert_eq!(a.jitter, 1.5);
        assert_eq!(a.out.as_deref(), Some("x.csv"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(vec![]).is_err());
        assert!(parse(args("bogus")).is_err());
        assert!(parse(args("iir --te")).is_err());
        assert!(parse(args("iir --te notanumber")).is_err());
        assert!(parse(args("iir --unknown 3")).is_err());
    }

    #[test]
    fn all_schemes_accepted() {
        for (name, label) in [
            ("iir", "IIR RO"),
            ("teatime", "TEAtime RO"),
            ("free", "Free RO"),
            ("fixed", "Fixed clock"),
        ] {
            assert_eq!(parse(args(name)).unwrap().scheme.label(), label);
        }
    }
}
