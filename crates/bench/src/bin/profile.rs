//! Why was this run slow? Bottleneck-attribution report for a figure's
//! representative scenario.
//!
//! ```text
//! cargo run --release -p bgq-bench --bin profile -- [FIGURE] \
//!     [--csv] [--profile-out PATH] [--trace-out PATH]
//! ```
//!
//! `FIGURE` defaults to `fig6`. The report shows, per run (`direct` /
//! `multipath` / `sparse_write`), where the flow-seconds went
//! (network-limited vs. cap-limited vs. queued vs. fault-stalled vs.
//! delivery latency), the ranked per-link blame, and the critical
//! dependency chain through the multipath proxy stages with its slowest
//! segment.
//!
//! `--csv` prints the per-transfer decomposition and per-link blame
//! rollup as CSV instead. `--profile-out` writes the deterministic JSON
//! artifact (`obs_report` validates and `--diff`s it); `--trace-out`
//! writes a Perfetto track of each flow's binding-link changes. Any
//! other flag, a second operand or a figure without a representative
//! profile prints an error and exits with status 2; an artifact that
//! cannot be written exits 1.

use bgq_bench::args::{Cli, Parsed};
use bgq_bench::runner::PlanCache;
use bgq_bench::{binding_trace, render_report, write_or_exit, Representative};
use bgq_netsim::SimConfig;

static CLI: Cli = Cli {
    name: "profile",
    flags: &[
        ("--csv", None),
        ("--profile-out", Some("PATH")),
        ("--trace-out", Some("PATH")),
    ],
    operands: "[FIGURE]",
};

/// The figure to profile: the operand, or `fig6`.
fn figure(args: &Parsed) -> &str {
    args.operands.first().map_or("fig6", String::as_str)
}

fn main() {
    let args = CLI
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|e| CLI.exit_usage(e));
    let figure = figure(&args);
    let Some(representative) = Representative::of(figure) else {
        CLI.exit_usage(format!(
            "no representative profile for {figure} (try {})",
            Representative::figure_names().join(", ")
        ));
    };
    let art = representative
        .execute(&PlanCache::new(), &SimConfig::default())
        .profile();
    if let Err(e) = art.validate() {
        eprintln!("profile accounting broken: {e}");
        std::process::exit(1);
    }

    if args.has("--csv") {
        print!("{}", art.to_csv());
        print!("{}", art.blame_csv());
    } else {
        print!("{}", render_report(&art));
    }

    if let Some(path) = args.text("--profile-out") {
        write_or_exit(&path, &art.to_json());
    }
    if let Some(path) = args.text("--trace-out") {
        write_or_exit(&path, &binding_trace(&art).to_chrome_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<String, String> {
        let args = CLI.parse(line.iter().map(|s| s.to_string()))?;
        Ok(figure(&args).to_string())
    }

    #[test]
    fn one_optional_figure_operand() {
        assert_eq!(parse(&[]), Ok("fig6".into()));
        assert_eq!(
            parse(&["fig5", "--profile-out", "p.json"]),
            Ok("fig5".into())
        );
        let err = parse(&["fig5", "extra"]).unwrap_err();
        assert!(err.contains("\"extra\""), "{err}");
    }

    #[test]
    fn artifacts_it_cannot_write_are_rejected() {
        assert!(parse(&["fig5", "--trace-out", "t.json"]).is_ok());
        for flag in ["--metrics-out", "--manifest-out"] {
            let err = parse(&["fig5", flag, "x"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        assert!(parse(&["fig5", "--observe"]).is_err());
    }

    #[test]
    fn flags_it_would_ignore_are_rejected() {
        for line in [["fig5", "--seed", "99"], ["fig5", "--threads", "3"]] {
            let err = parse(&line).unwrap_err();
            assert!(err.contains(line[1]), "{err}");
        }
        assert!(parse(&["fig5", "--timing"]).is_err());
    }
}
