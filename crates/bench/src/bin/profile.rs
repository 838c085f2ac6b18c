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
//! other artifact flag, a second operand or a figure without a
//! representative profile prints an error and exits with status 2.

use bgq_bench::runner::PlanCache;
use bgq_bench::{profile_for_with_trace, render_report, write_artifact, BenchArgs};

/// The figure to profile (default `fig6`), checked before anything runs.
fn parse_figure(args: &BenchArgs) -> Result<&str, String> {
    args.only_artifacts(&["--profile-out", "--trace-out"])?;
    match args.positional.as_slice() {
        [] => Ok("fig6"),
        [figure] => Ok(figure),
        [_, extra, ..] => Err(format!("unexpected operand {extra:?} (profile takes one FIGURE)")),
    }
}

fn main() {
    let args = BenchArgs::parse();
    let figure = parse_figure(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let cache = PlanCache::new();
    let Some((art, rec)) = profile_for_with_trace(figure, &cache) else {
        eprintln!(
            "no representative profile for {figure} (try fig5, fig6, fig7, fig10, resilience, exchange)"
        );
        std::process::exit(2);
    };
    if let Err(e) = art.validate() {
        eprintln!("profile accounting broken: {e}");
        std::process::exit(1);
    }

    if args.csv {
        print!("{}", art.to_csv());
        print!("{}", art.blame_csv());
    } else {
        print!("{}", render_report(&art));
    }

    if let Some(path) = &args.profile_out {
        write_artifact(path, &art.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.trace_out {
        write_artifact(path, &rec.to_chrome_json())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<String, String> {
        let args = BenchArgs::try_parse(line.iter().map(|s| s.to_string())).unwrap();
        parse_figure(&args).map(str::to_string)
    }

    #[test]
    fn one_optional_figure_operand() {
        assert_eq!(parse(&[]), Ok("fig6".into()));
        assert_eq!(parse(&["fig5", "--profile-out", "p.json"]), Ok("fig5".into()));
        let err = parse(&["fig5", "extra"]).unwrap_err();
        assert!(err.contains("\"extra\""), "{err}");
    }

    #[test]
    fn artifacts_it_cannot_write_are_rejected() {
        assert!(parse(&["fig5", "--trace-out", "t.json"]).is_ok());
        for flag in ["--metrics-out", "--manifest-out"] {
            let err = parse(&["fig5", flag, "x"]).unwrap_err();
            assert!(err.starts_with(flag), "{err}");
        }
        assert!(parse(&["fig5", "--observe"]).is_err());
    }
}
