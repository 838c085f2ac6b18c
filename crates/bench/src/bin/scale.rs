//! Solver scaling sweep: cold (`SolverMode::Full`) vs. cascade waterfill
//! re-leveling on the same sparse pattern, 512 → 8,192 nodes.
//!
//! Usage: `scale [--out PATH]`; a bad flag or value prints the usage and
//! exits with status 2.
//!
//! Writes the machine-readable sweep to `results/BENCH_scale.json`
//! (override with `--out`) and prints a human table. Every field is
//! simulated time or a count, so `just scale` byte-checks the committed
//! file.

use bgq_bench::args::parse_value;
use bgq_bench::scale::{scale_json, scale_point, SCALE_SIZES};
use bgq_netsim::SimConfig;
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str = "usage: scale [--out PATH]";

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<String, Box<dyn Error>> {
    let mut out = String::from("results/BENCH_scale.json");
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = parse_value("--out", args.next())?,
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let out = match parse_cli(std::env::args().skip(1)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("scale: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!("waterfill scaling sweep (cold vs. cascade re-leveling)");
    println!(
        "{:>6} {:>9} {:>7} {:>7} {:>13} {:>11} {:>8}",
        "nodes", "transfers", "shards", "events", "cold solves", "warm solves", "reduced"
    );
    let mut points = Vec::new();
    for nodes in SCALE_SIZES {
        let p = scale_point(nodes, &SimConfig::default());
        println!(
            "{:>6} {:>9} {:>7} {:>7} {:>5} -> {:<4} {:>11} {:>7.1}x",
            p.nodes,
            p.transfers,
            p.shards,
            p.incremental.events,
            p.full.full_runs,
            p.incremental.full_runs,
            p.incremental.incremental_runs,
            p.full_run_reduction()
        );
        points.push(p);
    }

    for p in &points {
        assert!(
            p.incremental.incremental_runs > p.incremental.full_runs,
            "cascade solver showed no benefit at {} nodes ({} warm vs {} cold)",
            p.nodes,
            p.incremental.incremental_runs,
            p.incremental.full_runs
        );
        assert!(
            p.shards > 1,
            "the sweep pattern failed to decompose at {} nodes",
            p.nodes
        );
    }

    let json = scale_json(&points);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_cli;

    fn parse(s: &[&str]) -> Result<String, String> {
        parse_cli(s.iter().map(|a| a.to_string())).map_err(|e| e.to_string())
    }

    #[test]
    fn flags_parse() {
        assert_eq!(parse(&["--out", "s.json"]).unwrap(), "s.json");
        assert_eq!(parse(&[]).unwrap(), "results/BENCH_scale.json");
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--out"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--max-nodes", "512"])
            .unwrap_err()
            .contains("--max-nodes"));
        assert!(parse(&["--threads", "2"])
            .unwrap_err()
            .contains("--threads"));
        assert!(parse(&["--report-out", "r.json"])
            .unwrap_err()
            .contains("--report-out"));
    }
}
