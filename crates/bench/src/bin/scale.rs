//! Solver scaling sweep: cold (`SolverMode::Full`) vs. cascade waterfill
//! re-leveling on the same sparse pattern, 512 → 8,192 nodes.
//!
//! Usage: `scale [--max-nodes N] [--out PATH]`; a bad flag or value, or
//! an `N` below the smallest sweep size (512), prints the usage and
//! exits with status 2.
//!
//! Writes the machine-readable sweep to `results/BENCH_scale.json`
//! (override with `--out`) and prints a human table. `--max-nodes 512`
//! is the smoke configuration used by `just bench-smoke`.

use bgq_bench::args::parse_value;
use bgq_bench::scale::{scale_json, scale_point, scale_sizes};
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str = "usage: scale [--max-nodes N] [--out PATH]";

#[derive(Debug)]
struct Cli {
    max_nodes: u32,
    out: String,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, Box<dyn Error>> {
    let mut cli = Cli {
        max_nodes: 8192,
        out: String::from("results/BENCH_scale.json"),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-nodes" => cli.max_nodes = parse_value("--max-nodes", args.next())?,
            "--out" => cli.out = parse_value("--out", args.next())?,
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    if scale_sizes(cli.max_nodes).is_empty() {
        return Err(format!(
            "--max-nodes {} is below the smallest sweep size (512)",
            cli.max_nodes
        )
        .into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let Cli { max_nodes, out } = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("scale: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!("waterfill scaling sweep (cold vs. cascade re-leveling)");
    println!(
        "{:>6} {:>9} {:>7} {:>12} {:>12} {:>9} {:>11} {:>8}",
        "nodes",
        "transfers",
        "shards",
        "cold ev/s",
        "warm ev/s",
        "speedup",
        "cold solves",
        "reduced"
    );
    let mut points = Vec::new();
    for nodes in scale_sizes(max_nodes) {
        let p = scale_point(nodes);
        println!(
            "{:>6} {:>9} {:>7} {:>12.0} {:>12.0} {:>8.2}x {:>5} -> {:<4} {:>6.1}x",
            p.nodes,
            p.transfers,
            p.shards,
            p.full.events_per_sec,
            p.incremental.events_per_sec,
            p.speedup(),
            p.full.full_runs,
            p.incremental.full_runs,
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

    fn parse(s: &[&str]) -> Result<super::Cli, String> {
        parse_cli(s.iter().map(|a| a.to_string())).map_err(|e| e.to_string())
    }

    #[test]
    fn flags_parse() {
        let cli = parse(&["--max-nodes", "512", "--out", "s.json"]).unwrap();
        assert_eq!((cli.max_nodes, cli.out.as_str()), (512, "s.json"));
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.max_nodes, 8192);
        assert_eq!(cli.out, "results/BENCH_scale.json");
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--max-nodes"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--max-nodes", "lots"])
            .unwrap_err()
            .contains("\"lots\""));
        assert!(parse(&["--max-nodes", "-512"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--threads", "2"])
            .unwrap_err()
            .contains("--threads"));
        assert!(parse(&["--report-out", "r.json"])
            .unwrap_err()
            .contains("--report-out"));
    }

    #[test]
    fn a_max_below_the_smallest_size_is_an_error_not_an_empty_sweep() {
        for n in ["0", "3", "511"] {
            assert!(parse(&["--max-nodes", n])
                .unwrap_err()
                .contains("smallest sweep size"));
        }
        assert_eq!(parse(&["--max-nodes", "512"]).unwrap().max_nodes, 512);
    }
}
