//! Sparse neighborhood exchange sweep: pattern density × size,
//! 512 → 4,096 nodes, all three algorithms per point.
//!
//! Usage: `exchange [--max-nodes N] [--threads N] [--out PATH]`; a bad
//! flag or value, or an `N` below the smallest sweep size (512), prints
//! the usage and exits with status 2.
//!
//! Writes the machine-readable sweep to `results/BENCH_exchange.json`
//! (override with `--out`) and prints a human table. `--max-nodes 512`
//! is the smoke configuration. At full scale the binary asserts the
//! acceptance bar: proxy multipath ≥1.5× direct aggregate throughput on
//! the disjoint-heavy pattern at 4,096 nodes.

use bgq_bench::args::parse_value;
use bgq_bench::{
    exchange_json, exchange_nodes, exchange_point, exchange_row, ExchangePattern, ExchangeSweep,
    Experiment, ExperimentSession, Row, Table,
};
use bgq_netsim::SimConfig;
use sdm_core::ExchangeAlgorithm;
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str = "usage: exchange [--max-nodes N] [--threads N] [--out PATH]";

#[derive(Debug)]
struct Cli {
    max_nodes: u32,
    threads: usize,
    out: String,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, Box<dyn Error>> {
    let mut cli = Cli {
        max_nodes: 4096,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out: String::from("results/BENCH_exchange.json"),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-nodes" => cli.max_nodes = parse_value("--max-nodes", args.next())?,
            "--threads" => cli.threads = parse_value("--threads", args.next())?,
            "--out" => cli.out = parse_value("--out", args.next())?,
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    if exchange_nodes(cli.max_nodes).is_empty() {
        return Err(format!(
            "--max-nodes {} is below the smallest sweep size (512)",
            cli.max_nodes
        )
        .into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let Cli {
        max_nodes,
        threads,
        out,
    } = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("exchange: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Each sweep point is simulated once (threads fan points out; output
    // is bit-identical for any thread count) and feeds both the human
    // table and the artifact.
    let sweep = ExchangeSweep::new(max_nodes);
    let session = ExperimentSession::new(threads);
    let points = session.map(&sweep.points(), |cache, &(nodes, pattern)| {
        exchange_point(cache, &SimConfig::default(), nodes, pattern)
    });
    let rows: Vec<Row> = points.iter().map(exchange_row).collect();
    let columns = sweep.columns();
    let mut table = Table::new(&columns.iter().map(String::as_str).collect::<Vec<_>>());
    for row in &rows {
        table.row(row.cells.clone());
    }
    print!("{}", table.render());
    if let Some(footer) = sweep.footer(&rows) {
        println!("{footer}");
    }

    // Acceptance bar: at full scale, batch proxy multipath must beat the
    // all-direct baseline by ≥1.5× on the disjoint-heavy pattern.
    if let Some(big) = points
        .iter()
        .filter(
            |p| matches!(p.pattern, ExchangePattern::DisjointHeavy { bytes: b } if b >= 32 << 20),
        )
        .max_by_key(|p| p.nodes)
    {
        assert!(
            big.speedup() >= 1.5,
            "proxy multipath speedup {:.2}x < 1.5x on the disjoint-heavy \
             pattern at {} nodes",
            big.speedup(),
            big.nodes
        );
        eprintln!(
            "disjoint-heavy at {} nodes: {:.2}x over direct ({} of {} pairs multipath)",
            big.nodes,
            big.speedup(),
            big.result(ExchangeAlgorithm::ProxyMultipath)
                .pairs_multipath,
            big.pairs
        );
    }

    let json = exchange_json(&points);
    bgq_obs::json::validate(&json).expect("BENCH_exchange.json must be valid JSON");
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
        let cli = parse(&["--max-nodes", "512", "--threads", "2", "--out", "x.json"]).unwrap();
        assert_eq!(
            (cli.max_nodes, cli.threads, cli.out.as_str()),
            (512, 2, "x.json")
        );
        assert_eq!(parse(&[]).unwrap().max_nodes, 4096);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--max-nodes"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--max-nodes", "many"])
            .unwrap_err()
            .contains("\"many\""));
        assert!(parse(&["--max-nodes", "-1"]).is_err());
        assert!(parse(&["--max-nodes", "5000000000"]).is_err());
        assert!(parse(&["--threads", "two"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn a_max_below_the_smallest_size_is_an_error_not_an_empty_sweep() {
        for n in ["0", "100", "511"] {
            assert!(parse(&["--max-nodes", n])
                .unwrap_err()
                .contains("smallest sweep size"));
        }
        assert_eq!(parse(&["--max-nodes", "512"]).unwrap().max_nodes, 512);
    }
}
