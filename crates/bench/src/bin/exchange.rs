//! Sparse neighborhood exchange sweep: pattern density × size,
//! 512 → 4,096 nodes, all three algorithms per point.
//!
//! Usage: `exchange [--max-nodes N] [--threads N] [--out PATH]`
//!
//! Writes the machine-readable sweep to `results/BENCH_exchange.json`
//! (override with `--out`) and prints a human table. `--max-nodes 512`
//! is the smoke configuration. At full scale the binary asserts the
//! acceptance bar: proxy multipath ≥1.5× direct aggregate throughput on
//! the disjoint-heavy pattern at 4,096 nodes.

use bgq_bench::{
    exchange_json, exchange_point, exchange_row, ExchangePattern, ExchangeSweep, Experiment,
    ExperimentSession, Row, Table,
};
use sdm_core::ExchangeAlgorithm;

fn main() {
    let mut max_nodes = 4096u32;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("results/BENCH_exchange.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-nodes" => {
                let v = args.next().expect("--max-nodes needs a value");
                max_nodes = v.parse().unwrap_or_else(|_| panic!("bad --max-nodes {v:?}"));
            }
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                threads = v.parse().unwrap_or_else(|_| panic!("bad --threads {v:?}"));
            }
            "--out" => out = args.next().expect("--out needs a value"),
            other => {
                panic!("unknown flag {other:?} (use --max-nodes N / --threads N / --out PATH)")
            }
        }
    }

    // Each sweep point is simulated once (threads fan points out; output
    // is bit-identical for any thread count) and feeds both the human
    // table and the artifact.
    let sweep = ExchangeSweep::new(max_nodes);
    let session = ExperimentSession::new(threads);
    let points = session.map(&sweep.points(), |cache, &(nodes, pattern)| {
        exchange_point(cache, nodes, pattern)
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
        .filter(|p| matches!(p.pattern, ExchangePattern::DisjointHeavy { bytes: b } if b >= 32 << 20))
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
            big.result(ExchangeAlgorithm::ProxyMultipath).pairs_multipath,
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
}
