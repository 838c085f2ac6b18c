//! Scaling harness for the paper's workload: a random sparse
//! neighborhood exchange (`sparse_pairs(n, 4, 256 KiB, 2014)`, four
//! peers per node), planned direct and simulated unobserved, for
//! n = 512, 1,024, … up to `--max-nodes`.
//!
//! Each row prints the pair count, the planning time, the simulate time
//! (the minimum over at least five runs and at least 1 s of simulate
//! time, which steadies it on a shared host), its ratio to the previous row (the
//! per-doubling growth), and, from one extra observed run, the cold and
//! warm solve counts (warm: cascade solves and skipped no-op re-levels),
//! the share of demand-set flow–link entries the solves actually
//! touched, and per re-level: the flows the demand-index step examined
//! (`visits`), the passes popped as logged (`logged`) and the loop steps
//! spent on them (`steps`: one per run of logged passes, plus one per
//! watched or skipped pass).
//!
//! Run with: `cargo run --release --example exchange_scaling -- --max-nodes 4096`

use bgq_bench::args::Cli;
use bgq_sparsemove::netsim::{SimObserver, SimOptions};
use bgq_sparsemove::prelude::*;
use bgq_sparsemove::workloads::sparse_pairs;
use std::time::Instant;

static CLI: Cli = Cli {
    name: "exchange_scaling",
    flags: &[("--max-nodes", Some("N"))],
    operands: "",
};

/// Each row's simulate time is the fastest of at least this many runs…
const MIN_RUNS: u32 = 5;
/// …that together take at least this long, in seconds.
const MIN_TOTAL_S: f64 = 1.0;

/// `--max-nodes` (default 4,096), at least the first row's 512.
fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<u32, String> {
    let max_nodes = CLI.parse(args)?.value("--max-nodes")?.unwrap_or(4096);
    if max_nodes < 512 {
        return Err(format!("--max-nodes {max_nodes} is below 512"));
    }
    Ok(max_nodes)
}

fn main() {
    let max_nodes = parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| CLI.exit_usage(e));
    println!(
        "{:>6}  {:>6}  {:>8}  {:>10}  {:>6}  {:>7}  {:>7}  {:>8}  {:>7}  {:>7}  {:>7}",
        "nodes",
        "pairs",
        "plan_s",
        "simulate_s",
        "ratio",
        "cold",
        "warm",
        "touched",
        "visits",
        "logged",
        "steps"
    );
    let mut prev: Option<f64> = None;
    let mut n = 512;
    while n <= max_nodes {
        let machine = Machine::new(
            standard_shape(n).expect("a standard shape"),
            SimConfig::default(),
        );
        let map = SparseSendMap::from_rank_pairs(&sparse_pairs(n, 4, 256 << 10, 2014));
        let mut prog = Program::new(&machine);
        let t = Instant::now();
        NeighborhoodExchange::new(&machine).plan(&mut prog, &map, ExchangeAlgorithm::Direct);
        let plan_s = t.elapsed().as_secs_f64();
        let (mut simulate_s, mut total_s, mut runs) = (f64::INFINITY, 0.0, 0);
        while runs < MIN_RUNS || total_s < MIN_TOTAL_S {
            let t = Instant::now();
            let report = prog.simulate(SimOptions::new());
            assert!(report.all_delivered());
            let run_s = t.elapsed().as_secs_f64();
            simulate_s = simulate_s.min(run_s);
            total_s += run_s;
            runs += 1;
        }
        let mut obs = SimObserver::new();
        prog.simulate(SimOptions::new().observer(&mut obs));
        let ratio = prev.map_or("-".to_string(), |p| format!("{:.2}", simulate_s / p));
        let per_solve = |count: u64| {
            count as f64 / (obs.waterfill_full_runs + obs.waterfill_incremental_runs).max(1) as f64
        };
        println!(
            "{:>6}  {:>6}  {:>8.4}  {:>10.3}  {:>6}  {:>7}  {:>7}  {:>7.1}%  {:>7.1}  {:>7.1}  {:>7.1}",
            n,
            map.len(),
            plan_s,
            simulate_s,
            ratio,
            obs.waterfill_full_runs,
            obs.waterfill_incremental_runs,
            100.0 * obs.waterfill_touched_entries as f64 / obs.waterfill_entries.max(1) as f64,
            per_solve(obs.waterfill_index_visits),
            per_solve(obs.waterfill_replayed_passes),
            per_solve(obs.waterfill_log_steps),
        );
        prev = Some(simulate_s);
        n *= 2;
    }
}
