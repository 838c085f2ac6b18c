//! Sparse neighborhood exchange sweep: pattern density × message size ×
//! partition size (512 → 4,096 nodes), each point lowered under all
//! three [`ExchangeAlgorithm`]s and simulated end to end.
//!
//! The sweep answers the question the subsystem exists for: when does
//! ledger-coordinated batch proxy multipath beat the `MPI_Alltoallv`
//! baseline, and what does consensus discovery cost on top? The
//! machine-readable artifact goes to `results/BENCH_exchange.json` via
//! the `exchange` binary; the CSV golden pins a small fixed point of the
//! same sweep.
//!
//! The artifact deliberately contains no wall-clock fields — every value
//! is derived from simulated time — so a re-run byte-diffs clean against
//! the committed baseline (`just exchange`).

use crate::runner::{Experiment, PlanCache, Row};
use crate::table::{fmt_bytes, fmt_gbs};
use bgq_comm::{Program, SparseSendMap};
use bgq_netsim::SimConfig;
use bgq_torus::standard_shape;
use bgq_workloads::{disjoint_heavy_pairs, sparse_pairs};
use sdm_core::{ExchangeAlgorithm, NeighborhoodExchange};
use std::fmt::Write as _;

/// Seed for the pseudo-random sparse patterns of the sweep.
pub const EXCHANGE_SEED: u64 = 2014;

/// One traffic pattern of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangePattern {
    /// Every rank sends to `fanout` random peers, sizes uniform in
    /// `[1, max_bytes]` — the dense-ish, small-message regime where
    /// combining and discovery overheads dominate.
    Sparse { fanout: u32, max_bytes: u64 },
    /// Antipodal link-disjoint pairs (one per 16th of the node space),
    /// `bytes` each — the sparse, large-message regime where batch proxy
    /// multipath has spare links to win with.
    DisjointHeavy { bytes: u64 },
}

impl ExchangePattern {
    /// Stable label for tables and artifact keys.
    pub fn label(self) -> String {
        match self {
            ExchangePattern::Sparse { fanout, max_bytes } => {
                format!("sparse f{fanout} {}", fmt_bytes(max_bytes))
            }
            ExchangePattern::DisjointHeavy { bytes } => {
                format!("disjoint {}", fmt_bytes(bytes))
            }
        }
    }

    /// Materialize the pattern's send map on an `nodes`-rank partition.
    pub fn build(self, nodes: u32, seed: u64) -> SparseSendMap {
        match self {
            ExchangePattern::Sparse { fanout, max_bytes } => {
                SparseSendMap::from_rank_pairs(&sparse_pairs(nodes, fanout, max_bytes, seed))
            }
            ExchangePattern::DisjointHeavy { bytes } => SparseSendMap::from_rank_pairs(
                &disjoint_heavy_pairs(nodes, (nodes / 16).max(1), bytes),
            ),
        }
    }
}

/// The pattern grid of the full sweep.
pub fn exchange_patterns() -> Vec<ExchangePattern> {
    vec![
        ExchangePattern::Sparse {
            fanout: 2,
            max_bytes: 256 << 10,
        },
        ExchangePattern::Sparse {
            fanout: 4,
            max_bytes: 256 << 10,
        },
        ExchangePattern::DisjointHeavy { bytes: 4 << 20 },
        ExchangePattern::DisjointHeavy { bytes: 32 << 20 },
    ]
}

/// Partition sizes of the sweep, capped at `max_nodes`.
pub fn exchange_nodes(max_nodes: u32) -> Vec<u32> {
    [512u32, 1024, 2048, 4096]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect()
}

/// One algorithm's simulated outcome at one sweep point.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    pub algorithm: ExchangeAlgorithm,
    /// Aggregate payload throughput, bytes/s of simulated time.
    pub throughput: f64,
    /// Simulated completion time of the whole exchange.
    pub makespan: f64,
    /// Modeled discovery charge (consensus only).
    pub discovery_cost: f64,
    /// Pairs routed proxy-multipath.
    pub pairs_multipath: usize,
    /// Pairs that rode a combined carrier.
    pub pairs_combined: usize,
    /// Distinct links in the final claim ledger.
    pub links_claimed: usize,
}

/// One sweep point: one (nodes, pattern) cell under all three algorithms.
#[derive(Debug, Clone)]
pub struct ExchangePoint {
    pub nodes: u32,
    pub pattern: ExchangePattern,
    pub pairs: usize,
    pub payload_bytes: u64,
    /// In [`ExchangeAlgorithm::ALL`] order.
    pub results: Vec<AlgoResult>,
}

impl ExchangePoint {
    /// The result for one algorithm.
    pub fn result(&self, alg: ExchangeAlgorithm) -> &AlgoResult {
        self.results
            .iter()
            .find(|r| r.algorithm == alg)
            .expect("every algorithm ran")
    }

    /// Proxy-multipath aggregate throughput over the direct baseline.
    pub fn speedup(&self) -> f64 {
        let direct = self.result(ExchangeAlgorithm::Direct).throughput;
        self.result(ExchangeAlgorithm::ProxyMultipath).throughput / direct
    }
}

/// Evaluate one sweep point: build the pattern once, lower + simulate it
/// under each algorithm. Panics if any algorithm leaves payload
/// undelivered — the exchange contract is all-or-nothing. The run-ledger
/// passes a degraded `sim` to replay the sweep cell on a weakened
/// machine; the sweep passes the default.
pub fn exchange_point(
    cache: &PlanCache,
    sim: &SimConfig,
    nodes: u32,
    pattern: ExchangePattern,
) -> ExchangePoint {
    let shape =
        standard_shape(nodes).unwrap_or_else(|| panic!("no standard {nodes}-node partition"));
    let machine = cache.machine(shape, sim);
    let map = pattern.build(nodes, EXCHANGE_SEED);
    let results = ExchangeAlgorithm::ALL
        .into_iter()
        .map(|alg| {
            let ex = NeighborhoodExchange::with_mover(cache.mover(&machine));
            let mut prog = Program::new(&machine);
            let plan = ex.plan(&mut prog, &map, alg);
            let rep = prog.run();
            assert!(
                rep.all_delivered(),
                "{alg:?} left transfers undelivered at {nodes} nodes ({pattern:?})"
            );
            AlgoResult {
                algorithm: alg,
                throughput: plan.aggregate_throughput(&rep),
                makespan: plan.completed_at(&rep),
                discovery_cost: plan.discovery_cost,
                pairs_multipath: plan.pairs_multipath(),
                pairs_combined: plan.pairs_combined(),
                links_claimed: plan.ledger.len(),
            }
        })
        .collect();
    ExchangePoint {
        nodes,
        pattern,
        pairs: map.len(),
        payload_bytes: map.total_bytes(),
        results,
    }
}

/// One table row of the sweep: the point's three algorithms side by
/// side, with the raw numbers behind the footer.
pub fn exchange_row(p: &ExchangePoint) -> Row {
    let direct = p.result(ExchangeAlgorithm::Direct);
    let consensus = p.result(ExchangeAlgorithm::Consensus);
    let multipath = p.result(ExchangeAlgorithm::ProxyMultipath);
    Row::new(
        vec![
            p.nodes.to_string(),
            p.pattern.label(),
            p.pairs.to_string(),
            fmt_bytes(p.payload_bytes),
            fmt_gbs(direct.throughput),
            fmt_gbs(consensus.throughput),
            fmt_gbs(multipath.throughput),
            format!("{:.2}", p.speedup()),
            multipath.pairs_multipath.to_string(),
            multipath.pairs_combined.to_string(),
        ],
        vec![
            p.nodes as f64,
            direct.throughput,
            consensus.throughput,
            multipath.throughput,
            p.speedup(),
        ],
    )
}

/// The exchange sweep as an [`Experiment`]: one row per (nodes, pattern)
/// cell, all three algorithms side by side.
pub struct ExchangeSweep {
    pub max_nodes: u32,
}

impl ExchangeSweep {
    pub fn new(max_nodes: u32) -> ExchangeSweep {
        ExchangeSweep { max_nodes }
    }
}

impl Experiment for ExchangeSweep {
    type Point = (u32, ExchangePattern);

    fn name(&self) -> &'static str {
        "exchange"
    }

    fn columns(&self) -> Vec<String> {
        [
            "nodes",
            "pattern",
            "pairs",
            "payload",
            "direct GB/s",
            "consensus GB/s",
            "multipath GB/s",
            "speedup",
            "mp pairs",
            "combined",
        ]
        .map(String::from)
        .to_vec()
    }

    fn points(&self) -> Vec<(u32, ExchangePattern)> {
        let mut pts = Vec::new();
        for nodes in exchange_nodes(self.max_nodes) {
            for pat in exchange_patterns() {
                pts.push((nodes, pat));
            }
        }
        pts
    }

    fn run_point(&self, cache: &PlanCache, &(nodes, pattern): &Self::Point) -> Row {
        exchange_row(&exchange_point(
            cache,
            &SimConfig::default(),
            nodes,
            pattern,
        ))
    }

    fn footer(&self, rows: &[Row]) -> Option<String> {
        let best = rows
            .iter()
            .max_by(|a, b| a.metrics[4].partial_cmp(&b.metrics[4]).unwrap())?;
        Some(format!(
            "best multipath speedup over direct: {:.2}x at {} nodes",
            best.metrics[4], best.metrics[0] as u64
        ))
    }
}

fn json_algo(out: &mut String, r: &AlgoResult) {
    let _ = write!(
        out,
        "\"{}\":{{\"throughput\":{:?},\"makespan\":{:?},\"discovery_cost\":{:?},\
         \"pairs_multipath\":{},\"pairs_combined\":{},\"links_claimed\":{}}}",
        r.algorithm.name(),
        r.throughput,
        r.makespan,
        r.discovery_cost,
        r.pairs_multipath,
        r.pairs_combined,
        r.links_claimed
    );
}

/// Serialize a sweep as the `BENCH_exchange.json` artifact. Pure
/// simulated-time content: re-running the sweep must reproduce the bytes
/// exactly.
pub fn exchange_json(points: &[ExchangePoint]) -> String {
    let mut out = String::from("{\"experiment\":\"exchange\",\"seed\":");
    let _ = write!(out, "{EXCHANGE_SEED},\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"nodes\":{},\"pattern\":\"{}\",\"pairs\":{},\"payload_bytes\":{},",
            p.nodes,
            p.pattern.label(),
            p.pairs,
            p.payload_bytes
        );
        for r in &p.results {
            json_algo(&mut out, r);
            out.push(',');
        }
        let _ = write!(out, "\"speedup\":{:?}}}", p.speedup());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_point_shows_the_multipath_win() {
        let cache = PlanCache::new();
        let p = exchange_point(
            &cache,
            &SimConfig::default(),
            512,
            ExchangePattern::DisjointHeavy { bytes: 32 << 20 },
        );
        assert_eq!(p.pairs, 8);
        let mp = p.result(ExchangeAlgorithm::ProxyMultipath);
        assert!(mp.pairs_multipath >= p.pairs / 2, "{mp:?}");
        assert!(mp.links_claimed > 0);
        assert!(
            p.speedup() >= 1.5,
            "expected ≥1.5x on the disjoint-heavy pattern, got {:.2}",
            p.speedup()
        );
        // Consensus pays discovery on top of the same direct puts.
        let c = p.result(ExchangeAlgorithm::Consensus);
        assert!(c.discovery_cost > 0.0);
        assert!(c.makespan > p.result(ExchangeAlgorithm::Direct).makespan);
    }

    #[test]
    fn json_artifact_is_valid_and_reproducible() {
        let cache = PlanCache::new();
        let p = exchange_point(
            &cache,
            &SimConfig::default(),
            512,
            ExchangePattern::Sparse {
                fanout: 2,
                max_bytes: 64 << 10,
            },
        );
        let json = exchange_json(&[p]);
        bgq_obs::json::validate(&json).expect("BENCH_exchange.json must be valid JSON");
        let again = exchange_json(&[exchange_point(
            &PlanCache::new(),
            &SimConfig::default(),
            512,
            ExchangePattern::Sparse {
                fanout: 2,
                max_bytes: 64 << 10,
            },
        )]);
        assert_eq!(json, again, "artifact must be byte-reproducible");
    }
}
