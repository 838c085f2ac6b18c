//! Scaling sweep for the waterfill solver: the same sparse transfer
//! pattern simulated with [`SolverMode::Full`] (a cold solve of a
//! component's whole active set at every rate epoch) and with the
//! default [`SolverMode::Cascade`] (warm solves that re-solve only the
//! links a joined or departed flow reaches), across partition sizes up
//! to 8,192 nodes.
//!
//! The pattern is the regime the paper's sparse workloads live in: many
//! link-disjoint neighbor exchanges plus one dependent fan-out per
//! D×E torus column. The fan-out chains share their source node (so
//! injection serialization ties them into one contention component) but
//! only partially overlap on links, which is exactly the shape where
//! warm cascade solves beat cold re-levels *within* a component. Columns never share a link with each other — routes
//! between nodes of one aligned D×E block stay inside the block — so
//! the pattern decomposes into hundreds of independent components, each
//! run as its own shard.
//!
//! Both runs must produce bit-identical reports — the sweep asserts it
//! — so the solver mode changes only how many cold solves the engine
//! does. The artifact records simulated quantities and counts alone, so
//! it reproduces byte for byte; host time for this pattern is measured
//! by the `perf` benchmark's `scale_hub` workload.
//!
//! Results go to `results/BENCH_scale.json` via the `scale` binary.

use bgq_comm::{Machine, Program};
use bgq_netsim::{SimConfig, SimObserver, SimOptions, SimReport, SolverMode};
use bgq_torus::{standard_shape, Dim, NodeId, Shape};
use std::fmt::Write as _;

/// One run's measurements at one partition size.
#[derive(Debug, Clone)]
pub struct SolverSide {
    /// Events popped from the engine queues.
    pub events: u64,
    /// Cold solves over a component's entire active set.
    pub full_runs: u64,
    /// Warm cascade solves and skipped no-op re-levels.
    pub incremental_runs: u64,
    /// Simulated end time (must match the other sides bit-for-bit).
    pub makespan: f64,
}

/// Cold (`Full`) vs. cascade comparison at one partition size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub nodes: u32,
    pub transfers: usize,
    /// Contention components the engine discovered (identical for both
    /// sides — the partition is input-determined).
    pub shards: u32,
    pub full: SolverSide,
    pub incremental: SolverSide,
}

impl ScalePoint {
    /// How many cold solves the cascade avoided:
    /// `full_runs(full mode) / full_runs(cascade mode)`.
    pub fn full_run_reduction(&self) -> f64 {
        self.full.full_runs as f64 / (self.incremental.full_runs.max(1)) as f64
    }
}

/// Build the sweep's sparse pattern on an `nodes`-node partition.
///
/// Two ingredients, both confined to aligned D×E torus columns so the
/// pattern shards (node ids are row-major `ABCDE`, `E` fastest — a
/// block of `extent(D) * extent(E)` consecutive ids is a column whose
/// internal routes never leave it):
///
/// * one neighbor put per 4 nodes — a single `+E` hop, link-disjoint,
///   staggered sizes so completions land in distinct rate epochs;
/// * one dependent fan-out per column: a hub node (`d=0, e=1`) streams
///   3-deep put chains to 4–5 destinations in its column. The chains
///   share the hub (one component via injection serialization) but
///   only the `+D` pair shares links, so a completion reaches a small
///   part of the component.
fn build_pattern(prog: &mut Program<'_>, shape: &Shape, nodes: u32) -> usize {
    let mut transfers = 0;
    for i in (0..nodes).step_by(4) {
        // Unique size per transfer so disjoint completions land in
        // distinct rate epochs instead of batching into a few waves.
        let bytes = (256u64 << 10) + (i as u64) * 4096;
        prog.put(NodeId(i), NodeId((i + 1) % nodes), bytes);
        transfers += 1;
    }

    let de = shape.extent(Dim::D) as u32;
    let ee = shape.extent(Dim::E) as u32;
    debug_assert_eq!(ee, 2, "standard shapes end in an E extent of 2");
    let block = de * ee;
    const ROUNDS: u64 = 3;
    for (bi, base) in (0..nodes).step_by(block as usize).enumerate() {
        let node = |d: u32, e: u32| NodeId(base + d * ee + e);
        let hub = node(0, 1);
        // +D one hop; +D two hops (shares the first link with the
        // previous chain — real contention, a small cascade); -D
        // one hop; the E-flip back to the column base. Larger D
        // extents afford a second -D chain.
        let mut dsts = vec![node(1, 1), node(2, 1), node(de - 1, 1), node(0, 0)];
        if de >= 6 {
            dsts.push(node(de - 2, 1));
        }
        for (ci, dst) in dsts.into_iter().enumerate() {
            let mut dep = Vec::new();
            for round in 0..ROUNDS {
                let bytes = (1u64 << 20) + (bi as u64 * 17 + ci as u64 * 5 + round) * 4096;
                let t = prog.put_after(hub, dst, bytes, dep, 0.0);
                dep = vec![t];
                transfers += 1;
            }
        }
    }
    transfers
}

fn observed_run(prog: &Program<'_>, solver: SolverMode) -> (SolverSide, u32, SimReport) {
    let mut obs = SimObserver::new();
    let report = prog.simulate(SimOptions::new().solver(solver).observer(&mut obs));
    let side = SolverSide {
        events: obs.events_processed,
        full_runs: obs.waterfill_full_runs,
        incremental_runs: obs.waterfill_incremental_runs,
        makespan: report.end_time,
    };
    (side, obs.shards as u32, report)
}

/// Evaluate one partition size under `sim` (the run-ledger passes a
/// degraded config to replay the sweep cell on a weakened machine).
/// Panics if the two solver modes disagree on any delivery time —
/// bit-identity is the engine's contract.
pub fn scale_point(nodes: u32, sim: &SimConfig) -> ScalePoint {
    let shape = standard_shape(nodes)
        .unwrap_or_else(|| panic!("no standard {nodes}-node partition"));
    let machine = Machine::new(shape, sim.clone());
    let mut prog = Program::new(&machine);
    let transfers = build_pattern(&mut prog, machine.shape(), nodes);

    let (full, _, report_full) = observed_run(&prog, SolverMode::Full);
    let (incremental, shards, report_inc) = observed_run(&prog, SolverMode::default());

    assert_eq!(
        report_full.delivery_time, report_inc.delivery_time,
        "solver modes diverged at {nodes} nodes"
    );
    ScalePoint {
        nodes,
        transfers,
        shards,
        full,
        incremental,
    }
}

/// The partition sizes of the sweep.
pub const SCALE_SIZES: [u32; 5] = [512, 1024, 2048, 4096, 8192];

fn json_side(out: &mut String, label: &str, s: &SolverSide) {
    let _ = write!(
        out,
        "\"{label}\":{{\"events\":{},\"full_runs\":{},\"incremental_runs\":{},\"makespan\":{:?}}}",
        s.events, s.full_runs, s.incremental_runs, s.makespan
    );
}

/// Serialize a sweep as the `BENCH_scale.json` artifact.
pub fn scale_json(points: &[ScalePoint]) -> String {
    let mut out = String::from("{\"experiment\":\"scale\",\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"nodes\":{},\"transfers\":{},\"shards\":{},",
            p.nodes, p.transfers, p.shards
        );
        json_side(&mut out, "full", &p.full);
        out.push(',');
        json_side(&mut out, "incremental", &p.incremental);
        let _ = write!(
            out,
            ",\"full_run_reduction\":{:.1}}}",
            p.full_run_reduction()
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_decomposes_shards_and_stays_bit_identical() {
        // scale_point itself asserts the two runs agree bit-for-bit;
        // the smoke checks the pattern's shape.
        let p = scale_point(512, &SimConfig::default());
        assert!(p.transfers > 0);
        assert!(
            p.shards > 64,
            "the column pattern must decompose ({} shards)",
            p.shards
        );
        // Full mode never solves warm…
        assert_eq!(p.full.incremental_runs, 0);
        assert!(p.full.full_runs > 0);
        // …and the cascade mode solves cold once per component (the
        // pattern has no capacity change), every later epoch warm.
        assert!(
            p.incremental.incremental_runs > p.incremental.full_runs,
            "warm {} vs cold {}",
            p.incremental.incremental_runs,
            p.incremental.full_runs
        );
        assert_eq!(p.incremental.full_runs, p.shards as u64);
        assert_eq!(p.full.makespan.to_bits(), p.incremental.makespan.to_bits());
        assert!(p.full.events > 0 && p.full.events == p.incremental.events);
    }

    #[test]
    fn json_artifact_is_valid() {
        let p = scale_point(512, &SimConfig::default());
        let json = scale_json(&[p]);
        bgq_obs::json::validate(&json).expect("BENCH_scale.json must be valid JSON");
        assert!(json.contains("\"full_run_reduction\""));
        assert!(json.contains("\"incremental\""));
        assert!(!json.contains("\"sharded\""));

        // The artifact is simulated quantities only, so the 512-node
        // row reproduces the committed file's first row byte for byte.
        let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_scale.json");
        let committed = std::fs::read_to_string(&committed)
            .unwrap_or_else(|e| panic!("reading {}: {e}", committed.display()));
        let row = json.strip_suffix("]}").expect("closes the points array");
        assert!(
            committed.starts_with(row),
            "the 512-node row differs from results/BENCH_scale.json:\n{row}"
        );
    }
}
