//! Runners for the I/O experiments: §V.B aggregation (Figure 10) and the
//! §VI HACC I/O application benchmark (Figure 11).

use crate::runner::PlanCache;
use bgq_comm::Program;
use bgq_netsim::SimConfig;
use bgq_torus::{shape_for_cores, NodeId, RankMap, CORES_PER_NODE};
use bgq_workloads::{coalesce_to_nodes, hacc_workload, pareto_sizes, uniform_sizes, ParetoParams};
use sdm_core::{AssignPolicy, IoMoveOptions};

/// The two §V.B data patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Pattern 1: uniform sizes in [0, 8 MB] (≈50% of dense).
    Uniform,
    /// Pattern 2: Pareto sizes (≈20% of dense).
    Pareto,
}

impl Pattern {
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Uniform => "Pattern 1",
            Pattern::Pareto => "Pattern 2",
        }
    }
}

/// Result of one weak-scaling point.
#[derive(Debug, Clone, Copy)]
pub struct IoPoint {
    pub cores: u32,
    pub total_bytes: u64,
    /// Topology-aware multipath aggregation (ours), bytes/s.
    pub ours: f64,
    /// Default MPI collective I/O baseline, bytes/s.
    pub baseline: f64,
}

/// Per-rank sizes for a pattern at a core count.
pub fn pattern_sizes(pattern: Pattern, cores: u32, seed: u64) -> Vec<u64> {
    match pattern {
        Pattern::Uniform => uniform_sizes(cores, bgq_workloads::DEFAULT_MAX_BYTES, seed),
        Pattern::Pareto => pareto_sizes(cores, &ParetoParams::default(), seed),
    }
}

/// Pick a simulation chunk granularity that keeps the transfer count
/// manageable at scale while staying ≥ the 16 MB collective buffer used
/// at small scale. The same value is used for our aggregation chunks and
/// the baseline's collective buffer so neither side gets a pipelining
/// advantage from the simulator's granularity.
pub fn sim_chunk_bytes(total: u64, nodes: u32) -> u64 {
    let per_node = total / nodes.max(1) as u64;
    (per_node / 2).clamp(16 << 20, 256 << 20)
}

/// Run one aggregation experiment (both approaches) for per-rank sizes,
/// reusing `cache`'s machine and aggregator table for the shape.
pub fn run_io_point_with(cache: &PlanCache, cores: u32, rank_sizes: &[u64]) -> IoPoint {
    let shape = shape_for_cores(cores)
        .unwrap_or_else(|| panic!("no standard partition for {cores} cores"));
    let machine = cache.machine(shape, &SimConfig::default());
    let map = RankMap::default_map(shape, CORES_PER_NODE);
    let data: Vec<(NodeId, u64)> = coalesce_to_nodes(&map, rank_sizes);
    let total: u64 = data.iter().map(|&(_, b)| b).sum();
    let chunk = sim_chunk_bytes(total, shape.num_nodes());

    // Ours: dynamic topology-aware aggregation (Algorithm 2).
    let mover = cache.mover(&machine);
    let opts = IoMoveOptions {
        max_chunk: chunk,
        ..Default::default()
    };
    let mut prog = Program::new(&machine);
    let plan = mover.plan_sparse_write(&mut prog, &data, &opts);
    let ours = plan.handle.throughput(&prog.run());

    // Baseline: default MPI collective I/O.
    let cfg = bgq_iosys::CollectiveIoConfig {
        cb_buffer: chunk,
        ..Default::default()
    };
    let mut prog = Program::new(&machine);
    let handle = bgq_iosys::plan_collective_write(&mut prog, &data, &cfg);
    let baseline = handle.throughput(&prog.run());

    IoPoint {
        cores,
        total_bytes: total,
        ours,
        baseline,
    }
}

/// One Figure-10 point: weak-scaling aggregation throughput for a pattern.
pub fn fig10_point_with(cache: &PlanCache, cores: u32, pattern: Pattern, seed: u64) -> IoPoint {
    run_io_point_with(cache, cores, &pattern_sizes(pattern, cores, seed))
}

/// [`fig10_point_with`] against a private, single-use cache.
pub fn fig10_point(cores: u32, pattern: Pattern, seed: u64) -> IoPoint {
    fig10_point_with(&PlanCache::new(), cores, pattern, seed)
}

/// One Figure-11 point: the HACC I/O workload.
pub fn fig11_point_with(cache: &PlanCache, cores: u32) -> IoPoint {
    run_io_point_with(cache, cores, &hacc_workload(cores))
}

/// [`fig11_point_with`] against a private, single-use cache.
pub fn fig11_point(cores: u32) -> IoPoint {
    fig11_point_with(&PlanCache::new(), cores)
}

/// Our aggregation throughput under one assignment policy (the unit of
/// the policy-ablation table).
pub fn policy_point_with(
    cache: &PlanCache,
    cores: u32,
    pattern: Pattern,
    seed: u64,
    policy: AssignPolicy,
) -> f64 {
    let shape = shape_for_cores(cores).unwrap();
    let machine = cache.machine(shape, &SimConfig::default());
    let map = RankMap::default_map(shape, CORES_PER_NODE);
    let data = coalesce_to_nodes(&map, &pattern_sizes(pattern, cores, seed));
    let total: u64 = data.iter().map(|&(_, b)| b).sum();
    let chunk = sim_chunk_bytes(total, shape.num_nodes());
    let mover = cache.mover(&machine);

    let opts = IoMoveOptions {
        max_chunk: chunk,
        policy,
        ..Default::default()
    };
    let mut prog = Program::new(&machine);
    let plan = mover.plan_sparse_write(&mut prog, &data, &opts);
    plan.handle.throughput(&prog.run())
}

/// Ablation: our aggregation with the pset-local assignment policy
/// instead of global balancing (quantifies the value of spreading load
/// over all IONs). Returns `(balanced, pset-local)`.
pub fn ablation_policy_point_with(
    cache: &PlanCache,
    cores: u32,
    pattern: Pattern,
    seed: u64,
) -> (f64, f64) {
    (
        policy_point_with(cache, cores, pattern, seed, AssignPolicy::BalancedGreedy),
        policy_point_with(cache, cores, pattern, seed, AssignPolicy::PsetLocal),
    )
}

/// [`ablation_policy_point_with`] against a private, single-use cache.
pub fn ablation_policy_point(cores: u32, pattern: Pattern, seed: u64) -> (f64, f64) {
    ablation_policy_point_with(&PlanCache::new(), cores, pattern, seed)
}

/// The paper's weak-scaling core counts for Figure 10 (2,048 → 131,072)
/// capped at `max_cores`.
pub fn fig10_scales(max_cores: u32) -> Vec<u32> {
    [2048u32, 4096, 8192, 16384, 32768, 65536, 131072]
        .into_iter()
        .filter(|&c| c <= max_cores)
        .collect()
}

/// The Figure-11 core counts (8,192 → 131,072) capped at `max_cores`.
pub fn fig11_scales(max_cores: u32) -> Vec<u32> {
    [8192u32, 16384, 32768, 65536, 131072]
        .into_iter()
        .filter(|&c| c <= max_cores)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_small_scale_ours_wins_pattern1() {
        let p = fig10_point(2048, Pattern::Uniform, 42);
        assert!(p.ours > 0.0 && p.baseline > 0.0);
        let ratio = p.ours / p.baseline;
        assert!(
            (1.4..=3.5).contains(&ratio),
            "expected ~2x at 2,048 cores (paper), got {ratio:.2} ({:.2e} vs {:.2e})",
            p.ours,
            p.baseline
        );
    }

    #[test]
    fn fig10_small_scale_ours_wins_pattern2() {
        let p = fig10_point(2048, Pattern::Pareto, 42);
        let ratio = p.ours / p.baseline;
        assert!(
            (1.2..=3.5).contains(&ratio),
            "expected ~1.5x at 2,048 cores (paper), got {ratio:.2}"
        );
    }

    #[test]
    fn fig11_hacc_ours_wins() {
        let p = fig11_point(8192);
        let ratio = p.ours / p.baseline;
        assert!(
            ratio > 1.1,
            "customized aggregators should beat default MPI-IO: {ratio:.2}"
        );
    }

    #[test]
    fn balanced_policy_beats_local_for_sparse_hacc_like_data() {
        let (balanced, local) = ablation_policy_point(2048, Pattern::Pareto, 7);
        assert!(
            balanced >= local * 0.95,
            "balanced {balanced:.2e} unexpectedly below local {local:.2e}"
        );
    }

    #[test]
    fn scales_are_capped() {
        assert_eq!(fig10_scales(8192), vec![2048, 4096, 8192]);
        assert_eq!(fig11_scales(8192), vec![8192]);
        assert_eq!(fig10_scales(131072).len(), 7);
    }

    #[test]
    fn sim_chunk_stays_in_bounds() {
        assert_eq!(sim_chunk_bytes(0, 128), 16 << 20);
        assert_eq!(sim_chunk_bytes(u64::MAX / 2, 1), 256 << 20);
        let mid = sim_chunk_bytes(128 * (64 << 20), 128);
        assert!((16 << 20..=256 << 20).contains(&mid));
    }
}
