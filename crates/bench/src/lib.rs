//! # bgq-bench
//!
//! Harness library that regenerates every figure of Bui et al. (ICPP
//! 2014) on the simulated BG/Q substrate. Each `fig*` binary in
//! `src/bin/` prints the same rows/series the paper reports:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig5` | 2-node put with/without 4 proxies, 1 KB–128 MB |
//! | `fig6` | 256-node group coupling with/without proxy groups |
//! | `fig7` | throughput vs. number of proxy groups (2/3/4/4+direct) |
//! | `fig8_9` | histograms of the two sparse data patterns |
//! | `fig10` | weak-scaling aggregation throughput vs. MPI collective I/O |
//! | `fig11` | HACC I/O write throughput vs. default MPI collective I/O |
//! | `thresholds` | §IV.B cost-model thresholds and speedups |
//!
//! All binaries share one flag set (see [`BenchArgs`]): `--csv`,
//! `--max-cores N`, `--coarse`, `--threads N` and `--timing`. Sweeps run
//! through an [`runner::ExperimentSession`], which fans independent
//! points across worker threads over a shared [`runner::PlanCache`];
//! output is bit-identical for any thread count.

pub mod args;
pub mod exchange;
pub mod experiments;
pub mod io;
pub mod micro;
pub mod obs;
pub mod profile;
pub mod resilience;
pub mod runner;
pub mod scale;
pub mod sentinel;
pub mod table;

pub use args::{ArgError, BenchArgs};
pub use exchange::{
    exchange_json, exchange_nodes, exchange_patterns, exchange_point, exchange_point_with,
    exchange_row, AlgoResult, ExchangePattern, ExchangePoint, ExchangeSweep, EXCHANGE_SEED,
};
pub use io::{
    ablation_policy_point, ablation_policy_point_with, fig10_point, fig10_point_with,
    fig10_scales, fig11_point, fig11_point_with, fig11_scales, policy_point_with, run_io_point,
    run_io_point_with, sim_chunk_bytes, IoPoint, Pattern,
};
pub use micro::{
    corner_groups, crossover, fig5_point, fig5_sweep, fig6_point, fig6_sweep, fig7_point,
    fig7_series_labels, fig7_sweep, SweepPoint,
};
pub use obs::{
    emit_artifacts, fig5_trace, fig6_trace, io_trace, pair_trace, resilience_trace, trace_for,
    write_artifact, TRACE_BYTES,
};
pub use profile::{
    binding_trace, coupling_profile, coupling_profile_with, exchange_profile,
    exchange_profile_with, fig6_profile, io_profile, io_profile_with, pair_profile,
    pair_profile_with, profile_for, profile_for_with_trace, render_report, resilience_profile,
    resilience_profile_with, resource_label, run_profile, run_profiled,
};
pub use resilience::{
    default_scenarios, fault_plan_for, resilience_point, Resilience, ResiliencePoint, Scenario,
};
pub use runner::{CacheStats, Experiment, ExperimentRun, ExperimentSession, PlanCache, Row};
pub use scale::{scale_json, scale_point, scale_point_with, scale_sizes, ScalePoint, SolverSide};
pub use sentinel::{history_line, manifest_for, run_ledger, LedgerOptions};
pub use table::{fmt_bytes, fmt_gbs, paper_size_sweep, Table};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_pattern_labels() {
        assert_eq!(Pattern::Uniform.label(), "Pattern 1");
        assert_eq!(Pattern::Pareto.label(), "Pattern 2");
    }
}
