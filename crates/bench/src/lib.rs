//! # bgq-bench
//!
//! Harness library that regenerates every figure of Bui et al. (ICPP
//! 2014) on the simulated BG/Q substrate. The figure registry
//! ([`figures::FIGURES`]) lists each figure with its title lines, its
//! experiments and its committed file under `results/`. The binaries in
//! `src/bin/`:
//!
//! | binary | does |
//! |---|---|
//! | `reproduce` | regenerates every registry figure into `results/`; `reproduce FIGURE…` prints those figures |
//! | `fig10_point` | one weak-scaling point of Fig. 10/11 as a CSV row |
//! | `profile` | bottleneck-attribution report of a figure's representative run |
//! | `sdm` | planner front end: plan a transfer or a sparse write |
//! | `exchange` | sparse-exchange sweep, gated against `results/BENCH_exchange.json` |
//! | `scale` | cascade-solver scaling sweep (`results/BENCH_scale.json`) |
//! | `sentinel` | run ledger and regression sentinel |
//! | `obs_report` | validates, diffs and cross-checks the JSON/CSV artifacts |
//! | `perf` | end-to-end benchmark, built from its own manifest |
//!
//! Each binary declares its own flags once, in an [`args::Cli`] table
//! (`reproduce`'s fill [`BenchArgs`]); a flag it does not act on is a
//! usage error. Sweeps run through an [`runner::ExperimentSession`],
//! which fans independent points across worker threads over a shared
//! [`runner::PlanCache`]; output is bit-identical for any thread count.
//! A simulated figure's trace, profile and ledger scenario are views of
//! one execution of its representative scenario
//! ([`representative::REPRESENTATIVES`]).

pub mod args;
pub mod exchange;
pub mod experiments;
pub mod figures;
pub mod io;
pub mod micro;
pub mod obs;
pub mod profile;
pub mod representative;
pub mod resilience;
pub mod runner;
pub mod scale;
pub mod sentinel;
pub mod table;

pub use args::{ArgError, BenchArgs};
pub use exchange::{
    exchange_json, exchange_nodes, exchange_patterns, exchange_point, exchange_row, AlgoResult,
    ExchangePattern, ExchangePoint, ExchangeSweep, EXCHANGE_SEED,
};
pub use io::{
    ablation_policy_point_with, fig10_point_with, fig10_scales, fig11_point_with, fig11_scales,
    policy_point_with, run_io_point_with, sim_chunk_bytes, IoPoint, Pattern,
};
pub use micro::{
    corner_groups, fig5_point, fig6_point, fig7_point, fig7_series_labels, SweepPoint,
};
pub use obs::{write_artifact, write_or_exit};
pub use profile::{binding_trace, render_report, resource_label, run_profile};
pub use representative::{Execution, Representative, TRACE_BYTES};
pub use resilience::{
    default_scenarios, fault_plan_for, resilience_point, Resilience, ResiliencePoint, Scenario,
};
pub use runner::{CacheStats, Experiment, ExperimentRun, ExperimentSession, PlanCache, Row};
pub use scale::{scale_json, scale_point, ScalePoint, SolverSide, SCALE_SIZES};
pub use sentinel::{history_line, run_ledger, scenario_manifest, LedgerOptions};
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
