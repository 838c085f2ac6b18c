//! # bgq-sparsemove
//!
//! Umbrella crate for the reproduction of *"Improving Data Movement
//! Performance for Sparse Data Patterns on the Blue Gene/Q Supercomputer"*
//! (Bui, Leigh, Jung, Vishwanath, Papka — ICPP 2014), built entirely in
//! Rust over a simulated BG/Q substrate.
//!
//! The stack, bottom-up:
//!
//! * [`torus`] (`bgq-torus`) — 5D torus topology, deterministic zone
//!   routing, psets / bridge nodes / I/O nodes, rank mappings;
//! * [`netsim`] (`bgq-netsim`) — deterministic flow-level network
//!   simulator with max-min fair link sharing and per-node injection
//!   serialization;
//! * [`comm`] (`bgq-comm`) — MPI-like one-sided puts, I/O forwards and
//!   collectives over the simulator;
//! * [`iosys`] (`bgq-iosys`) — the default MPI-IO collective-write
//!   baseline (ROMIO-style two-phase I/O);
//! * [`core`] (`sdm-core`) — **the paper's contribution**: the §IV.B cost
//!   model, Algorithm 1 (proxy-based multipath transfers) and Algorithm 2
//!   (dynamic topology-aware I/O aggregation);
//! * [`workloads`] (`bgq-workloads`) — the sparse data patterns and the
//!   HACC I/O footprint.
//!
//! See `examples/` for runnable scenarios and the `bgq-bench` crate for
//! the harnesses that regenerate every figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use bgq_sparsemove::prelude::*;
//!
//! let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
//! let mover = SparseMover::new(&machine);
//! let mut prog = Program::new(&machine);
//! let outcome = mover
//!     .plan(&mut prog, PlanRequest::new(NodeId(0), NodeId(127), 32 << 20))
//!     .unwrap();
//! let report = prog.run();
//! println!(
//!     "{:?} -> {:.2} GB/s",
//!     outcome.decision,
//!     outcome.handle.throughput(&report) / 1e9
//! );
//! ```

pub use bgq_comm as comm;
pub use bgq_iosys as iosys;
pub use bgq_netsim as netsim;
pub use bgq_torus as torus;
pub use bgq_workloads as workloads;
pub use sdm_core as core;

/// The most commonly used items across the stack.
pub mod prelude {
    pub use bgq_comm::{CollectiveModel, Machine, Program, SparseSendMap, TransferHandle};
    pub use bgq_iosys::{plan_collective_write, CollectiveIoConfig};
    pub use bgq_netsim::{SimConfig, SimReport, Simulator, TransferGraph, TransferSpec};
    pub use bgq_torus::{
        shape_for_cores, standard_shape, Coord, Dim, Direction, IoLayout, NodeId, Rank, RankMap,
        Shape, Sign, Zone,
    };
    pub use bgq_workloads::{
        coalesce_to_nodes, hacc_workload, nonzero_nodes, pareto_sizes, uniform_sizes, Histogram,
        ParetoParams,
    };
    pub use sdm_core::{
        AggregatorTable, AssignPolicy, CostModel, Decision, ExchangeAlgorithm, ExchangePlan,
        IoMoveOptions, LinkClaimLedger, MultipathOptions, NeighborhoodExchange, PlanOutcome,
        PlanPolicy, PlanRequest, ProxySearchConfig, SparseMover,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_prelude_is_usable() {
        let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
        let mover = SparseMover::new(&machine);
        let mut prog = Program::new(&machine);
        let out = mover
            .plan(&mut prog, PlanRequest::new(NodeId(0), NodeId(5), 4096))
            .unwrap();
        assert!(out.handle.throughput(&prog.run()) > 0.0);
    }

    #[test]
    fn umbrella_prelude_covers_the_exchange() {
        let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
        let map = SparseSendMap::from_rank_pairs(&[(0, 64, 1 << 20), (3, 67, 4 << 10)]);
        let exchange = NeighborhoodExchange::new(&machine);
        let mut prog = Program::new(&machine);
        let plan = exchange.plan(&mut prog, &map, ExchangeAlgorithm::ProxyMultipath);
        let report = prog.run();
        assert!(report.all_delivered());
        assert!(plan.aggregate_throughput(&report) > 0.0);
    }
}
