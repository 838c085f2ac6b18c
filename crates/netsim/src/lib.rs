//! # bgq-netsim
//!
//! A deterministic, flow-level discrete-event simulator of a capacitated
//! network, used as the hardware substrate for reproducing *"Improving Data
//! Movement Performance for Sparse Data Patterns on the Blue Gene/Q
//! Supercomputer"* (Bui et al., ICPP 2014).
//!
//! The simulator is topology-agnostic: it executes a [`TransferGraph`] — a
//! DAG of point-to-point transfers whose routes are explicit lists of
//! [`ResourceId`]s (directed links). Bandwidth on contended links is shared
//! max-min fairly by one progressive-filling solver (the [`waterfill`]
//! module; [`Waterfill`] runs it as one-shot solves), message injection is
//! serialized per node with a fixed CPU overhead, and store-and-forward
//! protocols are expressed as transfer dependencies. The `bgq-comm` crate binds this engine to the
//! `bgq-torus` topology.
//!
//! ## Example
//!
//! ```
//! use bgq_netsim::{SimConfig, SimOptions, Simulator, TransferGraph, TransferSpec, ResourceId};
//!
//! // Two nodes joined by one 1.8 GB/s link.
//! let sim = Simulator::new(2, vec![1.8e9], SimConfig::default());
//! let mut g = TransferGraph::new();
//! let t = g.add(TransferSpec::new(0, 1, 1 << 20, vec![ResourceId(0)]));
//! let report = sim.simulate(&g, SimOptions::new());
//! assert!(report.delivered_at(t) > 0.0);
//! ```

pub mod config;
pub mod engine;
pub mod fault;
pub mod graph;
pub mod obs;
pub mod profile;
pub mod stats;
pub mod trace;
pub mod waterfill;

pub use config::SimConfig;
pub use engine::{SimOptions, SimReport, Simulator, SolverMode, TransferStatus};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use graph::{ResourceId, TransferGraph, TransferId, TransferSpec};
pub use obs::{FaultReLevel, HeatmapSample, LinkHeatmap, ShardMerge, SimObserver};
pub use profile::{Binding, SimProfile, TransferTimeProfile};
pub use stats::{
    active_fraction, resource_bytes, try_utilization, utilization, StatsError, Utilization,
};
pub use trace::{gantt, trace, TraceRow};
pub use waterfill::{certify, CertificateError, FlowDemand, Waterfill};
