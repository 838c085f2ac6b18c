//! # bgq-comm
//!
//! The MPI-like communication layer of the BG/Q reproduction stack. Binds
//! the `bgq-torus` topology to the `bgq-netsim` flow simulator:
//!
//! * [`Machine`] — a partition with capacities, deterministic routing and
//!   the pset/bridge/ION resource map;
//! * [`Program`] — a builder for one-sided puts, I/O forwards and
//!   synchronization edges, executable on the simulator;
//! * [`collectives`] — analytic collective cost models plus scheduled
//!   (message-accurate) barrier/broadcast/reduce algorithms;
//! * [`exchange`] — sparse neighborhood exchange send maps and modeled
//!   consensus discovery (batch routing lives upstream in `sdm-core`).

pub mod collectives;
pub mod exchange;
pub mod health;
pub mod machine;
pub mod program;
pub mod scheduled;
pub mod subcomm;

pub use collectives::{
    binomial_bcast, binomial_reduce, dissemination_barrier, CollectiveModel, CONTROL_MSG_BYTES,
};
pub use exchange::{consensus_discovery, Discovery, SparseSendMap};
pub use health::HealthMask;
pub use machine::{FsParams, Machine, MachineError};
pub use program::{
    run_resilient, run_resilient_observed, Program, ReplanContext, ResilientOutcome, RetryPolicy,
    TransferHandle,
};
pub use scheduled::{binomial_scatter, pairwise_alltoall, ring_allgather};
pub use subcomm::SubComm;
