//! # bgq-obs
//!
//! The workspace-wide observability layer: a [`MetricsRegistry`] of named
//! counters, gauges and fixed-bucket histograms, and a span/event
//! [`Recorder`] that exports Chrome trace-event JSON loadable in
//! Perfetto or `chrome://tracing`.
//!
//! Everything here is built around one contract, shared with the golden
//! test layer: **artifacts are deterministic**. Counters are unsigned
//! sums (order-independent under any thread interleaving), histograms
//! record integer bucket counts only, trace events carry *simulated*
//! time, and every serializer sorts its output. Two runs of the same
//! experiment — at any `--threads` count — produce byte-identical CSV
//! and JSON. Wall-clock timings cannot meet the contract, so no artifact
//! carries them.
//!
//! The crate has zero dependencies (std only) so it can sit below every
//! other crate in the workspace, and the instruments are cheap enough
//! for hot loops: counters are sharded atomics merged at scrape time.
//!
//! ```
//! use bgq_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let planned = reg.counter("planner.multipath_chosen");
//! planned.inc();
//! planned.add(2);
//! let snap = reg.snapshot();
//! assert!(snap.to_csv().contains("counter,planner.multipath_chosen,3"));
//! ```

pub mod json;
pub mod ledger;
pub mod metrics;
pub mod profile;
pub mod sentinel;
pub mod trace;

pub use ledger::{RunManifest, ScenarioManifest, MANIFEST_VERSION};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use profile::{ProfileArtifact, RunProfile, TransferProfile, PROFILE_VERSION};
pub use sentinel::{MetricVerdict, ScenarioDiff, SentinelReport, Verdict};
pub use trace::Recorder;
