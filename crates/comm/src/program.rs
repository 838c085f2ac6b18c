//! Program builder: an MPI-like one-sided API over the transfer graph.
//!
//! A [`Program`] accumulates RDMA puts, I/O-link forwards and
//! synchronization edges against a [`Machine`], then executes them on the
//! simulator. Dependencies between transfers express completion semantics
//! (`MPI_Win` epochs, store-and-forward hand-offs) explicitly.

use crate::health::HealthMask;
use crate::machine::Machine;
use bgq_netsim::{
    FaultPlan, SimObserver, SimOptions, SimReport, TransferGraph, TransferId, TransferSpec,
    TransferStatus,
};
use bgq_obs::MetricsRegistry;
use bgq_torus::NodeId;

/// Handle to one logical (possibly multi-transfer) operation: the delivery
/// tokens whose completion means every byte has arrived, plus the logical
/// byte count for throughput accounting.
#[derive(Debug, Clone)]
pub struct TransferHandle {
    pub tokens: Vec<TransferId>,
    pub bytes: u64,
}

impl TransferHandle {
    /// Completion time of the logical operation in a report.
    pub fn completed_at(&self, report: &SimReport) -> f64 {
        report.last_delivery(&self.tokens)
    }

    /// Achieved throughput (bytes over completion time, program start at 0).
    pub fn throughput(&self, report: &SimReport) -> f64 {
        let t = self.completed_at(report);
        if t > 0.0 {
            self.bytes as f64 / t
        } else {
            0.0
        }
    }
}

/// A communication program under construction.
#[derive(Debug)]
pub struct Program<'m> {
    machine: &'m Machine,
    graph: TransferGraph,
}

impl<'m> Program<'m> {
    pub fn new(machine: &'m Machine) -> Program<'m> {
        Program {
            machine,
            graph: TransferGraph::new(),
        }
    }

    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    pub fn graph(&self) -> &TransferGraph {
        &self.graph
    }

    pub fn into_graph(self) -> TransferGraph {
        self.graph
    }

    /// Number of transfers added so far.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// One-sided put from `src` to `dst` over the deterministic torus route.
    pub fn put(&mut self, src: NodeId, dst: NodeId, bytes: u64) -> TransferId {
        self.put_after(src, dst, bytes, Vec::new(), 0.0)
    }

    /// Put that starts only after `deps` are delivered, plus `delay`
    /// seconds of software overhead.
    pub fn put_after(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        deps: Vec<TransferId>,
        delay: f64,
    ) -> TransferId {
        let route = self.machine.route_resources(src, dst);
        self.graph.add(
            TransferSpec::new(src.0, dst.0, bytes, route)
                .after(deps)
                .with_delay(delay),
        )
    }

    /// Put tagged for later correlation in reports.
    pub fn put_tagged(&mut self, src: NodeId, dst: NodeId, bytes: u64, tag: u64) -> TransferId {
        let route = self.machine.route_resources(src, dst);
        self.graph
            .add(TransferSpec::new(src.0, dst.0, bytes, route).with_tag(tag))
    }

    /// Add a raw transfer spec (escape hatch for custom routes).
    pub fn add_spec(&mut self, spec: TransferSpec) -> TransferId {
        self.graph.add(spec)
    }

    /// Forward `bytes` from a bridge node to its I/O node over the
    /// eleventh link.
    ///
    /// # Panics
    /// Panics if `bridge` is not a bridge node.
    pub fn ion_forward(
        &mut self,
        bridge: NodeId,
        bytes: u64,
        deps: Vec<TransferId>,
        delay: f64,
    ) -> TransferId {
        let io = self.machine.io_layout();
        let ion = io.default_ion(bridge);
        let res = self.machine.io_resource(bridge);
        let cap = self.machine.config().io_link_bandwidth;
        self.graph.add(
            TransferSpec::new(bridge.0, self.machine.ion_sim_node(ion), bytes, vec![res])
                .after(deps)
                .with_delay(delay)
                // The eleventh link is a dedicated point-to-point channel:
                // a single forward can use its full bandwidth.
                .with_rate_cap(cap),
        )
    }

    /// Write `bytes` from a compute node to its default I/O node along the
    /// default path: torus hop(s) to the node's default bridge, then the
    /// eleventh link, store-and-forward at the bridge.
    ///
    /// Returns the ION-side delivery token.
    pub fn write_default(&mut self, node: NodeId, bytes: u64, deps: Vec<TransferId>) -> TransferId {
        let io = self.machine.io_layout();
        let bridge = io.default_bridge(node);
        let fwd = self.machine.config().forward_overhead;
        if bridge == node {
            self.ion_forward(node, bytes, deps, 0.0)
        } else {
            let to_bridge = self.put_after(node, bridge, bytes, deps, 0.0);
            self.ion_forward(bridge, bytes, vec![to_bridge], fwd)
        }
    }

    /// Fetch `bytes` from an I/O node down to a bridge node over the
    /// inbound direction of the eleventh link (collective reads /
    /// restart).
    ///
    /// # Panics
    /// Panics if `bridge` is not a bridge node.
    pub fn ion_read(
        &mut self,
        bridge: NodeId,
        bytes: u64,
        deps: Vec<TransferId>,
        delay: f64,
    ) -> TransferId {
        let io = self.machine.io_layout();
        let ion = io.default_ion(bridge);
        let res = self.machine.io_in_resource(bridge);
        let cap = self.machine.config().io_link_bandwidth;
        self.graph.add(
            TransferSpec::new(self.machine.ion_sim_node(ion), bridge.0, bytes, vec![res])
                .after(deps)
                .with_delay(delay)
                .with_rate_cap(cap),
        )
    }

    /// Forward `bytes` from an I/O node to the file servers, over the
    /// ION's InfiniBand link and the shared file-server ingest.
    ///
    /// # Panics
    /// Panics if the machine has no filesystem attached.
    pub fn fs_write(
        &mut self,
        ion: bgq_torus::IonId,
        bytes: u64,
        deps: Vec<TransferId>,
        delay: f64,
    ) -> TransferId {
        let m = self.machine;
        let route = vec![m.fs_ion_resource(ion), m.fs_aggregate_resource()];
        let cap = m.fs().expect("no filesystem attached").per_ion_bandwidth;
        self.graph.add(
            TransferSpec::new(m.ion_sim_node(ion), m.fs_sim_node(), bytes, route)
                .after(deps)
                .with_delay(delay)
                .with_rate_cap(cap),
        )
    }

    /// A pure synchronization point on `node`: delivered `cost` seconds
    /// after `deps` complete. Used to model collective operations whose
    /// full message schedule is not worth simulating (cost from
    /// [`crate::collectives::CollectiveModel`]).
    pub fn modeled_sync(&mut self, node: NodeId, cost: f64, deps: Vec<TransferId>) -> TransferId {
        self.graph.add(
            TransferSpec::new(node.0, node.0, 0, Vec::new())
                .after(deps)
                .with_delay(cost),
        )
    }

    /// Execute the program on a fresh simulator under `opts` — the full
    /// engine surface ([`SimOptions`] carries the optional fault plan,
    /// observer and solver mode). The `run*` conveniences below are
    /// sugar over this.
    pub fn simulate(&self, opts: SimOptions<'_>) -> SimReport {
        self.machine.simulator().simulate(&self.graph, opts)
    }

    /// Execute the program on a fresh simulator.
    pub fn run(&self) -> SimReport {
        self.simulate(SimOptions::new())
    }

    /// Execute the program under a fault schedule. With an empty plan
    /// this is exactly [`Program::run`].
    pub fn run_with_faults(&self, faults: &FaultPlan) -> SimReport {
        self.simulate(SimOptions::new().faults(faults))
    }

    /// Execute under a fault schedule with engine observation: waterfill
    /// epochs, the per-link heatmap and stall/resume events accumulate
    /// into `obs`. The report is bit-identical to
    /// [`Program::run_with_faults`] on the same inputs.
    pub fn run_observed(&self, faults: &FaultPlan, obs: &mut SimObserver) -> SimReport {
        self.simulate(SimOptions::new().faults(faults).observer(obs))
    }
}

/// Bounded retry policy for fault-aware re-planning. All times are
/// *simulated* seconds: the backoff is charged to the simulation clock,
/// not to wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be at least 1).
    pub max_attempts: u32,
    /// Simulated delay before the first retry.
    pub base_backoff: f64,
    /// Multiplier applied to the backoff on every further retry.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 100e-6,
            backoff_factor: 2.0,
        }
    }
}

/// What a re-planning closure sees on each [`run_resilient`] attempt.
#[derive(Debug, Clone)]
pub struct ReplanContext {
    /// Attempt number, starting at 0.
    pub attempt: u32,
    /// Simulated time before which no transfer of this attempt may start.
    pub not_before: f64,
    /// Bytes still to deliver (the remainder after earlier attempts).
    pub bytes: u64,
    /// Network health at `not_before` — what a fault-aware planner should
    /// route around.
    pub health: HealthMask,
    /// Gate token: pass it as a dependency (or
    /// `MultipathOptions::gate`) so the attempt's transfers start only
    /// once the simulation clock reaches `not_before`. `None` on the
    /// first attempt.
    pub gate: Option<TransferId>,
}

/// Result of a [`run_resilient`] drive.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// Whether every byte eventually arrived.
    pub delivered: bool,
    /// Attempts consumed (1 = no retry needed).
    pub attempts: u32,
    /// Simulated time the last byte arrived; `f64::INFINITY` on failure.
    pub completion_time: f64,
    /// Bytes that arrived across all attempts.
    pub bytes_delivered: u64,
    /// The final attempt's report (stalled transfers and all).
    pub report: SimReport,
}

/// Drive a transfer to completion under faults with bounded re-planning.
///
/// Each attempt builds a fresh [`Program`], asks `plan` to schedule the
/// remaining bytes (the closure sees the current [`HealthMask`] and a
/// gate token pinning the attempt to its simulated start time), and
/// replays the *same* absolute-time fault schedule. Chunks whose final
/// token was delivered are subtracted from the remainder; a stalled
/// remainder is retried after an exponential backoff in simulated time,
/// up to `policy.max_attempts` attempts.
///
/// Attempts are independent simulations stitched on the clock: an
/// attempt's traffic does not contend with earlier attempts' completed
/// traffic. That is the standard renewal approximation — by the time a
/// retry fires, the earlier attempt's surviving flows have drained.
///
/// # Panics
/// Panics if `policy.max_attempts` is 0 or the closure plans no bytes
/// while bytes remain.
pub fn run_resilient<F>(
    machine: &Machine,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    src: NodeId,
    total_bytes: u64,
    plan: F,
) -> ResilientOutcome
where
    F: FnMut(&mut Program<'_>, &ReplanContext) -> TransferHandle,
{
    run_resilient_observed(machine, faults, policy, src, total_bytes, None, plan)
}

/// [`run_resilient`] with retry-loop observability: when `metrics` is
/// present, each attempt, retry, backoff and health snapshot lands in
/// the registry (`comm.resilient.*`), and any transfer left undelivered
/// by the final attempt increments `comm.transfers_undelivered` — so a
/// run that silently reports zero throughput is loud in the metrics.
/// All recorded values derive from simulated time and integer counts;
/// the outcome itself is unaffected by observation.
pub fn run_resilient_observed<F>(
    machine: &Machine,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    src: NodeId,
    total_bytes: u64,
    metrics: Option<&MetricsRegistry>,
    mut plan: F,
) -> ResilientOutcome
where
    F: FnMut(&mut Program<'_>, &ReplanContext) -> TransferHandle,
{
    assert!(policy.max_attempts > 0, "need at least one attempt");
    let undelivered_in = |report: &SimReport| (report.status.len() - report.num_delivered()) as u64;
    let mut remaining = total_bytes;
    let mut not_before = 0.0f64;
    let mut attempt = 0u32;
    loop {
        let mut prog = Program::new(machine);
        let gate = (not_before > 0.0).then(|| {
            prog.add_spec(TransferSpec::new(src.0, src.0, 0, Vec::new()).not_before(not_before))
        });
        let ctx = ReplanContext {
            attempt,
            not_before,
            bytes: remaining,
            health: HealthMask::at(machine, faults, not_before),
            gate,
        };
        if let Some(m) = metrics {
            m.counter("comm.resilient.attempts").inc();
            m.counter("comm.resilient.dead_links_seen")
                .add(ctx.health.dead_links.len() as u64);
            m.counter("comm.resilient.down_nodes_seen")
                .add(ctx.health.down_nodes.len() as u64);
        }
        let handle = plan(&mut prog, &ctx);
        assert!(
            remaining == 0 || handle.bytes > 0,
            "re-plan scheduled no bytes with {remaining} remaining"
        );
        let report = prog.run_with_faults(faults);
        let specs = prog.graph().specs();
        let arrived: u64 = handle
            .tokens
            .iter()
            .filter(|t| report.status_of(**t) == TransferStatus::Delivered)
            .map(|t| specs[t.index()].bytes)
            .sum();
        remaining = remaining.saturating_sub(arrived);
        attempt += 1;
        if remaining == 0 {
            if let Some(m) = metrics {
                m.counter("comm.transfers_undelivered")
                    .add(undelivered_in(&report));
            }
            return ResilientOutcome {
                delivered: true,
                attempts: attempt,
                completion_time: handle.completed_at(&report),
                bytes_delivered: total_bytes,
                report,
            };
        }
        if attempt >= policy.max_attempts {
            if let Some(m) = metrics {
                m.counter("comm.resilient.failures").inc();
                m.counter("comm.transfers_undelivered")
                    .add(undelivered_in(&report));
            }
            return ResilientOutcome {
                delivered: false,
                attempts: attempt,
                completion_time: f64::INFINITY,
                bytes_delivered: total_bytes - remaining,
                report,
            };
        }
        if let Some(m) = metrics {
            m.counter("comm.resilient.retries").inc();
        }
        // Exponential backoff from when this attempt stopped making
        // progress, charged to the simulation clock.
        not_before =
            report.end_time + policy.base_backoff * policy.backoff_factor.powi(attempt as i32 - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_netsim::SimConfig;
    use bgq_torus::{standard_shape, Shape};

    fn machine() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    #[test]
    fn put_creates_routed_transfer() {
        let m = machine();
        let mut p = Program::new(&m);
        let t = p.put(NodeId(0), NodeId(127), 1 << 20);
        let spec = &p.graph().specs()[t.index()];
        assert_eq!(spec.src, 0);
        assert_eq!(spec.dst, 127);
        assert!(!spec.route.is_empty());
        let rep = p.run();
        assert!(rep.delivered_at(t) > 0.0);
    }

    #[test]
    fn put_throughput_plateaus_at_per_flow_cap() {
        // A very large direct put should approach the 1.6 GB/s protocol cap
        // (paper Fig. 5, "without proxies" plateau).
        let m = machine();
        let mut p = Program::new(&m);
        let bytes = 128u64 << 20;
        let t = p.put(NodeId(0), NodeId(127), bytes);
        let rep = p.run();
        let thr = bytes as f64 / rep.delivered_at(t);
        assert!(
            (1.55e9..=1.6e9).contains(&thr),
            "direct put throughput {:.3} GB/s not at cap",
            thr / 1e9
        );
    }

    #[test]
    fn write_default_reaches_the_ion() {
        let m = machine();
        let mut p = Program::new(&m);
        let t = p.write_default(NodeId(5), 1 << 20, Vec::new());
        let spec = &p.graph().specs()[t.index()];
        // Final leg lands on the ION's simulator node.
        assert_eq!(spec.dst, m.ion_sim_node(bgq_torus::IonId(0)));
        let rep = p.run();
        assert!(rep.delivered_at(t) > 0.0);
    }

    #[test]
    fn write_default_from_bridge_skips_torus() {
        let m = machine();
        let mut p = Program::new(&m);
        let bridge = m.io_layout().bridges_of_pset(bgq_torus::PsetId(0))[0];
        let t = p.write_default(bridge, 1 << 20, Vec::new());
        assert_eq!(p.len(), 1, "bridge writes need no torus leg");
        let spec = &p.graph().specs()[t.index()];
        assert_eq!(spec.route.len(), 1);
    }

    #[test]
    fn io_write_throughput_bounded_by_io_link() {
        let m = machine();
        let mut p = Program::new(&m);
        let bytes = 64u64 << 20;
        let bridge = m.io_layout().bridges_of_pset(bgq_torus::PsetId(0))[0];
        let t = p.ion_forward(bridge, bytes, Vec::new(), 0.0);
        let rep = p.run();
        let thr = bytes as f64 / rep.delivered_at(t);
        assert!(thr <= 2.0e9 * 1.001, "io link overdriven: {thr}");
        assert!(thr >= 1.9e9, "io link underdriven: {thr}");
    }

    #[test]
    fn modeled_sync_adds_cost() {
        let m = machine();
        let mut p = Program::new(&m);
        let a = p.put(NodeId(0), NodeId(1), 1024);
        let s = p.modeled_sync(NodeId(0), 0.5, vec![a]);
        let rep = p.run();
        assert!(rep.delivered_at(s) >= rep.delivered_at(a) + 0.5);
    }

    #[test]
    fn non_pset_partition_supports_compute_traffic() {
        let m = Machine::new(Shape::new(2, 2, 2, 2, 2), SimConfig::default());
        let mut p = Program::new(&m);
        let t = p.put(NodeId(0), NodeId(31), 4096);
        let rep = p.run();
        assert!(rep.delivered_at(t) > 0.0);
    }

    // ---- fault-aware retry loop ----

    use crate::program::{run_resilient, RetryPolicy};
    use bgq_netsim::FaultPlan;

    const RETRY_BYTES: u64 = 1 << 20;

    /// Time a clean direct put src -> dst takes on `m`.
    fn direct_time(m: &Machine, src: NodeId, dst: NodeId) -> f64 {
        let mut p = Program::new(m);
        let t = p.put(src, dst, RETRY_BYTES);
        p.run().delivered_at(t)
    }

    #[test]
    fn resilient_run_without_faults_is_one_attempt() {
        let m = machine();
        let (src, dst) = (NodeId(0), NodeId(127));
        let t0 = direct_time(&m, src, dst);
        let out = run_resilient(
            &m,
            &FaultPlan::new(),
            &RetryPolicy::default(),
            src,
            RETRY_BYTES,
            |p, ctx| {
                assert!(ctx.gate.is_none(), "first attempt is ungated");
                let deps = ctx.gate.into_iter().collect();
                let t = p.put_after(src, dst, ctx.bytes, deps, 0.0);
                TransferHandle {
                    tokens: vec![t],
                    bytes: ctx.bytes,
                }
            },
        );
        assert!(out.delivered);
        assert_eq!(out.attempts, 1);
        assert!((out.completion_time - t0).abs() < 1e-12);
        assert_eq!(out.bytes_delivered, RETRY_BYTES);
    }

    #[test]
    fn permanent_fault_on_fixed_route_exhausts_attempts() {
        let m = machine();
        let (src, dst) = (NodeId(0), NodeId(127));
        let t0 = direct_time(&m, src, dst);
        let first_link = m.route_resources(src, dst)[0];
        let plan = FaultPlan::new().fail_link(0.5 * t0, first_link);
        let policy = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        let out = run_resilient(&m, &plan, &policy, src, RETRY_BYTES, |p, ctx| {
            // A planner that refuses to learn: always the direct route.
            let deps = ctx.gate.into_iter().collect();
            let t = p.put_after(src, dst, ctx.bytes, deps, 0.0);
            TransferHandle {
                tokens: vec![t],
                bytes: ctx.bytes,
            }
        });
        assert!(!out.delivered);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.completion_time, f64::INFINITY);
        assert_eq!(out.bytes_delivered, 0);
    }

    #[test]
    fn replanning_around_a_dead_link_succeeds() {
        let m = machine();
        let (src, dst) = (NodeId(0), NodeId(127));
        let t0 = direct_time(&m, src, dst);
        let first_link = m.route_resources(src, dst)[0];
        let plan = FaultPlan::new().fail_link(0.5 * t0, first_link);
        let out = run_resilient(
            &m,
            &plan,
            &RetryPolicy::default(),
            src,
            RETRY_BYTES,
            |p, ctx| {
                let deps: Vec<_> = ctx.gate.into_iter().collect();
                if ctx.health.is_healthy() {
                    // Nothing failed yet as far as the planner knows.
                    let t = p.put_after(src, dst, ctx.bytes, deps, 0.0);
                    return TransferHandle {
                        tokens: vec![t],
                        bytes: ctx.bytes,
                    };
                }
                // Detour through a node whose two-leg path avoids every
                // dead link.
                let dead: Vec<_> = ctx
                    .health
                    .dead_links
                    .iter()
                    .map(|l| p.machine().torus_resource(*l))
                    .collect();
                let via = (1..m.num_nodes())
                    .map(NodeId)
                    .find(|&v| {
                        v != src
                            && v != dst
                            && !m
                                .route_resources(src, v)
                                .iter()
                                .chain(m.route_resources(v, dst).iter())
                                .any(|r| dead.contains(r))
                    })
                    .expect("a detour must exist");
                let leg1 = p.put_after(src, via, ctx.bytes, deps, 0.0);
                let leg2 = p.put_after(via, dst, ctx.bytes, vec![leg1], 0.0);
                TransferHandle {
                    tokens: vec![leg2],
                    bytes: ctx.bytes,
                }
            },
        );
        assert!(out.delivered, "re-plan must route around the dead link");
        assert_eq!(out.attempts, 2);
        assert!(out.completion_time.is_finite() && out.completion_time > t0);
        assert_eq!(out.bytes_delivered, RETRY_BYTES);
    }

    #[test]
    fn observed_retry_loop_fills_the_registry() {
        let m = machine();
        let (src, dst) = (NodeId(0), NodeId(127));
        let t0 = direct_time(&m, src, dst);
        let first_link = m.route_resources(src, dst)[0];
        let plan = FaultPlan::new().fail_link(0.5 * t0, first_link);
        let policy = RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        };
        let reg = MetricsRegistry::new();
        let out = run_resilient_observed(
            &m,
            &plan,
            &policy,
            src,
            RETRY_BYTES,
            Some(&reg),
            |p, ctx| {
                let deps = ctx.gate.into_iter().collect();
                let t = p.put_after(src, dst, ctx.bytes, deps, 0.0);
                TransferHandle {
                    tokens: vec![t],
                    bytes: ctx.bytes,
                }
            },
        );
        assert!(!out.delivered, "fixed route cannot dodge a permanent fault");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("comm.resilient.attempts"), Some(2));
        assert_eq!(snap.counter("comm.resilient.retries"), Some(1));
        assert_eq!(snap.counter("comm.resilient.failures"), Some(1));
        // The second attempt saw the dead link in its health snapshot.
        assert_eq!(snap.counter("comm.resilient.dead_links_seen"), Some(1));
        // The final attempt's put (plus its gate edge) never delivered.
        assert!(snap.counter("comm.transfers_undelivered").unwrap_or(0) >= 1);
    }

    #[test]
    fn observed_program_run_matches_plain_run() {
        let m = machine();
        let mut p = Program::new(&m);
        let t = p.put(NodeId(0), NodeId(127), 1 << 20);
        let plain = p.run();
        let mut obs = bgq_netsim::SimObserver::new();
        let watched = p.run_observed(&FaultPlan::new(), &mut obs);
        assert_eq!(
            plain.delivered_at(t).to_bits(),
            watched.delivered_at(t).to_bits()
        );
        assert!(obs.waterfill_runs > 0);
        assert!(!obs.heatmap.is_empty());
        assert_eq!(obs.transfers_undelivered, 0);
    }

    #[test]
    fn transient_fault_heals_within_one_attempt() {
        let m = machine();
        let (src, dst) = (NodeId(0), NodeId(127));
        let t0 = direct_time(&m, src, dst);
        let first_link = m.route_resources(src, dst)[0];
        let plan = FaultPlan::new()
            .fail_link(0.5 * t0, first_link)
            .restore_link(0.6 * t0, first_link);
        let out = run_resilient(
            &m,
            &plan,
            &RetryPolicy::default(),
            src,
            RETRY_BYTES,
            |p, ctx| {
                let deps = ctx.gate.into_iter().collect();
                let t = p.put_after(src, dst, ctx.bytes, deps, 0.0);
                TransferHandle {
                    tokens: vec![t],
                    bytes: ctx.bytes,
                }
            },
        );
        assert!(
            out.delivered,
            "the engine itself rides out transient faults"
        );
        assert_eq!(out.attempts, 1, "no retry needed");
        assert!(out.completion_time > t0, "but the outage cost time");
    }
}
