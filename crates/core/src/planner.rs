//! High-level facade: decide and plan sparse data movement.
//!
//! [`SparseMover`] bundles the cost model (when do proxies pay off?), the
//! proxy search (where can they go?) and the aggregator machinery into the
//! API an application would call: give it endpoints and sizes, get back an
//! executable plan plus the decision it made.

use crate::aggregator::AggregatorTable;
use crate::error::SdmError;
use crate::io_move::{plan_topology_aware_write, IoMoveOptions, IoMovePlan};
use crate::model::CostModel;
use crate::multipath::{
    direct_gated, plan_group_direct, plan_group_via, plan_via_proxies, MultipathOptions,
    TransferHandle,
};
use crate::proxy::{find_proxies_constrained, find_proxy_groups, ProxySearchConfig, SearchStats};
use bgq_comm::{HealthMask, Machine, Program};
use bgq_obs::MetricsRegistry;
use bgq_torus::{LinkId, NodeId};
use std::collections::HashSet;
use std::sync::Arc;

/// What the planner decided for a transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Single default path; the reason proxies were not used.
    Direct(DirectReason),
    /// Multipath through this many proxies (or proxy groups).
    Multipath { paths: u32 },
}

/// Why a transfer went direct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectReason {
    /// The message is below the proxy-benefit threshold (Eq. 5 regime).
    BelowThreshold,
    /// Fewer than the minimum useful proxies (3) could be placed.
    NoDisjointPaths,
    /// The caller asked for a direct plan ([`PlanPolicy::DirectOnly`]);
    /// the cost model was never consulted.
    Requested,
}

/// How [`SparseMover::plan`] is allowed to route a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanPolicy {
    /// The paper's decision procedure (§IV.B): direct below the
    /// proxy-benefit threshold, multipath above it, multipath *forced*
    /// when a supplied health mask kills the deterministic direct route.
    #[default]
    Auto,
    /// Always a single direct path, skipping the proxy search and the
    /// cost model. The plan still honors `MultipathOptions::gate`, which
    /// is how a stubborn-direct retry loop chains attempts.
    DirectOnly,
}

/// One point-to-point planning request for [`SparseMover::plan`], the
/// single point-to-point planning entry point.
///
/// Build one with [`PlanRequest::new`] and refine it with the builder
/// methods:
///
/// ```ignore
/// let req = PlanRequest::new(src, dst, bytes)
///     .health(&mask)                    // route around known faults
///     .policy(PlanPolicy::DirectOnly);  // or force a direct plan
/// let outcome = mover.plan(&mut prog, req)?;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest<'h> {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message size in bytes.
    pub bytes: u64,
    /// Network health the plan must route around. `None` plans on an
    /// assumed-healthy network and can never fail with
    /// [`SdmError::EndpointDown`].
    pub health: Option<&'h HealthMask>,
    /// Links some other transfer of the same batch already claimed (a
    /// neighborhood exchange's link-claim ledger): proxy paths must be
    /// link-disjoint from them. Unlike dead links, a claimed link never
    /// forces multipath — the hardware is healthy, merely spoken for.
    pub avoid: Option<&'h HashSet<LinkId>>,
    /// Routing policy; defaults to [`PlanPolicy::Auto`].
    pub policy: PlanPolicy,
}

impl<'h> PlanRequest<'h> {
    /// A healthy-network, auto-policy request.
    pub fn new(src: NodeId, dst: NodeId, bytes: u64) -> PlanRequest<'h> {
        PlanRequest {
            src,
            dst,
            bytes,
            health: None,
            avoid: None,
            policy: PlanPolicy::Auto,
        }
    }

    /// Plan under a network health mask: proxies avoid dead links and
    /// down nodes, a dead direct route forces multipath, and a down
    /// endpoint is an error.
    pub fn health(mut self, health: &'h HealthMask) -> Self {
        self.health = Some(health);
        self
    }

    /// Override the routing policy.
    pub fn policy(mut self, policy: PlanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Keep proxy paths link-disjoint from `claimed` (a batch planner's
    /// link-claim ledger).
    pub fn avoid(mut self, claimed: &'h HashSet<LinkId>) -> Self {
        self.avoid = Some(claimed);
        self
    }
}

/// What [`SparseMover::plan`] produced: the executable plan plus the
/// decision that shaped it.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Handle over the planned transfer's tokens.
    pub handle: TransferHandle,
    /// The routing decision that was made.
    pub decision: Decision,
    /// Every torus link the plan sends payload over: the deterministic
    /// direct route for a [`Decision::Direct`] plan, the union of both
    /// segments of every proxy path for a multipath plan. This is what a
    /// batch planner feeds back into its link-claim ledger.
    pub links: Vec<LinkId>,
}

/// The sparse data movement planner for one machine.
#[derive(Debug, Clone)]
pub struct SparseMover<'m> {
    machine: &'m Machine,
    model: CostModel,
    search: ProxySearchConfig,
    multipath: MultipathOptions,
    aggregators: Option<Arc<AggregatorTable>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'m> SparseMover<'m> {
    /// Build a planner; precomputes the aggregator table when the machine
    /// has an I/O layout (Algorithm 2's Init).
    pub fn new(machine: &'m Machine) -> SparseMover<'m> {
        let aggregators = machine
            .io()
            .map(|io| Arc::new(AggregatorTable::precompute(io)));
        Self::build(machine, aggregators)
    }

    /// Build a planner around an already-computed (shared) aggregator
    /// table, skipping the Init phase. This is how an experiment session
    /// reuses one precomputation across many sweep points: the table is
    /// behind an [`Arc`], so clones are free and thread-safe.
    ///
    /// The table must have been computed for this machine's I/O layout;
    /// pass `None` for partitions without one.
    pub fn with_aggregator_table(
        machine: &'m Machine,
        table: Option<Arc<AggregatorTable>>,
    ) -> SparseMover<'m> {
        debug_assert_eq!(
            table.as_ref().map(|t| t.num_psets()),
            machine.io().map(|io| io.num_psets()),
            "aggregator table does not match the machine's I/O layout"
        );
        Self::build(machine, table)
    }

    fn build(machine: &'m Machine, aggregators: Option<Arc<AggregatorTable>>) -> SparseMover<'m> {
        let model = CostModel::from_sim_config(machine.config(), machine.mean_hops());
        SparseMover {
            machine,
            model,
            search: ProxySearchConfig::default(),
            multipath: MultipathOptions::default(),
            aggregators,
            metrics: None,
        }
    }

    /// Override the proxy search configuration.
    pub fn with_search(mut self, search: ProxySearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Attach a metrics registry: every planning call then records its
    /// decision (`planner.multipath_chosen`, `planner.direct_*`) and the
    /// proxy search's candidate accounting (`planner.proxy.*`). Planning
    /// results are unaffected — counters are a write-only side channel.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn count(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.counter(name).inc();
        }
    }

    fn record_search(&self, stats: &SearchStats) {
        if let Some(m) = &self.metrics {
            m.counter("planner.proxy.candidates_tried")
                .add(stats.candidates_tried);
            m.counter("planner.proxy.accepted").add(stats.accepted);
            m.counter("planner.proxy.rejected_overlap")
                .add(stats.rejected_overlap);
            m.counter("planner.proxy.dead_link_skips")
                .add(stats.dead_link_skips);
            m.counter("planner.proxy.down_node_skips")
                .add(stats.down_node_skips);
            m.counter("planner.proxy.forbidden_skips")
                .add(stats.forbidden_skips);
        }
    }

    /// Override multipath construction options (e.g. pipelined forwarding).
    pub fn with_multipath(mut self, opts: MultipathOptions) -> Self {
        self.multipath = opts;
        self
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    pub fn aggregator_table(&self) -> Option<&AggregatorTable> {
        self.aggregators.as_deref()
    }

    /// The shared aggregator table handle, for reuse by another planner
    /// over the same machine.
    pub fn shared_aggregator_table(&self) -> Option<Arc<AggregatorTable>> {
        self.aggregators.clone()
    }

    /// Plan a point-to-point transfer — the single planning entry point.
    ///
    /// Under [`PlanPolicy::Auto`] this is the paper's decision procedure
    /// (§IV.B: "Calculate the message sizes to see if using intermediate
    /// nodes benefits performance"): direct below the proxy-benefit
    /// threshold, multipath above it. When the request carries a
    /// [`HealthMask`], proxies route around dead links and down nodes,
    /// and a dead link on the deterministic direct route *forces*
    /// multipath (with the minimum-useful-proxies rule relaxed to 1 —
    /// any surviving detour beats a route that delivers nothing),
    /// overriding the cost model's below-threshold verdict.
    ///
    /// Direct plans honor `MultipathOptions::gate`, so retry loops can
    /// chain attempts regardless of policy.
    ///
    /// # Errors
    /// [`SdmError::EndpointDown`] when the request has a health mask and
    /// `src` or `dst` itself is down — no plan can help then; the caller
    /// should back off and re-query the mask later. Without a health
    /// mask, planning is infallible.
    pub fn plan(
        &self,
        prog: &mut Program<'_>,
        req: PlanRequest<'_>,
    ) -> Result<PlanOutcome, SdmError> {
        let PlanRequest {
            src,
            dst,
            bytes,
            health,
            avoid,
            policy,
        } = req;
        if let Some(h) = health {
            if h.down_nodes.contains(&src) {
                self.count("planner.endpoint_down");
                return Err(SdmError::EndpointDown(src));
            }
            if h.down_nodes.contains(&dst) {
                self.count("planner.endpoint_down");
                return Err(SdmError::EndpointDown(dst));
            }
        }
        let shape = self.machine.shape();
        let zone = self.machine.zone();
        let direct_links = || bgq_torus::route(shape, src, dst, zone).links;
        if policy == PlanPolicy::DirectOnly {
            self.count("planner.direct_requested");
            return Ok(PlanOutcome {
                handle: direct_gated(prog, src, dst, bytes, &self.multipath),
                decision: Decision::Direct(DirectReason::Requested),
                links: direct_links(),
            });
        }
        // A self-transfer crosses no link, so no proxy path can be
        // disjoint from its route or carry any of its load.
        if src == dst {
            self.count("planner.direct_no_disjoint");
            return Ok(PlanOutcome {
                handle: direct_gated(prog, src, dst, bytes, &self.multipath),
                decision: Decision::Direct(DirectReason::NoDisjointPaths),
                links: direct_links(),
            });
        }
        let direct_dead = match health {
            Some(h) => direct_links().iter().any(|l| h.dead_links.contains(l)),
            None => false,
        };
        if direct_dead {
            self.count("planner.direct_route_dead");
        }
        let forced_search;
        let search = if direct_dead {
            forced_search = ProxySearchConfig {
                min_proxies: 1,
                ..self.search.clone()
            };
            &forced_search
        } else {
            &self.search
        };
        let healthy;
        let mask = match health {
            Some(h) => h,
            None => {
                healthy = HealthMask::healthy();
                &healthy
            }
        };
        let no_claims = HashSet::new();
        let (sel, stats) = find_proxies_constrained(
            shape,
            zone,
            src,
            dst,
            &HashSet::new(),
            avoid.unwrap_or(&no_claims),
            search,
            mask,
        );
        self.record_search(&stats);
        if sel.is_empty() {
            self.count("planner.direct_no_disjoint");
            return Ok(PlanOutcome {
                handle: direct_gated(prog, src, dst, bytes, &self.multipath),
                decision: Decision::Direct(DirectReason::NoDisjointPaths),
                links: direct_links(),
            });
        }
        let k = sel.len() as u32;
        if !direct_dead && !self.model.should_use_proxies(bytes, k) {
            self.count("planner.direct_below_threshold");
            return Ok(PlanOutcome {
                handle: direct_gated(prog, src, dst, bytes, &self.multipath),
                decision: Decision::Direct(DirectReason::BelowThreshold),
                links: direct_links(),
            });
        }
        if direct_dead {
            self.count("planner.multipath_forced");
        }
        self.count("planner.multipath_chosen");
        let links: Vec<LinkId> = sel.paths.iter().flat_map(|p| p.links()).collect();
        let handle = plan_via_proxies(prog, src, dst, bytes, &sel.proxies(), &self.multipath);
        Ok(PlanOutcome {
            handle,
            decision: Decision::Multipath { paths: k },
            links,
        })
    }

    /// Plan a group-to-group coupling (`sources[i] → dests[i]`, `bytes`
    /// each), choosing direct vs. proxy groups.
    pub fn plan_group_coupling(
        &self,
        prog: &mut Program<'_>,
        sources: &[NodeId],
        dests: &[NodeId],
        bytes: u64,
    ) -> (TransferHandle, Decision) {
        let groups = find_proxy_groups(
            self.machine.shape(),
            self.machine.zone(),
            sources,
            dests,
            &self.search,
        );
        if groups.is_empty() {
            self.count("planner.group.direct_no_disjoint");
            return (
                plan_group_direct(prog, sources, dests, bytes),
                Decision::Direct(DirectReason::NoDisjointPaths),
            );
        }
        let k = groups.len() as u32;
        if !self.model.should_use_proxies(bytes, k) {
            self.count("planner.group.direct_below_threshold");
            return (
                plan_group_direct(prog, sources, dests, bytes),
                Decision::Direct(DirectReason::BelowThreshold),
            );
        }
        self.count("planner.group.multipath_chosen");
        let handle = plan_group_via(prog, sources, dests, bytes, &groups, false, &self.multipath);
        (handle, Decision::Multipath { paths: k })
    }

    /// Plan a sparse collective write (Algorithm 2).
    ///
    /// # Panics
    /// Panics if the machine has no I/O layout; use
    /// [`SparseMover::try_plan_sparse_write`] to handle that as an
    /// [`SdmError`] instead.
    pub fn plan_sparse_write(
        &self,
        prog: &mut Program<'_>,
        data: &[(NodeId, u64)],
        opts: &IoMoveOptions,
    ) -> IoMovePlan {
        self.try_plan_sparse_write(prog, data, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`SparseMover::plan_sparse_write`].
    pub fn try_plan_sparse_write(
        &self,
        prog: &mut Program<'_>,
        data: &[(NodeId, u64)],
        opts: &IoMoveOptions,
    ) -> Result<IoMovePlan, SdmError> {
        let table = self.aggregators.as_ref().ok_or(SdmError::NoIoLayout)?;
        Ok(plan_topology_aware_write(prog, table, data, opts))
    }

    /// Plan a sparse collective read (restart) — Algorithm 2 reversed.
    ///
    /// # Panics
    /// Panics if the machine has no I/O layout; use
    /// [`SparseMover::try_plan_sparse_read`] to handle that as an
    /// [`SdmError`] instead.
    pub fn plan_sparse_read(
        &self,
        prog: &mut Program<'_>,
        data: &[(NodeId, u64)],
        opts: &IoMoveOptions,
    ) -> IoMovePlan {
        self.try_plan_sparse_read(prog, data, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`SparseMover::plan_sparse_read`].
    pub fn try_plan_sparse_read(
        &self,
        prog: &mut Program<'_>,
        data: &[(NodeId, u64)],
        opts: &IoMoveOptions,
    ) -> Result<IoMovePlan, SdmError> {
        let table = self.aggregators.as_ref().ok_or(SdmError::NoIoLayout)?;
        Ok(crate::io_move::plan_topology_aware_read(
            prog, table, data, opts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipath::plan_direct;
    use bgq_netsim::SimConfig;
    use bgq_torus::standard_shape;

    fn machine() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    #[test]
    fn small_transfers_go_direct() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let mut p = Program::new(&m);
        let out = mover
            .plan(&mut p, PlanRequest::new(NodeId(0), NodeId(127), 4096))
            .unwrap();
        assert_eq!(out.decision, Decision::Direct(DirectReason::BelowThreshold));
    }

    #[test]
    fn large_transfers_go_multipath() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let mut p = Program::new(&m);
        let out = mover
            .plan(&mut p, PlanRequest::new(NodeId(0), NodeId(127), 32 << 20))
            .unwrap();
        let d = out.decision;
        assert!(
            matches!(d, Decision::Multipath { paths } if paths >= 3),
            "{d:?}"
        );
    }

    #[test]
    fn planner_decision_actually_wins() {
        // Whatever the planner picks for a large message must beat the
        // alternative it rejected.
        let m = machine();
        let mover = SparseMover::new(&m);
        let bytes = 64u64 << 20;

        let mut p1 = Program::new(&m);
        let out = mover
            .plan(&mut p1, PlanRequest::new(NodeId(0), NodeId(127), bytes))
            .unwrap();
        assert!(matches!(out.decision, Decision::Multipath { .. }));
        let t_chosen = out.handle.completed_at(&p1.run());

        let mut p2 = Program::new(&m);
        let h2 = plan_direct(&mut p2, NodeId(0), NodeId(127), bytes);
        let t_direct = h2.completed_at(&p2.run());
        assert!(t_chosen < t_direct, "{t_chosen} !< {t_direct}");
    }

    #[test]
    fn degenerate_topology_reports_no_disjoint_paths() {
        let m = bgq_comm::Machine::new(bgq_torus::Shape::new(2, 1, 1, 1, 1), SimConfig::default());
        let mover = SparseMover::new(&m);
        let mut p = Program::new(&m);
        let out = mover
            .plan(&mut p, PlanRequest::new(NodeId(0), NodeId(1), 128 << 20))
            .unwrap();
        assert_eq!(
            out.decision,
            Decision::Direct(DirectReason::NoDisjointPaths)
        );
    }

    #[test]
    fn healthy_mask_matches_maskless_decision() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let healthy = HealthMask::healthy();
        for bytes in [4096u64, 32 << 20] {
            let mut p1 = Program::new(&m);
            let plain = mover
                .plan(&mut p1, PlanRequest::new(NodeId(0), NodeId(127), bytes))
                .unwrap();
            let mut p2 = Program::new(&m);
            let resilient = mover
                .plan(
                    &mut p2,
                    PlanRequest::new(NodeId(0), NodeId(127), bytes).health(&healthy),
                )
                .unwrap();
            assert_eq!(plain.decision, resilient.decision, "at {bytes} bytes");
        }
    }

    #[test]
    fn direct_only_policy_skips_the_cost_model() {
        let m = machine();
        let reg = Arc::new(MetricsRegistry::new());
        let mover = SparseMover::new(&m).with_metrics(Arc::clone(&reg));
        // 32 MiB would normally go multipath; DirectOnly must not.
        let mut p = Program::new(&m);
        let out = mover
            .plan(
                &mut p,
                PlanRequest::new(NodeId(0), NodeId(127), 32 << 20).policy(PlanPolicy::DirectOnly),
            )
            .unwrap();
        assert_eq!(out.decision, Decision::Direct(DirectReason::Requested));
        assert_eq!(out.handle.tokens.len(), 1, "one direct put");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("planner.direct_requested"), Some(1));
        assert_eq!(snap.counter("planner.multipath_chosen"), None);
    }

    #[test]
    fn self_transfers_go_direct_without_a_proxy_search() {
        // A self-transfer has an empty route: proxies cannot help it,
        // however large it is.
        let m = machine();
        let reg = Arc::new(MetricsRegistry::new());
        let mover = SparseMover::new(&m).with_metrics(Arc::clone(&reg));
        let mut p = Program::new(&m);
        let out = mover
            .plan(&mut p, PlanRequest::new(NodeId(5), NodeId(5), 128 << 20))
            .unwrap();
        assert_eq!(
            out.decision,
            Decision::Direct(DirectReason::NoDisjointPaths)
        );
        assert_eq!(out.handle.tokens.len(), 1, "one direct put");
        assert!(out.links.is_empty());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("planner.direct_no_disjoint"), Some(1));
        assert_eq!(snap.counter("planner.proxy.candidates_tried"), None);
        assert_eq!(snap.counter("planner.multipath_chosen"), None);
    }

    #[test]
    fn direct_only_policy_without_gate_matches_plain_direct() {
        let m = machine();
        let bytes = 8u64 << 20;
        let mut p1 = Program::new(&m);
        let t1 = plan_direct(&mut p1, NodeId(0), NodeId(127), bytes).completed_at(&p1.run());
        let mut p2 = Program::new(&m);
        let out = SparseMover::new(&m)
            .plan(
                &mut p2,
                PlanRequest::new(NodeId(0), NodeId(127), bytes).policy(PlanPolicy::DirectOnly),
            )
            .unwrap();
        let t2 = out.handle.completed_at(&p2.run());
        assert_eq!(t1.to_bits(), t2.to_bits(), "no gate must mean no change");
    }

    #[test]
    fn direct_only_policy_honors_the_gate() {
        let m = machine();
        let mut p = Program::new(&m);
        // Gate: a zero-byte self-put that becomes available at t = 1 s.
        let gate = p.add_spec(bgq_netsim::TransferSpec::new(0, 0, 0, Vec::new()).not_before(1.0));
        let mover = SparseMover::new(&m).with_multipath(MultipathOptions {
            gate: Some(gate),
            ..Default::default()
        });
        let out = mover
            .plan(
                &mut p,
                PlanRequest::new(NodeId(0), NodeId(127), 4 << 10).policy(PlanPolicy::DirectOnly),
            )
            .unwrap();
        let rep = p.run();
        assert!(
            out.handle.completed_at(&rep) > 1.0,
            "transfer must not finish before the gate opens"
        );
    }

    #[test]
    fn dead_direct_route_forces_multipath() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let first_link = bgq_torus::route(m.shape(), NodeId(0), NodeId(127), m.zone()).links[0];
        let mut health = HealthMask::healthy();
        health.dead_links.insert(first_link);
        // 4 KiB is deep below the threshold, yet direct would deliver
        // nothing — the planner must detour.
        let mut p = Program::new(&m);
        let out = mover
            .plan(
                &mut p,
                PlanRequest::new(NodeId(0), NodeId(127), 4096).health(&health),
            )
            .unwrap();
        let d = out.decision;
        assert!(matches!(d, Decision::Multipath { .. }), "{d:?}");
    }

    #[test]
    fn resilient_multipath_survives_a_fault_the_direct_plan_does_not() {
        use bgq_netsim::{FaultPlan, ResourceId};
        let m = machine();
        let mover = SparseMover::new(&m);
        let bytes = 32u64 << 20;
        let first_link = bgq_torus::route(m.shape(), NodeId(0), NodeId(127), m.zone()).links[0];
        // The link dies before any transfer starts and never recovers.
        let plan = FaultPlan::new().fail_link(0.0, ResourceId(first_link.0));
        let health = HealthMask::at(&m, &plan, 0.0);

        let mut pd = Program::new(&m);
        let hd = crate::multipath::plan_direct(&mut pd, NodeId(0), NodeId(127), bytes);
        let rd = pd.run_with_faults(&plan);
        assert!(!rd.all_delivered(), "direct over the dead link must stall");
        assert!(hd.completed_at(&rd).is_infinite());

        let mut pm = Program::new(&m);
        let out = mover
            .plan(
                &mut pm,
                PlanRequest::new(NodeId(0), NodeId(127), bytes).health(&health),
            )
            .unwrap();
        assert!(matches!(out.decision, Decision::Multipath { .. }));
        let rm = pm.run_with_faults(&plan);
        assert!(rm.all_delivered(), "health-aware multipath must complete");
        assert!(out.handle.completed_at(&rm).is_finite());
    }

    #[test]
    fn down_endpoint_is_an_error() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let mut health = HealthMask::healthy();
        health.down_nodes.insert(NodeId(127));
        let mut p = Program::new(&m);
        let err = mover
            .plan(
                &mut p,
                PlanRequest::new(NodeId(0), NodeId(127), 1 << 20).health(&health),
            )
            .unwrap_err();
        assert_eq!(err, SdmError::EndpointDown(NodeId(127)));
    }

    #[test]
    fn metrics_record_decisions_without_changing_them() {
        let m = machine();
        let reg = Arc::new(MetricsRegistry::new());
        let plain = SparseMover::new(&m);
        let observed = SparseMover::new(&m).with_metrics(Arc::clone(&reg));

        for bytes in [4096u64, 32 << 20] {
            let mut p1 = Program::new(&m);
            let d1 = plain
                .plan(&mut p1, PlanRequest::new(NodeId(0), NodeId(127), bytes))
                .unwrap()
                .decision;
            let mut p2 = Program::new(&m);
            let d2 = observed
                .plan(&mut p2, PlanRequest::new(NodeId(0), NodeId(127), bytes))
                .unwrap()
                .decision;
            assert_eq!(d1, d2, "metrics must not alter the decision at {bytes}");
        }
        // Forced-multipath path under a dead direct route.
        let first_link = bgq_torus::route(m.shape(), NodeId(0), NodeId(127), m.zone()).links[0];
        let mut health = HealthMask::healthy();
        health.dead_links.insert(first_link);
        let mut p = Program::new(&m);
        observed
            .plan(
                &mut p,
                PlanRequest::new(NodeId(0), NodeId(127), 4096).health(&health),
            )
            .unwrap();

        let snap = reg.snapshot();
        assert_eq!(snap.counter("planner.direct_below_threshold"), Some(1));
        assert_eq!(snap.counter("planner.multipath_chosen"), Some(2));
        assert_eq!(snap.counter("planner.multipath_forced"), Some(1));
        assert_eq!(snap.counter("planner.direct_route_dead"), Some(1));
        assert!(snap.counter("planner.proxy.candidates_tried").unwrap() > 0);
        assert!(snap.counter("planner.proxy.accepted").unwrap() >= 4);
        assert!(
            snap.counter("planner.proxy.dead_link_skips").unwrap_or(0) >= 1,
            "the dead direct link must surface in search stats"
        );
    }

    #[test]
    fn plan_reports_the_links_it_uses() {
        let m = machine();
        let mover = SparseMover::new(&m);
        // Direct plan: exactly the deterministic route.
        let mut p = Program::new(&m);
        let out = mover
            .plan(&mut p, PlanRequest::new(NodeId(0), NodeId(127), 4096))
            .unwrap();
        assert_eq!(
            out.links,
            bgq_torus::route(m.shape(), NodeId(0), NodeId(127), m.zone()).links
        );
        // Multipath plan: the union of the proxy-path segments, none of
        // which may repeat (paths are pairwise link-disjoint).
        let mut p2 = Program::new(&m);
        let out = mover
            .plan(&mut p2, PlanRequest::new(NodeId(0), NodeId(127), 32 << 20))
            .unwrap();
        assert!(matches!(out.decision, Decision::Multipath { .. }));
        let unique: HashSet<_> = out.links.iter().copied().collect();
        assert_eq!(
            unique.len(),
            out.links.len(),
            "multipath links must be disjoint"
        );
    }

    #[test]
    fn avoided_links_keep_proxy_paths_clear() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let bytes = 32u64 << 20;
        let mut p1 = Program::new(&m);
        let free = mover
            .plan(&mut p1, PlanRequest::new(NodeId(0), NodeId(127), bytes))
            .unwrap();
        assert!(matches!(free.decision, Decision::Multipath { .. }));
        // Claim the first path's worth of links; the re-plan must dodge
        // every one of them (or legitimately fall back to direct).
        let claimed: HashSet<bgq_torus::LinkId> = free.links.iter().take(4).copied().collect();
        let mut p2 = Program::new(&m);
        let out = mover
            .plan(
                &mut p2,
                PlanRequest::new(NodeId(0), NodeId(127), bytes).avoid(&claimed),
            )
            .unwrap();
        if matches!(out.decision, Decision::Multipath { .. }) {
            for l in &out.links {
                assert!(!claimed.contains(l), "plan crossed claimed link {l}");
            }
        }
        // An empty claim set changes nothing.
        let none = HashSet::new();
        let mut p3 = Program::new(&m);
        let same = mover
            .plan(
                &mut p3,
                PlanRequest::new(NodeId(0), NodeId(127), bytes).avoid(&none),
            )
            .unwrap();
        assert_eq!(same.decision, free.decision);
        assert_eq!(same.links, free.links);
    }

    #[test]
    fn group_coupling_decision() {
        let m = Machine::new(standard_shape(512).unwrap(), SimConfig::default());
        let mover = SparseMover::new(&m);
        let sources: Vec<NodeId> = (0..32).map(NodeId).collect();
        let dests: Vec<NodeId> = (480..512).map(NodeId).collect();
        let mut p = Program::new(&m);
        let (_, d) = mover.plan_group_coupling(&mut p, &sources, &dests, 16 << 20);
        assert!(matches!(d, Decision::Multipath { .. }), "{d:?}");
        let mut p2 = Program::new(&m);
        let (_, d2) = mover.plan_group_coupling(&mut p2, &sources, &dests, 1024);
        assert!(matches!(d2, Decision::Direct(_)), "{d2:?}");
    }

    #[test]
    fn sparse_write_runs_through_facade() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 1 << 20)).collect();
        let plan = mover.plan_sparse_write(&mut p, &data, &IoMoveOptions::default());
        let rep = p.run();
        assert!(plan.handle.completed_at(&rep) > 0.0);
    }

    #[test]
    fn sparse_write_without_io_layout_is_an_error() {
        let m = Machine::new(bgq_torus::Shape::new(2, 2, 2, 2, 2), SimConfig::default());
        let mover = SparseMover::new(&m);
        let mut p = Program::new(&m);
        let data = [(NodeId(0), 1u64 << 20)];
        let err = mover
            .try_plan_sparse_write(&mut p, &data, &IoMoveOptions::default())
            .unwrap_err();
        assert_eq!(err, crate::SdmError::NoIoLayout);
    }

    #[test]
    fn shared_table_plans_identically_to_fresh_precompute() {
        let m = machine();
        let fresh = SparseMover::new(&m);
        let table = fresh.shared_aggregator_table();
        let shared = SparseMover::with_aggregator_table(&m, table);
        let data: Vec<(NodeId, u64)> = (0..64).map(|i| (NodeId(i), 4 << 20)).collect();

        let mut p1 = Program::new(&m);
        let t1 = fresh
            .plan_sparse_write(&mut p1, &data, &IoMoveOptions::default())
            .handle
            .completed_at(&p1.run());
        let mut p2 = Program::new(&m);
        let t2 = shared
            .plan_sparse_write(&mut p2, &data, &IoMoveOptions::default())
            .handle
            .completed_at(&p2.run());
        assert_eq!(t1, t2, "shared table must not change the plan");
    }

    #[test]
    fn sparse_read_runs_through_facade() {
        let m = machine();
        let mover = SparseMover::new(&m);
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 1 << 20)).collect();
        let plan = mover.plan_sparse_read(&mut p, &data, &IoMoveOptions::default());
        let rep = p.run();
        assert!(plan.handle.completed_at(&rep) > 0.0);
        assert_eq!(plan.handle.bytes, 128 << 20);
    }
}
