//! The discrete-event simulation engine.
//!
//! Executes a [`TransferGraph`] over a capacitated resource network:
//!
//! * each transfer waits for its dependencies, then enters its source
//!   node's injection queue (one message is injected at a time per node,
//!   taking [`SimConfig::send_overhead`] of CPU time — the Messaging Unit
//!   descriptor setup);
//! * once injected, the transfer becomes a *flow*; all concurrently active
//!   flows share the network according to max-min fairness, recomputed at
//!   every flow arrival/departure (fluid model);
//! * when a flow's bytes complete, delivery occurs after the route's
//!   pipeline latency plus [`SimConfig::recv_overhead`], which is when
//!   dependent transfers may start.
//!
//! The engine is fully deterministic: identical inputs produce identical
//! event orderings and timings. The run surface is one method,
//! [`Simulator::simulate`], taking [`SimOptions`] (optional fault plan,
//! optional observer, solver mode); rate recomputation is incremental by
//! default ([`SolverMode::Cascade`]) and bit-identical to a full
//! re-level at every event — see the [`leveling`](self) submodule.
//!
//! Transfers that cannot interact (no shared route resource, source
//! node or dependency edge) are partitioned into contention components
//! — *shards* — and each runs its own event loop, one after another on
//! the calling thread, merged back in canonical order (see the
//! [`shard`](self) submodule). Partitioning is unconditional: it
//! defines the semantics rather than being an optional fast path.

mod faults;
mod flow_state;
mod leveling;
mod queue;
mod shard;

use crate::config::SimConfig;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::graph::{TransferGraph, TransferId, TransferSpec};
use crate::obs::{FaultReLevel, HeatmapSample, ShardMerge, SimObserver};
use crate::profile::{ProfileState, SimProfile};
use faults::FaultState;
use flow_state::FlowSet;
use leveling::Leveler;
use queue::{Event, EventQueue};
use shard::{partition, PartitionOutcome};

/// Bytes below which a flow is considered complete (absorbs float error).
const BYTE_EPS: f64 = 1e-3;

/// How the engine re-levels fair-share rates at each epoch boundary.
/// Both modes produce bit-identical reports; only the work differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolverMode {
    /// Re-solve only the links a joined or departed flow reaches,
    /// against the previous solve's pass log (DESIGN §16), and skip
    /// re-levels with nothing to do.
    #[default]
    Cascade,
    /// Drop the cascade's state before every re-level, so each one
    /// solves every active flow cold and none is skipped: the same
    /// solver with nothing to reuse, the oracle the warm path is tested
    /// against.
    Full,
}

/// Options for one [`Simulator::simulate`] run: an optional fault
/// schedule, an optional passive observer, and the solver mode.
///
/// The default is a fault-free, unobserved run with the cascade
/// solver — exactly what the old `run` method did (modulo solver mode,
/// which never changes results).
#[derive(Debug, Default)]
pub struct SimOptions<'a> {
    /// Fault schedule; `None` (or an empty plan) runs fault-free.
    pub faults: Option<&'a FaultPlan>,
    /// Passive observer; never influences the event sequence.
    pub observer: Option<&'a mut SimObserver>,
    /// Rate re-leveling strategy.
    pub solver: SolverMode,
    /// Collect bottleneck attribution into [`SimReport::profile`].
    /// Profiling is passive: the report's other fields are bit-identical
    /// to an unprofiled run.
    pub profile: bool,
}

impl<'a> SimOptions<'a> {
    pub fn new() -> SimOptions<'a> {
        SimOptions::default()
    }

    /// Attach a fault schedule.
    pub fn faults(mut self, plan: &'a FaultPlan) -> SimOptions<'a> {
        self.faults = Some(plan);
        self
    }

    /// Attach a passive observer.
    pub fn observer(mut self, obs: &'a mut SimObserver) -> SimOptions<'a> {
        self.observer = Some(obs);
        self
    }

    /// Select the solver mode.
    pub fn solver(mut self, mode: SolverMode) -> SimOptions<'a> {
        self.solver = mode;
        self
    }

    /// Collect per-transfer bottleneck attribution (see
    /// [`crate::profile`]).
    pub fn profiled(mut self) -> SimOptions<'a> {
        self.profile = true;
        self
    }
}

/// Final state of one transfer in a [`SimReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStatus {
    /// Delivered at the destination.
    Delivered,
    /// The flow started but a fault on its route or endpoints kept it
    /// from completing before the event queue drained.
    Stalled,
    /// Never started: its dependencies never delivered or its source
    /// node stayed down.
    NotStarted,
}

/// Result of executing a transfer graph: per-transfer records, indexed
/// like the graph. It holds no per-resource counters; the bytes each
/// resource carried follow from the graph's routes and the statuses here
/// (see [`crate::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Delivery time of each transfer (same indexing as the graph);
    /// `f64::INFINITY` for transfers that never delivered.
    pub delivery_time: Vec<f64>,
    /// Time each transfer's flow started moving bytes (injection
    /// complete); `f64::INFINITY` for transfers that never started.
    pub flow_start_time: Vec<f64>,
    /// Cumulative time each transfer spent stalled by faults (frozen
    /// mid-flight or born onto a blocked route). Flows still stalled
    /// when the event queue drained accrue up to `end_time`. All zeros
    /// in a fault-free run.
    pub stall_time: Vec<f64>,
    /// Final status of each transfer. Without faults every entry is
    /// [`TransferStatus::Delivered`].
    pub status: Vec<TransferStatus>,
    /// Time the last transfer was delivered; `f64::INFINITY` if any
    /// transfer never delivered.
    pub makespan: f64,
    /// Simulation clock when the event queue drained. Unlike `makespan`
    /// this stays finite under faults — it is when the run stopped making
    /// progress, the natural epoch for a re-plan.
    pub end_time: f64,
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Bottleneck attribution (only if [`SimOptions::profiled`]).
    pub profile: Option<SimProfile>,
}

impl SimReport {
    /// Aggregate throughput: total bytes over the makespan. Zero when any
    /// transfer never delivered (infinite makespan) — undelivered data
    /// must not be averaged into a finite rate; a warning with the
    /// undelivered count and their cumulative stall time goes to stderr
    /// so the zero is never silent.
    pub fn aggregate_throughput(&self) -> f64 {
        if self.makespan > 0.0 && self.makespan.is_finite() {
            self.total_bytes as f64 / self.makespan
        } else {
            if self.makespan.is_infinite() {
                let undelivered = self.status.len() - self.num_delivered();
                // Name the worst offender, not just the totals: the one
                // undelivered transfer with the most accrued stall is
                // where debugging a wedged exchange starts.
                let offender = match self.worst_undelivered() {
                    Some((i, stall)) => {
                        format!("; top offender: transfer #{i} stalled {stall:.3}s")
                    }
                    None => String::new(),
                };
                eprintln!(
                    "warning: aggregate_throughput is 0 — {undelivered} of {} \
                     transfers undelivered after {:.3}s cumulative stall \
                     (end_time {:.3}s){offender}",
                    self.status.len(),
                    self.total_stall_time(),
                    self.end_time,
                );
            }
            0.0
        }
    }

    /// The undelivered transfer with the most accrued stall time, if
    /// any. Stall times compare with `total_cmp` — like `queue.rs` and
    /// `waterfill.rs` — so a NaN (which orders above every finite
    /// value) deterministically surfaces as the offender instead of
    /// collapsing into a tie that silently keeps an arbitrary earlier
    /// candidate.
    fn worst_undelivered(&self) -> Option<(usize, f64)> {
        self.status
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != TransferStatus::Delivered)
            .max_by(|&(i, _), &(j, _)| self.stall_time[i].total_cmp(&self.stall_time[j]))
            .map(|(i, _)| (i, self.stall_time[i]))
    }

    /// Whether every transfer was delivered.
    pub fn all_delivered(&self) -> bool {
        self.status.iter().all(|&s| s == TransferStatus::Delivered)
    }

    /// Number of delivered transfers.
    pub fn num_delivered(&self) -> usize {
        self.status
            .iter()
            .filter(|&&s| s == TransferStatus::Delivered)
            .count()
    }

    /// Final status of one transfer.
    pub fn status_of(&self, id: TransferId) -> TransferStatus {
        self.status[id.index()]
    }

    /// Delivery time of one transfer.
    pub fn delivered_at(&self, id: TransferId) -> f64 {
        self.delivery_time[id.index()]
    }

    /// Cumulative stall time of one transfer.
    pub fn stall_time_of(&self, id: TransferId) -> f64 {
        self.stall_time[id.index()]
    }

    /// Total stall time across all transfers.
    pub fn total_stall_time(&self) -> f64 {
        self.stall_time.iter().sum()
    }

    /// Latest delivery among a set of transfers (e.g. one logical message
    /// split over several paths).
    pub fn last_delivery(&self, ids: &[TransferId]) -> f64 {
        ids.iter()
            .map(|id| self.delivery_time[id.index()])
            .fold(0.0, f64::max)
    }
}

/// A network: resource capacities plus node count, executing transfer
/// graphs under a [`SimConfig`].
#[derive(Debug, Clone)]
pub struct Simulator {
    capacities: Vec<f64>,
    num_nodes: u32,
    config: SimConfig,
}

impl Simulator {
    /// Build a simulator over `num_nodes` nodes and the given per-resource
    /// capacities (bytes/second).
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn new(num_nodes: u32, capacities: Vec<f64>, config: SimConfig) -> Simulator {
        config.validate();
        Simulator {
            capacities,
            num_nodes,
            config,
        }
    }

    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Execute `graph` under `opts` and return per-transfer timings and
    /// statuses. The event loop does not count bytes per resource;
    /// [`crate::stats`] derives them afterwards from the graph and the
    /// report.
    ///
    /// An absent (or empty) fault plan runs fault-free: no fault state is
    /// allocated and the event sequence (and every float operation) is
    /// identical to the pre-fault engine. With faults, each event applies
    /// at its timestamp — link capacities change and rates re-level at
    /// the fault epoch; flows whose route crosses a dead link or whose
    /// endpoint node is down stall (moving no bytes, consuming no
    /// bandwidth) until the fault heals. Transfers still undelivered when
    /// the event queue drains report `f64::INFINITY` times and a
    /// [`TransferStatus::Stalled`] / [`TransferStatus::NotStarted`]
    /// status instead of panicking.
    ///
    /// An attached [`SimObserver`] is strictly passive: engine events
    /// (re-levels, fault applications, stall/resume transitions,
    /// undelivered transfers) and a per-epoch [`crate::LinkHeatmap`]
    /// accumulate into it, and the returned report is bit-identical to
    /// an unobserved run on the same inputs.
    ///
    /// The [`SolverMode`] never changes results — only how much work each
    /// rate re-level performs (see [`SolverMode::Cascade`]).
    ///
    /// # Panics
    /// Panics if the graph or the plan references a node or resource
    /// outside the network.
    pub fn simulate(&self, graph: &TransferGraph, opts: SimOptions<'_>) -> SimReport {
        let SimOptions {
            faults,
            observer: mut obs,
            solver,
            profile,
        } = opts;
        let n = graph.len();
        let specs = graph.specs();
        let fault_events: &[FaultEvent] = faults.map(|p| p.events()).unwrap_or(&[]);

        // Validate against the *global* universe before any shard
        // routing: a fault naming an unknown resource must panic even
        // though it would route to no shard.
        for (i, s) in specs.iter().enumerate() {
            assert!(
                s.src < self.num_nodes && s.dst < self.num_nodes,
                "transfer {i} references node outside the network"
            );
        }
        for ev in fault_events {
            match ev.kind {
                FaultKind::LinkFactor { resource, .. } => assert!(
                    (resource.0 as usize) < self.capacities.len(),
                    "fault references resource outside the capacity table"
                ),
                FaultKind::NodeDown { node } | FaultKind::NodeUp { node } => assert!(
                    node < self.num_nodes,
                    "fault references node outside the network"
                ),
            }
        }

        match partition(specs, fault_events, &self.capacities, self.num_nodes) {
            PartitionOutcome::Single { faults: filtered } => {
                // One contention component: run the original universe
                // directly (the remap would be the identity) under the
                // filtered fault schedule.
                let input = ComponentInput {
                    specs,
                    caps: &self.capacities,
                    num_nodes: self.num_nodes,
                    config: &self.config,
                    faults: &filtered,
                    solver,
                    profile,
                };
                let run = run_component(&input, obs.as_deref_mut());
                if let Some(o) = obs.as_deref_mut() {
                    o.shards += 1;
                    o.shard_merges.push(ShardMerge {
                        shard: 0,
                        transfers: n as u32,
                        end_time: run.end_time,
                    });
                }
                self.finish_report(
                    graph,
                    run.delivery_time,
                    run.flow_start_time,
                    run.stall_time,
                    run.end_time,
                    run.pstate,
                    1,
                    obs,
                )
            }
            PartitionOutcome::Sharded(plans) => {
                let observing = obs.is_some();
                let mut runs = Vec::with_capacity(plans.len());
                for plan in &plans {
                    let mut local = observing.then(SimObserver::new);
                    let input = ComponentInput {
                        specs: plan.graph.specs(),
                        caps: &plan.caps,
                        num_nodes: plan.nodes.len() as u32,
                        config: &self.config,
                        faults: &plan.faults,
                        solver,
                        profile,
                    };
                    runs.push((run_component(&input, local.as_mut()), local));
                }

                // Merge in canonical shard order (ascending minimum
                // transfer id): scatter per-transfer records back to
                // global indices, close stall books at the global drain,
                // and fold shard observers/profiles with ids remapped.
                let global_end = runs.iter().map(|(r, _)| r.end_time).fold(0.0, f64::max);
                let mut delivery_time = vec![f64::INFINITY; n];
                let mut flow_start_time = vec![f64::INFINITY; n];
                let mut stall_time = vec![0.0f64; n];
                let mut gstate = profile.then(|| ProfileState::new(n));
                let shards = plans.len() as u32;
                let mark = obs.as_deref().map(|o| o.mark());
                for (k, (plan, (run, local))) in plans.iter().zip(runs).enumerate() {
                    for (li, &t) in plan.tids.iter().enumerate() {
                        delivery_time[t as usize] = run.delivery_time[li];
                        flow_start_time[t as usize] = run.flow_start_time[li];
                        stall_time[t as usize] = run.stall_time[li];
                    }
                    // A flow still stalled when its shard drained keeps
                    // accruing until the *global* drain, exactly as it
                    // did when every component shared one event loop.
                    for &lt in &run.stalled_at_drain {
                        stall_time[plan.tids[lt as usize] as usize] += global_end - run.end_time;
                    }
                    if let (Some(g), Some(p)) = (gstate.as_mut(), run.pstate) {
                        g.absorb(p, &plan.tids, &plan.resources);
                    }
                    if let Some(o) = obs.as_deref_mut() {
                        o.shards += 1;
                        o.shard_merges.push(ShardMerge {
                            shard: k as u32,
                            transfers: plan.tids.len() as u32,
                            end_time: run.end_time,
                        });
                        if let Some(local) = local {
                            o.absorb_shard(local, &plan.tids, &plan.resources);
                        }
                    }
                }
                if let (Some(o), Some(mark)) = (obs.as_deref_mut(), mark) {
                    o.seal_merge(mark);
                }
                self.finish_report(
                    graph,
                    delivery_time,
                    flow_start_time,
                    stall_time,
                    global_end,
                    gstate,
                    shards,
                    obs,
                )
            }
        }
    }

    /// Common tail of both execution paths: derive statuses, fold the
    /// undelivered count into the observer, decode the profile, and
    /// assemble the report.
    #[allow(clippy::too_many_arguments)]
    fn finish_report(
        &self,
        graph: &TransferGraph,
        delivery_time: Vec<f64>,
        flow_start_time: Vec<f64>,
        stall_time: Vec<f64>,
        end_time: f64,
        pstate: Option<ProfileState>,
        shards: u32,
        obs: Option<&mut SimObserver>,
    ) -> SimReport {
        let n = graph.len();
        let status: Vec<TransferStatus> = (0..n)
            .map(|i| {
                if delivery_time[i].is_finite() {
                    TransferStatus::Delivered
                } else if flow_start_time[i].is_finite() {
                    TransferStatus::Stalled
                } else {
                    TransferStatus::NotStarted
                }
            })
            .collect();
        if let Some(o) = obs {
            o.transfers_undelivered += status
                .iter()
                .filter(|&&s| s != TransferStatus::Delivered)
                .count() as u64;
        }
        let makespan = delivery_time.iter().copied().fold(0.0, f64::max);
        let profile = pstate.map(|ps| {
            ps.finish(
                &delivery_time,
                &flow_start_time,
                &stall_time,
                end_time,
                shards,
            )
        });
        SimReport {
            delivery_time,
            flow_start_time,
            stall_time,
            status,
            makespan,
            end_time,
            total_bytes: graph.total_bytes(),
            profile,
        }
    }
}

/// Everything one contention component's event loop needs, with ids in
/// the component's own (possibly remapped) universe.
struct ComponentInput<'a> {
    specs: &'a [TransferSpec],
    caps: &'a [f64],
    num_nodes: u32,
    config: &'a SimConfig,
    faults: &'a [FaultEvent],
    solver: SolverMode,
    profile: bool,
}

/// One component's raw results, in local ids, books closed at the
/// component's own drain time. The merge layer scatters these back to
/// global indices and extends still-stalled flows to the global drain.
struct ComponentRun {
    delivery_time: Vec<f64>,
    flow_start_time: Vec<f64>,
    stall_time: Vec<f64>,
    /// Local tids still stalled when this component's queue drained.
    stalled_at_drain: Vec<u32>,
    end_time: f64,
    pstate: Option<ProfileState>,
}

/// The discrete-event loop over one contention component (the whole
/// graph when it forms a single component). Sharding changes *which*
/// transfers share a loop, never the arithmetic inside one — this body
/// performs the same float operations on a component whether it runs
/// alone or as one shard of many, which is where the engine's
/// bit-determinism comes from.
fn run_component(input: &ComponentInput<'_>, mut obs: Option<&mut SimObserver>) -> ComponentRun {
    let ComponentInput {
        specs,
        caps,
        num_nodes,
        config,
        faults: fault_events,
        solver,
        profile,
    } = *input;
    let n = specs.len();
    let have_faults = !fault_events.is_empty();

    // Dependency bookkeeping.
    let mut remaining_deps: Vec<u32> = specs.iter().map(|s| s.deps.len() as u32).collect();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, s) in specs.iter().enumerate() {
        for d in &s.deps {
            children[d.index()].push(i as u32);
        }
    }

    let mut q = EventQueue::new();

    // Fault schedule first: at equal timestamps a fault applies before
    // any flow event (lower sequence numbers win ties).
    for (i, ev) in fault_events.iter().enumerate() {
        q.push(ev.time, Event::Fault(i as u32));
    }

    // Seed: transfers with no dependencies become ready at start_at +
    // extra_delay.
    for (i, s) in specs.iter().enumerate() {
        if s.deps.is_empty() {
            let t = s.start_at.max(s.extra_delay);
            q.push(t, Event::Ready(i as u32));
        }
    }

    // Fault state, allocated only when a plan is present.
    let mut fstate: Option<FaultState> = have_faults.then(|| FaultState::new(caps, num_nodes));

    // Per-node injection CPU.
    let mut cpu_queue: Vec<std::collections::VecDeque<u32>> =
        vec![std::collections::VecDeque::new(); num_nodes as usize];
    let mut cpu_busy: Vec<bool> = vec![false; num_nodes as usize];

    // Active/stalled flows and fair-share machinery.
    let mut flows = FlowSet::new(n);
    let mut leveler = Leveler::new(specs, caps.len(), config, solver);
    let mut rates_dirty = false;
    let mut epoch: u64 = 0;

    let mut delivery_time = vec![f64::INFINITY; n];
    let mut flow_start_time = vec![f64::INFINITY; n];
    let mut delivered_count: usize = 0;
    // Bottleneck-attribution accumulator. Strictly passive, like the
    // observer: it reads `dt` and engine state but never feeds a
    // float back into the simulation.
    let mut pstate: Option<ProfileState> = profile.then(|| ProfileState::new(n));
    // Heatmap sampling scratch, reused across epochs: a dense per-
    // resource accumulator plus the list of touched indices, drained
    // into a sparse sorted sample at each boundary.
    let mut heat_scratch: Vec<f64> = if obs.is_some() {
        vec![0.0; caps.len()]
    } else {
        Vec::new()
    };
    let mut heat_touched: Vec<u32> = Vec::new();

    let mut now = 0.0f64;

    while let Some(entry) = q.pop() {
        if let Some(o) = obs.as_deref_mut() {
            o.events_processed += 1;
        }
        // Advance the fluid state to the event time.
        let dt = entry.time - now;
        debug_assert!(dt >= -1e-12, "time went backwards: {dt}");
        if dt > 0.0 {
            debug_assert!(!rates_dirty, "advancing with stale rates");
            for f in &mut flows.active {
                f.remaining -= f.rate * dt;
            }
            if let Some(ps) = pstate.as_mut() {
                // Every active flow spent `dt` bound by whatever
                // resource the last re-level named for it (rates are
                // never stale across an advance).
                for f in &flows.active {
                    ps.accrue(f.tid, leveler.binding_of(f.tid), dt);
                }
            }
            now = entry.time;
        }

        match entry.event {
            Event::Ready(tid) => {
                if let Some(ps) = pstate.as_mut() {
                    ps.note_ready(tid, now);
                }
                let node = specs[tid as usize].src as usize;
                if fstate.as_ref().is_some_and(|fs| fs.node_down[node]) {
                    // Source is down: park until the node recovers.
                    fstate.as_mut().unwrap().parked[node].push(tid);
                } else if cpu_busy[node] {
                    cpu_queue[node].push_back(tid);
                } else {
                    cpu_busy[node] = true;
                    q.push(now + config.send_overhead, Event::InjectionDone(tid));
                }
            }
            Event::InjectionDone(tid) => {
                let spec = &specs[tid as usize];
                let node = spec.src as usize;
                // Start the next queued injection on this node (a node
                // that went down mid-injection resumes its queue on
                // recovery instead).
                if fstate.as_ref().is_some_and(|fs| fs.node_down[node]) {
                    cpu_busy[node] = false;
                } else if let Some(next) = cpu_queue[node].pop_front() {
                    q.push(now + config.send_overhead, Event::InjectionDone(next));
                } else {
                    cpu_busy[node] = false;
                }
                flow_start_time[tid as usize] = now;
                if spec.bytes == 0 {
                    // Pure synchronization edge: deliver after latency.
                    if let Some(ps) = pstate.as_mut() {
                        ps.note_drained(tid, now);
                    }
                    let lat = spec.route.len() as f64 * config.hop_latency + config.recv_overhead;
                    q.push(now + lat, Event::Delivered(tid));
                } else if fstate.as_ref().is_some_and(|fs| fs.is_blocked(spec)) {
                    // Born stalled: wait for the fault to heal.
                    if let Some(o) = obs.as_deref_mut() {
                        o.stalls.push((now, tid));
                    }
                    flows.stall_new(tid, spec.bytes as f64, now);
                } else {
                    let at = flows.activate(tid, spec.bytes as f64);
                    leveler.note_join(tid, at);
                    rates_dirty = true;
                }
            }
            // Note: a stale FlowCheck (epoch mismatch) must fall through
            // to the recompute block below, not `continue`, or pending
            // dirty rates would never be refreshed.
            Event::FlowCheck { epoch: e } => {
                if e == epoch {
                    // Complete every flow that has drained.
                    let mut completed_any = false;
                    let mut i = 0;
                    while i < flows.active.len() {
                        if flows.active[i].remaining <= BYTE_EPS {
                            let (f, moved) = flows.complete_at(i);
                            if let Some(ps) = pstate.as_mut() {
                                ps.note_drained(f.tid, now);
                            }
                            let spec = &specs[f.tid as usize];
                            leveler.note_leave(f.tid);
                            if let Some(m) = moved {
                                leveler.note_moved(m, i);
                            }
                            let lat =
                                spec.route.len() as f64 * config.hop_latency + config.recv_overhead;
                            q.push(now + lat, Event::Delivered(f.tid));
                            rates_dirty = true;
                            completed_any = true;
                        } else {
                            i += 1;
                        }
                    }
                    if !completed_any && !flows.active.is_empty() {
                        // Float noise left the nearest flow fractionally
                        // short; re-arm the check at its true ETA.
                        let next_done = flows
                            .active
                            .iter()
                            .map(|f| now + f.remaining.max(0.0) / f.rate)
                            .fold(f64::INFINITY, f64::min);
                        q.push(next_done, Event::FlowCheck { epoch });
                    }
                }
            }
            Event::Delivered(tid) => {
                delivery_time[tid as usize] = now;
                delivered_count += 1;
                for &child in &children[tid as usize] {
                    remaining_deps[child as usize] -= 1;
                    if remaining_deps[child as usize] == 0 {
                        let cs = &specs[child as usize];
                        let t = (now + cs.extra_delay).max(cs.start_at);
                        q.push(t, Event::Ready(child));
                    }
                }
            }
            Event::Fault(fi) => {
                let fs = fstate.as_mut().expect("fault event without a plan");
                let kind = &fault_events[fi as usize].kind;
                if fs.apply(kind, caps) {
                    leveler.note_caps_changed();
                }
                if let FaultKind::NodeUp { node } = *kind {
                    let ni = node as usize;
                    // Re-ready injections parked while down (in
                    // arrival order: the push seq preserves it).
                    for tid in std::mem::take(&mut fs.parked[ni]) {
                        q.push(now, Event::Ready(tid));
                    }
                    // Resume an injection queue left idle when the
                    // node failed mid-injection.
                    if !cpu_busy[ni] {
                        if let Some(next) = cpu_queue[ni].pop_front() {
                            cpu_busy[ni] = true;
                            q.push(now + config.send_overhead, Event::InjectionDone(next));
                        }
                    }
                }
                if let Some(o) = obs.as_deref_mut() {
                    o.fault_events += 1;
                }
                // Start indices into the observer's stall/resume logs:
                // everything the repartition below appends belongs to
                // this fault epoch's re-level record.
                let (s0, r0) = match obs.as_deref_mut() {
                    Some(o) => (o.stalls.len(), o.resumes.len()),
                    None => (0, 0),
                };
                // Re-partition running vs. stalled flows under the new
                // health state, preserving arrival order (determinism).
                let mut i = 0;
                while i < flows.active.len() {
                    if fs.is_blocked(&specs[flows.active[i].tid as usize]) {
                        let (tid, shifted) = flows.stall_at(i, now);
                        leveler.note_leave(tid);
                        if shifted {
                            leveler.note_shifted();
                        }
                        if let Some(o) = obs.as_deref_mut() {
                            o.stalls.push((now, tid));
                        }
                    } else {
                        i += 1;
                    }
                }
                let mut i = 0;
                while i < flows.stalled.len() {
                    if !fs.is_blocked(&specs[flows.stalled[i].tid as usize]) {
                        let (tid, at) = flows.resume_at(i, now);
                        leveler.note_join(tid, at);
                        if let Some(o) = obs.as_deref_mut() {
                            o.resumes.push((now, tid));
                        }
                    } else {
                        i += 1;
                    }
                }
                if let Some(o) = obs.as_deref_mut() {
                    let stalled = o.stalls[s0..].iter().map(|&(_, t)| t).collect();
                    let resumed = o.resumes[r0..].iter().map(|&(_, t)| t).collect();
                    o.fault_re_levels.push(FaultReLevel {
                        time: now,
                        stalled,
                        resumed,
                    });
                }
                rates_dirty = true;
            }
        }

        // Re-level fair shares once all events at this instant are
        // handled (cheap peek-based batching).
        if rates_dirty && q.is_boundary(now) {
            epoch += 1;
            if let Some(o) = obs.as_deref_mut() {
                // Sample the fluid state at the epoch boundary:
                // remaining bytes of active flows, spread over their
                // routes, kept sparse (sorted by resource id, zero
                // cells omitted). Observer-only work — the report's
                // floats are untouched.
                o.waterfill_runs += 1;
                for f in &flows.active {
                    for r in &specs[f.tid as usize].route {
                        heat_touched.push(r.0);
                        heat_scratch[r.0 as usize] += f.remaining.max(0.0);
                    }
                }
                heat_touched.sort_unstable();
                heat_touched.dedup();
                let bytes_in_flight = heat_touched
                    .iter()
                    .filter_map(|&r| {
                        let v = heat_scratch[r as usize];
                        heat_scratch[r as usize] = 0.0;
                        (v > 0.0).then_some((r, v))
                    })
                    .collect();
                heat_touched.clear();
                o.heatmap.samples.push(HeatmapSample {
                    time: now,
                    epoch,
                    bytes_in_flight,
                });
            }
            if !flows.active.is_empty() {
                // Stalled flows are excluded from the demand set, so no
                // route ever crosses a zero-capacity (dead) resource.
                let eff_caps: &[f64] = match fstate.as_ref() {
                    Some(fs) => &fs.eff_caps,
                    None => caps,
                };
                leveler.level(&mut flows.active, eff_caps);
                if let Some(ps) = pstate.as_mut() {
                    for f in &flows.active {
                        ps.note_binding(f.tid, now, leveler.binding_of(f.tid));
                    }
                }
                let mut next_done = f64::INFINITY;
                for f in &flows.active {
                    let eta = now + (f.remaining.max(0.0) / f.rate);
                    if eta < next_done {
                        next_done = eta;
                    }
                }
                q.push(next_done, Event::FlowCheck { epoch });
            }
            rates_dirty = false;
        }

        // With faults the queue may hold events past the last delivery
        // (recoveries, stale checks); stop once everything arrived.
        if have_faults && delivered_count == n {
            break;
        }
    }

    if !have_faults {
        assert_eq!(
            delivered_count, n,
            "simulation ended with undelivered transfers (dependency deadlock?)"
        );
    }
    if let Some(o) = obs {
        o.waterfill_full_runs += leveler.full_runs;
        o.waterfill_incremental_runs += leveler.incremental_runs;
        o.waterfill_entries += leveler.solved_entries;
        o.waterfill_touched_entries += leveler.touched_entries;
        o.waterfill_passes += leveler.passes;
        o.waterfill_replayed_passes += leveler.replayed_passes;
        o.waterfill_index_visits += leveler.index_visits;
        o.waterfill_log_steps += leveler.log_steps;
    }
    let (stall_time, stalled_at_drain) = flows.close(now);
    ComponentRun {
        delivery_time,
        flow_start_time,
        stall_time,
        stalled_at_drain,
        end_time: now,
        pstate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ResourceId, TransferGraph, TransferSpec};

    /// A config with clean round numbers for hand-computed expectations.
    fn test_config() -> SimConfig {
        SimConfig {
            link_bandwidth: 100.0,
            io_link_bandwidth: 100.0,
            per_flow_cap: 100.0,
            hop_latency: 0.0,
            send_overhead: 1.0,
            recv_overhead: 0.0,
            rma_phase_overhead: 0.0,
            forward_overhead: 0.0,
            contention_penalty: 0.0,
            contention_floor: 1.0,
        }
    }

    fn sim(nodes: u32, caps: Vec<f64>) -> Simulator {
        Simulator::new(nodes, caps, test_config())
    }

    fn run(s: &Simulator, g: &TransferGraph) -> SimReport {
        s.simulate(g, SimOptions::new())
    }

    fn run_with_faults(s: &Simulator, g: &TransferGraph, plan: &FaultPlan) -> SimReport {
        s.simulate(g, SimOptions::new().faults(plan))
    }

    #[test]
    fn single_transfer_timing() {
        // 1000 bytes at 100 B/s over one link, 1 s injection overhead.
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let t = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let rep = run(&s, &g);
        assert!(
            (rep.delivered_at(t) - 11.0).abs() < 1e-9,
            "{}",
            rep.delivered_at(t)
        );
        assert!((rep.flow_start_time[0] - 1.0).abs() < 1e-9);
        assert_eq!(rep.total_bytes, 1000);
        assert_eq!(rep.stall_time, vec![0.0]);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        // Two 1000-byte transfers from different nodes over one shared link.
        let s = sim(3, vec![100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 2, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 1000, vec![ResourceId(0)]));
        let rep = run(&s, &g);
        // Both start at t=1 (different source CPUs), share 100 B/s -> 50 each,
        // finish at 1 + 20 = 21.
        for t in &rep.delivery_time {
            assert!((t - 21.0).abs() < 1e-6, "{t}");
        }
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let s = sim(4, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 2, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 3, 1000, vec![ResourceId(1)]));
        let rep = run(&s, &g);
        for t in &rep.delivery_time {
            assert!((t - 11.0).abs() < 1e-6, "{t}");
        }
    }

    #[test]
    fn injection_serializes_on_one_node() {
        // Two sends from the same node: second flow starts o_s later.
        let s = sim(3, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 100, vec![ResourceId(0)]));
        g.add(TransferSpec::new(0, 2, 100, vec![ResourceId(1)]));
        let rep = run(&s, &g);
        assert!((rep.flow_start_time[0] - 1.0).abs() < 1e-9);
        assert!((rep.flow_start_time[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_are_honored() {
        // b starts only after a is delivered (store-and-forward).
        let s = sim(3, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let b = g.add(
            TransferSpec::new(1, 2, 1000, vec![ResourceId(1)])
                .after(vec![a])
                .with_delay(0.5),
        );
        let rep = run(&s, &g);
        let ta = rep.delivered_at(a);
        assert!((ta - 11.0).abs() < 1e-6);
        // b: ready at 11.5, injected at 12.5, 10 s transfer -> 22.5.
        assert!(
            (rep.delivered_at(b) - 22.5).abs() < 1e-6,
            "{}",
            rep.delivered_at(b)
        );
    }

    #[test]
    fn zero_byte_transfer_is_a_sync_edge() {
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 0, vec![ResourceId(0)]));
        let rep = run(&s, &g);
        // Injected at t=1, no bytes, delivered immediately (lat=0).
        assert!((rep.delivered_at(a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn start_at_delays_a_transfer() {
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 100, vec![ResourceId(0)]).not_before(5.0));
        let rep = run(&s, &g);
        assert!((rep.delivered_at(a) - 7.0).abs() < 1e-9); // 5 + 1 + 1
    }

    #[test]
    fn rate_cap_limits_a_lone_flow() {
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 100, vec![ResourceId(0)]).with_rate_cap(10.0));
        let rep = run(&s, &g);
        assert!((rep.delivered_at(a) - 11.0).abs() < 1e-9); // 1 + 100/10
    }

    #[test]
    fn departing_flow_frees_bandwidth() {
        // Short and long flow share a link; after the short one leaves the
        // long one speeds up. 100 B/s shared.
        let s = sim(3, vec![100.0]);
        let mut g = TransferGraph::new();
        let short = g.add(TransferSpec::new(0, 2, 500, vec![ResourceId(0)]));
        let long = g.add(TransferSpec::new(1, 2, 2000, vec![ResourceId(0)]));
        let rep = run(&s, &g);
        // Both active at t=1 at 50 B/s. Short done at t=11 (500 bytes).
        // Long has 1500 left, now at 100 B/s -> done at 11 + 15 = 26.
        assert!((rep.delivered_at(short) - 11.0).abs() < 1e-6);
        assert!(
            (rep.delivered_at(long) - 26.0).abs() < 1e-6,
            "{}",
            rep.delivered_at(long)
        );
    }

    #[test]
    fn link_stats_conserve_bytes() {
        let s = sim(3, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(
            0,
            2,
            1000,
            vec![ResourceId(0), ResourceId(1)],
        ));
        g.add(TransferSpec::new(1, 2, 500, vec![ResourceId(1)]));
        let rep = run(&s, &g);
        let rb = crate::stats::resource_bytes(&g, &rep, 2);
        assert!((rb[0] - 1000.0).abs() < 1.0, "{}", rb[0]);
        assert!((rb[1] - 1500.0).abs() < 1.0, "{}", rb[1]);
    }

    #[test]
    fn hop_latency_and_recv_overhead_add_to_delivery() {
        let mut cfg = test_config();
        cfg.hop_latency = 0.25;
        cfg.recv_overhead = 0.5;
        let s = Simulator::new(2, vec![100.0, 100.0], cfg);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(
            0,
            1,
            100,
            vec![ResourceId(0), ResourceId(1)],
        ));
        let rep = run(&s, &g);
        // 1 (inject) + 1 (transfer) + 2*0.25 (hops) + 0.5 (recv) = 3.0
        assert!(
            (rep.delivered_at(a) - 3.0).abs() < 1e-9,
            "{}",
            rep.delivered_at(a)
        );
    }

    #[test]
    fn makespan_and_throughput() {
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let rep = run(&s, &g);
        assert!((rep.makespan - 11.0).abs() < 1e-9);
        assert!((rep.aggregate_throughput() - 1000.0 / 11.0).abs() < 1e-6);
    }

    #[test]
    fn empty_graph_runs() {
        let s = sim(1, vec![]);
        let rep = run(&s, &TransferGraph::new());
        assert_eq!(rep.makespan, 0.0);
        assert_eq!(rep.total_bytes, 0);
    }

    #[test]
    fn diamond_dependency_graph() {
        //    a
        //   / \
        //  b   c
        //   \ /
        //    d
        let s = sim(4, vec![100.0; 4]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 100, vec![ResourceId(0)]));
        let b = g.add(TransferSpec::new(1, 2, 100, vec![ResourceId(1)]).after(vec![a]));
        let c = g.add(TransferSpec::new(1, 3, 100, vec![ResourceId(2)]).after(vec![a]));
        let d = g.add(TransferSpec::new(2, 0, 100, vec![ResourceId(3)]).after(vec![b, c]));
        let rep = run(&s, &g);
        let t_d = rep.delivered_at(d);
        assert!(t_d > rep.delivered_at(b) && t_d > rep.delivered_at(c));
        // a: 2.0. b ready 2.0, inject 3.0, done 4.0. c queued behind b's
        // injection: inject at 4.0, done 5.0. d after max(b,c)=5: 7.0.
        assert!((t_d - 7.0).abs() < 1e-6, "{t_d}");
    }

    #[test]
    fn simulate_options_compose() {
        // Faults and an observer are independent options: the observer
        // never changes the faulted report, and the fault does change
        // the plain one.
        let s = sim(3, vec![100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 2, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 700, vec![ResourceId(0)]));
        let plan = FaultPlan::new().degrade_link(3.0, ResourceId(0), 0.5);

        let plain = s.simulate(&g, SimOptions::new());
        let faulted = s.simulate(&g, SimOptions::new().faults(&plan));
        assert_ne!(plain.delivery_time, faulted.delivery_time);

        let mut obs = SimObserver::new();
        let observed = s.simulate(&g, SimOptions::new().faults(&plan).observer(&mut obs));
        assert_eq!(observed, faulted);
        assert_eq!(obs.fault_events, 1);
    }

    // ---- fault injection ----

    use crate::fault::FaultPlan;

    #[test]
    fn empty_fault_plan_matches_plain_run() {
        let s = sim(3, vec![100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 2, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 700, vec![ResourceId(0)]));
        let a = run(&s, &g);
        let b = run_with_faults(&s, &g, &FaultPlan::new());
        assert_eq!(a.delivery_time, b.delivery_time);
        assert_eq!(a.flow_start_time, b.flow_start_time);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.status, b.status);
    }

    #[test]
    fn dead_link_stalls_the_flow() {
        // 1000 bytes at 100 B/s, injected at t=1; the link dies at t=6
        // (500 bytes moved) and never recovers.
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let t = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new().fail_link(6.0, ResourceId(0));
        let rep = run_with_faults(&s, &g, &plan);
        assert_eq!(rep.status_of(t), TransferStatus::Stalled);
        assert_eq!(rep.delivered_at(t), f64::INFINITY);
        assert_eq!(rep.makespan, f64::INFINITY);
        assert_eq!(rep.aggregate_throughput(), 0.0);
        assert!(!rep.all_delivered());
        // The queue drains at the (stale) completion check armed before
        // the fault; end_time is finite and past the fault instant.
        assert!(
            rep.end_time.is_finite() && rep.end_time >= 6.0,
            "{}",
            rep.end_time
        );
        // The flow stalls at t=6 and never resumes: stall time accrues
        // up to end_time.
        assert!((rep.stall_time_of(t) - (rep.end_time - 6.0)).abs() < 1e-9);
    }

    #[test]
    fn link_recovery_resumes_the_flow() {
        // Dies at t=6 with 500 bytes left, heals at t=16: delivery at
        // 16 + 500/100 = 21.
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let t = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new()
            .fail_link(6.0, ResourceId(0))
            .restore_link(16.0, ResourceId(0));
        let rep = run_with_faults(&s, &g, &plan);
        assert_eq!(rep.status_of(t), TransferStatus::Delivered);
        assert!(
            (rep.delivered_at(t) - 21.0).abs() < 1e-6,
            "{}",
            rep.delivered_at(t)
        );
        // Stalled over [6, 16].
        assert!(
            (rep.stall_time_of(t) - 10.0).abs() < 1e-9,
            "{}",
            rep.stall_time_of(t)
        );
        assert!((rep.total_stall_time() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_link_slows_the_flow() {
        // Halved at t=6 with 500 bytes left: 500/50 more seconds -> 16.
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let t = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new().degrade_link(6.0, ResourceId(0), 0.5);
        let rep = run_with_faults(&s, &g, &plan);
        assert!(
            (rep.delivered_at(t) - 16.0).abs() < 1e-6,
            "{}",
            rep.delivered_at(t)
        );
        // Degraded, not blocked: no stall time.
        assert_eq!(rep.stall_time_of(t), 0.0);
    }

    #[test]
    fn fault_on_unused_link_changes_nothing() {
        let s = sim(2, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let t = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new().fail_link(3.0, ResourceId(1));
        let rep = run_with_faults(&s, &g, &plan);
        assert!((rep.delivered_at(t) - 11.0).abs() < 1e-9);
        assert!(rep.all_delivered());
    }

    #[test]
    fn down_node_parks_injection_until_recovery() {
        // Node 0 down over [0, 5]: the transfer parks at Ready, resumes
        // at t=5, injects until 6, 10 s of bytes -> delivered at 16.
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let t = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new().fail_node(0.0, 0).restore_node(5.0, 0);
        let rep = run_with_faults(&s, &g, &plan);
        assert!(
            (rep.delivered_at(t) - 16.0).abs() < 1e-6,
            "{}",
            rep.delivered_at(t)
        );
        // Parked before injection is not a stall: the flow never existed.
        assert_eq!(rep.stall_time_of(t), 0.0);
    }

    #[test]
    fn down_destination_stalls_started_flow() {
        let s = sim(2, vec![100.0]);
        let mut g = TransferGraph::new();
        let t = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new().fail_node(6.0, 1);
        let rep = run_with_faults(&s, &g, &plan);
        assert_eq!(rep.status_of(t), TransferStatus::Stalled);
        assert!(rep.flow_start_time[t.index()].is_finite());
        assert!(rep.stall_time_of(t) > 0.0);
    }

    #[test]
    fn never_started_transfer_reports_not_started() {
        // b depends on a; a's link dies mid-flight, so b never readies.
        let s = sim(3, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let b = g.add(TransferSpec::new(1, 2, 1000, vec![ResourceId(1)]).after(vec![a]));
        let plan = FaultPlan::new().fail_link(6.0, ResourceId(0));
        let rep = run_with_faults(&s, &g, &plan);
        assert_eq!(rep.status_of(a), TransferStatus::Stalled);
        assert_eq!(rep.status_of(b), TransferStatus::NotStarted);
        assert_eq!(rep.flow_start_time[b.index()], f64::INFINITY);
        assert_eq!(rep.num_delivered(), 0);
        assert_eq!(rep.stall_time_of(b), 0.0);
    }

    #[test]
    fn surviving_flow_proceeds_past_a_fault() {
        // Two disjoint routes; killing route 0 leaves flow 1 untouched,
        // and flow 1's completion frees nothing for the stalled flow.
        let s = sim(4, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let b = g.add(TransferSpec::new(2, 3, 1000, vec![ResourceId(1)]));
        let plan = FaultPlan::new().fail_link(2.0, ResourceId(0));
        let rep = run_with_faults(&s, &g, &plan);
        assert_eq!(rep.status_of(a), TransferStatus::Stalled);
        assert_eq!(rep.status_of(b), TransferStatus::Delivered);
        assert!((rep.delivered_at(b) - 11.0).abs() < 1e-6);
        assert_eq!(rep.num_delivered(), 1);
    }

    #[test]
    fn stalled_flow_releases_bandwidth_to_sharers() {
        // Two flows share link 0. Flow a also crosses link 1, which dies
        // at t=6: flow b then runs alone at full rate.
        // Both at 50 B/s over [1, 6] (250 moved each); b's remaining 750
        // at 100 B/s -> delivered at 6 + 7.5 = 13.5.
        let s = sim(3, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(
            0,
            2,
            1000,
            vec![ResourceId(0), ResourceId(1)],
        ));
        let b = g.add(TransferSpec::new(1, 2, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new().fail_link(6.0, ResourceId(1));
        let rep = run_with_faults(&s, &g, &plan);
        assert_eq!(rep.status_of(a), TransferStatus::Stalled);
        assert!(
            (rep.delivered_at(b) - 13.5).abs() < 1e-6,
            "{}",
            rep.delivered_at(b)
        );
    }

    #[test]
    fn full_and_incremental_solvers_agree_bit_for_bit() {
        // A contended fan-in with a mid-run fault: warm cascade solves
        // and a cold restart after each capacity change, pinned against
        // the full solver.
        let s = sim(6, vec![100.0, 100.0, 80.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(
            0,
            5,
            1000,
            vec![ResourceId(0), ResourceId(2)],
        ));
        g.add(TransferSpec::new(1, 5, 700, vec![ResourceId(0)]));
        g.add(TransferSpec::new(
            2,
            5,
            900,
            vec![ResourceId(1), ResourceId(2)],
        ));
        g.add(TransferSpec::new(3, 5, 400, vec![ResourceId(1)]).after(vec![a]));
        let plan = FaultPlan::new()
            .degrade_link(4.0, ResourceId(2), 0.5)
            .restore_link(9.0, ResourceId(2));

        let full = s.simulate(&g, SimOptions::new().faults(&plan).solver(SolverMode::Full));
        let inc = s.simulate(
            &g,
            SimOptions::new().faults(&plan).solver(SolverMode::Cascade),
        );
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect() };
        assert_eq!(bits(&full.delivery_time), bits(&inc.delivery_time));
        assert_eq!(bits(&full.flow_start_time), bits(&inc.flow_start_time));
        assert_eq!(bits(&full.stall_time), bits(&inc.stall_time));
        assert_eq!(full.makespan.to_bits(), inc.makespan.to_bits());
        assert_eq!(full.status, inc.status);
    }

    #[test]
    fn incremental_solver_skips_full_re_levels() {
        // One source node fanning out over 16 private links (a single
        // contention component via the shared injection CPU): with no
        // capacity change only the first solve is cold, and every later
        // re-level is a warm cascade solve.
        let s = Simulator::new(17, vec![100.0; 16], test_config());
        let mut g = TransferGraph::new();
        for p in 0..16u32 {
            g.add(TransferSpec::new(
                0,
                p + 1,
                1000 * (p as u64 + 1),
                vec![ResourceId(p)],
            ));
        }
        let mut o = SimObserver::new();
        let rep = s.simulate(&g, SimOptions::new().observer(&mut o));
        assert!(rep.all_delivered());
        assert_eq!(o.waterfill_full_runs, 1);
        assert!(
            o.waterfill_incremental_runs > o.waterfill_full_runs,
            "incremental {} vs full {}",
            o.waterfill_incremental_runs,
            o.waterfill_full_runs
        );
        // A join on a private link touches that link alone.
        assert!(o.waterfill_touched_entries < o.waterfill_entries);
        assert!(o.events_processed > 0);
        // The shared source keeps this a single shard.
        assert_eq!(o.shards, 1);
    }

    #[test]
    fn work_counters_count_solved_and_touched_entries() {
        // Short and long flow on one link: the joint join re-levels two
        // one-hop flows, the short one's departure re-levels one. Full
        // mode solves cold twice; the default solves cold, then warm.
        let s = sim(3, vec![100.0]);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 2, 500, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 2000, vec![ResourceId(0)]));
        for (mode, runs) in [(SolverMode::Full, (2, 0)), (SolverMode::Cascade, (1, 1))] {
            let mut o = SimObserver::new();
            s.simulate(&g, SimOptions::new().solver(mode).observer(&mut o));
            assert_eq!(o.waterfill_entries, 3, "{mode:?}");
            assert_eq!(o.waterfill_touched_entries, 3, "{mode:?}");
            assert_eq!(
                (o.waterfill_full_runs, o.waterfill_incremental_runs),
                runs,
                "{mode:?}"
            );
            // One pass each; the second solve's only logged pass froze
            // the departed flow, so it is skipped, and the survivor is
            // re-frozen from link 0, which its departure reopened. Either
            // way every entry is touched.
            assert_eq!(o.waterfill_passes, 2, "{mode:?}");
            assert_eq!(o.waterfill_replayed_passes, 0, "{mode:?}");
        }
    }

    #[test]
    fn warm_full_solves_replay_on_a_sparse_exchange() {
        // A 16-node ring exchange: every node sends two messages of
        // mixed sizes 1-5 hops clockwise, so routes overlap into one
        // contention component and consecutive solves differ by a flow
        // or two. Every solve after the first is a warm cascade solve: it
        // pops most passes as logged and touches only the entries around
        // the links a changed flow reaches.
        let nodes = 16u32;
        let s = sim(nodes, vec![100.0; nodes as usize]);
        let mut g = TransferGraph::new();
        let mut x = 0x2545_F491u32;
        let mut rnd = |m: u32| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x % m
        };
        for src in 0..nodes {
            for _ in 0..2 {
                let hops = 1 + rnd(5);
                let route = (0..hops).map(|h| ResourceId((src + h) % nodes)).collect();
                let bytes = 1_000 + 250 * rnd(16) as u64;
                g.add(TransferSpec::new(src, (src + hops) % nodes, bytes, route));
            }
        }
        let run = |mode: SolverMode| {
            let mut o = SimObserver::new();
            let r = s.simulate(&g, SimOptions::new().solver(mode).observer(&mut o));
            (r, o)
        };
        let (cold, cold_obs) = run(SolverMode::Full);
        let (warm, warm_obs) = run(SolverMode::default());
        assert_eq!(cold, warm);
        assert_eq!(
            cold_obs.waterfill_replayed_passes, 0,
            "Full mode solves cold"
        );
        assert_eq!(cold_obs.waterfill_incremental_runs, 0);
        assert_eq!(warm_obs.waterfill_full_runs, 1);
        assert_eq!(
            warm_obs.waterfill_incremental_runs + 1,
            cold_obs.waterfill_full_runs
        );
        assert!(
            warm_obs.waterfill_replayed_passes > 0,
            "{} of {} passes replayed",
            warm_obs.waterfill_replayed_passes,
            warm_obs.waterfill_passes
        );
        assert_eq!(
            cold_obs.waterfill_touched_entries,
            cold_obs.waterfill_entries
        );
        // A 16-link ring is dense: a change still reaches about a third of
        // it (574 of 1,681 entries). Sparse exchanges at paper scale
        // touch 1-4% (DESIGN §16).
        assert!(
            2 * warm_obs.waterfill_touched_entries < warm_obs.waterfill_entries,
            "{} of {} entries touched",
            warm_obs.waterfill_touched_entries,
            warm_obs.waterfill_entries
        );
    }

    #[test]
    fn observed_run_matches_unobserved_bit_for_bit() {
        use crate::obs::SimObserver;
        let s = sim(3, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(
            0,
            2,
            1000,
            vec![ResourceId(0), ResourceId(1)],
        ));
        g.add(TransferSpec::new(1, 2, 1000, vec![ResourceId(0)]));
        let plan = FaultPlan::new()
            .fail_link(6.0, ResourceId(1))
            .restore_link(9.0, ResourceId(1));

        let plain = run_with_faults(&s, &g, &plan);
        let mut obs = SimObserver::new();
        let watched = s.simulate(&g, SimOptions::new().faults(&plan).observer(&mut obs));

        let bits = |r: &SimReport| -> Vec<u64> {
            r.delivery_time
                .iter()
                .chain(r.flow_start_time.iter())
                .chain(r.stall_time.iter())
                .chain([r.makespan, r.end_time].iter())
                .map(|f| f.to_bits())
                .collect()
        };
        assert_eq!(bits(&plain), bits(&watched));
        assert_eq!(plain.status, watched.status);

        assert!(obs.waterfill_runs > 0);
        assert_eq!(obs.fault_events, 2);
        assert_eq!(obs.stalls, vec![(6.0, a.index() as u32)]);
        assert_eq!(obs.resumes, vec![(9.0, a.index() as u32)]);
        assert_eq!(obs.transfers_undelivered, 0);
        assert!(!obs.heatmap.is_empty());
        // Link 0 carried both flows at the first epoch: 2000 bytes in flight
        // (samples are sparse `(resource, bytes)` pairs).
        assert_eq!(obs.heatmap.samples[0].bytes_in_flight[0], (0, 2000.0));
        // Both flows share link 0, so the whole graph is one component.
        assert_eq!(obs.shards, 1);
        assert_eq!(obs.shard_merges.len(), 1);
        assert_eq!(obs.shard_merges[0].transfers, 2);
        // Re-level counters partition the solver work.
        assert!(obs.waterfill_full_runs + obs.waterfill_incremental_runs > 0);
    }

    #[test]
    fn observer_counts_undelivered_transfers() {
        use crate::obs::SimObserver;
        let s = sim(3, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 1000, vec![ResourceId(1)]).after(vec![a]));
        let plan = FaultPlan::new().fail_link(6.0, ResourceId(0));
        let mut obs = SimObserver::new();
        let rep = s.simulate(&g, SimOptions::new().faults(&plan).observer(&mut obs));
        assert!(!rep.all_delivered());
        assert_eq!(obs.transfers_undelivered, 2); // one stalled, one never started
        assert_eq!(obs.stalls.len(), 1);
        assert!(obs.resumes.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the capacity table")]
    fn fault_on_unknown_resource_panics() {
        let s = sim(2, vec![100.0]);
        let g = TransferGraph::new();
        let plan = FaultPlan::new().fail_link(1.0, ResourceId(9));
        run_with_faults(&s, &g, &plan);
    }

    // ---- NaN ordering regression ----

    #[test]
    fn worst_offender_orders_nan_stall_deterministically() {
        // A NaN stall time must surface as the worst offender (total_cmp
        // puts NaN above every finite value). The old partial_cmp +
        // unwrap_or(Equal) comparison collapsed NaN comparisons into
        // ties, silently keeping whichever candidate the fold visited
        // last — here index 2.
        let rep = SimReport {
            delivery_time: vec![f64::INFINITY; 3],
            flow_start_time: vec![1.0; 3],
            stall_time: vec![1.0, f64::NAN, 5.0],
            status: vec![TransferStatus::Stalled; 3],
            makespan: f64::INFINITY,
            end_time: 9.0,
            total_bytes: 3000,
            profile: None,
        };
        let (idx, stall) = rep.worst_undelivered().unwrap();
        assert_eq!(idx, 1);
        assert!(stall.is_nan());
        assert_eq!(rep.aggregate_throughput(), 0.0);
    }

    // ---- component sharding ----

    /// Three disjoint two-flow components plus a fault on one of them:
    /// exercises shard discovery, fault routing and merge.
    fn sharded_fixture() -> (Simulator, TransferGraph, FaultPlan) {
        let s = sim(12, vec![100.0; 6]);
        let mut g = TransferGraph::new();
        for c in 0..3u32 {
            let base = c * 4;
            let a = g.add(TransferSpec::new(
                base,
                base + 1,
                1000 + c as u64 * 300,
                vec![ResourceId(c * 2)],
            ));
            g.add(
                TransferSpec::new(
                    base + 2,
                    base + 3,
                    700,
                    vec![ResourceId(c * 2), ResourceId(c * 2 + 1)],
                )
                .after(vec![a]),
            );
        }
        let plan = FaultPlan::new()
            .fail_link(6.0, ResourceId(2))
            .restore_link(12.0, ResourceId(2));
        (s, g, plan)
    }

    #[test]
    fn disjoint_components_execute_as_shards() {
        let (s, g, plan) = sharded_fixture();
        let bare = s.simulate(&g, SimOptions::new().faults(&plan));
        let mut o = SimObserver::new();
        let rep = s.simulate(
            &g,
            SimOptions::new().faults(&plan).observer(&mut o).profiled(),
        );
        assert!(rep.all_delivered());
        // Observing and profiling stay passive across the merge: the
        // report matches the bare run apart from the profile itself.
        assert!(bare.profile.is_none());
        assert_eq!(
            SimReport {
                profile: None,
                ..rep.clone()
            },
            bare
        );
        assert_eq!(rep.profile.as_ref().unwrap().shards, 3);
        assert_eq!(o.shards, 3);
        assert_eq!(o.shard_merges.len(), 3);
        // Merged in canonical order: ascending minimum transfer id.
        assert_eq!(
            o.shard_merges.iter().map(|m| m.shard).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(o.shard_merges.iter().all(|m| m.transfers == 2));
        // Shard k holds transfers 2k and 2k+1; it drains when its
        // dependent transfer delivers.
        for (k, m) in o.shard_merges.iter().enumerate() {
            assert_eq!(m.end_time.to_bits(), rep.delivery_time[2 * k + 1].to_bits());
        }
        let max_shard_end = o
            .shard_merges
            .iter()
            .map(|m| m.end_time)
            .fold(0.0, f64::max);
        assert_eq!(max_shard_end.to_bits(), rep.end_time.to_bits());
    }

    #[test]
    fn sharded_faults_route_to_their_component() {
        // The fault hits resource 2 — component 1 only. Component 1's
        // flows stall over [6, 12]; the other components are untouched.
        let (s, g, plan) = sharded_fixture();
        let rep = run_with_faults(&s, &g, &plan);
        assert!(rep.all_delivered());
        assert!(
            (rep.stall_time[2] - 6.0).abs() < 1e-9,
            "{}",
            rep.stall_time[2]
        );
        for i in [0usize, 1, 4, 5] {
            assert_eq!(rep.stall_time[i], 0.0, "transfer {i}");
        }
    }

    #[test]
    fn shard_stall_books_close_at_the_global_drain() {
        // Two disjoint flows; one's link dies and never recovers, the
        // other finishes much later. The stalled flow must accrue stall
        // time up to the *global* drain, exactly as the old single
        // event loop reported it.
        let s = sim(4, vec![100.0, 100.0]);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        let b = g.add(TransferSpec::new(2, 3, 40_000, vec![ResourceId(1)]));
        let plan = FaultPlan::new().fail_link(6.0, ResourceId(0));
        let rep = run_with_faults(&s, &g, &plan);
        assert_eq!(rep.status_of(a), TransferStatus::Stalled);
        assert_eq!(rep.status_of(b), TransferStatus::Delivered);
        // b runs alone: injected at 1, 40_000 bytes at 100 B/s -> 401.
        assert!((rep.delivered_at(b) - 401.0).abs() < 1e-6);
        assert!(rep.end_time >= 401.0);
        assert!(
            (rep.stall_time_of(a) - (rep.end_time - 6.0)).abs() < 1e-9,
            "stall {} vs end {}",
            rep.stall_time_of(a),
            rep.end_time
        );
    }
}
