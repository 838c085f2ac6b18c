//! Rate leveling: incremental max-min re-levels over the dirty closure.
//!
//! The max-min fair allocation decomposes over connected components of
//! the bipartite flow↔resource contention graph: a flow's rate depends
//! only on the flows it (transitively) shares a resource with. Sparse
//! transfer patterns keep those components small, so most events — one
//! flow arriving, one finishing, one link changing capacity — perturb a
//! tiny neighborhood while the classical engine re-leveled *every*
//! active flow.
//!
//! The [`Leveler`] maintains per-resource membership lists (which active
//! flows cross each resource) and a dirty set seeded by the events since
//! the last re-level: joined flows, the routes of joined/departed flows,
//! and fault-touched resources. At the epoch boundary it closes the
//! seeds transitively (any flow on a dirty resource is dirty; any
//! resource on a dirty flow's route is dirty) and re-solves the
//! waterfill over just the dirty flows. Because the closure is exactly a
//! union of contention components — and [`crate::Waterfill`] is a pure
//! function of its demand set, including share-tie resolution — the
//! sub-solve returns rates bit-identical to the same flows' rates in a
//! full solve. Untouched flows keep their previous (equally identical)
//! rates.
//!
//! When the dirty closure exceeds `full_fraction` of the active set the
//! leveler falls back to a full solve: the BFS plus sub-demand
//! bookkeeping would cost more than it saves, and the fallback keeps the
//! worst case at the classical engine's cost. The closure only grows as
//! the BFS runs, so the scan stops the moment it crosses the threshold
//! (*early fallback*): the decision is the one the completed closure
//! would reach, without scanning the rest of a closure that covers most
//! of the active set — the common case on random sparse exchanges. The
//! threshold is a pure performance knob — results are identical at any
//! value, which `tests/incremental.rs` pins.
//!
//! A full solve is a cascade re-level ([`Cascade`]): it keeps the
//! previous full solve's pass log and per-flow freeze records, and
//! re-solves only the links a joined, departed or re-solved flow
//! reaches, bit-identically. The membership lists double as its
//! link → flow adjacency. A capacity change drops its state; an
//! incremental sub-solve drops only the records of the flows it
//! re-solved. [`SolverMode::Full`] always solves cold, as the oracle
//! `tests/warm_start.rs` compares against.

use crate::config::SimConfig;
use crate::graph::{ResourceId, TransferSpec};
use crate::waterfill::{Cascade, Waterfill};

use super::flow_state::ActiveFlow;
use super::SolverMode;

/// The run's transfers by id: each one's route and rate cap.
#[derive(Debug, Clone, Copy)]
struct Demands<'a> {
    specs: &'a [TransferSpec],
    per_flow_cap: f64,
}

impl<'a> Demands<'a> {
    fn route(self, tid: u32) -> &'a [ResourceId] {
        &self.specs[tid as usize].route
    }

    fn cap(self, tid: u32) -> f64 {
        self.specs[tid as usize]
            .rate_cap
            .unwrap_or(self.per_flow_cap)
    }
}

#[derive(Debug)]
pub(crate) struct Leveler<'a> {
    /// The cold solver: incremental sub-solves and `Full` mode.
    wf: Waterfill,
    /// The persistent full-solve state of the default mode.
    cascade: Cascade,
    demands: Demands<'a>,
    /// The config's `(contention_penalty, contention_floor)`.
    contention: (f64, f64),
    /// Always run full solves (SolverMode::Full).
    full_only: bool,
    /// Dirty-closure size (as a fraction of the active set) above which
    /// an incremental re-level falls back to a full solve.
    full_fraction: f64,
    /// Per-resource membership: the active transfer ids crossing each
    /// resource (with multiplicity, mirroring route multiplicity).
    res_flows: Vec<Vec<u32>>,
    res_dirty: Vec<bool>,
    dirty_res: Vec<u32>,
    /// Per-transfer dirty marks (indexed by transfer id).
    flow_dirty: Vec<bool>,
    dirty_flows: Vec<u32>,
    /// Per-transfer active-set membership. A flow can join and leave
    /// within one epoch; it stays marked dirty but is not in the demand
    /// set, so it must not count toward the closure size.
    is_active: Vec<bool>,
    /// Active-list indices of dirty flows, rebuilt each re-level.
    sub_idx: Vec<u32>,
    /// Per-transfer binding resource (the waterfill resource whose
    /// residual fixed the flow's rate; `CAP_BINDING` = its own cap) from
    /// the most recent solve that included the flow. Untouched flows
    /// keep their previous binding for the same reason they keep their
    /// previous rate: their contention component did not change.
    binding: Vec<u32>,
    /// Full re-levels performed (entire active set).
    pub full_runs: u64,
    /// Incremental re-levels performed (dirty closure only).
    pub incremental_runs: u64,
    /// Flow–resource entries (route hops) of the active set.
    active_entries: u64,
    /// Flow–resource entries in every solved demand set.
    pub solved_entries: u64,
    /// Flow–resource entries the solves actually read or wrote: all of
    /// a cold solve's, a cascade solve's share of them.
    pub touched_entries: u64,
    /// Flow–resource entries the dirty-closure scans visited.
    pub closure_entries: u64,
    /// Progressive-filling passes over every solve, and how many of them
    /// a cascade solve popped as logged.
    pub passes: u64,
    pub replayed_passes: u64,
}

impl<'a> Leveler<'a> {
    pub fn new(
        specs: &'a [TransferSpec],
        num_resources: usize,
        config: &SimConfig,
        mode: SolverMode,
    ) -> Leveler<'a> {
        let num_transfers = specs.len();
        let (full_only, full_fraction) = match mode {
            SolverMode::Full => (true, 0.0),
            SolverMode::Incremental { full_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&full_fraction),
                    "full_fraction must be in [0, 1]"
                );
                (false, full_fraction)
            }
        };
        Leveler {
            wf: Waterfill::new(num_resources),
            cascade: Cascade::new(num_resources),
            demands: Demands {
                specs,
                per_flow_cap: config.per_flow_cap,
            },
            contention: (config.contention_penalty, config.contention_floor),
            full_only,
            full_fraction,
            res_flows: (0..num_resources).map(|_| Vec::new()).collect(),
            res_dirty: vec![false; num_resources],
            dirty_res: Vec::new(),
            flow_dirty: vec![false; num_transfers],
            dirty_flows: Vec::new(),
            is_active: vec![false; num_transfers],
            sub_idx: Vec::new(),
            binding: vec![crate::waterfill::CAP_BINDING; num_transfers],
            full_runs: 0,
            incremental_runs: 0,
            active_entries: 0,
            solved_entries: 0,
            touched_entries: 0,
            closure_entries: 0,
            passes: 0,
            replayed_passes: 0,
        }
    }

    /// A flow entered the active set: index its route and seed the dirty
    /// set with the flow and every resource it crosses.
    pub fn note_join(&mut self, tid: u32) {
        mark(&mut self.flow_dirty, &mut self.dirty_flows, tid);
        self.is_active[tid as usize] = true;
        self.active_entries += self.demands.route(tid).len() as u64;
        for r in self.demands.route(tid) {
            self.res_flows[r.0 as usize].push(tid);
            mark(&mut self.res_dirty, &mut self.dirty_res, r.0);
        }
    }

    /// A flow left the active set (completed or stalled): unindex it and
    /// mark its route — the bandwidth it held is up for redistribution.
    pub fn note_leave(&mut self, tid: u32) {
        self.is_active[tid as usize] = false;
        self.active_entries -= self.demands.route(tid).len() as u64;
        self.cascade.drop_record(tid);
        for r in self.demands.route(tid) {
            let ri = r.0 as usize;
            if let Some(p) = self.res_flows[ri].iter().position(|&t| t == tid) {
                self.res_flows[ri].swap_remove(p);
            }
            mark(&mut self.res_dirty, &mut self.dirty_res, r.0);
        }
    }

    /// A fault changed a resource's effective capacity, which the
    /// cascade's pass log assumed.
    pub fn note_caps_changed(&mut self, ri: usize) {
        mark(&mut self.res_dirty, &mut self.dirty_res, ri as u32);
        self.cascade.invalidate();
    }

    /// The binding resource of transfer `tid` as of the last re-level
    /// that included it (`CAP_BINDING` = bound by its own rate cap).
    pub fn binding_of(&self, tid: u32) -> u32 {
        self.binding[tid as usize]
    }

    /// Re-level `active` at an epoch boundary: close the dirty set, pick
    /// incremental vs full, solve, and write the new rates into the
    /// flows. `rates` is the caller's reusable scratch vector.
    pub fn level(&mut self, active: &mut [ActiveFlow], caps: &[f64], rates: &mut Vec<f64>) {
        if self.full_only {
            self.clear_dirty();
            self.solve_full(active, caps, rates);
            return;
        }

        // Transitive closure: dirty resource -> its flows dirty -> their
        // routes dirty. `dirty_res` doubles as the BFS worklist (the
        // scan index only moves forward over appended entries).
        // `closure` counts the dirty flows in the active set — the size
        // of the sub-solve — and the scan stops as soon as it crosses
        // the fallback threshold, since it can only grow from there.
        let limit = self.full_fraction * active.len() as f64;
        let mut closure = self
            .dirty_flows
            .iter()
            .filter(|&&t| self.is_active[t as usize])
            .count();
        let mut fallback = closure as f64 > limit;
        let mut qi = 0;
        'scan: while !fallback && qi < self.dirty_res.len() {
            let ri = self.dirty_res[qi] as usize;
            qi += 1;
            self.closure_entries += self.res_flows[ri].len() as u64;
            for k in 0..self.res_flows[ri].len() {
                let tid = self.res_flows[ri][k];
                if mark(&mut self.flow_dirty, &mut self.dirty_flows, tid) {
                    closure += 1;
                    if closure as f64 > limit {
                        fallback = true;
                        break 'scan;
                    }
                    let route = self.demands.route(tid);
                    self.closure_entries += route.len() as u64;
                    for r in route {
                        mark(&mut self.res_dirty, &mut self.dirty_res, r.0);
                    }
                }
            }
        }

        if fallback {
            self.clear_dirty();
            self.solve_full(active, caps, rates);
            return;
        }

        // Dirty flows in active-list order: the demand order a full
        // solve would present them in.
        self.sub_idx.clear();
        for (i, f) in active.iter().enumerate() {
            if self.flow_dirty[f.tid as usize] {
                self.sub_idx.push(i as u32);
            }
        }
        debug_assert_eq!(self.sub_idx.len(), closure);
        self.clear_dirty();
        self.incremental_runs += 1;
        if !self.sub_idx.is_empty() {
            let Leveler {
                wf,
                cascade,
                demands,
                contention,
                binding,
                sub_idx,
                solved_entries,
                touched_entries,
                ..
            } = self;
            let tid = |k: usize| active[sub_idx[k] as usize].tid;
            wf.solve(
                sub_idx.len(),
                |k| demands.route(tid(k)),
                |k| demands.cap(tid(k)),
                caps,
                *contention,
                rates,
            );
            *solved_entries += wf.last_entries() as u64;
            *touched_entries += wf.last_entries() as u64;
            self.passes += wf.last_passes() as u64;
            let bindings = wf.bindings();
            for (k, &i) in sub_idx.iter().enumerate() {
                let f = &mut active[i as usize];
                f.rate = rates[k];
                binding[f.tid as usize] = bindings[k];
                cascade.drop_record(f.tid);
            }
        }
    }

    /// Solve the whole active set. The incremental leveler runs a
    /// cascade solve and writes back only the flows it froze afresh;
    /// `Full` mode, the oracle, always solves cold.
    fn solve_full(&mut self, active: &mut [ActiveFlow], caps: &[f64], rates: &mut Vec<f64>) {
        self.full_runs += 1;
        let demands = self.demands;
        if self.full_only {
            let route = |i: usize| demands.route(active[i].tid);
            let cap = |i: usize| demands.cap(active[i].tid);
            self.wf
                .solve(active.len(), route, cap, caps, self.contention, rates);
            self.solved_entries += self.wf.last_entries() as u64;
            self.touched_entries += self.wf.last_entries() as u64;
            self.passes += self.wf.last_passes() as u64;
            let Leveler { wf, binding, .. } = self;
            let bindings = wf.bindings();
            for ((f, &r), &b) in active.iter_mut().zip(rates.iter()).zip(bindings) {
                f.rate = r;
                binding[f.tid as usize] = b;
            }
            return;
        }
        debug_assert_eq!(
            self.active_entries,
            active
                .iter()
                .map(|f| demands.route(f.tid).len() as u64)
                .sum::<u64>()
        );
        let Leveler {
            cascade,
            res_flows,
            binding,
            ..
        } = self;
        cascade.solve(
            active.len(),
            |i| active[i].tid,
            binding.len(),
            res_flows,
            |t| demands.route(t),
            |t| demands.cap(t),
            caps,
            self.contention,
        );
        for &t in cascade.fresh() {
            active[cascade.index(t)].rate = cascade.rate(t);
            binding[t as usize] = cascade.binding(t);
        }
        debug_assert!(
            active
                .iter()
                .all(|f| f.rate.to_bits() == cascade.rate(f.tid).to_bits()
                    && binding[f.tid as usize] == cascade.binding(f.tid)),
            "a flow the cascade kept lost its rate or binding"
        );
        let (passes, logged, touched) = cascade.last_work();
        self.solved_entries += self.active_entries;
        self.touched_entries += touched;
        self.passes += passes as u64;
        self.replayed_passes += logged as u64;
    }

    fn clear_dirty(&mut self) {
        for &ri in &self.dirty_res {
            self.res_dirty[ri as usize] = false;
        }
        self.dirty_res.clear();
        for &tid in &self.dirty_flows {
            self.flow_dirty[tid as usize] = false;
        }
        self.dirty_flows.clear();
    }
}

/// Mark `id` dirty, listing it the first time; true if it was clean.
fn mark(dirty: &mut [bool], list: &mut Vec<u32>, id: u32) -> bool {
    let fresh = !dirty[id as usize];
    if fresh {
        dirty[id as usize] = true;
        list.push(id);
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
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
            collect_link_stats: false,
        }
    }

    fn spec(route: &[u32]) -> TransferSpec {
        TransferSpec::new(0, 1, 100, route.iter().map(|&r| ResourceId(r)).collect())
    }

    fn flow(tid: u32) -> ActiveFlow {
        ActiveFlow {
            tid,
            remaining: 100.0,
            rate: 0.0,
        }
    }

    #[test]
    fn incremental_leaves_untouched_component_alone() {
        // Flows 0,1 share link 0; flow 2 rides link 1 alone. Leveling
        // all three, then re-leveling after only flow 2's departure,
        // must not touch flows 0 and 1.
        let specs = vec![spec(&[0]), spec(&[0]), spec(&[1])];
        let caps = [100.0, 100.0];
        let mut lev = Leveler::new(
            &specs,
            2,
            &cfg(),
            SolverMode::Incremental { full_fraction: 1.0 },
        );
        let mut active = vec![flow(0), flow(1), flow(2)];
        let mut rates = Vec::new();
        for tid in 0..specs.len() as u32 {
            lev.note_join(tid);
        }
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[2].rate, 100.0);

        // Flow 2 leaves; poison the disjoint component's rates to prove
        // the sub-solve never visits them.
        lev.note_leave(2);
        active.pop();
        active[0].rate = -1.0;
        active[1].rate = -1.0;
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!(active[0].rate, -1.0);
        assert_eq!(active[1].rate, -1.0);
        assert_eq!(lev.incremental_runs, 2);
        assert_eq!(lev.full_runs, 0);
    }

    #[test]
    fn closure_pulls_in_transitive_sharers() {
        // Chain: flow 0 on {0}, flow 1 on {0,1}, flow 2 on {1}. A join
        // on link 0 must re-level flow 2 too (via flow 1).
        let specs = vec![spec(&[0]), spec(&[0, 1]), spec(&[1])];
        let caps = [100.0, 100.0];
        let mut lev = Leveler::new(
            &specs,
            2,
            &cfg(),
            SolverMode::Incremental { full_fraction: 1.0 },
        );
        let mut active = vec![flow(1), flow(2)];
        let mut rates = Vec::new();
        lev.note_join(1);
        lev.note_join(2);
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[1].rate, 50.0);

        lev.note_join(0);
        active.insert(0, flow(0));
        active[2].rate = -1.0; // flow 2: must be re-leveled via closure
        lev.level(&mut active, &caps, &mut rates);
        // Max-min: link 0 splits 50/50 between flows 0 and 1; flow 2
        // then gets link 1's slack.
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[1].rate, 50.0);
        assert_eq!(active[2].rate, 50.0);
    }

    #[test]
    fn bindings_survive_untouched_re_levels() {
        // Flows 0,1 contend on link 0 (binding 0); flow 2 rides link 1
        // alone at the shared-equals-cap tie, where the real link wins
        // (lower resource index). After flow 2 leaves, the untouched
        // component's bindings must persist unchanged.
        let specs = vec![spec(&[0]), spec(&[0]), spec(&[1])];
        let caps = [100.0, 100.0];
        let mut lev = Leveler::new(
            &specs,
            2,
            &cfg(),
            SolverMode::Incremental { full_fraction: 1.0 },
        );
        let mut active = vec![flow(0), flow(1), flow(2)];
        let mut rates = Vec::new();
        for tid in 0..specs.len() as u32 {
            lev.note_join(tid);
        }
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!(lev.binding_of(0), 0);
        assert_eq!(lev.binding_of(1), 0);
        assert_eq!(lev.binding_of(2), 1);

        lev.note_leave(2);
        active.pop();
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!(lev.binding_of(0), 0, "untouched binding must persist");
        assert_eq!(lev.binding_of(1), 0);
    }

    #[test]
    fn threshold_forces_full_fallback() {
        let specs = vec![spec(&[0]), spec(&[1])];
        let caps = [100.0, 100.0];
        let mut lev = Leveler::new(
            &specs,
            2,
            &cfg(),
            SolverMode::Incremental { full_fraction: 0.0 },
        );
        let mut active = vec![flow(0), flow(1)];
        let mut rates = Vec::new();
        lev.note_join(0);
        lev.note_join(1);
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!(lev.full_runs, 1);
        assert_eq!(lev.incremental_runs, 0);
        assert_eq!(active[0].rate, 100.0);
    }

    #[test]
    fn early_fallback_stops_the_closure_scan() {
        // A chain: flow i rides links {i, i+1}, so one departure at the
        // head dirties the whole chain transitively. At full_fraction
        // 0.5 the scan stops once half the chain is dirty and falls back
        // to a full solve, with the same rates an unbounded closure
        // produces.
        let n = 10u32;
        let specs: Vec<TransferSpec> = (0..n).map(|i| spec(&[i, i + 1])).collect();
        let caps = vec![100.0; n as usize + 1];
        let run = |full_fraction: f64| {
            let mut lev = Leveler::new(
                &specs,
                n as usize + 1,
                &cfg(),
                SolverMode::Incremental { full_fraction },
            );
            let mut active: Vec<ActiveFlow> = (0..n).map(flow).collect();
            let mut rates = Vec::new();
            for tid in 0..n {
                lev.note_join(tid);
            }
            lev.level(&mut active, &caps, &mut rates);
            lev.note_leave(0);
            active.remove(0);
            let before = lev.closure_entries;
            lev.level(&mut active, &caps, &mut rates);
            let rates: Vec<f64> = active.iter().map(|f| f.rate).collect();
            (lev.closure_entries - before, lev.full_runs, rates)
        };
        let (early, early_full, early_rates) = run(0.5);
        let (whole, whole_full, whole_rates) = run(1.0);
        assert_eq!(early_full, 2, "both re-levels fall back");
        assert_eq!(whole_full, 0);
        // The whole chain is 36 entries; half of it is dirty after 17.
        assert_eq!((early, whole), (17, 36));
        assert_eq!(early_rates, whole_rates);
    }

    #[test]
    fn a_flow_that_joined_and_left_is_not_in_the_closure() {
        // Flows 0 and 1 are leveled; flow 2 joins and leaves within the
        // next epoch. It stays marked dirty but is not in the demand
        // set, so even at full_fraction 0 the re-level stays
        // incremental (an empty closure never exceeds the threshold).
        let specs = vec![spec(&[0]), spec(&[1]), spec(&[2])];
        let caps = [100.0, 100.0, 100.0];
        let mut lev = Leveler::new(
            &specs,
            3,
            &cfg(),
            SolverMode::Incremental { full_fraction: 0.0 },
        );
        let mut active = vec![flow(0), flow(1)];
        let mut rates = Vec::new();
        lev.note_join(0);
        lev.note_join(1);
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 0));
        lev.note_join(2);
        lev.note_leave(2);
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
    }

    #[test]
    fn a_sub_solve_keeps_the_cascade_state_of_other_flows() {
        // A (flows 0, 1 on link 0), B (flows 2-6 over links 1, 2) and C
        // (flow 7 alone on link 3). After a cold first full solve, A's
        // departure re-levels flow 1 incrementally, then B's departure
        // falls back to a full solve. That solve re-solves A and B but
        // pops C's pass as logged: the sub-solve dropped only flow 1's
        // record, not the cascade state.
        let specs = vec![
            spec(&[0]),
            spec(&[0]),
            spec(&[1]),
            spec(&[1, 2]),
            spec(&[2]),
            spec(&[1]),
            spec(&[2]),
            spec(&[3]),
        ];
        let caps = [100.0; 4];
        let mut lev = Leveler::new(
            &specs,
            4,
            &cfg(),
            SolverMode::Incremental { full_fraction: 0.5 },
        );
        let mut active: Vec<ActiveFlow> = (0..8).map(flow).collect();
        let mut rates = Vec::new();
        for tid in 0..8 {
            lev.note_join(tid);
        }
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!((lev.full_runs, lev.replayed_passes), (1, 0));
        lev.note_leave(0);
        active.remove(0);
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
        lev.note_leave(2);
        active.remove(1);
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!((lev.full_runs, lev.incremental_runs), (2, 1));
        assert_eq!(lev.replayed_passes, 1, "C's pass pops as logged");
        assert_eq!(active[5].rate, 100.0);
    }

    #[test]
    fn empty_dirty_set_is_a_free_re_level() {
        let specs = vec![spec(&[0])];
        let caps = [100.0];
        let mut lev = Leveler::new(
            &specs,
            1,
            &cfg(),
            SolverMode::Incremental { full_fraction: 0.5 },
        );
        let mut active = vec![flow(0)];
        let mut rates = Vec::new();
        lev.note_join(0);
        lev.level(&mut active, &caps, &mut rates);
        // Nothing changed since: the re-level touches no flow.
        active[0].rate = -1.0;
        lev.level(&mut active, &caps, &mut rates);
        assert_eq!(active[0].rate, -1.0);
        assert_eq!(lev.incremental_runs, 1);
        assert_eq!(lev.full_runs, 1);
    }
}
