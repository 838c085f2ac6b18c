//! Rate leveling: every re-level is a cascade solve.
//!
//! The max-min fair allocation decomposes over connected components of
//! the bipartite flow↔resource contention graph: a flow's rate depends
//! only on the flows it (transitively) shares a resource with. Sparse
//! transfer patterns change few rates per event — one flow arriving, one
//! finishing, one link changing capacity — while a cold solve re-levels
//! every active flow.
//!
//! The [`Leveler`] keeps per-resource membership lists (which active
//! flows cross each resource) and hands every re-level to a
//! [`Cascade`]: it keeps the previous solve's pass log and per-flow
//! freeze records, and re-solves only the links a joined or departed
//! flow reaches, bit-identical to a cold solve of the whole active set
//! (DESIGN §16). The membership lists are its link → flow adjacency.
//! Untouched contention components keep their rates because the
//! cascade's divergence set never reaches them: a change spreads only
//! through links its flows share, so a solve's work is bounded by the
//! components that changed.
//!
//! The engine also tells the leveler how the active list moved — where a
//! joining flow entered, which flow a completion's `swap_remove` moved,
//! and when a stall's order-preserving removal shifted the rest — and the
//! leveler hands that to the cascade, which keeps demand indices current
//! from those notices instead of rescanning the list at every solve.
//!
//! Two cases need no cascade bookkeeping. A re-level with nothing to do
//! (no flow joined or left, no capacity changed since the last solve)
//! keeps every rate and skips the solve. A capacity change drops the
//! cascade's state, so the next solve is cold. [`SolverMode::Full`]
//! drops the state before every re-level, so each one is a cold solve
//! of the same cascade: the oracle `tests/warm_start.rs` compares
//! against.

use crate::config::SimConfig;
use crate::graph::{ResourceId, TransferSpec};
use crate::waterfill::Cascade;

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
    cascade: Cascade,
    mode: SolverMode,
    demands: Demands<'a>,
    /// The config's `(contention_penalty, contention_floor)`.
    contention: (f64, f64),
    /// Per-resource membership: the active transfer ids crossing each
    /// resource (with multiplicity, mirroring route multiplicity).
    res_flows: Vec<Vec<u32>>,
    /// Whether a flow joined or left, or a capacity changed, since the
    /// last solve.
    changed: bool,
    /// Per-transfer binding resource (the waterfill resource whose
    /// residual fixed the flow's rate; `CAP_BINDING` = its own cap) from
    /// the most recent solve that included the flow.
    binding: Vec<u32>,
    /// Cold solves: a component's first, the first after a capacity
    /// change, and every `Full`-mode solve.
    pub full_runs: u64,
    /// Warm cascade solves, and re-levels skipped with nothing to do.
    pub incremental_runs: u64,
    /// Flow–resource entries (route hops) of the active set.
    active_entries: u64,
    /// Flow–resource entries in every solved demand set.
    pub solved_entries: u64,
    /// Flow–resource entries the solves actually read or wrote: all of
    /// a cold solve's, a cascade solve's share of them.
    pub touched_entries: u64,
    /// Progressive-filling passes over every solve, and how many of them
    /// a cascade solve popped as logged.
    pub passes: u64,
    pub replayed_passes: u64,
    /// Flows the solves' demand-index steps examined, and the loop steps
    /// they spent on logged passes (see [`Work`](crate::waterfill::cascade::Work)).
    pub index_visits: u64,
    pub log_steps: u64,
}

impl<'a> Leveler<'a> {
    pub fn new(
        specs: &'a [TransferSpec],
        num_resources: usize,
        config: &SimConfig,
        mode: SolverMode,
    ) -> Leveler<'a> {
        Leveler {
            cascade: Cascade::new(num_resources),
            mode,
            demands: Demands {
                specs,
                per_flow_cap: config.per_flow_cap,
            },
            contention: (config.contention_penalty, config.contention_floor),
            res_flows: (0..num_resources).map(|_| Vec::new()).collect(),
            changed: false,
            binding: vec![crate::waterfill::CAP_BINDING; specs.len()],
            full_runs: 0,
            incremental_runs: 0,
            active_entries: 0,
            solved_entries: 0,
            touched_entries: 0,
            passes: 0,
            replayed_passes: 0,
            index_visits: 0,
            log_steps: 0,
        }
    }

    /// A flow entered the active set, at the back (index `at`): index
    /// its route.
    pub fn note_join(&mut self, tid: u32, at: usize) {
        self.changed = true;
        self.cascade.note_at(tid, at);
        self.active_entries += self.demands.route(tid).len() as u64;
        for r in self.demands.route(tid) {
            self.res_flows[r.0 as usize].push(tid);
        }
    }

    /// A flow left the active set (completed or stalled): unindex it and
    /// drop its freeze record — the bandwidth it held is up for
    /// redistribution.
    pub fn note_leave(&mut self, tid: u32) {
        self.changed = true;
        self.active_entries -= self.demands.route(tid).len() as u64;
        self.cascade.drop_record(tid);
        for r in self.demands.route(tid) {
            let ri = r.0 as usize;
            if let Some(p) = self.res_flows[ri].iter().position(|&t| t == tid) {
                self.res_flows[ri].swap_remove(p);
            }
        }
    }

    /// A completion's `swap_remove` moved the flow that was last to index
    /// `at`. It always comes with that completion's [`note_leave`].
    ///
    /// [`note_leave`]: Self::note_leave
    pub fn note_moved(&mut self, tid: u32, at: usize) {
        self.cascade.note_at(tid, at);
    }

    /// An order-preserving removal shifted the flows behind it: the next
    /// solve finds demand indices by scanning the active list.
    pub fn note_shifted(&mut self) {
        self.cascade.rescan();
    }

    /// A fault changed a resource's effective capacity, which the
    /// cascade's pass log assumed: the next solve is cold.
    pub fn note_caps_changed(&mut self) {
        self.changed = true;
        self.cascade.invalidate();
    }

    /// The binding resource of transfer `tid` as of the last re-level
    /// that included it (`CAP_BINDING` = bound by its own rate cap).
    pub fn binding_of(&self, tid: u32) -> u32 {
        self.binding[tid as usize]
    }

    /// Re-level `active` at an epoch boundary and write the new rates
    /// into the flows.
    pub fn level(&mut self, active: &mut [ActiveFlow], caps: &[f64]) {
        // `Full` drops the cascade's state before every re-level, so each
        // one solves cold and none is skipped.
        if self.mode == SolverMode::Full {
            self.cascade.invalidate();
            self.changed = true;
        }
        let demands = self.demands;
        let Leveler {
            cascade,
            res_flows,
            binding,
            ..
        } = self;
        // With no join, departure or capacity change the active order
        // and every rate are what the last solve left.
        if !std::mem::take(&mut self.changed) {
            self.incremental_runs += 1;
            return;
        }
        debug_assert_eq!(
            self.active_entries,
            active
                .iter()
                .map(|f| demands.route(f.tid).len() as u64)
                .sum::<u64>()
        );
        if cascade.is_warm() {
            self.incremental_runs += 1;
        } else {
            self.full_runs += 1;
        }
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
        let work = cascade.last_work();
        self.solved_entries += self.active_entries;
        self.touched_entries += work.touched;
        self.passes += work.passes as u64;
        self.replayed_passes += work.logged as u64;
        self.index_visits += work.index_visits;
        self.log_steps += work.log_steps;
    }
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

    /// A default-mode leveler that has joined and leveled `active`.
    fn leveled<'a>(
        specs: &'a [TransferSpec],
        num_resources: usize,
        active: &mut [ActiveFlow],
    ) -> Leveler<'a> {
        let caps = vec![100.0; num_resources];
        let mut lev = Leveler::new(specs, num_resources, &cfg(), SolverMode::default());
        for (i, f) in active.iter().enumerate() {
            lev.note_join(f.tid, i);
        }
        lev.level(active, &caps);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 0));
        lev
    }

    #[test]
    fn a_departure_leaves_an_untouched_component_alone() {
        // Flows 0,1 share link 0; flow 2 rides link 1 alone. After flow
        // 2's departure the re-level pops the other component's pass as
        // logged and reads no flow–link entry.
        let specs = vec![spec(&[0]), spec(&[0]), spec(&[1])];
        let mut active = vec![flow(0), flow(1), flow(2)];
        let mut lev = leveled(&specs, 2, &mut active);
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[2].rate, 100.0);

        let (touched, replayed) = (lev.touched_entries, lev.replayed_passes);
        lev.note_leave(2);
        active.pop();
        lev.level(&mut active, &[100.0; 2]);
        assert_eq!((active[0].rate, active[1].rate), (50.0, 50.0));
        assert_eq!(lev.touched_entries - touched, 0);
        assert_eq!(lev.replayed_passes - replayed, 1);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
    }

    #[test]
    fn a_solve_touches_only_the_component_that_changed() {
        // A: flows 0-2 over links 0, 1 (4 entries). B: flows 3-8 over
        // links 2-5 (14 entries). A departure in A re-solves at most A's
        // entries, whatever B's size: the locality the re-level relies
        // on to keep sparse exchanges cheap.
        let specs = vec![
            spec(&[0]),
            spec(&[0, 1]),
            spec(&[1]),
            spec(&[2, 3]),
            spec(&[2, 3, 4]),
            spec(&[3, 4]),
            spec(&[4, 5]),
            spec(&[2, 5]),
            spec(&[3, 4, 5]),
        ];
        let entries = |tids: std::ops::Range<usize>| -> u64 {
            specs[tids].iter().map(|s| s.route.len() as u64).sum()
        };
        assert_eq!((entries(0..3), entries(3..9)), (4, 14));
        let mut active: Vec<ActiveFlow> = (0..9).map(flow).collect();
        let mut lev = leveled(&specs, 6, &mut active);
        let touched = lev.touched_entries;
        lev.note_leave(0);
        active.remove(0);
        lev.note_shifted();
        lev.level(&mut active, &[100.0; 6]);
        let delta = lev.touched_entries - touched;
        assert!(delta > 0);
        assert!(delta <= entries(0..3), "touched {delta} entries");
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
        // Flow 1 now has link 0 to itself but still shares link 1.
        assert_eq!((active[0].rate, active[1].rate), (50.0, 50.0));
    }

    #[test]
    fn a_join_re_levels_transitive_sharers() {
        // Chain: flow 0 on {0}, flow 1 on {0,1}, flow 2 on {1}. A join
        // on link 0 must re-level flow 2 too (via flow 1).
        let specs = vec![spec(&[0]), spec(&[0, 1]), spec(&[1])];
        let caps = [100.0, 100.0];
        let mut active = vec![flow(1), flow(2)];
        let mut lev = leveled(&specs, 2, &mut active);
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[1].rate, 50.0);

        lev.note_join(0, 0);
        active.insert(0, flow(0));
        lev.note_shifted();
        active[2].rate = -1.0; // flow 2: must be re-leveled
        lev.level(&mut active, &caps);
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
        let mut active = vec![flow(0), flow(1), flow(2)];
        let mut lev = leveled(&specs, 2, &mut active);
        assert_eq!(lev.binding_of(0), 0);
        assert_eq!(lev.binding_of(1), 0);
        assert_eq!(lev.binding_of(2), 1);

        lev.note_leave(2);
        active.pop();
        lev.level(&mut active, &[100.0; 2]);
        assert_eq!(lev.binding_of(0), 0, "untouched binding must persist");
        assert_eq!(lev.binding_of(1), 0);
    }

    #[test]
    fn a_flow_that_joined_and_left_touches_nothing() {
        // Flows 0 and 1 are leveled; flow 2 joins and leaves within the
        // next epoch. It never reaches the demand set, so the warm solve
        // pops every logged pass and reads no entry.
        let specs = vec![spec(&[0]), spec(&[1]), spec(&[2])];
        let mut active = vec![flow(0), flow(1)];
        let mut lev = leveled(&specs, 3, &mut active);
        let (touched, replayed) = (lev.touched_entries, lev.replayed_passes);
        lev.note_join(2, 2);
        lev.note_leave(2);
        lev.level(&mut active, &[100.0; 3]);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
        assert_eq!(lev.touched_entries - touched, 0);
        assert_eq!(lev.replayed_passes - replayed, 2);
    }

    #[test]
    fn a_noted_move_replaces_the_demand_list_scan() {
        // Six flows on six links; flow 1 completes and the last flow
        // moves into its slot. The re-level examines the one notice and
        // the flow behind the moved one, not the whole list, and the
        // moved flow keeps its rate.
        let specs: Vec<TransferSpec> = (0..6).map(|r| spec(&[r])).collect();
        let mut active: Vec<ActiveFlow> = (0..6).map(flow).collect();
        let mut lev = leveled(&specs, 6, &mut active);
        assert_eq!(lev.index_visits, 6, "the cold solve scans");
        lev.note_leave(1);
        active.swap_remove(1);
        lev.note_moved(5, 1);
        lev.level(&mut active, &[100.0; 6]);
        assert_eq!(lev.index_visits - 6, 2);
        assert_eq!(active[1].tid, 5);
        assert_eq!(active[1].rate, 100.0);
        // An order-preserving removal falls back on the scan.
        lev.note_leave(0);
        active.remove(0);
        lev.note_shifted();
        lev.level(&mut active, &[100.0; 6]);
        assert_eq!(lev.index_visits - 8, 4);
    }

    #[test]
    fn a_run_of_logged_passes_stops_at_a_watched_pass() {
        // Links Z (5), A (10) and L (100); flow z rides Z, f rides A and
        // L, g and h ride L. The log pops Z (z at 5), A (f at 10), then L
        // (g and h at 45). Once g leaves, L enters Δ and watches A's pass
        // through f: Z's pass may pop in a run, but A's must stop it and
        // debit L, or h would get 50 instead of 100 − 10.
        let specs = vec![spec(&[0]), spec(&[1, 2]), spec(&[2]), spec(&[2])];
        let caps = [5.0, 10.0, 100.0];
        let mut active: Vec<ActiveFlow> = (0..4).map(flow).collect();
        let mut lev = Leveler::new(&specs, 3, &cfg(), SolverMode::default());
        for (i, f) in active.iter().enumerate() {
            lev.note_join(f.tid, i);
        }
        lev.level(&mut active, &caps);
        let rates = |a: &[ActiveFlow]| a.iter().map(|f| f.rate).collect::<Vec<_>>();
        assert_eq!(rates(&active), vec![5.0, 10.0, 45.0, 45.0]);
        lev.note_leave(2);
        active.swap_remove(2);
        lev.note_moved(3, 2);
        lev.level(&mut active, &caps);
        assert_eq!(rates(&active), vec![5.0, 10.0, 90.0]);
        assert_eq!(lev.replayed_passes, 2, "Z's and A's passes pop as logged");
        assert_eq!(lev.log_steps, 3, "a run, the watched pass and L's skip");
    }

    #[test]
    fn a_re_level_with_nothing_changed_is_skipped() {
        let specs = vec![spec(&[0])];
        let mut active = vec![flow(0)];
        let mut lev = leveled(&specs, 1, &mut active);
        let passes = lev.passes;
        // Nothing changed since: the re-level touches no flow.
        active[0].rate = -1.0;
        lev.level(&mut active, &[100.0]);
        assert_eq!(active[0].rate, -1.0);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
        assert_eq!(lev.passes, passes, "no solve ran");
    }

    #[test]
    fn a_capacity_change_makes_the_next_solve_cold() {
        let specs = vec![spec(&[0]), spec(&[0])];
        let mut active = vec![flow(0), flow(1)];
        let mut lev = leveled(&specs, 1, &mut active);
        lev.note_caps_changed();
        lev.level(&mut active, &[50.0]);
        assert_eq!((lev.full_runs, lev.incremental_runs), (2, 0));
        assert_eq!((active[0].rate, active[1].rate), (25.0, 25.0));
        assert_eq!(lev.replayed_passes, 0);
    }
}
