//! Cascade-local exact re-levels: a persistent waterfill whose full
//! re-level touches only the links a changed flow reaches.
//!
//! A cold solve pops, pass after pass, the least current key among the
//! live links `(share, version, id)` and the unfrozen flows' caps
//! `(cap, 0, num_resources + demand index)`. A link's key is a pure
//! function of its member flows' freeze records: its residual is its
//! capacity, derated by its member count, minus the shares of its frozen
//! members subtracted in pass order (with route multiplicity), and its
//! version is the number of those debits. Within a pass every frozen
//! flow subtracts the same share, so member order does not matter.
//!
//! [`Cascade`] keeps the previous solve's pass sequence (the *log*) and
//! every flow's freeze record (the pass that froze it, and its share)
//! across epochs. The next solve replays the log, tracking explicitly
//! only a set Δ of *diverged* links, whose state it reconstructs from
//! their members; every other link is, at the log cursor, exactly where
//! the logged solve had it. Each step pops the least of
//!
//! * the logged pass at the cursor. A link pass whose link is not in Δ
//!   pops *as logged*, at no cost: its flows keep their records, and
//!   only the watch entries of the Δ links they cross are debited. A
//!   cap pass pops as logged when its flow is still the least cap;
//! * the top of Δ's heap of current keys, a *fresh* pop: it freezes the
//!   link's unfrozen members at the new share, and every link they
//!   cross enters Δ;
//! * the least cap of the flows without a usable record (joined,
//!   orphaned or reordered, see below), also a fresh pop.
//!
//! A logged pass is *skipped* when its link has entered Δ (or its cap's
//! flow has no record there any more). Its not-yet-frozen flows are then
//! *orphaned*: they lose their records, their caps join the cap heap,
//! and every link they cross enters Δ.
//!
//! **Runs.** Most logged passes need no look at all: their link is
//! outside Δ and no Δ link watches them. Such passes are found without
//! asking: a link entering Δ leaves a watch entry on the pending pass of
//! every member waiting for one (its own pass among them), and a record
//! dropped by a departure or a reorder leaves a bare mark on its pass.
//! So a pass that no longer holds always carries an entry. A run of
//! consecutive unmarked passes whose keys are all below Δ's top and the
//! least cap pops in one step: none of them debits a Δ link or frees a
//! cap, so neither bound moves inside the run. Each pass's tick — the
//! order reconstruction debits in — is the solve's first tick plus its
//! position in the new log, written in the same tight scan; a pass is
//! frozen "in this solve" when its tick is at least that first tick.
//!
//! **Demand indices.** A cap's key carries its flow's demand index, so
//! a solve needs every flow's index, and the flows whose relative order
//! changed. The engine notes each move as it happens
//! ([`Cascade::note_at`]): a flow joins at the back, and a completion's
//! `swap_remove` moves the former last flow into the freed slot. Every
//! other flow keeps its index, so the solve examines only the noted
//! flows (`index_noted`). An order-preserving removal shifts indices
//! instead ([`Cascade::rescan`]); that solve, and a cold one, scans the
//! whole list from the back (`index_scan`), the rule the noted step
//! reproduces exactly. Debug builds check every noted step against the
//! scan.
//!
//! **Why the pops are the cold solve's.** By induction over the log
//! cursor: a link outside Δ has the logged solve's members, and the
//! members it has frozen so far froze in logged passes popped as
//! logged, at the same shares in the same order, so its key is its
//! logged key at the cursor — no lower than the cursor's key (equal only
//! for the cursor's own link). A fresh freeze, an orphaning or a changed
//! member set puts a link into Δ before it could differ. A surviving
//! flow still waiting for its logged pass has a cap the logged solve
//! ordered after the cursor's key: against a link that order does not
//! depend on demand indices, and against another cap it depends only on
//! their relative order, which the solve checks (flows whose relative
//! demand order changed since the log was written are *reordered*: their
//! caps join the cap heap, and a cap pass of theirs is skipped). Every
//! other live resource — a Δ link or a cap without a usable record — is
//! in one of the two heaps at its current key, or a lower bound of it.
//!
//! **What drops state.** [`Cascade::invalidate`] (a capacity change)
//! drops everything, so the next solve is cold: every flow is joined and
//! every link is in Δ. That cold solve is the only other one there is:
//! `SolverMode::Full` and the one-shot `Waterfill` invalidate before
//! every solve. [`Cascade::drop_record`] drops one flow's record (a
//! departure); the next solve treats its route as changed. Nothing else
//! does: the leveler runs every re-level of a component through one
//! `Cascade`.

use super::{Entry, SlotHeap, CAP_BINDING, NONE};
use crate::graph::ResourceId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The end of a marked pass's watch list (see [`Pass::watch`]).
const MARK: u32 = NONE - 1;

/// One pass of the log.
#[derive(Debug, Clone, Copy)]
struct Pass {
    share: f64,
    version: u32,
    /// The popped link, or [`NONE`] for a cap pass.
    link: u32,
    /// A cap pass's flow.
    flow: u32,
    /// Head of the pass's watch list in [`Cascade::watch`], ending in
    /// [`NONE`], or in [`MARK`] when a dropped record marked the pass.
    /// Anything but [`NONE`] stops a run of logged passes.
    watch: u32,
    /// The solve's first tick plus the pass's position in that solve's
    /// log: at or past [`Cascade::base`] once the current solve popped
    /// it, and the order reconstruction debits in.
    tick: u64,
}

/// A cap's key; the max-heap yields the least key first.
#[derive(Debug, Clone, Copy)]
struct CapKey(Entry);

impl PartialEq for CapKey {
    fn eq(&self, other: &CapKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for CapKey {}

impl PartialOrd for CapKey {
    fn partial_cmp(&self, other: &CapKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CapKey {
    fn cmp(&self, other: &CapKey) -> Ordering {
        if self.0.before(&other.0) {
            Ordering::Greater
        } else if other.0.before(&self.0) {
            Ordering::Less
        } else {
            Ordering::Equal
        }
    }
}

/// What one step pops.
#[derive(Debug, Clone, Copy)]
enum Pop {
    Logged(u32),
    Link(Entry),
    Cap(Entry),
}

/// The work of the latest solve (see [`Cascade::last_work`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Passes popped, and how many of them popped as logged.
    pub passes: u32,
    pub logged: u32,
    /// Flow–link entries of the links it put into Δ: the entries it read
    /// or wrote (a skipped pass's link and every link a freeze debits
    /// are in Δ).
    pub touched: u64,
    /// Flows the demand-index step examined: the whole list when it
    /// scanned, else the noted flows and the few it walked past.
    pub index_visits: u64,
    /// Loop steps spent on logged passes: one per run popped as logged,
    /// one per watched pass and one per skipped pass.
    pub log_steps: u64,
}

/// The persistent solver state (see the module docs). Flows are named
/// by transfer id and links by resource id, both in the component's
/// local universe; the tables are sized on the first solve.
#[derive(Debug, Default)]
pub(crate) struct Cascade {
    num_resources: usize,
    /// Whether the log and records describe the latest solve.
    valid: bool,
    /// Number of the current solve (for Δ membership).
    gen: u32,
    /// The current solve's first tick, and the current pass's tick
    /// (between solves, at or past every tick given out).
    base: u64,
    tick: u64,
    /// Per flow: the pass that froze it ([`NONE`]: no usable record),
    /// its share, and its demand index now and at the previous solve.
    rec: Vec<u32>,
    share: Vec<f64>,
    idx: Vec<u32>,
    prev_idx: Vec<u32>,
    /// Whether an unnoted move means the next solve must scan instead
    /// of reading the notices in `joined`.
    rescan: bool,
    /// Resource id → slot + 1 (0: none yet). Slots are dense and kept
    /// across solves, so the per-link tables grow with the links the
    /// component's flows cross, not with its resource universe.
    slot_of: Vec<u32>,
    /// Per slot: its resource id, the solve it entered Δ in, and its
    /// state while there.
    link: Vec<u32>,
    delta: Vec<u32>,
    remaining: Vec<f64>,
    count: Vec<u32>,
    version: Vec<u32>,
    /// Pass that last listed each slot in `changed`.
    stamp: Vec<u64>,
    heap: SlotHeap,
    /// Pass table (slots of skipped passes are reused) and the log: the
    /// pass ids in the order the latest solve popped them.
    passes: Vec<Pass>,
    free: Vec<u32>,
    log: Vec<u32>,
    next_log: Vec<u32>,
    /// Watch entries `(slot, next)`: a Δ link a logged pass's flows
    /// debit when the pass pops as logged.
    watch: Vec<(u32, u32)>,
    /// Caps of the flows without a usable record.
    caps: BinaryHeap<CapKey>,
    /// Flows whose records were dropped since the last solve.
    gone: Vec<u32>,
    /// Between solves, the flows noted at a new demand index; within a
    /// solve, the flows without a usable record.
    joined: Vec<u32>,
    /// Slots debited by the current pass, once each.
    changed: Vec<u32>,
    /// Flows frozen fresh by the latest solve.
    fresh: Vec<u32>,
    /// Reconstruction scratch: `(tick, share)` of a link's frozen members.
    frozen: Vec<(u64, f64)>,
    work: Work,
    #[cfg(debug_assertions)]
    certifier: Option<super::Certifier>,
}

impl Cascade {
    pub(crate) fn new(num_resources: usize) -> Cascade {
        Cascade {
            num_resources,
            ..Cascade::default()
        }
    }

    /// Drop all state: the next solve is cold. Call it when capacities
    /// or contention parameters change.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Drop `tid`'s record, if it has one: it departed. The next solve
    /// re-examines every link it crosses, and its pass stops a run.
    pub(crate) fn drop_record(&mut self, tid: u32) {
        if let Some(&p) = self.rec.get(tid as usize) {
            if p != NONE {
                self.rec[tid as usize] = NONE;
                self.mark(p);
                self.gone.push(tid);
            }
        }
    }

    /// `tid` now sits at demand index `i`: it joined at the back, or a
    /// `swap_remove` moved it there from the back. Between two solves
    /// every such move must be noted, or [`rescan`](Self::rescan) called.
    pub(crate) fn note_at(&mut self, tid: u32, i: usize) {
        if self.valid {
            self.idx[tid as usize] = i as u32;
            self.joined.push(tid);
        }
    }

    /// The demand list changed in a way not noted (an order-preserving
    /// removal shifted indices, or the caller reorders freely): the next
    /// solve finds indices, joined and reordered flows by scanning it.
    pub(crate) fn rescan(&mut self) {
        self.rescan = true;
    }

    /// Whether the next solve is warm: a solve ran since the state was
    /// created or last invalidated.
    pub(crate) fn is_warm(&self) -> bool {
        self.valid
    }

    /// Flows frozen fresh by the latest solve; every other flow kept
    /// its rate and binding.
    pub(crate) fn fresh(&self) -> &[u32] {
        &self.fresh
    }

    /// Demand index, rate and binding of `tid` as of the latest solve.
    pub(crate) fn index(&self, tid: u32) -> usize {
        self.idx[tid as usize] as usize
    }

    pub(crate) fn rate(&self, tid: u32) -> f64 {
        self.share[tid as usize]
    }

    pub(crate) fn binding(&self, tid: u32) -> u32 {
        let link = self.passes[self.rec[tid as usize] as usize].link;
        if link == NONE {
            CAP_BINDING
        } else {
            link
        }
    }

    /// The work of the latest solve.
    pub(crate) fn last_work(&self) -> Work {
        self.work
    }

    /// Max-min fair rates of the demand set `tid_at(0..n)` (the engine's
    /// active list), bit-identical to a cold solve of the same demands in
    /// the same order. `members[r]` lists the flows crossing link `r`,
    /// once per crossing. Afterwards [`fresh`] names the flows whose
    /// record this solve rewrote.
    ///
    /// [`fresh`]: Self::fresh
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve<'r>(
        &mut self,
        n: usize,
        tid_at: impl Fn(usize) -> u32,
        num_transfers: usize,
        members: &[Vec<u32>],
        route: impl Fn(u32) -> &'r [ResourceId],
        cap: impl Fn(u32) -> f64,
        capacities: &[f64],
        contention: (f64, f64),
    ) {
        let nr = self.num_resources;
        assert!(
            capacities.len() >= nr,
            "capacity table smaller than resource space"
        );
        assert!(
            contention.0 >= 0.0,
            "contention penalty must be non-negative"
        );
        assert!(
            contention.1 > 0.0 && contention.1 <= 1.0,
            "contention floor must be in (0, 1]"
        );
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.valid = false;
            self.delta.fill(0);
            self.gen = 1;
        }
        let scan = !self.valid || self.rescan;
        if !self.valid {
            self.cold_start(n, &tid_at, num_transfers);
        }
        self.work = Work::default();
        // Ticks start at 1: a zero `stamp` lists no slot.
        self.base = self.tick + 1;
        self.fresh.clear();

        // Demand indices, joined flows and reordered flows (see
        // `index_scan`). Their caps join the cap heap.
        let mut caps = std::mem::take(&mut self.caps).into_vec();
        caps.clear();
        #[cfg(debug_assertions)]
        let before: Vec<(u32, u32, u32)> = if scan {
            Vec::new()
        } else {
            (0..n)
                .map(|i| {
                    let t = tid_at(i);
                    (t, self.rec[t as usize], self.prev_idx[t as usize])
                })
                .collect()
        };
        if scan {
            self.joined.clear();
            self.index_scan(n, &tid_at, &cap, &mut caps);
        } else {
            self.index_noted(n, &tid_at, &cap, &mut caps);
            #[cfg(debug_assertions)]
            self.check_indices(&before, &caps);
        }
        self.rescan = false;
        self.caps = BinaryHeap::from(caps);

        // Seed Δ with every route that changed membership.
        let mut joined = std::mem::take(&mut self.joined);
        joined.append(&mut self.gone);
        for &t in &joined {
            for r in route(t) {
                self.enter(r.0 as usize, members, capacities, contention);
            }
        }
        joined.clear();
        self.joined = joined;

        let mut cursor = 0;
        loop {
            // Skip logged passes that no longer hold, orphaning the flows
            // they would have frozen. Only a marked pass can fail to hold.
            while let Some(&p) = self.log.get(cursor) {
                if self.passes[p as usize].watch == NONE {
                    debug_assert!(self.holds(p), "an unmarked pass {p} no longer holds");
                    break;
                }
                if self.holds(p) {
                    break;
                }
                self.work.log_steps += 1;
                self.skip(p, members, &route, &cap, capacities, contention);
                cursor += 1;
            }
            self.tick = self.base + self.next_log.len() as u64;

            // The least of Δ's top and the least cap, then the logged
            // pass at the cursor if it is less still.
            let (remaining, count, version) = (&self.remaining, &self.count, &self.version);
            let mut bound = self
                .heap
                .peek_current(|s| (remaining[s].max(0.0) / count[s] as f64, version[s]))
                .map(|top| (top, Pop::Link(top)));
            while let Some(&CapKey(c)) = self.caps.peek() {
                if !self.is_frozen(c.slot) {
                    if bound.is_none_or(|(k, _)| c.before(&k)) {
                        bound = Some((c, Pop::Cap(c)));
                    }
                    break;
                }
                self.caps.pop();
            }
            let logged = self.log.get(cursor).map(|&p| (self.logged_key(p), p));
            let (key, pop) = match logged {
                Some((k, p)) if bound.is_none_or(|(b, _)| k.before(&b)) => (k, Pop::Logged(p)),
                _ => match bound {
                    Some(b) => b,
                    None => break,
                },
            };

            self.work.passes += 1;
            self.changed.clear();
            let p = match pop {
                Pop::Logged(p) if self.passes[p as usize].watch == NONE => {
                    // A run: this pass and every unmarked one after it
                    // whose key is still below the bound pop as logged
                    // in one step. Nothing they do moves the bound: they
                    // debit no Δ link and free no cap.
                    let end = self.run_end(cursor, bound.map(|(b, _)| b));
                    let len = (end - cursor) as u32;
                    self.next_log.extend_from_slice(&self.log[cursor..end]);
                    cursor = end;
                    self.work.passes += len - 1;
                    self.work.logged += len;
                    self.work.log_steps += 1;
                    continue;
                }
                Pop::Logged(p) => {
                    cursor += 1;
                    self.work.logged += 1;
                    self.work.log_steps += 1;
                    let pass = &mut self.passes[p as usize];
                    pass.tick = self.tick;
                    let (share, mut w) = (pass.share, pass.watch);
                    pass.watch = NONE;
                    while w != NONE && w != MARK {
                        let (s, next) = self.watch[w as usize];
                        self.debit(s as usize, share);
                        w = next;
                    }
                    p
                }
                Pop::Link(top) => {
                    let r = top.id as usize;
                    let p = self.alloc(top.share, top.version, top.id, NONE);
                    for k in 0..members[r].len() {
                        let t = members[r][k];
                        if !self.is_frozen(t) {
                            self.freeze(t, top.share, p, members, &route, capacities, contention);
                        }
                    }
                    // Checked in release too: a link that does not drain
                    // pops again forever, allocating a pass each time.
                    assert_eq!(self.count[top.slot as usize], 0, "bottleneck must drain");
                    p
                }
                Pop::Cap(c) => {
                    let p = self.alloc(key.share, 0, NONE, c.slot);
                    self.freeze(
                        c.slot, key.share, p, members, &route, capacities, contention,
                    );
                    p
                }
            };
            self.next_log.push(p);
            // The batched update (see the module docs of `waterfill`).
            for &c in &self.changed {
                let c = c as usize;
                if self.count[c] == 0 {
                    self.heap.remove(c);
                } else {
                    let share = self.remaining[c].max(0.0) / self.count[c] as f64;
                    self.heap.lower(c, share, self.version[c]);
                }
            }
        }
        assert!(
            self.heap.entries.is_empty(),
            "a live link outlived its flows"
        );
        std::mem::swap(&mut self.log, &mut self.next_log);
        self.next_log.clear();
        self.watch.clear();
        self.tick = self.base + self.log.len() as u64;

        #[cfg(debug_assertions)]
        self.certify(n, &tid_at, &route, &cap, capacities, contention);
    }

    /// Start over: size the tables, drop every record and pass.
    fn cold_start(&mut self, n: usize, tid_at: &impl Fn(usize) -> u32, num_transfers: usize) {
        let nr = self.num_resources;
        if self.rec.len() < num_transfers {
            self.rec.resize(num_transfers, NONE);
            self.share.resize(num_transfers, 0.0);
            self.idx.resize(num_transfers, 0);
            self.prev_idx.resize(num_transfers, 0);
        }
        // Zeroed, so only the pages of mapped links are ever touched.
        if self.slot_of.len() < nr {
            self.slot_of = vec![0; nr];
        }
        for i in 0..n {
            self.rec[tid_at(i) as usize] = NONE;
        }
        self.passes.clear();
        self.free.clear();
        self.log.clear();
        self.gone.clear();
        self.valid = true;
    }

    /// The demand-index step by scanning the whole list from the back:
    /// a flow whose previous index exceeds that of a kept flow behind it
    /// changed relative order. The kept flows are in the logged order,
    /// so their cap ties still break as logged. A reordered flow's cap
    /// joins the cap heap; if its cap popped in the log, that pass no
    /// longer holds, so it is joined anew. Cold solves (every flow
    /// joined) and solves after an unnoted move take this path.
    fn index_scan(
        &mut self,
        n: usize,
        tid_at: &impl Fn(usize) -> u32,
        cap: &impl Fn(u32) -> f64,
        caps: &mut Vec<CapKey>,
    ) {
        self.work.index_visits += n as u64;
        let mut least_behind = u32::MAX;
        for i in (0..n).rev() {
            let t = tid_at(i);
            let ti = t as usize;
            self.idx[ti] = i as u32;
            if self.rec[ti] != NONE && self.prev_idx[ti] <= least_behind {
                least_behind = self.prev_idx[ti];
                self.prev_idx[ti] = i as u32;
                continue;
            }
            if self.rec[ti] == NONE || self.reorder(t) {
                self.joined.push(t);
            }
            self.prev_idx[ti] = i as u32;
            caps.push(CapKey(self.cap_key(t, cap)));
        }
    }

    /// The demand-index step from the noted flows alone. Between solves
    /// the list only grows at the back and loses flows by `swap_remove`,
    /// so a flow never noted still sits at its previous index, and each
    /// noted one was moved forward from the back. The scan's rule then
    /// reduces to: a moved flow is reordered when some flow with a
    /// record behind it had a smaller previous index. The least such
    /// index is the first unmoved record holder's position, or comes
    /// from the nearest moved flow behind — so, walking the moved flows
    /// from the back, each looks only at the joined flows up to the
    /// next one.
    fn index_noted(
        &mut self,
        n: usize,
        tid_at: &impl Fn(usize) -> u32,
        cap: &impl Fn(u32) -> f64,
        caps: &mut Vec<CapKey>,
    ) {
        let mut noted = std::mem::take(&mut self.joined);
        self.work.index_visits += noted.len() as u64;
        // A notice is current while its flow still sits where it was
        // last noted; a flow noted twice is kept once.
        let idx = &self.idx;
        noted.retain(|&t| {
            let i = idx[t as usize] as usize;
            i < n && tid_at(i) == t
        });
        noted.sort_unstable_by_key(|&t| Reverse(idx[t as usize]));
        noted.dedup();
        // The nearest moved flow's index (n: none yet), and the least
        // previous index of the record holders at or behind it.
        let (mut next_moved, mut least_from) = (n, u32::MAX);
        // The flows left without a usable record are compacted to the
        // front of the notices, which become `joined`.
        let mut kept = 0;
        for k in 0..noted.len() {
            let t = noted[k];
            let ti = t as usize;
            let i = self.idx[ti];
            if self.rec[ti] == NONE {
                noted[kept] = t;
                kept += 1;
            } else {
                let mut least = least_from;
                for j in i as usize + 1..next_moved {
                    self.work.index_visits += 1;
                    if self.rec[tid_at(j) as usize] != NONE {
                        debug_assert_eq!(self.prev_idx[tid_at(j) as usize], j as u32);
                        least = j as u32;
                        break;
                    }
                }
                let prev = self.prev_idx[ti];
                (next_moved, least_from) = (i as usize, least.min(prev));
                if prev < least {
                    self.prev_idx[ti] = i;
                    continue;
                }
                if self.reorder(t) {
                    noted[kept] = t;
                    kept += 1;
                }
            }
            self.prev_idx[ti] = i;
            caps.push(CapKey(self.cap_key(t, cap)));
        }
        noted.truncate(kept);
        self.joined = noted;
    }

    /// `t` kept its record but changed relative demand order: a cap
    /// record no longer holds, so it is dropped, and `t` is joined anew
    /// (returns whether it was).
    fn reorder(&mut self, t: u32) -> bool {
        let p = self.rec[t as usize];
        let cap_pass = self.passes[p as usize].link == NONE;
        if cap_pass {
            self.rec[t as usize] = NONE;
            self.mark(p);
        }
        cap_pass
    }

    /// Debug builds check the noted demand-index step against the scan:
    /// the same indices, the same flows joined (or reordered off a cap
    /// record), and the same caps in the cap heap. `before` is the list's
    /// `(flow, record, previous index)` ahead of the step.
    #[cfg(debug_assertions)]
    fn check_indices(&self, before: &[(u32, u32, u32)], caps: &[CapKey]) {
        let (mut joined, mut capped) = (Vec::new(), Vec::new());
        let mut least_behind = u32::MAX;
        for (i, &(t, rec, prev)) in before.iter().enumerate().rev() {
            assert_eq!(self.idx[t as usize], i as u32, "flow {t}'s demand index");
            assert_eq!(
                self.prev_idx[t as usize], i as u32,
                "flow {t}'s logged index"
            );
            if rec == NONE || prev > least_behind {
                capped.push(t);
                if rec == NONE || self.passes[rec as usize].link == NONE {
                    joined.push(t);
                }
            } else {
                least_behind = prev;
            }
        }
        let sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(self.joined.clone()), sorted(joined), "joined flows");
        let noted: Vec<u32> = caps.iter().map(|c| c.0.slot).collect();
        assert_eq!(sorted(noted), sorted(capped), "joined and reordered flows");
    }

    /// Mark pass `p`: it may no longer hold, so no run pops past it
    /// unchecked. A pass with a watch list is marked already.
    fn mark(&mut self, p: u32) {
        let pass = &mut self.passes[p as usize];
        if pass.watch == NONE {
            pass.watch = MARK;
        }
    }

    /// Whether logged pass `p` still holds: its link is outside Δ, or
    /// its cap's flow still has it as record.
    fn holds(&self, p: u32) -> bool {
        let pass = &self.passes[p as usize];
        if pass.link != NONE {
            let s = self.slot_of[pass.link as usize];
            s == 0 || self.delta[s as usize - 1] != self.gen
        } else {
            self.rec[pass.flow as usize] == p
        }
    }

    /// A logged pass's key: a link pass's popped key, a cap pass's cap
    /// at its flow's current demand index.
    #[inline]
    fn logged_key(&self, p: u32) -> Entry {
        let pass = &self.passes[p as usize];
        if pass.link != NONE {
            Entry {
                share: pass.share,
                version: pass.version,
                id: pass.link,
                slot: NONE,
            }
        } else {
            Entry {
                share: pass.share,
                version: 0,
                id: (self.num_resources + self.idx[pass.flow as usize] as usize) as u32,
                slot: pass.flow,
            }
        }
    }

    /// Pop the run of logged passes from `from` (which holds and is
    /// below `bound`): stamp each with its tick, and return where the
    /// run ends — at a marked pass, a key not below `bound`, or the
    /// log's end.
    fn run_end(&mut self, from: usize, bound: Option<Entry>) -> usize {
        let mut q = from;
        while let Some(&p) = self.log.get(q) {
            if self.passes[p as usize].watch != NONE
                || bound.is_some_and(|b| !self.logged_key(p).before(&b))
            {
                break;
            }
            debug_assert!(
                self.holds(p),
                "a run reached pass {p}, which no longer holds"
            );
            self.passes[p as usize].tick = self.tick + (q - from) as u64;
            q += 1;
        }
        q
    }

    /// A cap's key at the flow's current demand index.
    fn cap_key(&self, t: u32, cap: &impl Fn(u32) -> f64) -> Entry {
        let c = cap(t);
        assert!(c > 0.0, "flow {t} has non-positive cap");
        Entry {
            share: c.max(0.0) / 1.0,
            version: 0,
            id: (self.num_resources + self.idx[t as usize] as usize) as u32,
            slot: t,
        }
    }

    /// Whether `t` froze earlier in this solve.
    #[inline]
    fn is_frozen(&self, t: u32) -> bool {
        let p = self.rec[t as usize];
        p != NONE && self.passes[p as usize].tick >= self.base
    }

    fn alloc(&mut self, share: f64, version: u32, link: u32, flow: u32) -> u32 {
        let pass = Pass {
            share,
            version,
            link,
            flow,
            watch: NONE,
            tick: self.tick,
        };
        match self.free.pop() {
            Some(p) => {
                self.passes[p as usize] = pass;
                p
            }
            None => {
                self.passes.push(pass);
                (self.passes.len() - 1) as u32
            }
        }
    }

    /// Put link `r` into Δ, reconstructed: its capacity derated by its
    /// member count, minus its frozen members' shares in pass order. A
    /// member still waiting for its logged pass leaves a watch entry
    /// there instead.
    fn enter(
        &mut self,
        r: usize,
        members: &[Vec<u32>],
        capacities: &[f64],
        (penalty, floor): (f64, f64),
    ) {
        let mut s = self.slot_of[r] as usize;
        if s == 0 {
            self.link.push(r as u32);
            self.delta.push(0);
            self.remaining.push(0.0);
            self.count.push(0);
            self.version.push(0);
            self.stamp.push(0);
            self.heap.pos.push(NONE);
            s = self.link.len();
            self.slot_of[r] = s as u32;
        }
        let s = s - 1;
        if self.delta[s] == self.gen {
            return;
        }
        self.delta[s] = self.gen;
        let m = &members[r];
        self.work.touched += m.len() as u64;
        self.frozen.clear();
        for &t in m {
            let p = self.rec[t as usize];
            if p == NONE {
                continue;
            }
            let pass = &mut self.passes[p as usize];
            if pass.tick >= self.base {
                self.frozen.push((pass.tick, self.share[t as usize]));
            } else {
                self.watch.push((s as u32, pass.watch));
                pass.watch = (self.watch.len() - 1) as u32;
            }
        }
        let total = m.len() as u32;
        let mut rem = capacities[r];
        if total > 0 {
            assert!(rem > 0.0, "resource {r} has non-positive capacity");
        }
        if penalty > 0.0 && floor < 1.0 && total > 1 {
            rem *= (1.0 / (1.0 + penalty * (total - 1) as f64)).max(floor);
        }
        self.frozen.sort_unstable_by_key(|&(tick, _)| tick);
        for &(_, share) in &self.frozen {
            rem -= share;
        }
        let debits = self.frozen.len() as u32;
        self.remaining[s] = rem;
        self.count[s] = total - debits;
        self.version[s] = debits;
        if total > debits {
            self.heap.push(Entry {
                share: rem.max(0.0) / (total - debits) as f64,
                version: debits,
                id: r as u32,
                slot: s as u32,
            });
        }
    }

    /// One debit of `share` on the Δ link in `slot`, listed once per
    /// pass for the batched update.
    #[inline]
    fn debit(&mut self, slot: usize, share: f64) {
        self.remaining[slot] -= share;
        self.count[slot] -= 1;
        self.version[slot] = self.version[slot].wrapping_add(1);
        if self.stamp[slot] != self.tick {
            self.stamp[slot] = self.tick;
            self.changed.push(slot as u32);
        }
    }

    /// Freeze `t` fresh at share `s` in pass `p`: every link it crosses
    /// enters Δ (as of before this pass's debits), then takes its debit.
    #[allow(clippy::too_many_arguments)]
    fn freeze<'r>(
        &mut self,
        t: u32,
        s: f64,
        p: u32,
        members: &[Vec<u32>],
        route: &impl Fn(u32) -> &'r [ResourceId],
        capacities: &[f64],
        contention: (f64, f64),
    ) {
        let hops = route(t);
        for r in hops {
            self.enter(r.0 as usize, members, capacities, contention);
        }
        self.rec[t as usize] = p;
        self.share[t as usize] = s;
        self.fresh.push(t);
        for r in hops {
            self.debit(self.slot_of[r.0 as usize] as usize - 1, s);
        }
    }

    /// Skip logged pass `p`, orphaning the flows it froze that are still
    /// waiting for it, and recycle its slot.
    #[allow(clippy::too_many_arguments)]
    fn skip<'r>(
        &mut self,
        p: u32,
        members: &[Vec<u32>],
        route: &impl Fn(u32) -> &'r [ResourceId],
        cap: &impl Fn(u32) -> f64,
        capacities: &[f64],
        contention: (f64, f64),
    ) {
        let pass = self.passes[p as usize];
        if pass.link != NONE {
            let l = pass.link as usize;
            for k in 0..members[l].len() {
                let t = members[l][k];
                if self.rec[t as usize] == p {
                    self.orphan(t, members, route, cap, capacities, contention);
                }
            }
        } else if self.rec[pass.flow as usize] == p {
            self.orphan(pass.flow, members, route, cap, capacities, contention);
        }
        self.passes[p as usize].watch = NONE;
        self.free.push(p);
    }

    #[allow(clippy::too_many_arguments)]
    fn orphan<'r>(
        &mut self,
        t: u32,
        members: &[Vec<u32>],
        route: &impl Fn(u32) -> &'r [ResourceId],
        cap: &impl Fn(u32) -> f64,
        capacities: &[f64],
        contention: (f64, f64),
    ) {
        self.rec[t as usize] = NONE;
        let key = self.cap_key(t, cap);
        self.caps.push(CapKey(key));
        for r in route(t) {
            self.enter(r.0 as usize, members, capacities, contention);
        }
    }

    /// Debug builds check every solve, warm or cold, against its
    /// max-min certificate.
    #[cfg(debug_assertions)]
    fn certify<'r>(
        &mut self,
        n: usize,
        tid_at: &impl Fn(usize) -> u32,
        route: &impl Fn(u32) -> &'r [ResourceId],
        cap: &impl Fn(u32) -> f64,
        capacities: &[f64],
        contention: (f64, f64),
    ) {
        let rates: Vec<f64> = (0..n).map(|i| self.rate(tid_at(i))).collect();
        let bindings: Vec<u32> = (0..n).map(|i| self.binding(tid_at(i))).collect();
        let certifier = self
            .certifier
            .get_or_insert_with(|| super::Certifier::new(self.num_resources));
        if let Err(e) = certifier.check(
            n,
            |i| route(tid_at(i)),
            |i| cap(tid_at(i)),
            capacities,
            contention,
            &rates,
            &bindings,
        ) {
            panic!("cascade allocation failed its max-min certificate: {e}");
        }
    }
}
