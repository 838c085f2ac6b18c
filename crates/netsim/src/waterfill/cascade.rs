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
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pass of the log.
#[derive(Debug, Clone, Copy)]
struct Pass {
    share: f64,
    version: u32,
    /// The popped link, or [`NONE`] for a cap pass.
    link: u32,
    /// A cap pass's flow.
    flow: u32,
    /// Solve that last processed the pass (popped as logged or fresh),
    /// and its tick there: the order reconstruction debits in.
    gen: u32,
    tick: u64,
    /// Head of the pass's watch list in [`Cascade::watch`].
    watch: u32,
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

/// The persistent solver state (see the module docs). Flows are named
/// by transfer id and links by resource id, both in the component's
/// local universe; the tables are sized on the first solve.
#[derive(Debug, Default)]
pub(crate) struct Cascade {
    num_resources: usize,
    /// Whether the log and records describe the latest solve.
    valid: bool,
    /// Number of the current solve, and of the current pass overall.
    gen: u32,
    tick: u64,
    /// Per flow: the pass that froze it ([`NONE`]: no usable record),
    /// its share, and its demand index now and at the previous solve.
    rec: Vec<u32>,
    share: Vec<f64>,
    idx: Vec<u32>,
    prev_idx: Vec<u32>,
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
    joined: Vec<u32>,
    /// Slots debited by the current pass, once each.
    changed: Vec<u32>,
    /// Flows frozen fresh by the latest solve.
    fresh: Vec<u32>,
    /// Reconstruction scratch: `(tick, share)` of a link's frozen members.
    frozen: Vec<(u64, f64)>,
    /// Passes of the latest solve, how many popped as logged, and the
    /// flow–link entries of the links it put into Δ: the entries it read
    /// or wrote (a skipped pass's link and every link a freeze debits are
    /// in Δ).
    passes_run: u32,
    logged: u32,
    touched: u64,
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
    /// re-examines every link it crosses.
    pub(crate) fn drop_record(&mut self, tid: u32) {
        if let Some(r) = self.rec.get_mut(tid as usize) {
            if *r != NONE {
                *r = NONE;
                self.gone.push(tid);
            }
        }
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

    /// Passes of the latest solve, how many of them popped as logged,
    /// and the flow–link entries it read or wrote.
    pub(crate) fn last_work(&self) -> (u32, u32, u64) {
        (self.passes_run, self.logged, self.touched)
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
        if !self.valid {
            self.cold_start(n, &tid_at, num_transfers);
        }
        (self.passes_run, self.logged, self.touched) = (0, 0, 0);
        self.fresh.clear();

        // Demand indices, joined flows, and reordered flows: scanning
        // from the back, a flow whose previous index exceeds that of a
        // kept flow behind it changed relative order. The kept flows are
        // in the logged order, so their cap ties still break as logged.
        // A reordered flow's cap joins the cap heap; if its cap popped
        // in the log, that pass no longer holds, so it is joined anew.
        let mut caps = std::mem::take(&mut self.caps).into_vec();
        caps.clear();
        let mut least_behind = u32::MAX;
        for i in (0..n).rev() {
            let t = tid_at(i);
            let ti = t as usize;
            self.idx[ti] = i as u32;
            if self.rec[ti] == NONE {
                self.joined.push(t);
            } else if self.prev_idx[ti] > least_behind {
                if self.passes[self.rec[ti] as usize].link == NONE {
                    self.rec[ti] = NONE;
                    self.joined.push(t);
                }
            } else {
                least_behind = self.prev_idx[ti];
                self.prev_idx[ti] = i as u32;
                continue;
            }
            self.prev_idx[ti] = i as u32;
            caps.push(CapKey(self.cap_key(t, &cap)));
        }
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
            // they would have frozen.
            while cursor < self.log.len() {
                let p = self.log[cursor];
                let pass = self.passes[p as usize];
                let holds = if pass.link != NONE {
                    let s = self.slot_of[pass.link as usize];
                    s == 0 || self.delta[s as usize - 1] != self.gen
                } else {
                    self.rec[pass.flow as usize] == p
                };
                if holds {
                    break;
                }
                self.skip(p, members, &route, &cap, capacities, contention);
                cursor += 1;
            }

            // The least of the logged pass, Δ's top and the least cap.
            let mut pop: Option<(Entry, Pop)> = self.log.get(cursor).map(|&p| {
                let pass = self.passes[p as usize];
                let key = if pass.link != NONE {
                    Entry {
                        share: pass.share,
                        version: pass.version,
                        id: pass.link,
                        slot: NONE,
                    }
                } else {
                    self.cap_key(pass.flow, &cap)
                };
                (key, Pop::Logged(p))
            });
            let (remaining, count, version) = (&self.remaining, &self.count, &self.version);
            let top = self
                .heap
                .peek_current(|s| (remaining[s].max(0.0) / count[s] as f64, version[s]));
            if let Some(top) = top {
                if pop.is_none_or(|(k, _)| top.before(&k)) {
                    pop = Some((top, Pop::Link(top)));
                }
            }
            while let Some(&CapKey(c)) = self.caps.peek() {
                if !self.is_frozen(c.slot) {
                    if pop.is_none_or(|(k, _)| c.before(&k)) {
                        pop = Some((c, Pop::Cap(c)));
                    }
                    break;
                }
                self.caps.pop();
            }
            let Some((key, pop)) = pop else { break };

            self.tick += 1;
            self.passes_run += 1;
            self.changed.clear();
            let p = match pop {
                Pop::Logged(p) => {
                    cursor += 1;
                    self.logged += 1;
                    let pass = &mut self.passes[p as usize];
                    pass.gen = self.gen;
                    pass.tick = self.tick;
                    let (share, mut w) = (pass.share, pass.watch);
                    pass.watch = NONE;
                    while w != NONE {
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
                    debug_assert_eq!(self.count[top.slot as usize], 0, "bottleneck must drain");
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
        debug_assert!(
            self.heap.entries.is_empty(),
            "a live link outlived its flows"
        );
        std::mem::swap(&mut self.log, &mut self.next_log);
        self.next_log.clear();
        self.watch.clear();

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
        p != NONE && self.passes[p as usize].gen == self.gen
    }

    fn alloc(&mut self, share: f64, version: u32, link: u32, flow: u32) -> u32 {
        let pass = Pass {
            share,
            version,
            link,
            flow,
            gen: self.gen,
            tick: self.tick,
            watch: NONE,
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
        self.touched += m.len() as u64;
        self.frozen.clear();
        for &t in m {
            let p = self.rec[t as usize];
            if p == NONE {
                continue;
            }
            let pass = &mut self.passes[p as usize];
            if pass.gen == self.gen {
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
