//! Max-min fair bandwidth allocation (progressive filling / water-filling).
//!
//! Given a set of flows, each with a route over capacitated resources and a
//! per-flow rate cap, compute the max-min fair rate vector: rates are raised
//! uniformly until a resource saturates, flows through saturated resources
//! are frozen, and the process repeats. Per-flow caps are handled uniformly
//! by giving each flow a private virtual resource whose capacity is the cap.
//!
//! This is the classical fluid model of network sharing; it is how the
//! BG/Q torus behaves at the message level when several messages contend
//! for a link (the Messaging Unit arbitrates packet slots fairly).
//!
//! ## One solver
//!
//! Every allocation comes from one progressive-filling loop,
//! `cascade::Cascade`: persistent solver state that keeps the previous
//! solve's pass log and per-flow freeze records and re-solves only the
//! links a changed flow reaches (see the `cascade` module docs). With its
//! state dropped it is a cold solve of the whole demand set. The engine
//! runs every re-level through it; [`SolverMode::Full`](crate::SolverMode::Full)
//! drops the state before each one, and [`Waterfill`] is one cold solve
//! per call over a demand slice.
//!
//! ## Heap and batched update
//!
//! The next link bottleneck comes from an *indexed* min-heap holding at
//! most one entry per link slot, keyed `(share, version, resource id)`.
//! When a bottleneck freezes its flows, every slot those flows cross is
//! debited once per crossing — the same subtractions, in the same order,
//! as a per-flow update — and then looked at once per bottleneck: a
//! batched share update. A debit can only raise a slot's key (the version
//! always grows, and in exact arithmetic the share cannot fall), so a
//! raised key stays in the heap as a stale lower bound and is refreshed
//! only if it reaches the top; a share that float rounding pushed *below*
//! the stored one is sifted up at once. Most debited slots never surface
//! before the last flow freezes, so most updates cost one division and
//! one comparison instead of a heap operation.
//!
//! A flow's cap is a one-flow resource keyed `(cap, 0, num_resources +
//! demand index)`, which never changes while the flow is unfixed. Each
//! step takes the least of the link heap's top and the least live cap.
//!
//! ## Exactness
//!
//! The allocation is bit-identical to the lazy-deletion formulation the
//! flat solver replaced, kept as the test oracle in
//! `tests/common/reference.rs`. That solver pushed a fresh heap entry
//! after every debit and skipped entries whose version had moved on, so
//! the entry it popped was the minimum over the *latest* key of each live
//! resource, caps included. Here every stored key is a lower bound of its
//! slot's latest key, so a top whose key is current is the least link
//! key, and the lesser of it and the least cap key is that same minimum.
//! Pop order, every share, every debit and every tie-break (versions
//! still advance once per debit) are therefore the same floats in the
//! same order.

mod cascade;

pub(crate) use cascade::Cascade;

use crate::graph::ResourceId;
use std::cmp::Ordering;
use std::fmt;

/// Per-flow binding code reported by [`Waterfill::bindings`] when the
/// flow's own rate cap (its private virtual resource) fixed its rate.
pub const CAP_BINDING: u32 = u32::MAX;

/// A slot absent from the heap (or the slot field of a logged key); in
/// the cascade also an absent pass, link or record.
const NONE: u32 = u32::MAX;

/// Relative slack the max-min certificate grants float rounding.
const CERT_TOL: f64 = 1e-9;

/// One flow's demand: its route and rate cap.
#[derive(Debug, Clone, Copy)]
pub struct FlowDemand<'a> {
    pub route: &'a [ResourceId],
    pub cap: f64,
}

/// One-shot max-min fair solves over a demand slice.
///
/// Each call is a cold solve of the engine's solver: a flow's index in
/// the slice is its transfer id and demand index. Allocate once per
/// resource space (sized by the number of real resources) and reuse it;
/// its buffers are recycled across calls. Debug builds check every
/// allocation against its max-min certificate (see [`certify`]) before
/// returning it.
#[derive(Debug)]
pub struct Waterfill {
    cascade: Cascade,
    /// Per resource: the flows of the current call crossing it, once per
    /// crossing. Empty between calls.
    members: Vec<Vec<u32>>,
    binding: Vec<u32>,
}

impl Waterfill {
    /// Create scratch state for a network with `num_resources` real
    /// resources.
    pub fn new(num_resources: usize) -> Waterfill {
        Waterfill {
            cascade: Cascade::new(num_resources),
            members: vec![Vec::new(); num_resources],
            binding: Vec::new(),
        }
    }

    /// Per-flow binding resource of the most recent compute: for each
    /// flow (same indexing as the demand slice), the real resource whose
    /// residual fixed its rate, or [`CAP_BINDING`] when its own rate cap
    /// bound first. The popped bottleneck in progressive filling *is*
    /// the max-min binding resource, so this falls out of the solve for
    /// free.
    pub fn bindings(&self) -> &[u32] {
        &self.binding
    }

    /// Compute max-min fair rates with ideal sharing (no contention
    /// penalty).
    pub fn compute(&mut self, flows: &[FlowDemand<'_>], capacities: &[f64], rates: &mut Vec<f64>) {
        self.compute_with_penalty(flows, capacities, 0.0, 1.0, rates)
    }

    /// Compute max-min fair rates.
    ///
    /// `capacities[r]` is the capacity of real resource `r`; every resource
    /// on a route must have positive capacity. `rates` is cleared and filled
    /// with one rate per flow, in order.
    ///
    /// `contention_penalty` (γ) derates a resource shared by `n` flows to
    /// `capacity · max(floor, 1 / (1 + γ·(n-1)))`, modelling per-flow
    /// arbitration loss that saturates at `contention_floor`; γ = 0 (or
    /// floor = 1) is ideal fluid sharing.
    ///
    /// # Panics
    /// Panics if a route references a resource with non-positive capacity
    /// or out of range of `capacities`, if a cap is not positive, if γ is
    /// negative, or if the floor is outside `(0, 1]`.
    pub fn compute_with_penalty(
        &mut self,
        flows: &[FlowDemand<'_>],
        capacities: &[f64],
        contention_penalty: f64,
        contention_floor: f64,
        rates: &mut Vec<f64>,
    ) {
        let n = flows.len();
        for (fi, f) in flows.iter().enumerate() {
            for r in f.route {
                let ri = r.0 as usize;
                assert!(
                    ri < self.members.len(),
                    "route references unknown resource {ri}"
                );
                self.members[ri].push(fi as u32);
            }
        }
        self.cascade.invalidate();
        self.cascade.solve(
            n,
            |i| i as u32,
            n,
            &self.members,
            |t| flows[t as usize].route,
            |t| flows[t as usize].cap,
            capacities,
            (contention_penalty, contention_floor),
        );
        rates.clear();
        rates.extend((0..n as u32).map(|t| self.cascade.rate(t)));
        self.binding.clear();
        self.binding
            .extend((0..n as u32).map(|t| self.cascade.binding(t)));
        for f in flows {
            for r in f.route {
                self.members[r.0 as usize].clear();
            }
        }
    }
}

/// A resource's key in the filling order (`slot` is [`NONE`] for a
/// logged key; a cap's key carries its flow there).
#[derive(Debug, Clone, Copy)]
struct Entry {
    share: f64,
    version: u32,
    id: u32,
    slot: u32,
}

impl Entry {
    /// Heap order: share (total order, so NaN is placed deterministically),
    /// then version, then id. Ids are unique, so the order is strict.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        match self.share.total_cmp(&other.share) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => (self.version, self.id) < (other.version, other.id),
        }
    }
}

/// Indexed binary min-heap with at most one entry per slot; `pos`
/// tracks where each slot sits ([`NONE`] when absent), so lowering its
/// key is one sift. Stored keys may lag behind the current ones, but
/// only ever from below (see [`peek_current`](Self::peek_current)).
#[derive(Debug, Default)]
struct SlotHeap {
    entries: Vec<Entry>,
    pos: Vec<u32>,
}

impl SlotHeap {
    /// The slot with the least *current* key, given `current(slot)`: its
    /// `(share, version)` now.
    ///
    /// Requires every stored key to be at most its slot's current key.
    /// Then a top whose stored version is current holds the least key
    /// of all: every other stored key is at least the top's, and every
    /// current key at least its stored one. A top with an older version
    /// is refreshed and sifted down until one is current.
    fn peek_current(&mut self, current: impl Fn(usize) -> (f64, u32)) -> Option<Entry> {
        loop {
            let top = *self.entries.first()?;
            let (share, version) = current(top.slot as usize);
            if version == top.version {
                return Some(top);
            }
            self.entries[0].share = share;
            self.entries[0].version = version;
            self.sift_down(0);
        }
    }

    /// Insert `e` for a slot not in the heap.
    fn push(&mut self, e: Entry) {
        let i = self.entries.len();
        self.entries.push(e);
        self.pos[e.slot as usize] = i as u32;
        self.sift_up(i);
    }

    /// Take `slot` out of the heap, if it is in it.
    fn remove(&mut self, slot: usize) {
        let i = self.pos[slot];
        if i == NONE {
            return;
        }
        self.pos[slot] = NONE;
        let i = i as usize;
        let last = self.entries.pop().expect("a present slot has an entry");
        if i < self.entries.len() {
            self.entries[i] = last;
            if i > 0 && last.before(&self.entries[(i - 1) / 2]) {
                self.sift_up(i)
            } else {
                self.sift_down(i)
            }
        }
    }

    /// Store `(share, version)` for `slot` if it orders before the stored
    /// key. A later key left unstored keeps the stored one a lower bound,
    /// which is all [`peek_current`](Self::peek_current) needs.
    fn lower(&mut self, slot: usize, share: f64, version: u32) {
        let i = self.pos[slot];
        debug_assert!(i != NONE, "live slot {slot} is not in the heap");
        let i = i as usize;
        let key = Entry {
            share,
            version,
            ..self.entries[i]
        };
        if key.before(&self.entries[i]) {
            self.entries[i] = key;
            self.sift_up(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let p = (i - 1) / 2;
            if !e.before(&self.entries[p]) {
                break;
            }
            self.entries[i] = self.entries[p];
            self.pos[self.entries[i].slot as usize] = i as u32;
            i = p;
        }
        self.entries[i] = e;
        self.pos[e.slot as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.entries[i];
        let n = self.entries.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && self.entries[r].before(&self.entries[l]) {
                r
            } else {
                l
            };
            if !self.entries[c].before(&e) {
                break;
            }
            self.entries[i] = self.entries[c];
            self.pos[self.entries[i].slot as usize] = i as u32;
            i = c;
        }
        self.entries[i] = e;
        self.pos[e.slot as usize] = i as u32;
    }
}

/// Why an allocation is not a max-min fair one (see [`certify`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// A rate is negative, NaN or infinite.
    BadRate { flow: usize, rate: f64 },
    /// A flow runs above its own rate cap.
    OverFlowCap { flow: usize, rate: f64, cap: f64 },
    /// A resource carries more than its (derated) capacity.
    OverCapacity {
        resource: u32,
        load: f64,
        capacity: f64,
    },
    /// A flow's reported binding does not prove its rate is maximal.
    NoBottleneck {
        flow: usize,
        binding: u32,
        reason: &'static str,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CertificateError::BadRate { flow, rate } => write!(f, "flow {flow} has rate {rate}"),
            CertificateError::OverFlowCap { flow, rate, cap } => {
                write!(f, "flow {flow} runs at {rate}, above its cap {cap}")
            }
            CertificateError::OverCapacity {
                resource,
                load,
                capacity,
            } => {
                write!(
                    f,
                    "resource {resource} carries {load}, above its capacity {capacity}"
                )
            }
            CertificateError::NoBottleneck {
                flow,
                binding,
                reason,
            } => {
                write!(f, "flow {flow} (binding {binding}): {reason}")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

/// Check that `rates` is the max-min fair allocation of `flows`, with
/// `bindings` (one per flow, as [`Waterfill::bindings`] reports them) as
/// the witness. Linear in the total route length.
///
/// The certificate is the textbook characterization, checked directly
/// rather than by solving again: the allocation is feasible (no flow above
/// its cap, no resource above its capacity derated as
/// [`Waterfill::compute_with_penalty`] describes), and every flow has a
/// bottleneck — either its cap, which it runs at, or a resource on its
/// route that is saturated and on which no flow runs faster. Comparisons
/// allow a relative 1e-9 of float rounding.
pub fn certify(
    flows: &[FlowDemand<'_>],
    capacities: &[f64],
    contention_penalty: f64,
    contention_floor: f64,
    rates: &[f64],
    bindings: &[u32],
) -> Result<(), CertificateError> {
    assert!(
        rates.len() == flows.len() && bindings.len() == flows.len(),
        "one rate and one binding per flow"
    );
    Certifier::new(capacities.len()).check(
        flows.len(),
        |i| flows[i].route,
        |i| flows[i].cap,
        capacities,
        (contention_penalty, contention_floor),
        rates,
        bindings,
    )
}

/// Reusable per-resource tallies for [`certify`]; a check first resets
/// only the resources the previous one touched.
#[derive(Debug)]
struct Certifier {
    load: Vec<f64>,
    peak: Vec<f64>,
    hops: Vec<u32>,
    touched: Vec<u32>,
}

impl Certifier {
    fn new(num_resources: usize) -> Certifier {
        Certifier {
            load: vec![0.0; num_resources],
            peak: vec![0.0; num_resources],
            hops: vec![0; num_resources],
            touched: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check<'r>(
        &mut self,
        n: usize,
        route: impl Fn(usize) -> &'r [ResourceId],
        cap: impl Fn(usize) -> f64,
        capacities: &[f64],
        (penalty, floor): (f64, f64),
        rates: &[f64],
        bindings: &[u32],
    ) -> Result<(), CertificateError> {
        for r in self.touched.drain(..) {
            let r = r as usize;
            self.load[r] = 0.0;
            self.peak[r] = 0.0;
            self.hops[r] = 0;
        }
        for (flow, &rate) in rates.iter().enumerate().take(n) {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(CertificateError::BadRate { flow, rate });
            }
            let c = cap(flow);
            if rate > c * (1.0 + CERT_TOL) {
                return Err(CertificateError::OverFlowCap { flow, rate, cap: c });
            }
            for r in route(flow) {
                let ri = r.0 as usize;
                if self.hops[ri] == 0 {
                    self.touched.push(r.0);
                }
                self.hops[ri] += 1;
                self.load[ri] += rate;
                self.peak[ri] = self.peak[ri].max(rate);
            }
        }
        let capacity = |ri: usize, hops: u32| {
            let eff = if penalty > 0.0 && floor < 1.0 && hops > 1 {
                (1.0 / (1.0 + penalty * (hops - 1) as f64)).max(floor)
            } else {
                1.0
            };
            capacities[ri] * eff
        };
        for &r in &self.touched {
            let ri = r as usize;
            let c = capacity(ri, self.hops[ri]);
            if self.load[ri] > c * (1.0 + CERT_TOL) {
                return Err(CertificateError::OverCapacity {
                    resource: r,
                    load: self.load[ri],
                    capacity: c,
                });
            }
        }
        for (flow, (&rate, &binding)) in rates.iter().zip(bindings).enumerate().take(n) {
            let fail = |reason| {
                Err(CertificateError::NoBottleneck {
                    flow,
                    binding,
                    reason,
                })
            };
            if binding == CAP_BINDING {
                if rate < cap(flow) * (1.0 - CERT_TOL) {
                    return fail("cap-bound but below its cap");
                }
                continue;
            }
            if !route(flow).iter().any(|r| r.0 == binding) {
                return fail("binding resource is not on the route");
            }
            let bi = binding as usize;
            if self.load[bi] < capacity(bi, self.hops[bi]) * (1.0 - CERT_TOL) {
                return fail("binding resource is not saturated");
            }
            if rate < self.peak[bi] * (1.0 - CERT_TOL) {
                return fail("another flow on the binding resource runs faster");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[path = "../tests/common/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(v: &[u32]) -> Vec<ResourceId> {
        v.iter().map(|&x| ResourceId(x)).collect()
    }

    fn run(num_res: usize, caps: &[f64], flows: &[(Vec<ResourceId>, f64)]) -> Vec<f64> {
        let mut wf = Waterfill::new(num_res);
        let demands: Vec<FlowDemand> = flows
            .iter()
            .map(|(r, c)| FlowDemand { route: r, cap: *c })
            .collect();
        let mut rates = Vec::new();
        wf.compute(&demands, caps, &mut rates);
        rates
    }

    #[test]
    fn single_flow_gets_its_cap() {
        let rates = run(2, &[10.0, 10.0], &[(rid(&[0, 1]), 3.0)]);
        assert_eq!(rates, vec![3.0]);
    }

    #[test]
    fn single_flow_limited_by_link() {
        let rates = run(2, &[2.0, 10.0], &[(rid(&[0, 1]), 5.0)]);
        assert_eq!(rates, vec![2.0]);
    }

    #[test]
    fn equal_flows_share_equally() {
        let flows = vec![(rid(&[0]), 10.0), (rid(&[0]), 10.0), (rid(&[0]), 10.0)];
        let rates = run(1, &[6.0], &flows);
        for r in rates {
            assert!((r - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_flow_releases_bandwidth_to_others() {
        // Two flows on a 10-unit link; one capped at 2 -> other gets 8.
        let flows = vec![(rid(&[0]), 2.0), (rid(&[0]), 100.0)];
        let rates = run(1, &[10.0], &flows);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_link_max_min() {
        // Textbook example: long flow over links 0,1; short flows on each.
        // caps: link0 = 10, link1 = 4.
        // Fair: bottleneck link1 share 2 (long, short1), then short0 gets 8.
        let flows = vec![
            (rid(&[0, 1]), 100.0), // long
            (rid(&[0]), 100.0),    // short on link 0
            (rid(&[1]), 100.0),    // short on link 1
        ];
        let rates = run(2, &[10.0, 4.0], &flows);
        assert!((rates[0] - 2.0).abs() < 1e-9, "long flow {}", rates[0]);
        assert!((rates[1] - 8.0).abs() < 1e-9, "short0 {}", rates[1]);
        assert!((rates[2] - 2.0).abs() < 1e-9, "short1 {}", rates[2]);
    }

    #[test]
    fn empty_route_flow_gets_cap() {
        let rates = run(1, &[10.0], &[(rid(&[]), 7.0)]);
        assert_eq!(rates, vec![7.0]);
    }

    #[test]
    fn no_flows_is_fine() {
        let rates = run(1, &[10.0], &[]);
        assert!(rates.is_empty());
    }

    #[test]
    fn capacity_never_exceeded() {
        // Randomish asymmetric scenario, checked exhaustively.
        let flows = vec![
            (rid(&[0, 1, 2]), 5.0),
            (rid(&[1]), 9.0),
            (rid(&[2, 0]), 1.5),
            (rid(&[0]), 9.0),
            (rid(&[2]), 0.25),
        ];
        let caps = [4.0, 3.0, 2.0];
        let rates = run(3, &caps, &flows);
        let mut used = [0.0f64; 3];
        for ((route, cap), rate) in flows.iter().zip(&rates) {
            assert!(*rate <= cap * (1.0 + 1e-9), "rate exceeds cap");
            assert!(*rate > 0.0, "every flow must make progress");
            for r in route {
                used[r.0 as usize] += rate;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(u <= &(c * (1.0 + 1e-6)), "capacity exceeded: {u} > {c}");
        }
    }

    #[test]
    fn bindings_name_the_fixing_resource() {
        let mut wf = Waterfill::new(2);
        // Textbook max-min (see classic_three_link_max_min): the long
        // flow and short1 are fixed by link 1, short0 by link 0.
        let long = rid(&[0, 1]);
        let short0 = rid(&[0]);
        let short1 = rid(&[1]);
        let demands = [
            FlowDemand {
                route: &long,
                cap: 100.0,
            },
            FlowDemand {
                route: &short0,
                cap: 100.0,
            },
            FlowDemand {
                route: &short1,
                cap: 100.0,
            },
        ];
        let mut rates = Vec::new();
        wf.compute(&demands, &[10.0, 4.0], &mut rates);
        assert_eq!(wf.bindings(), &[1, 0, 1]);
    }

    #[test]
    fn bindings_report_cap_limited_flows() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [
            FlowDemand {
                route: &route,
                cap: 2.0,
            },
            FlowDemand {
                route: &route,
                cap: 100.0,
            },
        ];
        let mut rates = Vec::new();
        wf.compute(&demands, &[10.0], &mut rates);
        // Flow 0's private cap (share 2) pops before the link (share 5):
        // flow 0 is cap-bound, flow 1 link-bound.
        assert_eq!(wf.bindings(), &[CAP_BINDING, 0]);
        // Empty routes have only the private cap resource.
        let empty = rid(&[]);
        let demands = [FlowDemand {
            route: &empty,
            cap: 7.0,
        }];
        wf.compute(&demands, &[10.0], &mut rates);
        assert_eq!(wf.bindings(), &[CAP_BINDING]);
    }

    #[test]
    fn share_ties_go_to_the_lower_version_then_the_lower_id() {
        // Link 0 (10 / 2), link 1 (5 / 1) and flow 1's cap (5) all tie
        // at share 5 and version 0: link 0 has the lowest id and binds
        // both flows.
        let mut wf = Waterfill::new(2);
        let a = rid(&[0]);
        let b = rid(&[0, 1]);
        let demands = [
            FlowDemand {
                route: &a,
                cap: 100.0,
            },
            FlowDemand {
                route: &b,
                cap: 5.0,
            },
        ];
        let mut rates = Vec::new();
        wf.compute(&demands, &[10.0, 5.0], &mut rates);
        assert_eq!(rates, vec![5.0, 5.0]);
        assert_eq!(wf.bindings(), &[0, 0]);
        // With link 0 wider only link 1 and the cap tie: the real link's
        // id is below every private cap id, so link 1 binds flow 1.
        wf.compute(&demands, &[30.0, 5.0], &mut rates);
        assert_eq!(rates, vec![25.0, 5.0]);
        assert_eq!(wf.bindings(), &[0, 1]);
    }

    #[test]
    fn repeated_hops_debit_twice() {
        // A route crossing link 0 twice counts as two of its three users.
        let rates = run(1, &[9.0], &[(rid(&[0, 0]), 100.0), (rid(&[0]), 100.0)]);
        assert_eq!(rates, vec![3.0, 3.0]);
    }

    #[test]
    fn scratch_state_resets_between_calls() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [FlowDemand {
            route: &route,
            cap: 100.0,
        }];
        let mut rates = Vec::new();
        wf.compute(&demands, &[10.0], &mut rates);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        // Second call must see a clean slate.
        wf.compute(&demands, &[10.0], &mut rates);
        assert!((rates[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn contention_penalty_derates_shared_links() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [
            FlowDemand {
                route: &route,
                cap: 100.0,
            },
            FlowDemand {
                route: &route,
                cap: 100.0,
            },
        ];
        let mut rates = Vec::new();
        // Ideal sharing: 5 + 5.
        wf.compute_with_penalty(&demands, &[10.0], 0.0, 1.0, &mut rates);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        // γ = 0.5, floor 0.5: effective capacity 10 / 1.5 -> 3.333 each.
        wf.compute_with_penalty(&demands, &[10.0], 0.5, 0.5, &mut rates);
        assert!((rates[0] - 10.0 / 1.5 / 2.0).abs() < 1e-9, "{}", rates[0]);
        assert!((rates[1] - rates[0]).abs() < 1e-12);
        // Same γ but floor 0.8: the floor binds -> 4.0 each.
        wf.compute_with_penalty(&demands, &[10.0], 0.5, 0.8, &mut rates);
        assert!((rates[0] - 4.0).abs() < 1e-9, "{}", rates[0]);
    }

    #[test]
    fn contention_penalty_leaves_lone_flows_alone() {
        let mut wf = Waterfill::new(2);
        let r0 = rid(&[0]);
        let r1 = rid(&[1]);
        let demands = [
            FlowDemand {
                route: &r0,
                cap: 100.0,
            },
            FlowDemand {
                route: &r1,
                cap: 100.0,
            },
        ];
        let mut rates = Vec::new();
        wf.compute_with_penalty(&demands, &[10.0, 10.0], 0.9, 0.5, &mut rates);
        assert_eq!(rates, vec![10.0, 10.0], "disjoint flows see no penalty");
    }

    #[test]
    #[should_panic(expected = "penalty must be non-negative")]
    fn negative_penalty_panics() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [FlowDemand {
            route: &route,
            cap: 1.0,
        }];
        let mut rates = Vec::new();
        wf.compute_with_penalty(&demands, &[10.0], -0.1, 1.0, &mut rates);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        run(1, &[10.0], &[(rid(&[3]), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-positive capacity")]
    fn zero_capacity_panics() {
        run(1, &[0.0], &[(rid(&[0]), 1.0)]);
    }

    #[test]
    fn slot_heap_pops_the_least_current_key() {
        // Current keys move the way debits move them: most rise behind
        // the heap's back, some fall and are lowered, some slots drain
        // and are removed. Every peek must still find the least current
        // key of a brute-force scan.
        let n = 64;
        let mut heap = SlotHeap {
            entries: Vec::new(),
            pos: vec![NONE; n],
        };
        let mut x = 0x9E37_79B9u32;
        let mut rnd = |m: u32| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x % m
        };
        let entry = |s: usize, (share, version): (f64, u32)| Entry {
            share,
            version,
            id: s as u32,
            slot: s as u32,
        };
        let mut current: Vec<Option<(f64, u32)>> =
            (0..n).map(|_| Some((rnd(8) as f64, 0))).collect();
        for (s, k) in current.iter().enumerate() {
            heap.push(entry(s, k.expect("all slots start live")));
        }
        let mut popped = 0;
        loop {
            for _ in 0..3 {
                let s = rnd(n as u32) as usize;
                if let Some((share, v)) = current[s] {
                    match rnd(5) {
                        0 => {
                            current[s] = None;
                            heap.remove(s);
                        }
                        1 => {
                            let k = (share - 1.0, v + 1);
                            current[s] = Some(k);
                            heap.lower(s, k.0, k.1);
                        }
                        _ => current[s] = Some((share + rnd(3) as f64, v + 1)),
                    }
                }
            }
            let best = (0..n)
                .filter_map(|s| current[s].map(|k| entry(s, k)))
                .reduce(|a, b| if b.before(&a) { b } else { a });
            let top = heap.peek_current(|s| current[s].expect("only live slots are in the heap"));
            assert_eq!(top.map(|e| e.slot), best.map(|e| e.slot));
            let Some(top) = top else { break };
            heap.remove(top.slot as usize);
            current[top.slot as usize] = None;
            popped += 1;
        }
        assert!(popped > 0 && heap.entries.is_empty());
    }

    /// A flow of a cascade solve: its transfer id, route and cap.
    type Keyed = (u32, Vec<ResourceId>, f64);

    fn flow(key: u32, route: &[u32], cap: f64) -> Keyed {
        (key, rid(route), cap)
    }

    /// Drives a [`Cascade`] over a changing demand set the way the
    /// engine's leveler does — membership lists kept across solves,
    /// appended on a join and `swap_remove`d on a departure — and checks
    /// every solve against the lazy-deletion [`reference`].
    struct Relevel {
        cascade: Cascade,
        caps: Vec<f64>,
        contention: (f64, f64),
        members: Vec<Vec<u32>>,
        keys: Vec<u32>,
        /// Every flow seen so far, by transfer id: a departed flow's
        /// route is still asked for.
        known: Vec<Option<Keyed>>,
    }

    impl Relevel {
        const TRANSFERS: usize = 32;

        fn new(caps: &[f64]) -> Relevel {
            Relevel {
                cascade: Cascade::new(caps.len()),
                caps: caps.to_vec(),
                contention: (0.0, 1.0),
                members: vec![Vec::new(); caps.len()],
                keys: Vec::new(),
                known: vec![None; Self::TRANSFERS],
            }
        }

        /// Solve `flows` (in demand order), require the reference's rate
        /// bits, bindings and pass count, and return the rates and the
        /// passes popped as logged.
        fn solve(&mut self, flows: &[Keyed]) -> (Vec<f64>, u32) {
            let before = std::mem::take(&mut self.keys);
            for &k in &before {
                if flows.iter().any(|f| f.0 == k) {
                    continue;
                }
                self.cascade.drop_record(k);
                for r in &self.known[k as usize].as_ref().expect("a known flow").1 {
                    let m = &mut self.members[r.0 as usize];
                    let at = m.iter().position(|&t| t == k).expect("a member");
                    m.swap_remove(at);
                }
            }
            for f in flows {
                if !before.contains(&f.0) {
                    for r in &f.1 {
                        self.members[r.0 as usize].push(f.0);
                    }
                }
                self.known[f.0 as usize] = Some(f.clone());
            }
            self.keys = flows.iter().map(|f| f.0).collect();
            let known = &self.known;
            let of = |t: u32| known[t as usize].as_ref().expect("a known flow");
            // The demand order changes freely between solves, unnoted.
            self.cascade.rescan();
            self.cascade.solve(
                flows.len(),
                |i| flows[i].0,
                Self::TRANSFERS,
                &self.members,
                |t| of(t).1.as_slice(),
                |t| of(t).2,
                &self.caps,
                self.contention,
            );
            let rates: Vec<f64> = flows.iter().map(|f| self.cascade.rate(f.0)).collect();
            let bindings: Vec<u32> = flows.iter().map(|f| self.cascade.binding(f.0)).collect();
            let demands: Vec<FlowDemand> = flows
                .iter()
                .map(|f| FlowDemand {
                    route: &f.1,
                    cap: f.2,
                })
                .collect();
            let (penalty, floor) = self.contention;
            let (want, want_bindings, want_passes) =
                reference::solve(&demands, &self.caps, penalty, floor);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rates), bits(&want), "{rates:?} vs {want:?}");
            assert_eq!(bindings, want_bindings);
            assert_eq!(self.cascade.last_work().passes, want_passes);
            (rates, self.cascade.last_work().logged)
        }

        fn touched(&self) -> u64 {
            self.cascade.last_work().touched
        }
    }

    // Resources of the cascade tests: 0 is shared (1.0), 1 pops first
    // (0.2), 2 is narrower still (0.1), 3 is wide (5.0). The first solve
    // is A on {1, 0} and E on {0}: pass 1 pops link 1 (A at 0.2), pass 2
    // link 0 (E at 0.8).
    const CAPS: [f64; 4] = [1.0, 0.2, 0.1, 5.0];

    fn logged() -> Relevel {
        let mut rl = Relevel::new(&CAPS);
        let first = [flow(0, &[1, 0], 100.0), flow(1, &[0], 100.0)];
        assert_eq!(rl.solve(&first), (vec![0.2, 0.8], 0), "nothing logged yet");
        assert_eq!(rl.cascade.last_work().passes, 2);
        rl
    }

    #[test]
    fn an_unchanged_demand_set_pops_every_pass_as_logged() {
        // Same flows, other demand order: every pass pops as logged and
        // no flow–link entry is touched.
        let mut rl = logged();
        let again = [flow(1, &[0], 100.0), flow(0, &[1, 0], 100.0)];
        assert_eq!(rl.solve(&again).1, 2);
        assert_eq!(rl.touched(), 0);
        assert_eq!(rl.solve(&again).1, 2);
        // Dropped state solves cold.
        rl.cascade.invalidate();
        assert_eq!(rl.solve(&again).1, 0);
        assert_eq!(rl.solve(&again).1, 2);
    }

    #[test]
    fn a_departed_flow_reopens_only_the_links_it_crossed() {
        // A and B share link 1 and freeze together at pass 1, E on link
        // 0 at pass 2, W alone on link 3 at pass 3. Without A, links 1
        // and 0 enter Δ: pass 1 is skipped (B is orphaned) and pass 2
        // too, while W's pass still pops as logged.
        let mut rl = Relevel::new(&CAPS);
        let a = flow(0, &[1, 0], 100.0);
        let b = flow(3, &[1], 100.0);
        let e = flow(1, &[0], 100.0);
        let w = flow(4, &[3], 100.0);
        rl.solve(&[a, b.clone(), e.clone(), w.clone()]);
        let (rates, logged) = rl.solve(&[e, b, w]);
        assert_eq!((rates, logged), (vec![1.0, 0.2, 5.0], 1));
    }

    #[test]
    fn a_joined_link_that_pops_first_debits_before_the_logged_pass() {
        // D joins on {2, 0}: link 2 (0.1) now pops fresh before the
        // logged link 1 (0.2), which still pops as logged and debits Δ
        // link 0 through its watch entry. The cold solve debits link 0 by
        // D's 0.1 before A's 0.2, which leaves E exactly 0.7; the other
        // order would give E 0.7000000000000001.
        let mut rl = logged();
        let now = [
            flow(2, &[2, 0], 100.0),
            flow(1, &[0], 100.0),
            flow(0, &[1, 0], 100.0),
        ];
        assert_eq!(rl.solve(&now), (vec![0.1, 0.7, 0.2], 1));
    }

    #[test]
    fn a_joined_cap_below_the_logged_key_pops_first() {
        // The same trap through a cap: D (cap 0.1) joins on link 0 only.
        let mut rl = logged();
        let now = [
            flow(2, &[0], 0.1),
            flow(1, &[0], 100.0),
            flow(0, &[1, 0], 100.0),
        ];
        assert_eq!(rl.solve(&now), (vec![0.1, 0.7, 0.2], 1));
        assert_eq!(rl.cascade.binding(2), CAP_BINDING);
    }

    #[test]
    fn a_joined_flow_on_the_logged_link_skips_its_pass() {
        let mut rl = logged();
        let now = [
            flow(0, &[1, 0], 100.0),
            flow(1, &[0], 100.0),
            flow(2, &[1], 100.0),
        ];
        assert_eq!(rl.solve(&now), (vec![0.1, 0.9, 0.1], 0));
    }

    #[test]
    fn a_skipped_pass_orphans_its_flows_onto_their_other_links() {
        // D (on {2, 1}) freezes at pass 1 by link 2; A (on {1, 0}) at
        // pass 2 by link 1 with 0.5 − 0.1 = 0.4; E (on {0}) at pass 3 by
        // link 0 with 0.6. Once D leaves, link 1 enters Δ and pass 2 is
        // skipped: A is orphaned, so link 0 must enter Δ too. It then
        // ties link 1 at 0.5 and wins on its lower id, binding A; a link
        // 0 left out of Δ would pop link 1 first and bind A there.
        let caps = [1.0, 0.5, 0.1];
        let mut rl = Relevel::new(&caps);
        let d = flow(2, &[2, 1], 100.0);
        let a = flow(0, &[1, 0], 100.0);
        let e = flow(1, &[0], 100.0);
        let (rates, _) = rl.solve(&[d, a.clone(), e.clone()]);
        assert_eq!(rates, vec![0.1, 0.4, 0.6]);
        assert_eq!(rl.solve(&[a, e]), (vec![0.5, 0.5], 0));
        assert_eq!(rl.cascade.binding(0), 0);
    }

    #[test]
    fn reconstruction_debits_in_pass_order_not_member_order() {
        // Q (on {1, 0}) freezes at pass 2 with 0.2 and P (on {2, 0}) at
        // pass 1 with 0.1; link 0 lists Q before P. J then joins W on
        // link 4, which pops fresh after both logged passes and pulls
        // link 0 into Δ mid-solve. Reconstructed in pass order, link 0
        // holds 1 − 0.1 − 0.2 = 0.7 before W's 0.3, as in a cold solve;
        // in member order it would hold 1 − 0.2 − 0.1 =
        // 0.7000000000000001 and hand E different bits.
        let caps = [1.0, 0.2, 0.1, 5.0, 0.6];
        let mut rl = Relevel::new(&caps);
        let q = flow(0, &[1, 0], 100.0);
        let p = flow(1, &[2, 0], 100.0);
        let e = flow(2, &[0], 100.0);
        let w = flow(3, &[4, 0], 100.0);
        let first = [q.clone(), p.clone(), e.clone(), w.clone()];
        assert_eq!(rl.solve(&first).0, vec![0.2, 0.1, 0.35, 0.35]);
        let j = flow(4, &[4], 100.0);
        let (rates, logged) = rl.solve(&[q, p, e, w, j]);
        assert_eq!(logged, 2);
        assert_eq!(rates[2], 1.0 - 0.1 - 0.2 - 0.3);
        assert_ne!(rates[2], 1.0 - 0.2 - 0.1 - 0.3);
    }

    #[test]
    fn cap_passes_pop_as_logged_until_demand_order_changes() {
        // Pass 1 pops link 2 (Z at 0.1; a link wins a tie with a cap),
        // passes 2 and 3 the tied caps of G and F (0.1, tie broken by
        // demand index), pass 4 link 1 (A at 0.2) and pass 5 link 0 (E
        // at 0.7). In the same order all five pop as logged. Reversed,
        // G and F are reordered: their cap passes are skipped, their caps
        // pop fresh in the new index order before A's logged pass, and
        // link 0 still sees 0.1 before 0.2 (else E would get
        // 0.7000000000000001).
        let mut rl = Relevel::new(&CAPS);
        let z = flow(6, &[2], 100.0);
        let g = flow(5, &[0], 0.1);
        let f = flow(4, &[3], 0.1);
        let a = flow(0, &[1, 0], 100.0);
        let e = flow(1, &[0], 100.0);
        let first = [z.clone(), g.clone(), f.clone(), a.clone(), e.clone()];
        assert_eq!(rl.solve(&first).0, [0.1, 0.1, 0.1, 0.2, 0.7]);
        assert_eq!(rl.solve(&first).1, 5);
        assert_eq!(
            rl.solve(&[e, a, f, g, z]),
            (vec![0.7, 0.2, 0.1, 0.1, 0.1], 2)
        );
    }

    #[test]
    fn warm_solves_match_the_reference_under_churn() {
        // Seeded churn the way the engine's active list moves, one event
        // per solve: a join appends (a departed flow may rejoin, as a
        // stalled one does), a departure `swap_remove`s, now and then two
        // flows trade places, and a capacity change drops the state.
        // Capacities and caps come from a few values whose sums round
        // differently in different orders, so a debit out of order shows
        // in the last bit; every solve must match the reference.
        const VALUES: [f64; 5] = [1.0, 0.2, 0.1, 0.7, 3.0];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rnd = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let mut warm = 0;
        for contention in [(0.0, 1.0), (0.5, 0.5), (0.25, 0.8)] {
            for _ in 0..40 {
                let nres = 6 + rnd(14);
                let caps: Vec<f64> = (0..nres).map(|_| VALUES[rnd(5)]).collect();
                let flows: Vec<Keyed> = (0..Relevel::TRANSFERS as u32)
                    .map(|t| {
                        let route: Vec<u32> = (0..1 + rnd(5)).map(|_| rnd(nres) as u32).collect();
                        flow(t, &route, [0.1, 0.3, 100.0][rnd(3)])
                    })
                    .collect();
                let mut rl = Relevel::new(&caps);
                rl.contention = contention;
                let mut active: Vec<u32> = Vec::new();
                for _ in 0..96 {
                    match rnd(8) {
                        0..=1 if !active.is_empty() => {
                            active.swap_remove(rnd(active.len()));
                        }
                        0..=5 => {
                            let t = rnd(Relevel::TRANSFERS) as u32;
                            if !active.contains(&t) {
                                active.push(t);
                            }
                        }
                        6 if active.len() > 1 => {
                            let (i, j) = (rnd(active.len()), rnd(active.len()));
                            active.swap(i, j);
                        }
                        _ => {
                            rl.caps[rnd(nres)] = VALUES[rnd(5)];
                            rl.cascade.invalidate();
                        }
                    }
                    warm += rl.cascade.is_warm() as u32;
                    let now: Vec<Keyed> =
                        active.iter().map(|&t| flows[t as usize].clone()).collect();
                    rl.solve(&now);
                }
            }
        }
        assert!(warm > 9000, "only {warm} warm solves");
    }

    #[test]
    fn certificate_accepts_solver_output_and_rejects_tampering() {
        let long = rid(&[0, 1]);
        let short0 = rid(&[0]);
        let short1 = rid(&[1]);
        let flows = [
            FlowDemand {
                route: &long,
                cap: 100.0,
            },
            FlowDemand {
                route: &short0,
                cap: 100.0,
            },
            FlowDemand {
                route: &short1,
                cap: 100.0,
            },
        ];
        let caps = [10.0, 4.0];
        let mut wf = Waterfill::new(2);
        let mut rates = Vec::new();
        wf.compute(&flows, &caps, &mut rates);
        let bind = wf.bindings().to_vec();
        assert_eq!(certify(&flows, &caps, 0.0, 1.0, &rates, &bind), Ok(()));

        // Feasible but not max-min: short0 could take link 0's slack.
        let slow = [2.0, 7.0, 2.0];
        assert!(matches!(
            certify(&flows, &caps, 0.0, 1.0, &slow, &bind),
            Err(CertificateError::NoBottleneck { flow: 1, .. })
        ));
        // Over capacity on link 1.
        let greedy = [2.0, 8.0, 3.0];
        assert!(matches!(
            certify(&flows, &caps, 0.0, 1.0, &greedy, &bind),
            Err(CertificateError::OverCapacity { resource: 1, .. })
        ));
        // A witness naming a resource off the route.
        assert!(matches!(
            certify(&flows, &caps, 0.0, 1.0, &rates, &[1, 1, 1]),
            Err(CertificateError::NoBottleneck { flow: 1, .. })
        ));
        // A cap-bound claim for a flow below its cap.
        assert!(matches!(
            certify(&flows, &caps, 0.0, 1.0, &rates, &[CAP_BINDING, 0, 1]),
            Err(CertificateError::NoBottleneck { flow: 0, .. })
        ));
    }
}
