//! Sparse neighborhood exchange: batch routing of many-pair traffic.
//!
//! The paper's proxy machinery (Algorithm 1) is exercised one logical
//! pair at a time everywhere else in this workspace. A real multiphysics
//! coupling issues *many* sparse point-to-point messages in one step —
//! the sparse dynamic data exchange problem. [`NeighborhoodExchange`]
//! lowers a [`SparseSendMap`] to a transfer DAG under three
//! interchangeable algorithms:
//!
//! * [`ExchangeAlgorithm::Direct`] — one deterministic-route put per
//!   pair; the `MPI_Alltoallv`-style baseline.
//! * [`ExchangeAlgorithm::Consensus`] — the same puts, but gated behind a
//!   modeled nonblocking-consensus discovery phase
//!   ([`bgq_comm::consensus_discovery`]): nobody knows who they receive
//!   from, so everyone first pays a barrier + control-gather charge.
//! * [`ExchangeAlgorithm::ProxyMultipath`] — batch planning through
//!   [`SparseMover::plan`] with a [`LinkClaimLedger`]: every pair's
//!   deterministic direct route is claimed up front, then pairs are
//!   planned largest-first with the ledger as the planner's `avoid` set,
//!   so concurrent pairs' proxy paths stay link-disjoint across the
//!   *whole* exchange — not merely within one pair. Below-threshold
//!   pairs are message-combined (Träff-style): when one small message's
//!   route is a link-prefix of a sibling's, the shorter pair carries the
//!   longer pair's payload and its destination store-and-forwards it.
//!
//! All three deliver byte-identical per-pair payloads; they differ only
//! in *when* and *over which links* the bytes move, which is exactly what
//! the differential test layer in `crates/comm/tests/exchange.rs` pins.

use crate::planner::{Decision, PlanRequest, SparseMover};
use crate::proxy::ProxySearchConfig;
use bgq_comm::{consensus_discovery, CollectiveModel, Program, SparseSendMap, TransferHandle};
use bgq_netsim::{SimReport, TransferId};
use bgq_obs::MetricsRegistry;
use bgq_torus::{LinkId, NodeId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// How a [`NeighborhoodExchange`] lowers the send map to transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeAlgorithm {
    /// One deterministic-route put per pair, all released at t = 0.
    Direct,
    /// Modeled nonblocking-consensus discovery (barrier + control
    /// gathers), then direct puts gated on each sender's discovery.
    Consensus,
    /// Ledger-coordinated batch planning: large pairs go proxy-multipath
    /// on links no other pair of the exchange claimed; small pairs are
    /// message-combined where routes share a prefix.
    ProxyMultipath,
}

impl ExchangeAlgorithm {
    /// All algorithms, in comparison order (the order every sweep and
    /// differential test iterates them).
    pub const ALL: [ExchangeAlgorithm; 3] = [
        ExchangeAlgorithm::Direct,
        ExchangeAlgorithm::Consensus,
        ExchangeAlgorithm::ProxyMultipath,
    ];

    /// Stable lowercase name, used in CSV columns and artifact keys.
    pub fn name(self) -> &'static str {
        match self {
            ExchangeAlgorithm::Direct => "direct",
            ExchangeAlgorithm::Consensus => "consensus",
            ExchangeAlgorithm::ProxyMultipath => "proxy_multipath",
        }
    }
}

/// The set of torus links already spoken for by earlier transfers of the
/// same exchange. Feeding it to [`PlanRequest::avoid`] keeps every proxy
/// detour link-disjoint from every other pair's traffic; claiming a
/// plan's [`links`](crate::PlanOutcome::links) back into the ledger keeps
/// the invariant inductive across the batch.
#[derive(Debug, Clone, Default)]
pub struct LinkClaimLedger {
    claimed: HashSet<LinkId>,
}

impl LinkClaimLedger {
    pub fn new() -> LinkClaimLedger {
        LinkClaimLedger::default()
    }

    /// Claim every link in `links` (idempotent per link).
    pub fn claim_all<I: IntoIterator<Item = LinkId>>(&mut self, links: I) {
        self.claimed.extend(links);
    }

    /// The claimed set, in the shape [`PlanRequest::avoid`] wants.
    pub fn claimed(&self) -> &HashSet<LinkId> {
        &self.claimed
    }

    pub fn contains(&self, link: LinkId) -> bool {
        self.claimed.contains(&link)
    }

    /// Number of distinct links claimed.
    pub fn len(&self) -> usize {
        self.claimed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.claimed.is_empty()
    }
}

/// How one pair of the exchange was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRoute {
    /// Its own deterministic direct route, payload only.
    Direct,
    /// Proxy multipath over this many link-disjoint paths.
    Multipath { paths: u32 },
    /// This pair's direct put also carries `riders` combined sibling
    /// payloads (its route is their routes' shared prefix).
    Carrier { riders: u32 },
    /// Payload rode a carrier to `via`, which store-and-forwards it the
    /// rest of the way.
    Combined { via: NodeId },
}

/// One planned pair: where its payload goes and which transfer tokens
/// must land for it to count as delivered.
#[derive(Debug, Clone)]
pub struct PlannedPair {
    pub src: NodeId,
    pub dst: NodeId,
    /// Payload bytes of this logical pair (a [`PairRoute::Carrier`]'s
    /// wire message is larger: payload + riders).
    pub bytes: u64,
    /// Tokens whose delivery completes this pair.
    pub tokens: Vec<TransferId>,
    pub route: PairRoute,
}

/// A lowered exchange: per-pair plans plus batch-level bookkeeping.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    /// Algorithm that produced the plan.
    pub algorithm: ExchangeAlgorithm,
    /// One entry per send-map pair, in map (`(src, dst)`-sorted) order.
    pub pairs: Vec<PlannedPair>,
    /// Modeled per-participant discovery latency (0 unless
    /// [`ExchangeAlgorithm::Consensus`]).
    pub discovery_cost: f64,
    /// Final link-claim ledger (empty unless
    /// [`ExchangeAlgorithm::ProxyMultipath`]).
    pub ledger: LinkClaimLedger,
}

impl ExchangePlan {
    /// Handle over every token of the exchange; `bytes` is the logical
    /// payload total (combined carriers' extra wire bytes not counted
    /// twice).
    pub fn handle(&self) -> TransferHandle {
        TransferHandle {
            tokens: self
                .pairs
                .iter()
                .flat_map(|p| p.tokens.iter().copied())
                .collect(),
            bytes: self.total_bytes(),
        }
    }

    /// Total logical payload.
    pub fn total_bytes(&self) -> u64 {
        self.pairs.iter().map(|p| p.bytes).sum()
    }

    /// When the last token of the exchange lands.
    pub fn completed_at(&self, report: &SimReport) -> f64 {
        self.handle().completed_at(report)
    }

    /// Aggregate payload throughput: total logical bytes over the time
    /// the slowest pair finished. Zero when anything went undelivered.
    pub fn aggregate_throughput(&self, report: &SimReport) -> f64 {
        let t = self.completed_at(report);
        if t.is_finite() && t > 0.0 {
            self.total_bytes() as f64 / t
        } else {
            0.0
        }
    }

    /// Payload bytes delivered per pair, in map order: the pair's full
    /// payload when *every* one of its tokens was delivered, else 0.
    ///
    /// Summing delivered token spec bytes would be wrong here — a
    /// combined carrier's wire message carries more than its own payload
    /// — so delivery is all-or-nothing per logical pair, which is also
    /// the semantics an application observes.
    pub fn per_pair_delivered(&self, report: &SimReport) -> Vec<(NodeId, NodeId, u64)> {
        self.pairs
            .iter()
            .map(|p| {
                let all = p.tokens.iter().all(|&t| report.delivered_at(t).is_finite());
                (p.src, p.dst, if all { p.bytes } else { 0 })
            })
            .collect()
    }

    fn count_route(&self, f: impl Fn(&PairRoute) -> bool) -> usize {
        self.pairs.iter().filter(|p| f(&p.route)).count()
    }

    /// Pairs routed proxy-multipath.
    pub fn pairs_multipath(&self) -> usize {
        self.count_route(|r| matches!(r, PairRoute::Multipath { .. }))
    }

    /// Pairs whose payload rode a combined carrier.
    pub fn pairs_combined(&self) -> usize {
        self.count_route(|r| matches!(r, PairRoute::Combined { .. }))
    }

    /// Pairs carrying at least one combined sibling payload.
    pub fn pairs_carrier(&self) -> usize {
        self.count_route(|r| matches!(r, PairRoute::Carrier { .. }))
    }

    /// Pairs on a plain direct route (carriers not included).
    pub fn pairs_direct(&self) -> usize {
        self.count_route(|r| matches!(r, PairRoute::Direct))
    }
}

/// Batch planner for sparse neighborhood exchanges over one machine.
#[derive(Debug, Clone)]
pub struct NeighborhoodExchange<'m> {
    mover: SparseMover<'m>,
    combine: bool,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'m> NeighborhoodExchange<'m> {
    /// Build over a fresh [`SparseMover`] for `machine`.
    pub fn new(machine: &'m bgq_comm::Machine) -> NeighborhoodExchange<'m> {
        Self::with_mover(SparseMover::new(machine))
    }

    /// Build over an existing planner (e.g. a bench session's cached
    /// mover, so the aggregator precompute is shared).
    pub fn with_mover(mover: SparseMover<'m>) -> NeighborhoodExchange<'m> {
        NeighborhoodExchange {
            mover,
            combine: true,
            metrics: None,
        }
    }

    /// Disable message-combining of below-threshold pairs.
    pub fn without_combining(mut self) -> Self {
        self.combine = false;
        self
    }

    /// Attach a metrics registry: every [`plan`](Self::plan) call then
    /// records `exchange.*` counters. Planning results are unaffected.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The underlying point-to-point planner.
    pub fn mover(&self) -> &SparseMover<'m> {
        &self.mover
    }

    /// Lower `map` into `prog` under `algorithm`.
    pub fn plan(
        &self,
        prog: &mut Program<'_>,
        map: &SparseSendMap,
        algorithm: ExchangeAlgorithm,
    ) -> ExchangePlan {
        let plan = match algorithm {
            ExchangeAlgorithm::Direct => self.plan_direct(prog, map, algorithm, None),
            ExchangeAlgorithm::Consensus => {
                let model = CollectiveModel::new(self.mover.machine());
                let disc = consensus_discovery(prog, map, &model);
                self.plan_direct(prog, map, algorithm, Some(disc))
            }
            ExchangeAlgorithm::ProxyMultipath => self.plan_multipath(prog, map),
        };
        self.record(&plan);
        plan
    }

    fn plan_direct(
        &self,
        prog: &mut Program<'_>,
        map: &SparseSendMap,
        algorithm: ExchangeAlgorithm,
        discovery: Option<bgq_comm::Discovery>,
    ) -> ExchangePlan {
        let pairs = map
            .pairs()
            .iter()
            .map(|&(src, dst, bytes)| {
                let deps: Vec<TransferId> = discovery
                    .as_ref()
                    .and_then(|d| d.gate_for(src))
                    .into_iter()
                    .collect();
                let t = prog.put_after(src, dst, bytes, deps, 0.0);
                PlannedPair {
                    src,
                    dst,
                    bytes,
                    tokens: vec![t],
                    route: PairRoute::Direct,
                }
            })
            .collect();
        ExchangePlan {
            algorithm,
            pairs,
            discovery_cost: discovery.map_or(0.0, |d| d.cost),
            ledger: LinkClaimLedger::new(),
        }
    }

    fn plan_multipath(&self, prog: &mut Program<'_>, map: &SparseSendMap) -> ExchangePlan {
        let machine = self.mover.machine();
        let shape = machine.shape();
        let zone = machine.zone();
        let direct_route = |src: NodeId, dst: NodeId| bgq_torus::route(shape, src, dst, zone).links;

        // Claim every pair's deterministic direct route up front: a proxy
        // detour must dodge ALL baseline traffic of the exchange, not
        // just the pairs planned so far. This is what makes the "proxy
        // multipath never loses to direct" property compositional — the
        // direct flows see weakly less contention than in the all-direct
        // plan, and the detours run on links nobody else touches.
        let mut ledger = LinkClaimLedger::new();
        for &(src, dst, _) in map.pairs() {
            ledger.claim_all(direct_route(src, dst));
        }

        // The cost model's proxy-benefit threshold at the minimum useful
        // path count splits the batch: at or above it, a pair is worth a
        // planner call (and its proxy search); below, the pair goes
        // direct or rides a combined carrier.
        let cutoff = self
            .mover
            .model()
            .threshold_bytes(ProxySearchConfig::default().min_proxies as u32)
            .unwrap_or(u64::MAX);

        // Plan large pairs first, largest payload first (ties broken by
        // (src, dst) so the order — and with it every claim and token —
        // is deterministic): the biggest messages get first pick of the
        // spare link capacity.
        let mut order: Vec<usize> = (0..map.len()).collect();
        order.sort_by_key(|&i| {
            let (src, dst, bytes) = map.pairs()[i];
            (std::cmp::Reverse(bytes), src.0, dst.0)
        });

        let mut planned: Vec<Option<PlannedPair>> = vec![None; map.len()];
        let mut small: Vec<usize> = Vec::new();
        for &i in &order {
            let (src, dst, bytes) = map.pairs()[i];
            if bytes < cutoff {
                small.push(i);
                continue;
            }
            let out = self
                .mover
                .plan(
                    prog,
                    PlanRequest::new(src, dst, bytes).avoid(ledger.claimed()),
                )
                .expect("healthy-network planning is infallible");
            let route = match out.decision {
                Decision::Multipath { paths } => {
                    ledger.claim_all(out.links.iter().copied());
                    PairRoute::Multipath { paths }
                }
                // Ledger left the search under the minimum useful path
                // count: fall back to the (pre-claimed) direct route.
                Decision::Direct(_) => PairRoute::Direct,
            };
            planned[i] = Some(PlannedPair {
                src,
                dst,
                bytes,
                tokens: out.handle.tokens,
                route,
            });
        }

        self.plan_small_pairs(prog, map, &small, &mut planned, &mut ledger);

        ExchangePlan {
            algorithm: ExchangeAlgorithm::ProxyMultipath,
            pairs: planned
                .into_iter()
                .map(|p| p.expect("every pair planned exactly once"))
                .collect(),
            discovery_cost: 0.0,
            ledger,
        }
    }

    /// Lower the below-threshold pairs: message-combine same-source
    /// pairs whose direct routes share a link prefix (the shorter pair
    /// carries the longer pair's payload; its destination forwards the
    /// remainder), plain direct puts for the rest.
    fn plan_small_pairs(
        &self,
        prog: &mut Program<'_>,
        map: &SparseSendMap,
        small: &[usize],
        planned: &mut [Option<PlannedPair>],
        ledger: &mut LinkClaimLedger,
    ) {
        let machine = self.mover.machine();
        let shape = machine.shape();
        let zone = machine.zone();
        let fwd = machine.config().forward_overhead;

        let mut by_src: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for &i in small {
            by_src.entry(map.pairs()[i].0 .0).or_default().push(i);
        }

        for idxs in by_src.values() {
            let routes: Vec<Vec<LinkId>> = idxs
                .iter()
                .map(|&i| {
                    let (src, dst, _) = map.pairs()[i];
                    bgq_torus::route(shape, src, dst, zone).links
                })
                .collect();

            // Rider assignment, longest route first: each rider picks
            // the carrier with the longest strictly-shorter route that
            // prefixes its own. One level only — a carrier never rides,
            // a rider never carries — so forwarding stays single-hop.
            let n = idxs.len();
            let mut carrier_of: Vec<Option<usize>> = vec![None; n];
            let mut riders: Vec<Vec<usize>> = vec![Vec::new(); n];
            if self.combine {
                let mut ord: Vec<usize> = (0..n).collect();
                ord.sort_by_key(|&j| {
                    (
                        std::cmp::Reverse(routes[j].len()),
                        map.pairs()[idxs[j]].1 .0,
                    )
                });
                for &j in &ord {
                    if !riders[j].is_empty() {
                        continue; // already carries: keep it a carrier
                    }
                    let mut best: Option<usize> = None;
                    for c in 0..n {
                        if c == j || carrier_of[c].is_some() {
                            continue;
                        }
                        let prefix = &routes[c];
                        if prefix.len() < routes[j].len()
                            && routes[j][..prefix.len()] == prefix[..]
                            && best.is_none_or(|b| prefix.len() > routes[b].len())
                        {
                            best = Some(c);
                        }
                    }
                    if let Some(c) = best {
                        carrier_of[j] = Some(c);
                        riders[c].push(j);
                    }
                }
            }

            for (j, &i) in idxs.iter().enumerate() {
                if carrier_of[j].is_some() {
                    continue; // emitted below, with its carrier
                }
                let (src, dst, bytes) = map.pairs()[i];
                let extra: u64 = riders[j].iter().map(|&r| map.pairs()[idxs[r]].2).sum();
                let t1 = prog.put(src, dst, bytes + extra);
                let route = if riders[j].is_empty() {
                    PairRoute::Direct
                } else {
                    PairRoute::Carrier {
                        riders: riders[j].len() as u32,
                    }
                };
                planned[i] = Some(PlannedPair {
                    src,
                    dst,
                    bytes,
                    tokens: vec![t1],
                    route,
                });
                for &r in &riders[j] {
                    let ir = idxs[r];
                    let (rsrc, rdst, rbytes) = map.pairs()[ir];
                    let t2 = prog.put_after(dst, rdst, rbytes, vec![t1], fwd);
                    ledger.claim_all(bgq_torus::route(shape, dst, rdst, zone).links);
                    planned[ir] = Some(PlannedPair {
                        src: rsrc,
                        dst: rdst,
                        bytes: rbytes,
                        tokens: vec![t2],
                        route: PairRoute::Combined { via: dst },
                    });
                }
            }
        }
    }

    fn record(&self, plan: &ExchangePlan) {
        let Some(m) = &self.metrics else { return };
        m.counter("exchange.plans").inc();
        m.counter("exchange.pairs").add(plan.pairs.len() as u64);
        m.counter("exchange.bytes").add(plan.total_bytes());
        m.counter("exchange.pairs_direct")
            .add(plan.pairs_direct() as u64);
        m.counter("exchange.pairs_multipath")
            .add(plan.pairs_multipath() as u64);
        m.counter("exchange.pairs_combined")
            .add(plan.pairs_combined() as u64);
        m.counter("exchange.pairs_carrier")
            .add(plan.pairs_carrier() as u64);
        m.counter("exchange.links_claimed")
            .add(plan.ledger.len() as u64);
        if plan.algorithm == ExchangeAlgorithm::Consensus {
            m.counter("exchange.discovery_gates").add(
                plan.pairs
                    .iter()
                    .flat_map(|p| [p.src, p.dst])
                    .collect::<HashSet<_>>()
                    .len() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_comm::Machine;
    use bgq_netsim::SimConfig;
    use bgq_torus::standard_shape;

    fn machine(nodes: u32) -> Machine {
        Machine::new(standard_shape(nodes).unwrap(), SimConfig::default())
    }

    fn antipodal_map(nodes: u32, pairs: u32, bytes: u64) -> SparseSendMap {
        let half = nodes / 2;
        SparseSendMap::from_pairs((0..pairs).map(|i| {
            (
                NodeId(i * (half / pairs)),
                NodeId(i * (half / pairs) + half),
                bytes,
            )
        }))
    }

    #[test]
    fn all_algorithms_deliver_every_pair() {
        let m = machine(128);
        let ex = NeighborhoodExchange::new(&m);
        let map = SparseSendMap::from_rank_pairs(&[
            (0, 64, 16 << 20),
            (3, 67, 4 << 10),
            (3, 99, 2 << 10),
            (17, 81, 32 << 20),
        ]);
        let mut expected: Vec<(NodeId, NodeId, u64)> =
            map.pairs().iter().map(|&(s, d, b)| (s, d, b)).collect();
        expected.sort_by_key(|&(s, d, _)| (s.0, d.0));
        for alg in ExchangeAlgorithm::ALL {
            let mut prog = Program::new(&m);
            let plan = ex.plan(&mut prog, &map, alg);
            let rep = prog.run();
            assert!(rep.all_delivered(), "{alg:?} left transfers undelivered");
            assert_eq!(plan.per_pair_delivered(&rep), expected, "{alg:?}");
            assert_eq!(plan.total_bytes(), map.total_bytes());
        }
    }

    #[test]
    fn consensus_pays_discovery_before_any_payload() {
        let m = machine(128);
        let ex = NeighborhoodExchange::new(&m);
        let map = SparseSendMap::from_rank_pairs(&[(0, 64, 1 << 20), (5, 70, 1 << 20)]);

        let mut pd = Program::new(&m);
        let direct = ex.plan(&mut pd, &map, ExchangeAlgorithm::Direct);
        let td = direct.completed_at(&pd.run());
        assert_eq!(direct.discovery_cost, 0.0);

        let mut pc = Program::new(&m);
        let cons = ex.plan(&mut pc, &map, ExchangeAlgorithm::Consensus);
        let rep = pc.run();
        assert!(cons.discovery_cost > 0.0);
        let tc = cons.completed_at(&rep);
        // Consensus costs the discovery charge on top of the same puts
        // (plus the simulator's per-transfer base latency on the gate).
        assert!(
            tc - td >= cons.discovery_cost && tc - td < cons.discovery_cost + 1e-4,
            "consensus overhead {} vs discovery charge {}",
            tc - td,
            cons.discovery_cost
        );
        // No payload put starts before its sender's gate.
        for p in &cons.pairs {
            for &t in &p.tokens {
                assert!(rep.flow_start_time[t.0 as usize] >= cons.discovery_cost - 1e-12);
            }
        }
    }

    #[test]
    fn ledger_keeps_multipath_pairs_link_disjoint() {
        let m = machine(512);
        let ex = NeighborhoodExchange::new(&m);
        let map = antipodal_map(512, 4, 32 << 20);
        let mut prog = Program::new(&m);
        let plan = ex.plan(&mut prog, &map, ExchangeAlgorithm::ProxyMultipath);
        assert!(
            plan.pairs_multipath() >= 2,
            "antipodal 32 MiB pairs should go multipath, got {:?}",
            plan.pairs.iter().map(|p| p.route).collect::<Vec<_>>()
        );
        // Re-derive every pair's payload links and check pairwise
        // disjointness across the whole batch (direct routes of distinct
        // antipodal pairs are disjoint by construction; the ledger must
        // keep the proxy detours out of each other's way too).
        let shape = m.shape();
        let zone = m.zone();
        let mut seen: HashSet<LinkId> = HashSet::new();
        for p in &plan.pairs {
            let links: Vec<LinkId> = match p.route {
                PairRoute::Multipath { .. } => {
                    // All multipath links were claimed; spot-check via
                    // the ledger below instead of re-running the search.
                    continue;
                }
                _ => bgq_torus::route(shape, p.src, p.dst, zone).links,
            };
            for l in links {
                assert!(seen.insert(l), "direct routes overlap at {l}");
                assert!(plan.ledger.contains(l), "direct link {l} not in ledger");
            }
        }
        assert!(plan.ledger.len() > seen.len(), "proxy links claimed too");
    }

    #[test]
    fn small_pairs_with_shared_prefix_get_combined() {
        let m = machine(128);
        // 0 → 1 (+A one hop) and 0 → 3 (+A two hops, via 1 on a 4-long A
        // axis? depends on shape) — instead derive a guaranteed prefix
        // pair from the routing itself: pick dst2 two hops along the
        // first axis direction of dst1's route.
        let shape = m.shape();
        let zone = m.zone();
        let src = NodeId(0);
        // Find d1, d2 with route(src,d1) a strict prefix of route(src,d2).
        let mut found = None;
        'outer: for d1 in 1..shape.num_nodes() {
            for d2 in 1..shape.num_nodes() {
                if d1 == d2 {
                    continue;
                }
                let r1 = bgq_torus::route(shape, src, NodeId(d1), zone).links;
                let r2 = bgq_torus::route(shape, src, NodeId(d2), zone).links;
                if r1.len() < r2.len() && r2[..r1.len()] == r1[..] {
                    found = Some((NodeId(d1), NodeId(d2)));
                    break 'outer;
                }
            }
        }
        let (d1, d2) = found.expect("a 128-node torus has prefix route pairs");
        let map = SparseSendMap::from_pairs([(src, d1, 8 << 10), (src, d2, 4 << 10)]);
        let ex = NeighborhoodExchange::new(&m);
        let mut prog = Program::new(&m);
        let plan = ex.plan(&mut prog, &map, ExchangeAlgorithm::ProxyMultipath);
        assert_eq!(plan.pairs_carrier(), 1);
        assert_eq!(plan.pairs_combined(), 1);
        let rider = plan
            .pairs
            .iter()
            .find(|p| matches!(p.route, PairRoute::Combined { .. }))
            .unwrap();
        assert_eq!(rider.dst, d2);
        assert_eq!(rider.route, PairRoute::Combined { via: d1 });
        let rep = prog.run();
        assert!(rep.all_delivered());
        // The carrier's wire message holds both payloads: one transfer
        // from src sized b1 + b2.
        let wire: Vec<u64> = prog
            .graph()
            .specs()
            .iter()
            .filter(|s| s.src == src.0)
            .map(|s| s.bytes)
            .collect();
        assert_eq!(wire, vec![(8 << 10) + (4 << 10)]);

        // Combining off: two plain direct puts from src.
        let ex_plain = NeighborhoodExchange::new(&m).without_combining();
        let mut prog2 = Program::new(&m);
        let plan2 = ex_plain.plan(&mut prog2, &map, ExchangeAlgorithm::ProxyMultipath);
        assert_eq!(plan2.pairs_carrier(), 0);
        assert_eq!(plan2.pairs_combined(), 0);
        assert_eq!(plan2.pairs_direct(), 2);
    }

    #[test]
    fn metrics_record_the_batch_shape() {
        let m = machine(512);
        let reg = Arc::new(MetricsRegistry::new());
        let ex = NeighborhoodExchange::new(&m).with_metrics(Arc::clone(&reg));
        let map = antipodal_map(512, 4, 32 << 20);
        let mut prog = Program::new(&m);
        let plan = ex.plan(&mut prog, &map, ExchangeAlgorithm::ProxyMultipath);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exchange.plans"), Some(1));
        assert_eq!(snap.counter("exchange.pairs"), Some(4));
        assert_eq!(snap.counter("exchange.bytes"), Some(4 * (32 << 20)));
        assert_eq!(
            snap.counter("exchange.pairs_multipath"),
            Some(plan.pairs_multipath() as u64)
        );
        assert_eq!(
            snap.counter("exchange.links_claimed"),
            Some(plan.ledger.len() as u64)
        );
    }
}
