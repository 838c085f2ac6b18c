//! Differential tests for the sparse neighborhood exchange: the three
//! lowering algorithms must be interchangeable for *what* arrives even
//! though they differ in *when*. Each property drives the full stack —
//! pattern generator → send map → `NeighborhoodExchange` lowering →
//! flow simulation — and compares delivery byte-for-byte.
//!
//! This is a dev-only dependency cycle (bgq-comm ← sdm-core) which
//! cargo permits: the library under test is the comm-layer send map and
//! program builder, exercised through the core batch planner.

use bgq_comm::{Machine, Program, SparseSendMap};
use bgq_netsim::SimConfig;
use bgq_torus::{standard_shape, LinkId, NodeId};
use bgq_workloads::{disjoint_heavy_pairs, sparse_pairs};
use proptest::prelude::*;
use sdm_core::{ExchangeAlgorithm, NeighborhoodExchange, PairRoute};
use std::collections::HashSet;

fn machine(nodes: u32) -> Machine {
    Machine::new(
        standard_shape(nodes).unwrap_or_else(|| panic!("no {nodes}-node shape")),
        SimConfig::default(),
    )
}

/// Lower `map` under `alg` on a fresh machine, simulate, and return the
/// per-pair delivered payload (all-or-nothing per pair).
fn delivered(
    nodes: u32,
    map: &SparseSendMap,
    alg: ExchangeAlgorithm,
) -> Vec<(NodeId, NodeId, u64)> {
    let m = machine(nodes);
    let ex = NeighborhoodExchange::new(&m);
    let mut prog = Program::new(&m);
    let plan = ex.plan(&mut prog, map, alg);
    let rep = prog.run();
    assert!(rep.all_delivered(), "{alg:?} left payload undelivered");
    plan.per_pair_delivered(&rep)
}

/// An exchange with nothing to say: all three lowerings must accept the
/// empty send map, produce an empty plan, claim nothing, and simulate
/// to a clean (trivially all-delivered) report.
#[test]
fn empty_send_map_lowers_cleanly_under_every_algorithm() {
    let m = machine(128);
    let map = SparseSendMap::new();
    for alg in ExchangeAlgorithm::ALL {
        let ex = NeighborhoodExchange::new(&m);
        let mut prog = Program::new(&m);
        let plan = ex.plan(&mut prog, &map, alg);
        assert!(plan.pairs.is_empty(), "{alg:?} invented pairs");
        assert_eq!(plan.total_bytes(), 0);
        assert!(
            plan.ledger.is_empty(),
            "{alg:?} claimed links for an empty exchange"
        );
        let rep = prog.run();
        assert!(rep.all_delivered(), "{alg:?}");
        assert!(plan.per_pair_delivered(&rep).is_empty());
    }
}

/// A one-pair exchange is the degenerate batch: every lowering delivers
/// that pair's exact payload, and the batch machinery (ledger, combine
/// pass) adds nothing a single point-to-point plan wouldn't.
#[test]
fn single_pair_exchange_delivers_exactly_its_payload() {
    let nodes = 128u32;
    let map = SparseSendMap::from_rank_pairs(&[(3, 67, 24 << 20)]);
    let expected = vec![(NodeId(3), NodeId(67), 24u64 << 20)];
    let baseline = delivered(nodes, &map, ExchangeAlgorithm::Direct);
    assert_eq!(baseline, expected);
    for alg in [
        ExchangeAlgorithm::Consensus,
        ExchangeAlgorithm::ProxyMultipath,
    ] {
        assert_eq!(delivered(nodes, &map, alg), expected, "{alg:?}");
    }

    // A single small pair additionally has no combining partner: it must
    // stay a plain direct put with no proxy claims beyond its own route.
    let m = machine(nodes);
    let small = SparseSendMap::from_rank_pairs(&[(3, 67, 4 << 10)]);
    let ex = NeighborhoodExchange::new(&m);
    let mut prog = Program::new(&m);
    let plan = ex.plan(&mut prog, &small, ExchangeAlgorithm::ProxyMultipath);
    assert_eq!(plan.pairs.len(), 1);
    assert_eq!(plan.pairs[0].route, PairRoute::Direct);
    assert_eq!(plan.pairs_multipath(), 0);
    let direct: HashSet<LinkId> = bgq_torus::route(m.shape(), NodeId(3), NodeId(67), m.zone())
        .links
        .into_iter()
        .collect();
    assert_eq!(
        plan.ledger.claimed(),
        &direct,
        "a lone small pair must claim exactly its own direct route"
    );
}

/// An all-below-threshold batch never takes a proxy path, and the
/// ledger holds nothing but the pairs' own direct routes plus the
/// store-and-forward legs of combined riders — zero spurious proxy
/// claims. Delivery stays byte-identical with the other two lowerings.
#[test]
fn all_below_threshold_batch_goes_direct_with_no_spurious_claims() {
    let nodes = 128u32;
    // Small payloads (≤ 16 KiB, far under the proxy-benefit threshold)
    // from a handful of sources, including same-source siblings so the
    // combine pass has something to look at.
    let map = SparseSendMap::from_rank_pairs(&[
        (0, 1, 8 << 10),
        (0, 3, 4 << 10),
        (0, 96, 16 << 10),
        (5, 70, 2 << 10),
        (17, 81, 1 << 10),
        (17, 110, 12 << 10),
    ]);

    let baseline = delivered(nodes, &map, ExchangeAlgorithm::Direct);
    for alg in [
        ExchangeAlgorithm::Consensus,
        ExchangeAlgorithm::ProxyMultipath,
    ] {
        assert_eq!(
            delivered(nodes, &map, alg),
            baseline,
            "{alg:?} delivery differs from direct"
        );
    }

    let m = machine(nodes);
    let ex = NeighborhoodExchange::new(&m);
    let mut prog = Program::new(&m);
    let plan = ex.plan(&mut prog, &map, ExchangeAlgorithm::ProxyMultipath);
    assert_eq!(
        plan.pairs_multipath(),
        0,
        "below-threshold pairs went proxy"
    );
    assert_eq!(
        plan.pairs_direct() + plan.pairs_carrier() + plan.pairs_combined(),
        map.len(),
        "every pair must be direct, a carrier, or combined"
    );

    // Reconstruct the only links the plan is allowed to claim: each
    // pair's own deterministic direct route, plus the carrier-dst →
    // rider-dst forward leg of every combined pair.
    let mut allowed: HashSet<LinkId> = HashSet::new();
    for &(src, dst, _) in map.pairs() {
        allowed.extend(bgq_torus::route(m.shape(), src, dst, m.zone()).links);
    }
    for p in &plan.pairs {
        if let PairRoute::Combined { via } = p.route {
            allowed.extend(bgq_torus::route(m.shape(), via, p.dst, m.zone()).links);
        }
    }
    assert_eq!(
        plan.ledger.claimed(),
        &allowed,
        "ledger must hold exactly the direct routes and forward legs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential pin: for any sparse pattern, all three
    /// algorithms deliver byte-identical per-pair payloads — the full
    /// payload of every pair in the map, in map order.
    #[test]
    fn all_algorithms_deliver_byte_identical_pairs(
        fanout in 1u32..4,
        max_bytes in 1u64..(1 << 20),
        seed in any::<u64>(),
    ) {
        let nodes = 128u32;
        let map = SparseSendMap::from_rank_pairs(&sparse_pairs(nodes, fanout, max_bytes, seed));
        let expected: Vec<(NodeId, NodeId, u64)> = map.pairs().to_vec();

        let direct = delivered(nodes, &map, ExchangeAlgorithm::Direct);
        prop_assert_eq!(&direct, &expected, "direct must deliver the map verbatim");
        for alg in [ExchangeAlgorithm::Consensus, ExchangeAlgorithm::ProxyMultipath] {
            let got = delivered(nodes, &map, alg);
            prop_assert_eq!(&got, &direct, "{:?} delivery differs from direct", alg);
        }
    }

    /// Above the cost-model threshold, batch proxy multipath never loses
    /// to the all-direct baseline: the ledger either finds link-disjoint
    /// proxy paths (strictly faster) or falls back to the same direct
    /// put (identical time).
    #[test]
    fn multipath_never_loses_to_direct_above_threshold(
        stride_pow in 3u32..7,
        mib in 4u64..33,
    ) {
        let nodes = 256u32;
        let map = SparseSendMap::from_rank_pairs(&disjoint_heavy_pairs(
            nodes,
            1 << stride_pow,
            mib << 20,
        ));

        let m = machine(nodes);
        let mut results = Vec::new();
        for alg in [ExchangeAlgorithm::Direct, ExchangeAlgorithm::ProxyMultipath] {
            let ex = NeighborhoodExchange::new(&m);
            let mut prog = Program::new(&m);
            let plan = ex.plan(&mut prog, &map, alg);
            let rep = prog.run();
            prop_assert!(rep.all_delivered());
            results.push(plan.aggregate_throughput(&rep));
        }
        prop_assert!(
            results[1] >= results[0] * (1.0 - 1e-9),
            "multipath {} GB/s lost to direct {} GB/s on {} pairs of {} MiB",
            results[1] / 1e9, results[0] / 1e9, map.len(), mib
        );
    }

    /// Identical seeds give bit-identical simulation reports no matter
    /// how many OS threads race through plan + simulate concurrently:
    /// the whole pipeline is free of global mutable state.
    #[test]
    fn identical_seeds_are_bit_identical_across_thread_counts(
        seed in any::<u64>(),
    ) {
        let nodes = 128u32;
        let reports: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        std::thread::spawn(move || {
                            let map = SparseSendMap::from_rank_pairs(&sparse_pairs(
                                nodes, 2, 256 << 10, seed,
                            ));
                            ExchangeAlgorithm::ALL.map(|alg| {
                                let m = machine(nodes);
                                let ex = NeighborhoodExchange::new(&m);
                                let mut prog = Program::new(&m);
                                ex.plan(&mut prog, &map, alg);
                                prog.run()
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect::<Vec<_>>()
            })
            .collect();

        let reference = &reports[0][0];
        for per_thread_count in &reports {
            for worker in per_thread_count {
                prop_assert_eq!(
                    worker, reference,
                    "SimReports must be bit-identical across thread counts"
                );
            }
        }
    }
}
