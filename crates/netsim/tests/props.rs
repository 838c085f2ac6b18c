//! Property-based tests for the network simulator.

use bgq_netsim::*;
use proptest::prelude::*;

/// Strategy: a random small network scenario.
///
/// Produces (num_nodes, capacities, transfers) where each transfer has a
/// random source/destination, size, and a route of 1..4 random resources.
fn scenario() -> impl Strategy<Value = (u32, Vec<f64>, Vec<TransferSpec>)> {
    let nodes = 2u32..8;
    let nres = 1usize..8;
    (nodes, nres).prop_flat_map(|(n, r)| {
        let caps = proptest::collection::vec(1.0f64..1000.0, r);
        let transfers = proptest::collection::vec(
            (
                0..n,
                0..n,
                0u64..100_000,
                proptest::collection::vec(0..r as u32, 0..4),
            ),
            1..20,
        );
        (Just(n), caps, transfers).prop_map(|(n, caps, ts)| {
            let specs = ts
                .into_iter()
                .map(|(src, dst, bytes, route)| {
                    TransferSpec::new(src, dst, bytes, route.into_iter().map(ResourceId).collect())
                })
                .collect();
            (n, caps, specs)
        })
    })
}

fn quick_config() -> SimConfig {
    SimConfig {
        link_bandwidth: 100.0,
        io_link_bandwidth: 100.0,
        per_flow_cap: 50.0,
        hop_latency: 1e-3,
        send_overhead: 1e-2,
        recv_overhead: 1e-2,
        rma_phase_overhead: 0.0,
        forward_overhead: 0.0,
        contention_penalty: 0.0,
        contention_floor: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_transfer_is_delivered((n, caps, specs) in scenario()) {
        let sim = Simulator::new(n, caps, quick_config());
        let mut g = TransferGraph::new();
        for s in specs {
            g.add(s);
        }
        let rep = sim.simulate(&g, SimOptions::new());
        for (i, t) in rep.delivery_time.iter().enumerate() {
            prop_assert!(t.is_finite(), "transfer {i} never delivered");
            prop_assert!(*t >= 0.0);
        }
        prop_assert!(rep.makespan.is_finite());
    }

    #[test]
    fn simulation_is_deterministic((n, caps, specs) in scenario()) {
        let sim = Simulator::new(n, caps, quick_config());
        let mut g = TransferGraph::new();
        for s in specs {
            g.add(s);
        }
        let r1 = sim.simulate(&g, SimOptions::new());
        let r2 = sim.simulate(&g, SimOptions::new());
        prop_assert_eq!(r1.delivery_time, r2.delivery_time);
        prop_assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn bytes_are_conserved_on_links((n, caps, specs) in scenario()) {
        let sim = Simulator::new(n, caps.clone(), quick_config());
        let mut g = TransferGraph::new();
        for s in specs {
            g.add(s);
        }
        let rep = sim.simulate(&g, SimOptions::new());
        // Fault-free, every transfer delivers, so each resource must have
        // carried exactly the bytes of the transfers routed over it
        // (within float tolerance).
        let mut expect = vec![0.0f64; caps.len()];
        for s in g.specs() {
            for r in &s.route {
                expect[r.0 as usize] += s.bytes as f64;
            }
        }
        let got = resource_bytes(&g, &rep, caps.len());
        for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
            prop_assert!(
                (e - g).abs() <= 1.0 + e * 1e-6,
                "resource {i}: expected {e} bytes, accounted {g}"
            );
        }
    }

    #[test]
    fn chains_deliver_in_order(len in 2usize..8, bytes in 1u64..50_000) {
        // A dependency chain must deliver strictly monotonically.
        let sim = Simulator::new(2, vec![100.0], quick_config());
        let mut g = TransferGraph::new();
        let mut prev: Option<TransferId> = None;
        let mut ids = Vec::new();
        for _ in 0..len {
            let mut s = TransferSpec::new(0, 1, bytes, vec![ResourceId(0)]);
            if let Some(p) = prev {
                s = s.after(vec![p]);
            }
            let id = g.add(s);
            ids.push(id);
            prev = Some(id);
        }
        let rep = sim.simulate(&g, SimOptions::new());
        for w in ids.windows(2) {
            prop_assert!(rep.delivered_at(w[0]) < rep.delivered_at(w[1]));
        }
    }

    #[test]
    fn more_contention_never_speeds_up_a_flow(extra in 0usize..6) {
        // Adding competing flows on the same link cannot make the probe
        // transfer finish earlier (monotonicity of fair sharing).
        let sim = Simulator::new(4, vec![100.0], quick_config());
        let run_with = |k: usize| {
            let mut g = TransferGraph::new();
            let probe = g.add(TransferSpec::new(0, 1, 10_000, vec![ResourceId(0)]));
            for i in 0..k {
                g.add(TransferSpec::new(
                    (2 + i as u32 % 2) % 4,
                    1,
                    10_000,
                    vec![ResourceId(0)],
                ));
            }
            sim.simulate(&g, SimOptions::new()).delivered_at(probe)
        };
        let base = run_with(0);
        let loaded = run_with(extra);
        prop_assert!(loaded >= base - 1e-9, "probe sped up under load: {base} -> {loaded}");
    }

    #[test]
    fn splitting_over_disjoint_paths_helps_large_messages(
        bytes in 1_000_000u64..10_000_000,
    ) {
        // One flow capped at 50 on a single path vs. two halves on two
        // disjoint paths: the split must win for large messages.
        let sim = Simulator::new(2, vec![100.0, 100.0], quick_config());
        let mut direct = TransferGraph::new();
        let d = direct.add(TransferSpec::new(0, 1, bytes, vec![ResourceId(0)]));
        let t_direct = sim.simulate(&direct, SimOptions::new()).delivered_at(d);

        let mut split = TransferGraph::new();
        let a = split.add(TransferSpec::new(0, 1, bytes / 2, vec![ResourceId(0)]));
        let b = split.add(TransferSpec::new(0, 1, bytes - bytes / 2, vec![ResourceId(1)]));
        let rep = sim.simulate(&split, SimOptions::new());
        let t_split = rep.last_delivery(&[a, b]);
        prop_assert!(t_split < t_direct, "split {t_split} vs direct {t_direct}");
    }
}

/// Strategy: capacities plus flows as (route, cap) with owned routes,
/// feeding [`Waterfill`] directly (no engine in between).
fn waterfill_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<u32>, f64)>)> {
    (1usize..8).prop_flat_map(|r| {
        let caps = proptest::collection::vec(1.0f64..1000.0, r);
        let flows = proptest::collection::vec(
            (proptest::collection::vec(0..r as u32, 0..4), 0.5f64..500.0),
            1..16,
        );
        (caps, flows)
    })
}

fn waterfill_rates(caps: &[f64], flows: &[(Vec<u32>, f64)]) -> Vec<f64> {
    let routes: Vec<Vec<ResourceId>> = flows
        .iter()
        .map(|(r, _)| r.iter().copied().map(ResourceId).collect())
        .collect();
    let demands: Vec<FlowDemand> = routes
        .iter()
        .zip(flows)
        .map(|(route, (_, cap))| FlowDemand { route, cap: *cap })
        .collect();
    let mut wf = Waterfill::new(caps.len());
    let mut rates = Vec::new();
    wf.compute(&demands, caps, &mut rates);
    rates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Flow conservation: no flow is allocated more than its demand (cap),
    // and every flow makes progress.
    #[test]
    fn waterfill_respects_flow_demands((caps, flows) in waterfill_scenario()) {
        let rates = waterfill_rates(&caps, &flows);
        for ((_, cap), rate) in flows.iter().zip(&rates) {
            prop_assert!(*rate > 0.0, "flow starved: {rate}");
            prop_assert!(
                *rate <= cap * (1.0 + 1e-9),
                "allocation {rate} exceeds demand {cap}"
            );
        }
    }

    // Capacity respect: per resource, allocations sum to at most the
    // capacity.
    #[test]
    fn waterfill_respects_capacities((caps, flows) in waterfill_scenario()) {
        let rates = waterfill_rates(&caps, &flows);
        let mut used = vec![0.0f64; caps.len()];
        for ((route, _), rate) in flows.iter().zip(&rates) {
            for &r in route {
                used[r as usize] += rate;
            }
        }
        for (i, (u, c)) in used.iter().zip(&caps).enumerate() {
            prop_assert!(
                *u <= c * (1.0 + 1e-6),
                "resource {i} over capacity: {u} > {c}"
            );
        }
    }

    // Max-min monotonicity under added flows. Pointwise monotonicity is
    // false in general (a new flow can throttle a competitor on one link,
    // freeing capacity elsewhere), but max-min maximizes the minimum:
    // adding demand never raises the worst-off pre-existing allocation.
    #[test]
    fn waterfill_min_allocation_never_rises_under_added_flows(
        (caps, flows) in waterfill_scenario(),
        extra_route in proptest::collection::vec(0u32..8, 0..4),
        extra_cap in 0.5f64..500.0,
    ) {
        let extra_route: Vec<u32> = extra_route
            .into_iter()
            .map(|r| r % caps.len() as u32)
            .collect();
        let before = waterfill_rates(&caps, &flows);
        let mut grown = flows.clone();
        grown.push((extra_route, extra_cap));
        let after = waterfill_rates(&caps, &grown);
        let min_before = before.iter().cloned().fold(f64::INFINITY, f64::min);
        let min_after = after[..before.len()]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            min_after <= min_before * (1.0 + 1e-9),
            "worst-off flow sped up when a flow was added: {min_before} -> {min_after}"
        );
    }

    // On a single shared bottleneck monotonicity *is* pointwise: adding a
    // flow never increases any existing flow's allocation.
    #[test]
    fn waterfill_is_pointwise_monotone_on_one_link(
        link_cap in 1.0f64..1000.0,
        flow_caps in proptest::collection::vec(0.5f64..500.0, 1..12),
        extra_cap in 0.5f64..500.0,
    ) {
        let route = [ResourceId(0)];
        let rates_for = |caps: &[f64]| {
            let demands: Vec<FlowDemand> = caps
                .iter()
                .map(|&cap| FlowDemand { route: &route, cap })
                .collect();
            let mut wf = Waterfill::new(1);
            let mut rates = Vec::new();
            wf.compute(&demands, &[link_cap], &mut rates);
            rates
        };
        let before = rates_for(&flow_caps);
        let mut grown = flow_caps.clone();
        grown.push(extra_cap);
        let after = rates_for(&grown);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                *a <= b * (1.0 + 1e-9),
                "flow {i} sped up when a flow was added: {b} -> {a}"
            );
        }
    }

    // Fault plans: every transfer ends in exactly one consistent state,
    // and an identical plan replays to identical outcomes.
    #[test]
    fn faulted_runs_classify_every_transfer(
        (n, caps, specs) in scenario(),
        seed in 0u64..1_000,
    ) {
        let sim = Simulator::new(n, caps.clone(), quick_config());
        let mut g = TransferGraph::new();
        for s in specs {
            g.add(s);
        }
        let plan = FaultPlan::random_link_faults(seed, caps.len() as u32, 20.0, 0.05, 1.0);
        let rep = sim.simulate(&g, SimOptions::new().faults(&plan));
        for i in 0..g.len() {
            let start = rep.flow_start_time[i];
            let end = rep.delivery_time[i];
            match rep.status[i] {
                TransferStatus::Delivered => {
                    prop_assert!(start.is_finite() && end.is_finite() && end >= start);
                }
                TransferStatus::Stalled => {
                    prop_assert!(start.is_finite() && end == f64::INFINITY);
                }
                TransferStatus::NotStarted => {
                    prop_assert!(start == f64::INFINITY && end == f64::INFINITY);
                }
            }
        }
        prop_assert!(rep.end_time.is_finite());
        let again = sim.simulate(&g, SimOptions::new().faults(&plan));
        prop_assert_eq!(rep.delivery_time, again.delivery_time);
        prop_assert_eq!(rep.status, again.status);
    }
}

#[test]
fn water_filling_matches_hand_computed_scenario() {
    // Three flows: two share link 0 (cap 100), one alone on link 1.
    // Flow caps 50 each: so flows on link 0 get 50 each exactly (no
    // contention loss), lone flow gets 50 (cap-bound).
    let sim = Simulator::new(4, vec![100.0, 100.0], quick_config());
    let mut g = TransferGraph::new();
    let a = g.add(TransferSpec::new(0, 1, 5_000, vec![ResourceId(0)]));
    let b = g.add(TransferSpec::new(2, 1, 5_000, vec![ResourceId(0)]));
    let c = g.add(TransferSpec::new(3, 1, 5_000, vec![ResourceId(1)]));
    let rep = sim.simulate(&g, SimOptions::new());
    let times: Vec<f64> = [a, b, c].iter().map(|t| rep.delivered_at(*t)).collect();
    // All three transfer at 50 B/s -> 100 s + overheads, same finish.
    assert!((times[0] - times[1]).abs() < 1e-6);
    assert!((times[0] - times[2]).abs() < 1e-6);
}
