//! Cascade re-levels are invisible in results. Every re-level of the
//! default leveler re-solves only the links a changed flow reaches,
//! against the previous solve's pass log (see DESIGN §16);
//! [`SolverMode::Full`] drops that log before every re-level, so it
//! always solves cold and is the oracle. Both must produce the same
//! report and bottleneck profile, bit for bit, on graphs built to reach
//! every divergence rule: tied capacities and per-flow caps, repeated
//! hops, contention penalties, link and node faults, flows that join
//! and leave at the same instant, and long join/leave churn whose
//! completions reorder the demand list. Warm and cold share the
//! cascade's pop and freeze code; the churn test in `src/waterfill.rs`
//! checks warm solves against the independent lazy-deletion reference.

use bgq_netsim::*;
use proptest::prelude::*;

/// One random scenario: a network, a transfer graph, a contention
/// setting and a fault plan.
#[derive(Debug, Clone)]
struct Case {
    nodes: u32,
    caps: Vec<f64>,
    specs: Vec<TransferSpec>,
    contention: (f64, f64),
    send_overhead: f64,
    plan: FaultPlan,
}

/// Few distinct values everywhere, so shares, caps and completion times
/// tie often. A transfer may depend on an earlier one; with zero
/// overheads and latencies it joins at the instant its parent leaves.
fn case() -> impl Strategy<Value = Case> {
    (2u32..6, 1usize..6).prop_flat_map(|(nodes, nres)| {
        let caps = proptest::collection::vec(0usize..3, nres);
        let transfers = proptest::collection::vec(
            (
                (0..nodes, 0..nodes),
                0usize..4,
                // Routes may repeat a link.
                proptest::collection::vec(0..nres as u32, 0..5),
                0usize..3,
                (0usize..3, 0usize..24),
            ),
            1..24,
        );
        let knobs = (0usize..3, 0usize..2, 0usize..4, (0..nodes, 0..nres as u32));
        (Just(nodes), caps, transfers, knobs).prop_map(
            |(nodes, caps, ts, (contention, overhead, fault, (node, link)))| {
                let specs = ts
                    .into_iter()
                    .enumerate()
                    .map(|(i, ((src, dst), bytes, route, cap, (dep, parent)))| {
                        let mut s = TransferSpec::new(
                            src,
                            dst,
                            [0, 1_000, 2_000, 3_000][bytes],
                            route.into_iter().map(ResourceId).collect(),
                        );
                        s.rate_cap = [None, Some(25.0), Some(50.0)][cap];
                        if dep == 0 && i > 0 {
                            s.deps.push(TransferId((parent % i) as u32));
                        }
                        s
                    })
                    .collect();
                let plan = match fault {
                    0 | 1 => FaultPlan::new(),
                    // Stalls and resumes without a capacity change: the
                    // cascade state survives them.
                    2 => FaultPlan::new()
                        .fail_node(10.0, node)
                        .restore_node(20.0, node),
                    // A capacity change: the cascade state is dropped.
                    _ => FaultPlan::new()
                        .degrade_link(10.0, ResourceId(link), 0.5)
                        .restore_link(20.0, ResourceId(link)),
                };
                Case {
                    nodes,
                    caps: caps.into_iter().map(|c| [100.0, 200.0, 300.0][c]).collect(),
                    specs,
                    contention: [(0.0, 1.0), (0.25, 0.5), (1.0, 0.8)][contention],
                    send_overhead: [0.0, 0.5][overhead],
                    plan,
                }
            },
        )
    })
}

fn config(case: &Case) -> SimConfig {
    SimConfig {
        link_bandwidth: 100.0,
        io_link_bandwidth: 100.0,
        per_flow_cap: 100.0,
        hop_latency: 0.0,
        send_overhead: case.send_overhead,
        recv_overhead: 0.0,
        rma_phase_overhead: 0.0,
        forward_overhead: 0.0,
        contention_penalty: case.contention.0,
        contention_floor: case.contention.1,
        collect_link_stats: true,
    }
}

/// The report's exact bits: `{:?}` prints every float in shortest
/// round-trip form, so equal strings mean bit-identical fields
/// (profile included).
fn bits(r: &SimReport) -> String {
    format!("{r:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn warm_started_solves_match_the_cold_oracle(case in case()) {
        let sim = Simulator::new(case.nodes, case.caps.clone(), config(&case));
        let mut g = TransferGraph::new();
        for s in &case.specs {
            g.add(s.clone());
        }
        let run = |solver: SolverMode| {
            let mut obs = SimObserver::new();
            let report = sim.simulate(
                &g,
                SimOptions::new()
                    .faults(&case.plan)
                    .solver(solver)
                    .profiled()
                    .observer(&mut obs),
            );
            (report, obs)
        };
        let (cold, cold_obs) = run(SolverMode::Full);
        let (warm, warm_obs) = run(SolverMode::default());
        prop_assert_eq!(bits(&cold), bits(&warm));
        prop_assert_eq!(cold_obs.waterfill_replayed_passes, 0);
        prop_assert!(warm_obs.waterfill_replayed_passes <= warm_obs.waterfill_passes);
    }
}

/// A pinned case of the rule the state survives: a node flap stalls two
/// flows and later resumes them (leaves and joins with no capacity
/// change), while a third flow keeps its link.
#[test]
fn node_flap_replays_and_matches_the_oracle() {
    let cfg = SimConfig {
        link_bandwidth: 100.0,
        io_link_bandwidth: 100.0,
        per_flow_cap: 100.0,
        hop_latency: 0.0,
        send_overhead: 0.0,
        recv_overhead: 0.0,
        rma_phase_overhead: 0.0,
        forward_overhead: 0.0,
        contention_penalty: 0.0,
        contention_floor: 1.0,
        collect_link_stats: false,
    };
    let sim = Simulator::new(6, vec![100.0, 300.0, 10.0], cfg);
    let mut g = TransferGraph::new();
    // Link 0 (100) is shared by three flows and link 1 (300) by two;
    // link 2 (10) carries one slow flow, whose pass comes first.
    g.add(TransferSpec::new(0, 1, 2_000, vec![ResourceId(2)]));
    g.add(TransferSpec::new(
        2,
        3,
        3_000,
        vec![ResourceId(0), ResourceId(1)],
    ));
    g.add(TransferSpec::new(4, 5, 4_000, vec![ResourceId(0)]));
    g.add(TransferSpec::new(
        0,
        5,
        5_000,
        vec![ResourceId(0), ResourceId(1)],
    ));
    let plan = FaultPlan::new().fail_node(5.0, 5).restore_node(9.0, 5);
    let run = |solver: SolverMode| {
        let mut obs = SimObserver::new();
        let r = sim.simulate(
            &g,
            SimOptions::new()
                .faults(&plan)
                .solver(solver)
                .profiled()
                .observer(&mut obs),
        );
        (r, obs)
    };
    let (cold, cold_obs) = run(SolverMode::Full);
    let (warm, warm_obs) = run(SolverMode::default());
    assert!(cold.all_delivered());
    assert_eq!(bits(&cold), bits(&warm));
    assert_eq!(cold_obs.waterfill_replayed_passes, 0);
    assert!(
        warm_obs.waterfill_replayed_passes > 0,
        "link 2 pops first at every re-level ({} of {} passes replayed)",
        warm_obs.waterfill_replayed_passes,
        warm_obs.waterfill_passes
    );
}

/// A long churn: `n` transfers from few sources over few links, with
/// staggered injections and mixed sizes, so flows join and leave one or
/// two at a time for hundreds of epochs, completions `swap_remove` the
/// demand list, and every flow has the same per-flow cap.
fn churn() -> impl Strategy<Value = (Vec<f64>, Vec<TransferSpec>)> {
    let caps = proptest::collection::vec(0usize..3, 6);
    let transfers = proptest::collection::vec(
        (0u32..4, 1u64..40, proptest::collection::vec(0u32..6, 1..4)),
        220..260,
    );
    (caps, transfers).prop_map(|(caps, ts)| {
        let caps = caps.into_iter().map(|c| [100.0, 150.0, 300.0][c]).collect();
        let specs = ts
            .into_iter()
            .map(|(src, kb, route)| {
                TransferSpec::new(
                    src,
                    4,
                    kb * 250,
                    route.into_iter().map(ResourceId).collect(),
                )
            })
            .collect();
        (caps, specs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn long_churn_with_tied_caps_matches_the_cold_oracle((caps, specs) in churn()) {
        let cfg = SimConfig {
            link_bandwidth: 100.0,
            io_link_bandwidth: 100.0,
            per_flow_cap: 60.0,
            hop_latency: 0.0,
            send_overhead: 1.5,
            recv_overhead: 0.0,
            rma_phase_overhead: 0.0,
            forward_overhead: 0.0,
            contention_penalty: 0.25,
            contention_floor: 0.5,
            collect_link_stats: true,
        };
        let sim = Simulator::new(5, caps, cfg);
        let mut g = TransferGraph::new();
        for s in &specs {
            g.add(s.clone());
        }
        let run = |solver: SolverMode| {
            let mut obs = SimObserver::new();
            let report = sim.simulate(
                &g,
                SimOptions::new().solver(solver).profiled().observer(&mut obs),
            );
            (report, obs)
        };
        let (cold, _) = run(SolverMode::Full);
        let (warm, warm_obs) = run(SolverMode::default());
        prop_assert!(cold.all_delivered());
        prop_assert_eq!(bits(&cold), bits(&warm));
        prop_assert!(warm_obs.waterfill_runs >= 200, "{} epochs", warm_obs.waterfill_runs);
        prop_assert!(warm_obs.waterfill_replayed_passes > 0);
    }
}
