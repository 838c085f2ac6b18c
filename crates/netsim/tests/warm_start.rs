//! Cascade re-levels are invisible in results. Every re-level of the
//! default leveler re-solves only the links a changed flow reaches,
//! against the previous solve's pass log (see DESIGN §16);
//! [`SolverMode::Full`] drops that log before every re-level, so it
//! always solves cold and is the oracle. Both must produce the same
//! report and bottleneck profile, bit for bit, on graphs built to reach
//! every divergence rule: tied capacities and per-flow caps, repeated
//! hops, contention penalties, link and node faults, flows that join
//! and leave at the same instant, and long join/leave churn whose
//! completions reorder the demand list while node flaps and link
//! failures stall and resume flows. Warm and cold share the cascade's
//! pop and freeze code; the churn test in `src/waterfill.rs` checks warm
//! solves against the independent lazy-deletion reference. In debug
//! builds every warm solve also checks the demand indices the engine's
//! notices maintain against a scan of the whole list.
//!
//! A sparse exchange of about a thousand flows pins the work counters:
//! a re-level examines only the flows that joined or moved, and pops the
//! logged passes in runs.

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
/// demand list, and every flow has the same per-flow cap. Up to four
/// faults interleave with it, each healed later: node flaps stall flows
/// by order-preserving removal and resume them at the back of the list
/// with no capacity change (the cascade state survives), and link
/// failures change a capacity (the next solve is cold).
fn churn() -> impl Strategy<Value = (Vec<f64>, Vec<TransferSpec>, FaultPlan)> {
    let caps = proptest::collection::vec(0usize..3, 6);
    let transfers = proptest::collection::vec(
        (0u32..4, 1u64..40, proptest::collection::vec(0u32..6, 1..4)),
        220..260,
    );
    let faults = proptest::collection::vec((0usize..3, 0u32..6, 1u32..300, 1u32..60), 0..5);
    (caps, transfers, faults).prop_map(|(caps, ts, faults)| {
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
        let plan = faults
            .into_iter()
            .fold(FaultPlan::new(), |plan, (kind, target, at, len)| {
                let (at, end) = (at as f64, (at + len) as f64);
                if kind < 2 {
                    plan.fail_node(at, target % 5).restore_node(end, target % 5)
                } else {
                    let link = ResourceId(target);
                    plan.fail_link(at, link).restore_link(end, link)
                }
            });
        (caps, specs, plan)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn long_churn_with_tied_caps_matches_the_cold_oracle((caps, specs, plan) in churn()) {
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
                SimOptions::new()
                    .faults(&plan)
                    .solver(solver)
                    .profiled()
                    .observer(&mut obs),
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

/// A random sparse exchange on a 16×16 torus: 256 nodes, each sending
/// to four random peers (1,024 flows) over dimension-ordered routes,
/// with mixed sizes, so flows join, complete and `swap_remove` the
/// demand list one or two at a time.
fn sparse_exchange() -> (Simulator, TransferGraph) {
    const SIDE: u32 = 16;
    // Links: four per node, +x, −x, +y, −y.
    let link = |node: u32, dir: u32| ResourceId(node * 4 + dir);
    let route = |src: u32, dst: u32| {
        let (mut x, mut y) = (src % SIDE, src / SIDE);
        let (tx, ty) = (dst % SIDE, dst / SIDE);
        let mut hops = Vec::new();
        while x != tx {
            let up = (tx + SIDE - x) % SIDE <= SIDE / 2;
            hops.push(link(y * SIDE + x, if up { 0 } else { 1 }));
            x = if up {
                (x + 1) % SIDE
            } else {
                (x + SIDE - 1) % SIDE
            };
        }
        while y != ty {
            let up = (ty + SIDE - y) % SIDE <= SIDE / 2;
            hops.push(link(y * SIDE + x, if up { 2 } else { 3 }));
            y = if up {
                (y + 1) % SIDE
            } else {
                (y + SIDE - 1) % SIDE
            };
        }
        hops
    };
    let nodes = SIDE * SIDE;
    let mut state = 2014u64;
    let mut next = |bound: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % bound as u64) as u32
    };
    let mut g = TransferGraph::new();
    for src in 0..nodes {
        for _ in 0..4 {
            let dst = (src + 1 + next(nodes - 1)) % nodes;
            let bytes = 1_000 * (1 + next(64) as u64);
            g.add(TransferSpec::new(src, dst, bytes, route(src, dst)));
        }
    }
    let cfg = SimConfig {
        link_bandwidth: 100.0,
        io_link_bandwidth: 100.0,
        per_flow_cap: 60.0,
        hop_latency: 0.0,
        send_overhead: 0.5,
        recv_overhead: 0.0,
        rma_phase_overhead: 0.0,
        forward_overhead: 0.0,
        contention_penalty: 0.25,
        contention_floor: 0.5,
    };
    (
        Simulator::new(nodes, vec![100.0; 4 * nodes as usize], cfg),
        g,
    )
}

/// The work counters of a re-level follow what changed, not the demand
/// set. Each flow joins once and departs once, and a completion moves at
/// most one flow, so the demand-index steps may examine at most twice
/// the joins plus departures (a scan of the whole list would examine
/// every active flow at every re-level). Logged passes pop in runs, so
/// their loop steps are at most half the passes popped as logged (one
/// step per pass would equal them).
#[test]
fn a_sparse_exchange_re_levels_in_proportion_to_what_changed() {
    let (sim, g) = sparse_exchange();
    let run = |solver: SolverMode| {
        let mut obs = SimObserver::new();
        let report = sim.simulate(&g, SimOptions::new().solver(solver).observer(&mut obs));
        (report, obs)
    };
    let (cold, _) = run(SolverMode::Full);
    let (warm, obs) = run(SolverMode::default());
    assert!(warm.all_delivered());
    assert_eq!(bits(&cold), bits(&warm));
    let (joins, departures) = (g.len() as u64, g.len() as u64);
    assert!(obs.waterfill_incremental_runs > 1_000, "{obs:?}");
    assert!(
        obs.waterfill_index_visits <= 2 * (joins + departures),
        "{} index visits for {joins} joins and {departures} departures",
        obs.waterfill_index_visits
    );
    assert!(
        2 * obs.waterfill_log_steps <= obs.waterfill_replayed_passes,
        "{} log steps for {} passes popped as logged",
        obs.waterfill_log_steps,
        obs.waterfill_replayed_passes
    );
}
