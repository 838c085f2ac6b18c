//! Exhaustive small-state oracle for the engine (DESIGN §12): every
//! transfer graph of up to four flows over a three-link line, where each
//! flow takes a contiguous segment of the line and one of two sizes,
//! under no fault or one link degraded or failed and later restored.
//! The default solver (warm cascade re-levels after one cold solve)
//! must reproduce [`SolverMode::Full`] (the same cascade, cold at every
//! re-level) bit for bit: report and bottleneck profile. Debug builds
//! also check every solve of both against its max-min certificate,
//! which does not share the solver's code.

use bgq_netsim::*;

/// The contiguous segments of the line 0 – 1 – 2.
const SEGMENTS: [&[u32]; 6] = [&[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 1, 2]];
const SIZES: [u64; 2] = [1_000, 2_500];

fn config() -> SimConfig {
    SimConfig {
        link_bandwidth: 100.0,
        io_link_bandwidth: 100.0,
        // Ties the link capacities, so caps and links pop on equal keys.
        per_flow_cap: 100.0,
        hop_latency: 0.0,
        send_overhead: 0.0,
        recv_overhead: 0.0,
        rma_phase_overhead: 0.0,
        forward_overhead: 0.0,
        contention_penalty: 0.25,
        contention_floor: 0.5,
        collect_link_stats: true,
    }
}

/// No fault, or one link degraded to half or failed at t = 4 and
/// restored at t = 12 (transfers take 10–75 time units).
fn plans() -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::new()];
    for link in 0..3 {
        plans.push(
            FaultPlan::new()
                .degrade_link(4.0, ResourceId(link), 0.5)
                .restore_link(12.0, ResourceId(link)),
        );
        plans.push(
            FaultPlan::new()
                .fail_link(4.0, ResourceId(link))
                .restore_link(12.0, ResourceId(link)),
        );
    }
    plans
}

/// Every sequence of up to four (segment, size) choices, in order: the
/// order is the transfer-id order, which fixes demand order and cap
/// tie-breaks.
fn graphs() -> Vec<Vec<(usize, usize)>> {
    let choices: Vec<(usize, usize)> = (0..SEGMENTS.len())
        .flat_map(|s| (0..SIZES.len()).map(move |b| (s, b)))
        .collect();
    let mut out: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
    let mut frontier = out.clone();
    for _ in 0..4 {
        frontier = frontier
            .iter()
            .flat_map(|g| {
                choices.iter().map(move |&c| {
                    let mut g = g.clone();
                    g.push(c);
                    g
                })
            })
            .collect();
        out.extend(frontier.iter().cloned());
    }
    out.remove(0);
    out
}

#[test]
fn default_solver_matches_the_cold_oracle_on_every_small_state() {
    // Each flow has its own source node, so every flow injects at t = 0
    // and the graph is one epoch of joins followed by completions (and
    // fault stalls and resumes).
    let sim = Simulator::new(5, vec![100.0, 100.0, 150.0], config());
    let plans = plans();
    let graphs = graphs();
    assert_eq!(graphs.len(), 12 + 144 + 1_728 + 20_736);
    let mut warm_solves = 0;
    for flows in &graphs {
        let mut g = TransferGraph::new();
        for (i, &(seg, size)) in flows.iter().enumerate() {
            let route = SEGMENTS[seg].iter().map(|&r| ResourceId(r)).collect();
            g.add(TransferSpec::new(i as u32, 4, SIZES[size], route));
        }
        for plan in &plans {
            let run = |solver: SolverMode| {
                let mut obs = SimObserver::new();
                let r = sim.simulate(
                    &g,
                    SimOptions::new()
                        .faults(plan)
                        .solver(solver)
                        .profiled()
                        .observer(&mut obs),
                );
                (r, obs.waterfill_incremental_runs)
            };
            let (cold, _) = run(SolverMode::Full);
            let (warm, warm_runs) = run(SolverMode::default());
            assert!(cold.all_delivered(), "{flows:?} under {plan:?}");
            assert_eq!(
                format!("{cold:?}"),
                format!("{warm:?}"),
                "{flows:?} under {plan:?}"
            );
            warm_solves += warm_runs;
        }
    }
    assert!(warm_solves > 0);
}
