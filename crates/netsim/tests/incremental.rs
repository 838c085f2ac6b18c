//! The cascade re-level's contract: for ANY transfer graph and ANY fault
//! plan, the default [`SolverMode::Cascade`] produces a report
//! bit-identical to [`SolverMode::Full`] — warm solves, skipped no-op
//! re-levels and cold restarts after capacity changes are never visible
//! in results.

use bgq_netsim::*;
use proptest::prelude::*;

#[path = "common/reports.rs"]
mod reports;
use reports::assert_reports_identical;

/// Strategy: a random small network scenario (mirrors `props.rs`).
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cascade == Full on random graphs, fault-free.
    #[test]
    fn incremental_matches_full_without_faults((n, caps, specs) in scenario()) {
        let sim = Simulator::new(n, caps, quick_config());
        let mut g = TransferGraph::new();
        for s in specs {
            g.add(s);
        }
        let full = sim.simulate(&g, SimOptions::new().solver(SolverMode::Full));
        let inc = sim.simulate(&g, SimOptions::new().solver(SolverMode::default()));
        assert_reports_identical(&full, &inc, "fault-free")?;
    }

    /// Cascade == Full on random graphs × random fault plans: faults
    /// exercise the repartition path (stall, resume, cold restarts).
    #[test]
    fn incremental_matches_full_under_random_faults(
        (n, caps, specs) in scenario(),
        seed in 0u64..1_000,
    ) {
        let sim = Simulator::new(n, caps.clone(), quick_config());
        let mut g = TransferGraph::new();
        for s in specs {
            g.add(s);
        }
        let plan = FaultPlan::random_link_faults(seed, caps.len() as u32, 20.0, 0.05, 1.0);
        let full = sim.simulate(
            &g,
            SimOptions::new().faults(&plan).solver(SolverMode::Full),
        );
        let inc = sim.simulate(
            &g,
            SimOptions::new().faults(&plan).solver(SolverMode::default()),
        );
        assert_reports_identical(&full, &inc, "faulted")?;
    }
}

/// Deterministic regression: a contended fan-in plus a disjoint pair,
/// with a mid-run degrade/restore fault. This is the shape that caught
/// divergence between the incremental and full solvers during
/// development; keep it pinned outside proptest so the exact case
/// always runs.
#[test]
fn threshold_regression_contended_fan_in() {
    let sim = Simulator::new(6, vec![100.0, 100.0, 100.0], quick_config());
    let mut g = TransferGraph::new();
    // Fan-in: three flows share link 0.
    g.add(TransferSpec::new(0, 1, 40_000, vec![ResourceId(0)]));
    g.add(TransferSpec::new(2, 1, 25_000, vec![ResourceId(0)]));
    g.add(TransferSpec::new(
        3,
        1,
        10_000,
        vec![ResourceId(0), ResourceId(1)],
    ));
    // Disjoint pair on link 2.
    g.add(TransferSpec::new(4, 5, 30_000, vec![ResourceId(2)]));
    // Degrade the shared link mid-run, restore later.
    let plan = FaultPlan::new()
        .degrade_link(50.0, ResourceId(0), 0.25)
        .degrade_link(300.0, ResourceId(0), 1.0);

    let reference = sim.simulate(&g, SimOptions::new().faults(&plan).solver(SolverMode::Full));
    assert!(reference.all_delivered());
    let rep = sim.simulate(
        &g,
        SimOptions::new()
            .faults(&plan)
            .solver(SolverMode::default()),
    );
    assert_eq!(rep.status, reference.status);
    for (i, (x, y)) in reference
        .delivery_time
        .iter()
        .zip(&rep.delivery_time)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "delivery_time[{i}]");
    }
    assert_eq!(reference.end_time.to_bits(), rep.end_time.to_bits());
}
