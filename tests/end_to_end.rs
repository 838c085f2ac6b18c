//! End-to-end integration tests: the paper's headline claims, exercised
//! through the full stack (torus → netsim → comm → core/iosys).

use bgq_sparsemove::core::{plan_direct, plan_via_proxies, MultipathOptions};
use bgq_sparsemove::prelude::*;

#[test]
fn headline_two_x_point_to_point_improvement() {
    // Abstract: "up to a 2X improvement in achievable throughput compared
    // to the default mechanisms" — the Fig. 5 configuration.
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let mover = SparseMover::new(&machine).with_search(ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    });
    let bytes = 128u64 << 20;

    let mut pd = Program::new(&machine);
    let hd = plan_direct(&mut pd, NodeId(0), NodeId(127), bytes);
    let direct = hd.throughput(&pd.run());

    let mut pm = Program::new(&machine);
    let out = mover
        .plan(&mut pm, PlanRequest::new(NodeId(0), NodeId(127), bytes))
        .unwrap();
    let decision = out.decision;
    assert!(
        matches!(decision, Decision::Multipath { paths: 4 }),
        "{decision:?}"
    );
    let multi = out.handle.throughput(&pm.run());

    let speedup = multi / direct;
    assert!(
        (1.8..=2.1).contains(&speedup),
        "expected ~2x (paper Fig. 5), got {speedup:.2}"
    );
    // Absolute calibration: ~1.6 GB/s direct, ~3.2 GB/s multipath.
    assert!((1.5e9..=1.65e9).contains(&direct), "{direct}");
    assert!((2.9e9..=3.3e9).contains(&multi), "{multi}");
}

#[test]
fn threshold_decision_agrees_with_simulation() {
    // The planner's model-based decision must match what the simulator
    // actually measures, on both sides of the threshold.
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let mover = SparseMover::new(&machine).with_search(ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    });
    let th = mover.model().threshold_bytes(4).unwrap();

    for (bytes, proxies_should_win) in [(th / 8, false), (th * 8, true)] {
        let mut pd = Program::new(&machine);
        let hd = plan_direct(&mut pd, NodeId(0), NodeId(127), bytes);
        let t_direct = hd.completed_at(&pd.run());

        let sel = bgq_sparsemove::core::find_proxies(
            machine.shape(),
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &std::collections::HashSet::new(),
            &ProxySearchConfig {
                max_proxies: 4,
                ..Default::default()
            },
        );
        let mut pm = Program::new(&machine);
        let hm = plan_via_proxies(
            &mut pm,
            NodeId(0),
            NodeId(127),
            bytes,
            &sel.proxies(),
            &MultipathOptions::default(),
        );
        let t_multi = hm.completed_at(&pm.run());

        assert_eq!(
            t_multi < t_direct,
            proxies_should_win,
            "at {bytes} B: direct {t_direct}, multi {t_multi}"
        );
    }
}

#[test]
fn aggregation_beats_collective_io_on_both_patterns() {
    // Fig. 10's claim at the smallest scale, through the public API.
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let map = RankMap::default_map(*machine.shape(), 16);
    let mover = SparseMover::new(&machine);

    for (label, sizes) in [
        ("pattern 1", uniform_sizes(map.num_ranks(), 8 << 20, 1)),
        (
            "pattern 2",
            pareto_sizes(map.num_ranks(), &ParetoParams::default(), 1),
        ),
    ] {
        let data = coalesce_to_nodes(&map, &sizes);

        let mut prog = Program::new(&machine);
        let handle = plan_collective_write(&mut prog, &data, &CollectiveIoConfig::default());
        let baseline = handle.throughput(&prog.run());

        let mut prog = Program::new(&machine);
        let plan = mover.plan_sparse_write(&mut prog, &data, &IoMoveOptions::default());
        let ours = plan.handle.throughput(&prog.run());

        assert!(
            ours > baseline * 1.3,
            "{label}: ours {ours:.3e} should clearly beat baseline {baseline:.3e}"
        );
        // And never exceed the physical pset ceiling (2 links x 2 GB/s).
        assert!(
            ours <= 4.0e9 * 1.01,
            "{label}: {ours:.3e} exceeds pset ceiling"
        );
    }
}

#[test]
fn hacc_workload_improvement_in_paper_band() {
    // Fig. 11: up to ~1.5x; allow a generous band around it.
    let machine = Machine::new(shape_for_cores(8192).unwrap(), SimConfig::default());
    let map = RankMap::default_map(*machine.shape(), 16);
    let data = coalesce_to_nodes(&map, &hacc_workload(8192));

    let mut prog = Program::new(&machine);
    let handle = plan_collective_write(&mut prog, &data, &CollectiveIoConfig::default());
    let baseline = handle.throughput(&prog.run());

    let mover = SparseMover::new(&machine);
    let mut prog = Program::new(&machine);
    let plan = mover.plan_sparse_write(&mut prog, &data, &IoMoveOptions::default());
    let ours = plan.handle.throughput(&prog.run());

    let ratio = ours / baseline;
    assert!(
        (1.2..=2.5).contains(&ratio),
        "HACC improvement {ratio:.2} outside the plausible band"
    );
}

#[test]
fn degenerate_partitions_fall_back_gracefully() {
    // A partition with no room for proxies must still complete transfers.
    let machine = Machine::new(Shape::new(2, 1, 1, 1, 1), SimConfig::default());
    let mover = SparseMover::new(&machine);
    let mut prog = Program::new(&machine);
    let out = mover
        .plan(&mut prog, PlanRequest::new(NodeId(0), NodeId(1), 64 << 20))
        .unwrap();
    assert!(matches!(out.decision, Decision::Direct(_)));
    assert!(out.handle.throughput(&prog.run()) > 0.0);
}
