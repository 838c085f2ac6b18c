//! Cross-crate physical invariants: conservation, ceilings, determinism.

use bgq_sparsemove::prelude::*;

fn machine_with_stats(nodes: u32) -> Machine {
    Machine::new(
        standard_shape(nodes).unwrap(),
        SimConfig::default().with_link_stats(),
    )
}

#[test]
fn full_stack_is_deterministic() {
    let run_once = || {
        let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
        let map = RankMap::default_map(*machine.shape(), 16);
        let data = coalesce_to_nodes(
            &map,
            &pareto_sizes(map.num_ranks(), &ParetoParams::default(), 99),
        );
        let mover = SparseMover::new(&machine);
        let mut prog = Program::new(&machine);
        let plan = mover.plan_sparse_write(&mut prog, &data, &IoMoveOptions::default());
        let rep = prog.run();
        (plan.handle.completed_at(&rep), rep.makespan)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "identical inputs must produce identical timings");
}

#[test]
fn aggregation_conserves_bytes_on_io_links() {
    // Every byte of the write must cross exactly one eleventh link.
    let machine = machine_with_stats(128);
    let map = RankMap::default_map(*machine.shape(), 16);
    let data = coalesce_to_nodes(&map, &uniform_sizes(map.num_ranks(), 1 << 20, 5));
    let total: u64 = data.iter().map(|&(_, b)| b).sum();

    let mover = SparseMover::new(&machine);
    let mut prog = Program::new(&machine);
    let _plan = mover.plan_sparse_write(&mut prog, &data, &IoMoveOptions::default());
    let rep = prog.run();

    let rb = rep.resource_bytes.as_ref().unwrap();
    let ntorus = (machine.shape().num_nodes() * 10) as usize;
    let io_bytes: f64 = rb[ntorus..].iter().sum();
    assert!(
        (io_bytes - total as f64).abs() < total as f64 * 1e-6 + 1.0,
        "io links carried {io_bytes}, expected {total}"
    );
}

#[test]
fn collective_io_conserves_bytes_on_io_links() {
    let machine = machine_with_stats(128);
    let map = RankMap::default_map(*machine.shape(), 16);
    let data = coalesce_to_nodes(&map, &uniform_sizes(map.num_ranks(), 1 << 20, 6));
    let total: u64 = data.iter().map(|&(_, b)| b).sum();

    let mut prog = Program::new(&machine);
    let _h = plan_collective_write(&mut prog, &data, &CollectiveIoConfig::default());
    let rep = prog.run();

    let rb = rep.resource_bytes.as_ref().unwrap();
    let ntorus = (machine.shape().num_nodes() * 10) as usize;
    let io_bytes: f64 = rb[ntorus..].iter().sum();
    assert!(
        (io_bytes - total as f64).abs() < total as f64 * 1e-6 + 1.0,
        "io links carried {io_bytes}, expected {total}"
    );
}

#[test]
fn no_link_ever_exceeds_capacity() {
    // Throughput accounting: bytes / makespan per resource <= capacity
    // (loose: a link cannot move more than capacity x makespan bytes).
    let machine = machine_with_stats(128);
    let mover = SparseMover::new(&machine);
    let map = RankMap::default_map(*machine.shape(), 16);
    let data = coalesce_to_nodes(&map, &uniform_sizes(map.num_ranks(), 4 << 20, 7));

    let mut prog = Program::new(&machine);
    let _ = mover.plan_sparse_write(&mut prog, &data, &IoMoveOptions::default());
    let rep = prog.run();

    let caps = machine.capacities();
    let rb = rep.resource_bytes.as_ref().unwrap();
    for (i, (&bytes, &cap)) in rb.iter().zip(caps.iter()).enumerate() {
        assert!(
            bytes <= cap * rep.makespan * 1.001 + 1.0,
            "resource {i} moved {bytes} B in {} s over a {cap} B/s link",
            rep.makespan
        );
    }
}

#[test]
fn default_io_write_uses_only_default_path() {
    // A single node's default write touches its bridge's io link and no
    // other pset's.
    let machine = machine_with_stats(256);
    let layout = machine.io_layout().clone();
    let mut prog = Program::new(&machine);
    let t = prog.write_default(NodeId(5), 1 << 20, Vec::new());
    let rep = prog.run();
    assert!(rep.delivered_at(t) > 0.0);

    let rb = rep.resource_bytes.as_ref().unwrap();
    let ntorus = (machine.shape().num_nodes() * 10) as usize;
    for (i, &b) in rb[ntorus..].iter().enumerate() {
        let expected = i as u32
            == layout
                .io_link_index(layout.default_bridge(NodeId(5)))
                .unwrap();
        assert_eq!(b > 0.0, expected, "io link {i}");
    }
}

#[test]
fn per_flow_cap_is_respected_end_to_end() {
    // A lone put can never beat the 1.6 GB/s protocol cap even on an
    // otherwise empty machine.
    let machine = Machine::new(standard_shape(512).unwrap(), SimConfig::default());
    let mut prog = Program::new(&machine);
    let bytes = 256u64 << 20;
    let t = prog.put(NodeId(0), NodeId(100), bytes);
    let rep = prog.run();
    let thr = bytes as f64 / rep.delivered_at(t);
    assert!(thr <= 1.6e9 * 1.001, "{thr}");
}

#[test]
fn aggregator_tables_match_io_layout_across_partitions() {
    for nodes in [128u32, 256, 512, 1024, 2048] {
        let machine = Machine::new(standard_shape(nodes).unwrap(), SimConfig::default());
        let layout = machine.io_layout();
        let table = AggregatorTable::precompute(layout);
        assert_eq!(table.num_psets(), layout.num_psets());
        // Every aggregator at every count is a valid node of its pset.
        for &c in &sdm_core::AGG_COUNTS {
            for (i, &a) in table.aggregators(c).iter().enumerate() {
                let pset = bgq_sparsemove::torus::PsetId(i as u32 / c);
                assert_eq!(layout.pset_of(a), pset);
            }
        }
    }
}
