//! Quickstart: move one large message between two compute nodes of a
//! simulated 128-node BG/Q partition, letting the planner decide between
//! the direct default path and proxy-based multipath.
//!
//! Run with: `cargo run --release --example quickstart`

use bgq_sparsemove::prelude::*;

fn main() {
    // A 128-node partition (torus shape 2x2x4x4x2), paper-calibrated
    // network parameters.
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let mover = SparseMover::new(&machine);

    let src = NodeId(0);
    let dst = NodeId(machine.shape().num_nodes() - 1);

    println!(
        "transferring between {src} and {dst} on a {} torus\n",
        machine.shape()
    );
    println!("{:>10}  {:>12}  {:>10}", "size", "decision", "GB/s");

    for bytes in [4u64 << 10, 64 << 10, 1 << 20, 32 << 20] {
        let mut prog = Program::new(&machine);
        let outcome = mover
            .plan(&mut prog, PlanRequest::new(src, dst, bytes))
            .unwrap();
        let (handle, decision) = (outcome.handle, outcome.decision);
        let report = prog.run();
        let label = match decision {
            Decision::Direct(_) => "direct".to_string(),
            Decision::Multipath { paths } => format!("{paths} proxies"),
        };
        println!(
            "{:>9}K  {:>12}  {:>10.3}",
            bytes >> 10,
            label,
            handle.throughput(&report) / 1e9
        );
    }

    // The cost model behind the decision (§IV.B of the paper).
    let model = mover.model();
    println!(
        "\ncost model: >= {} proxies required, 4-proxy threshold at {} KB",
        model.min_beneficial_proxies(),
        model.threshold_bytes(4).unwrap() >> 10
    );
}
