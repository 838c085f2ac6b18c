//! Multiphysics data coupling (the paper's motivating §I scenario): two
//! physics modules run on disjoint contiguous partitions of a 2K-node
//! machine; at every coupling step module S ships a field to module T
//! while the rest of the machine is communication-free — a *sparse* data
//! movement that leaves most torus links idle.
//!
//! The planner couples the groups over link-disjoint proxy-group paths
//! whenever the exchanged field is large enough.
//!
//! Run with: `cargo run --release --example multiphysics_coupling`

use bgq_sparsemove::core::{plan_group_direct, Decision};
use bgq_sparsemove::prelude::*;

fn main() {
    let machine = Machine::new(standard_shape(2048).unwrap(), SimConfig::default());
    let n = machine.shape().num_nodes();

    // Module S: an ocean model on the first 128 nodes; module T: an
    // atmosphere model on the A-opposed 128 nodes. Process i of S couples
    // to process i of T (contiguous mapping, as in CESM-style coupled
    // codes — the paper's §IV.C assumption).
    let ocean: Vec<NodeId> = (0..128).map(NodeId).collect();
    let atmosphere: Vec<NodeId> = (3 * n / 4..3 * n / 4 + 128).map(NodeId).collect();

    let mover = SparseMover::new(&machine);

    println!(
        "coupling 128 ocean ranks to 128 atmosphere ranks on a {} torus",
        machine.shape()
    );
    println!(
        "{:>12}  {:>12}  {:>14}  {:>14}  {:>8}",
        "field size", "decision", "direct GB/s", "planned GB/s", "speedup"
    );

    for bytes in [64u64 << 10, 1 << 20, 8 << 20, 64 << 20] {
        // Baseline: every pair uses the deterministic default path.
        let mut pd = Program::new(&machine);
        let hd = plan_group_direct(&mut pd, &ocean, &atmosphere, bytes);
        let t_direct = hd.completed_at(&pd.run());

        // Planner: group multipath when the cost model approves.
        let mut pm = Program::new(&machine);
        let (hm, decision) = mover.plan_group_coupling(&mut pm, &ocean, &atmosphere, bytes);
        let t_planned = hm.completed_at(&pm.run());

        let per_pair = bytes as f64;
        let label = match decision {
            Decision::Direct(_) => "direct".to_string(),
            Decision::Multipath { paths } => format!("{paths} groups"),
        };
        println!(
            "{:>11}K  {:>12}  {:>14.3}  {:>14.3}  {:>7.2}x",
            bytes >> 10,
            label,
            per_pair / t_direct / 1e9,
            per_pair / t_planned / 1e9,
            t_direct / t_planned
        );
    }

    println!("\nlarge coupled fields gain ~k/2 with k proxy groups (paper Eq. 5);");
    println!("small fields stay on the direct path (below the §IV.B threshold).");
}
