//! HACC I/O (the paper's §VI application benchmark): the cosmology code
//! periodically writes particle data; in this configuration only the MPI
//! ranks in the `[0.4N, 0.5N)` window write, and they write 10% of the
//! generated volume. The write is driven once with default MPI collective
//! I/O and once with the paper's customized (dynamic, topology-aware)
//! aggregator selection.
//!
//! Run with: `cargo run --release --example hacc_io [cores]`
//! (default 8,192 cores; the paper scales to 131,072).

use bgq_sparsemove::prelude::*;
use bgq_sparsemove::workloads::{total_write_bytes, writer_range, PARTICLE_BYTES};

fn main() {
    let cores: u32 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(8192);
    let shape = shape_for_cores(cores).unwrap_or_else(|| {
        eprintln!("no standard partition for {cores} cores (use 8192..131072, powers of two)");
        std::process::exit(1);
    });

    let machine = Machine::new(shape, SimConfig::default());
    let map = RankMap::default_map(shape, 16);
    let rank_sizes = hacc_workload(cores);
    let data = coalesce_to_nodes(&map, &rank_sizes);

    let total = total_write_bytes(cores);
    let writers = writer_range(cores);
    println!(
        "HACC I/O on {cores} cores ({} nodes, {} torus): {:.1} GB checkpoint (~{:.1}M particles)",
        shape.num_nodes(),
        shape,
        total as f64 / 1e9,
        (total / PARTICLE_BYTES) as f64 / 1e6
    );
    println!(
        "writers: ranks {}..{} ({} of {} ranks)\n",
        writers.start,
        writers.end,
        writers.len(),
        map.num_ranks()
    );

    let mut prog = Program::new(&machine);
    let handle = plan_collective_write(&mut prog, &data, &CollectiveIoConfig::default());
    let baseline = handle.throughput(&prog.run());

    let mover = SparseMover::new(&machine);
    let mut prog = Program::new(&machine);
    let plan = mover.plan_sparse_write(&mut prog, &data, &IoMoveOptions::default());
    let ours = plan.handle.throughput(&prog.run());

    println!(
        "default MPI collective write : {:>7.3} GB/s",
        baseline / 1e9
    );
    println!(
        "customized aggregators       : {:>7.3} GB/s  ({:.2}x improvement, paper: up to ~1.5x)",
        ours / 1e9,
        ours / baseline
    );
}
