//! The default MPI-IO collective write (the paper's baseline).
//!
//! Models ROMIO collective buffering as deployed on BG/Q:
//!
//! * a **static** set of collective-buffering aggregators — a fixed number
//!   per pset, taken in rank order from the start of the pset. As the
//!   paper observes (§IV.A), "these nodes are neither uniformly
//!   distributed nor balanced to connect to all I/O nodes": the clustered
//!   placement puts every default aggregator in the first half of its
//!   pset, so all of them drain through the pset's *first* bridge node and
//!   the second 2 GB/s I/O link sits idle;
//! * even-by-offset **file domains** ([`crate::file_domain`]): the
//!   exchange phase ships each byte to the aggregator owning its offset
//!   range, regardless of topology;
//! * aggregators flush their collective buffers to their default bridge
//!   node and onward to the ION in `cb_buffer`-sized rounds.

use crate::file_domain::domain_transfers;
use bgq_comm::{CollectiveModel, Program, TransferHandle};
use bgq_torus::{IoLayout, NodeId};

/// Tunables of the baseline collective write.
#[derive(Debug, Clone)]
pub struct CollectiveIoConfig {
    /// Collective-buffering aggregators per pset (`cb_nodes / n_psets`).
    pub aggregators_per_pset: u32,
    /// Collective buffer size: granularity of aggregator-side flushes.
    pub cb_buffer: u64,
}

impl Default for CollectiveIoConfig {
    fn default() -> Self {
        CollectiveIoConfig {
            aggregators_per_pset: 8,
            cb_buffer: 16 << 20,
        }
    }
}

/// The default (static, rank-order) aggregator set: the first
/// `per_pset` nodes of every pset.
pub fn default_aggregators(layout: &IoLayout, per_pset: u32) -> Vec<NodeId> {
    assert!(
        (1..=bgq_torus::PSET_NODES).contains(&per_pset),
        "aggregators per pset out of range"
    );
    (0..layout.num_psets())
        .flat_map(|p| {
            let start = layout.pset_start(bgq_torus::PsetId(p)).0;
            (start..start + per_pset).map(NodeId)
        })
        .collect()
}

/// Plan a default MPI-IO collective write of per-node volumes `data`
/// (file order = node order). Returns the ION-side completion handle.
pub fn plan_collective_write(
    prog: &mut Program<'_>,
    data: &[(NodeId, u64)],
    cfg: &CollectiveIoConfig,
) -> TransferHandle {
    let machine = prog.machine();
    let layout = machine.io_layout().clone();
    let aggregators = default_aggregators(&layout, cfg.aggregators_per_pset);
    let total: u64 = data.iter().map(|&(_, b)| b).sum();

    // Two-phase setup: every rank learns all access ranges (allgather of
    // offsets/lengths) before the exchange phase — modelled collectively.
    let cm = CollectiveModel::new(machine);
    let sync_cost = cm.gather_control(machine.num_nodes()) + cm.bcast(machine.num_nodes(), 8);
    let sync = prog.modeled_sync(NodeId(0), sync_cost, Vec::new());

    let fwd = machine.config().forward_overhead;
    let transfers = domain_transfers(data, aggregators.len());

    let mut tokens = Vec::with_capacity(transfers.len());
    for t in &transfers {
        let agg = aggregators[t.to_aggregator_index];
        // Exchange phase (in cb_buffer rounds) + write phase per round.
        let mut remaining = t.bytes;
        while remaining > 0 {
            let chunk = remaining.min(cfg.cb_buffer);
            remaining -= chunk;
            let arrive = if t.from == agg {
                vec![sync]
            } else {
                vec![prog.put_after(t.from, agg, chunk, vec![sync], 0.0)]
            };
            // Default path out: the aggregator's own default bridge.
            let bridge = layout.default_bridge(agg);
            let bridged = if bridge == agg {
                arrive
            } else {
                vec![prog.put_after(agg, bridge, chunk, arrive, fwd)]
            };
            tokens.push(prog.ion_forward(bridge, chunk, bridged, fwd));
        }
    }

    TransferHandle {
        tokens,
        bytes: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_comm::Machine;
    use bgq_netsim::SimConfig;
    use bgq_torus::{standard_shape, PsetId};

    fn machine(nodes: u32) -> Machine {
        Machine::new(standard_shape(nodes).unwrap(), SimConfig::default())
    }

    #[test]
    fn default_aggregators_are_clustered_at_pset_start() {
        let m = machine(512);
        let layout = m.io_layout();
        let aggs = default_aggregators(layout, 8);
        assert_eq!(aggs.len(), 32);
        for (i, a) in aggs.iter().enumerate() {
            let pset = (i / 8) as u32;
            assert_eq!(layout.pset_of(*a), PsetId(pset));
            assert!(a.0 % 128 < 8, "default aggregator not clustered: {a}");
        }
    }

    #[test]
    fn clustered_aggregators_use_only_the_first_bridge() {
        // The imbalance the paper calls out: every default aggregator
        // drains via bridge 0 of its pset.
        let m = machine(512);
        let layout = m.io_layout();
        for a in default_aggregators(layout, 8) {
            let bridge = layout.default_bridge(a);
            assert_eq!(
                bridge,
                layout.bridges_of_pset(layout.pset_of(a))[0],
                "default aggregators must map to the first bridge"
            );
        }
    }

    #[test]
    fn collective_write_completes_and_conserves_bytes() {
        let m = machine(128);
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 2 << 20)).collect();
        let h = plan_collective_write(&mut p, &data, &CollectiveIoConfig::default());
        assert_eq!(h.bytes, 128 * (2 << 20));
        let rep = p.run();
        assert!(h.completed_at(&rep) > 0.0);
    }

    #[test]
    fn baseline_throughput_capped_by_single_bridge() {
        // With all aggregators behind one bridge, a one-pset write cannot
        // exceed the single 2 GB/s I/O link.
        let m = machine(128);
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 8 << 20)).collect();
        let h = plan_collective_write(&mut p, &data, &CollectiveIoConfig::default());
        let rep = p.run();
        let thr = h.throughput(&rep);
        assert!(
            thr <= 2.0e9 * 1.01,
            "baseline should be bridge-0 limited, got {thr}"
        );
    }

    #[test]
    fn cb_buffer_rounds_split_large_domains() {
        let m = machine(128);
        let mut p = Program::new(&m);
        let data = vec![(NodeId(5), 40u64 << 20)];
        let cfg = CollectiveIoConfig {
            aggregators_per_pset: 1,
            cb_buffer: 16 << 20,
        };
        let h = plan_collective_write(&mut p, &data, &cfg);
        // 40 MB over one aggregator in 16 MB rounds -> 3 ION forwards.
        assert_eq!(h.tokens.len(), 3);
    }

    #[test]
    fn empty_write_is_trivial() {
        let m = machine(128);
        let mut p = Program::new(&m);
        let h = plan_collective_write(&mut p, &[], &CollectiveIoConfig::default());
        assert_eq!(h.bytes, 0);
        assert!(h.tokens.is_empty());
    }
}
