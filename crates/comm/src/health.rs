//! Planner-facing view of the network's health at a point in time.
//!
//! The engine's [`FaultPlan`] speaks simulator resource and node indices;
//! planners (proxy search, aggregator placement) speak topology types.
//! A [`HealthMask`] is the bridge: a snapshot of which torus links are
//! dead and which compute nodes are down at a given simulation time,
//! built by replaying the plan. Faults on I/O-space resources are not
//! represented — the torus planners never place proxies there.

use crate::machine::Machine;
use bgq_netsim::FaultPlan;
use bgq_torus::{LinkId, NodeId};
use std::collections::HashSet;

/// Dead links and down nodes, as a set the planners can route around.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthMask {
    /// Torus links with zero capacity (fully failed; degraded-but-alive
    /// links are not masked — routing over them is still correct).
    pub dead_links: HashSet<LinkId>,
    /// Compute nodes that are down (no injection, no forwarding).
    pub down_nodes: HashSet<NodeId>,
}

impl HealthMask {
    /// A mask with nothing failed.
    pub fn healthy() -> HealthMask {
        HealthMask::default()
    }

    /// Whether nothing is masked out.
    pub fn is_healthy(&self) -> bool {
        self.dead_links.is_empty() && self.down_nodes.is_empty()
    }

    /// The health of `machine`'s torus under `faults` at time `t`
    /// (inclusive: a fault scheduled exactly at `t` is visible).
    pub fn at(machine: &Machine, faults: &FaultPlan, t: f64) -> HealthMask {
        let num_nodes = machine.shape().num_nodes();
        let dead_links = faults
            .dead_resources_at(t)
            .into_iter()
            .filter_map(|r| machine.torus_link(r))
            .collect();
        let down_nodes = faults
            .down_nodes_at(t)
            .into_iter()
            .filter(|&n| n < num_nodes)
            .map(NodeId)
            .collect();
        HealthMask {
            dead_links,
            down_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_netsim::ResourceId;
    use bgq_netsim::SimConfig;
    use bgq_torus::{num_links, standard_shape};

    fn machine() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    #[test]
    fn healthy_mask_is_empty() {
        let m = HealthMask::healthy();
        assert!(m.is_healthy());
    }

    #[test]
    fn mask_tracks_plan_state_over_time() {
        let m = machine();
        let plan = FaultPlan::new()
            .fail_link(1.0, ResourceId(7))
            .restore_link(3.0, ResourceId(7))
            .fail_node(2.0, 5);
        assert!(HealthMask::at(&m, &plan, 0.5).is_healthy());
        let at1 = HealthMask::at(&m, &plan, 1.0);
        assert!(at1.dead_links.contains(&LinkId(7)));
        let at2 = HealthMask::at(&m, &plan, 2.5);
        assert!(at2.dead_links.contains(&LinkId(7)));
        assert!(at2.down_nodes.contains(&NodeId(5)));
        let at3 = HealthMask::at(&m, &plan, 3.5);
        assert!(at3.dead_links.is_empty(), "link healed");
        assert!(at3.down_nodes.contains(&NodeId(5)), "node still down");
    }

    #[test]
    fn io_space_faults_are_not_masked() {
        let m = machine();
        let io_resource = ResourceId(num_links(m.shape()));
        let plan = FaultPlan::new().fail_link(0.0, io_resource);
        assert!(HealthMask::at(&m, &plan, 1.0).is_healthy());
    }
}
