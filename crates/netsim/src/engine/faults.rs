//! Fault application: the mutable health state a fault plan drives.
//!
//! Allocated only when the run has a non-empty [`crate::FaultPlan`]; a
//! fault-free run carries no health state and performs exactly the same
//! operations it did before faults existed.

use crate::fault::FaultKind;
use crate::graph::TransferSpec;

#[derive(Debug)]
pub(crate) struct FaultState {
    /// Per-resource effective capacity (base capacity × current factor).
    pub eff_caps: Vec<f64>,
    /// Resources whose factor is exactly zero (dead links).
    pub dead: Vec<bool>,
    /// Nodes currently down.
    pub node_down: Vec<bool>,
    /// Injections that arrived while their source node was down.
    pub parked: Vec<Vec<u32>>,
}

impl FaultState {
    pub fn new(capacities: &[f64], num_nodes: u32) -> FaultState {
        FaultState {
            eff_caps: capacities.to_vec(),
            dead: vec![false; capacities.len()],
            node_down: vec![false; num_nodes as usize],
            parked: vec![Vec::new(); num_nodes as usize],
        }
    }

    /// Whether `spec` cannot move bytes under the current health state:
    /// a dead link on its route, or a down endpoint.
    pub fn is_blocked(&self, spec: &TransferSpec) -> bool {
        spec.route.iter().any(|r| self.dead[r.0 as usize])
            || self.node_down[spec.src as usize]
            || self.node_down[spec.dst as usize]
    }

    /// Apply the capacity-affecting part of a fault. Returns whether it
    /// changed a capacity (`LinkFactor` faults; the caller tells the
    /// leveler); node transitions return `false` — their rate effects
    /// arrive through the flow re-partition that follows.
    pub fn apply(&mut self, kind: &FaultKind, base_caps: &[f64]) -> bool {
        match *kind {
            FaultKind::LinkFactor { resource, factor } => {
                let ri = resource.0 as usize;
                self.eff_caps[ri] = base_caps[ri] * factor;
                self.dead[ri] = factor == 0.0;
                true
            }
            FaultKind::NodeDown { node } => {
                self.node_down[node as usize] = true;
                false
            }
            FaultKind::NodeUp { node } => {
                self.node_down[node as usize] = false;
                false
            }
        }
    }
}
