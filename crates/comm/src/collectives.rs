//! Collective operations: analytic cost models and scheduled algorithms.
//!
//! Two fidelities are offered:
//!
//! * [`CollectiveModel`] — closed-form alpha-beta costs for barriers,
//!   (all)reductions and broadcasts, used when a protocol merely needs to
//!   account for a synchronization step at scale (e.g. Algorithm 2's
//!   "reduce and broadcast the total size") without simulating hundreds of
//!   thousands of tiny messages;
//! * scheduled algorithms ([`dissemination_barrier`], [`binomial_bcast`],
//!   [`binomial_reduce`]) — real message DAGs over the torus, exact but
//!   only sensible for modest node counts.

use crate::machine::Machine;
use crate::program::Program;
use bgq_netsim::TransferId;
use bgq_torus::NodeId;

/// Bytes of a control message (coordinates, sizes) in scheduled collectives.
pub const CONTROL_MSG_BYTES: u64 = 16;

/// Closed-form collective costs for a machine.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveModel<'m> {
    machine: &'m Machine,
}

impl<'m> CollectiveModel<'m> {
    pub fn new(machine: &'m Machine) -> CollectiveModel<'m> {
        CollectiveModel { machine }
    }

    fn alpha(&self) -> f64 {
        let c = self.machine.config();
        c.send_overhead + c.recv_overhead + self.machine.mean_hops() * c.hop_latency
    }

    fn rounds(n: u32) -> f64 {
        if n <= 1 {
            0.0
        } else {
            (n as f64).log2().ceil()
        }
    }

    /// Latency of a barrier over `n` participants (dissemination pattern).
    pub fn barrier(&self, n: u32) -> f64 {
        Self::rounds(n) * self.alpha()
    }

    /// Latency of an allreduce of `bytes` over `n` participants
    /// (recursive doubling for small payloads).
    pub fn allreduce(&self, n: u32, bytes: u64) -> f64 {
        let beta = bytes as f64 / self.machine.config().link_bandwidth;
        Self::rounds(n) * (self.alpha() + beta)
    }

    /// Latency of a broadcast of `bytes` from one root to `n - 1` others
    /// (binomial tree).
    pub fn bcast(&self, n: u32, bytes: u64) -> f64 {
        let beta = bytes as f64 / self.machine.config().link_bandwidth;
        Self::rounds(n) * (self.alpha() + beta)
    }

    /// Latency of gathering one control message from each of `n`
    /// participants to a root (binomial tree, payload grows toward root;
    /// we charge the worst-level payload at every level for simplicity).
    pub fn gather_control(&self, n: u32) -> f64 {
        let beta = (n as u64 * CONTROL_MSG_BYTES) as f64 / self.machine.config().link_bandwidth;
        Self::rounds(n) * self.alpha() + beta
    }
}

/// Schedule a dissemination barrier among `nodes`.
///
/// `entry[i]` are the transfers node `i` must complete before entering the
/// barrier. Returns one exit token per node: a transfer that is delivered
/// only when that node has passed the barrier.
pub fn dissemination_barrier(
    prog: &mut Program<'_>,
    nodes: &[NodeId],
    entry: &[Vec<TransferId>],
) -> Vec<TransferId> {
    assert_eq!(nodes.len(), entry.len(), "one entry dep list per node");
    let n = nodes.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        // Trivial: delivered when the entry deps are done.
        return vec![prog.modeled_sync(nodes[0], 0.0, entry[0].clone())];
    }

    // tokens[i]: the transfer whose delivery means node i finished the
    // current round.
    let mut tokens: Vec<Vec<TransferId>> = entry.to_vec();
    let mut round = 1usize;
    while round < n {
        let mut sends: Vec<TransferId> = Vec::with_capacity(n);
        for i in 0..n {
            let peer = (i + round) % n;
            let deps = tokens[i].clone();
            sends.push(prog.put_after(nodes[i], nodes[peer], CONTROL_MSG_BYTES, deps, 0.0));
        }
        // Next-round readiness of node i: its own send issued (captured by
        // the send's delivery) and the message from (i - round) received.
        let mut next: Vec<Vec<TransferId>> = Vec::with_capacity(n);
        for i in 0..n {
            let from = (i + n - round % n) % n;
            next.push(vec![sends[i], sends[from]]);
        }
        tokens = next;
        round *= 2;
    }
    tokens
        .into_iter()
        .zip(nodes)
        .map(|(deps, &node)| prog.modeled_sync(node, 0.0, deps))
        .collect()
}

/// Schedule a binomial-tree broadcast of `bytes` from `nodes[0]` to the
/// rest. Returns the per-node delivery token (the root's token is delivered
/// immediately after its entry deps).
pub fn binomial_bcast(
    prog: &mut Program<'_>,
    nodes: &[NodeId],
    bytes: u64,
    root_deps: Vec<TransferId>,
) -> Vec<TransferId> {
    let n = nodes.len();
    assert!(n > 0, "broadcast needs at least one node");
    let mut have: Vec<Option<TransferId>> = vec![None; n];
    have[0] = Some(prog.modeled_sync(nodes[0], 0.0, root_deps));
    // Classic binomial: in round k, every holder i sends to i + 2^k.
    let mut stride = 1usize;
    while stride < n {
        for i in 0..n {
            let j = i + stride;
            if j < n && have[i].is_some() && have[j].is_none() {
                let dep = have[i].unwrap();
                // Only nodes that became holders in earlier rounds send.
                have[j] = Some(prog.put_after(nodes[i], nodes[j], bytes, vec![dep], 0.0));
            }
        }
        stride *= 2;
    }
    have.into_iter().map(|t| t.unwrap()).collect()
}

/// Schedule a binomial-tree reduction of `bytes` per node toward
/// `nodes[0]`. `entry[i]` gates node `i`'s participation. Returns the token
/// delivered when the root holds the result.
pub fn binomial_reduce(
    prog: &mut Program<'_>,
    nodes: &[NodeId],
    bytes: u64,
    entry: &[Vec<TransferId>],
) -> TransferId {
    let n = nodes.len();
    assert!(n > 0, "reduce needs at least one node");
    assert_eq!(entry.len(), n);
    // ready[i]: what node i must have before it can send/absorb.
    let mut ready: Vec<Vec<TransferId>> = entry.to_vec();
    let mut alive: Vec<bool> = vec![true; n];
    let mut stride = 1usize;
    while stride < n {
        for i in (0..n).step_by(stride * 2) {
            let j = i + stride;
            if j < n && alive[i] && alive[j] {
                let deps = ready[j].clone();
                let recv = prog.put_after(nodes[j], nodes[i], bytes, deps, 0.0);
                ready[i].push(recv);
                alive[j] = false;
            }
        }
        stride *= 2;
    }
    let deps = ready[0].clone();
    prog.modeled_sync(nodes[0], 0.0, deps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_netsim::SimConfig;
    use bgq_torus::standard_shape;

    fn machine() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    fn first_nodes(k: u32) -> Vec<NodeId> {
        (0..k).map(NodeId).collect()
    }

    #[test]
    fn model_costs_grow_with_participants() {
        let m = machine();
        let cm = CollectiveModel::new(&m);
        assert_eq!(cm.barrier(1), 0.0);
        assert!(cm.barrier(2) > 0.0);
        assert!(cm.barrier(128) > cm.barrier(16));
        assert!(cm.allreduce(64, 1 << 20) > cm.allreduce(64, 8));
        assert!(cm.bcast(64, 1 << 20) > cm.barrier(64));
        assert!(cm.gather_control(1024) > cm.gather_control(16));
    }

    #[test]
    fn scheduled_barrier_synchronizes_all() {
        let m = machine();
        let mut p = Program::new(&m);
        let nodes = first_nodes(8);
        // Give node 3 a long head-start task; everyone must wait for it.
        let slow = p.put(NodeId(3), NodeId(4), 32 << 20);
        let mut entry = vec![Vec::new(); 8];
        entry[3] = vec![slow];
        let exits = dissemination_barrier(&mut p, &nodes, &entry);
        assert_eq!(exits.len(), 8);
        let rep = p.run();
        let t_slow = rep.delivered_at(slow);
        for e in &exits {
            assert!(
                rep.delivered_at(*e) >= t_slow,
                "barrier exit before slow node arrived"
            );
        }
    }

    #[test]
    fn barrier_of_one_is_immediate() {
        let m = machine();
        let mut p = Program::new(&m);
        let exits = dissemination_barrier(&mut p, &[NodeId(0)], &[Vec::new()]);
        let rep = p.run();
        assert_eq!(exits.len(), 1);
        assert!(rep.delivered_at(exits[0]) < 1e-3);
    }

    #[test]
    fn bcast_reaches_everyone_after_root() {
        let m = machine();
        let mut p = Program::new(&m);
        let nodes = first_nodes(13); // non-power-of-two
        let tokens = binomial_bcast(&mut p, &nodes, 4096, Vec::new());
        let rep = p.run();
        let t_root = rep.delivered_at(tokens[0]);
        for t in &tokens[1..] {
            assert!(rep.delivered_at(*t) > t_root);
        }
    }

    #[test]
    fn reduce_completes_after_all_leaves() {
        let m = machine();
        let mut p = Program::new(&m);
        let nodes = first_nodes(10);
        let slow = p.put(NodeId(9), NodeId(8), 16 << 20);
        let mut entry = vec![Vec::new(); 10];
        entry[9] = vec![slow];
        let done = binomial_reduce(&mut p, &nodes, 64, &entry);
        let rep = p.run();
        assert!(rep.delivered_at(done) >= rep.delivered_at(slow));
    }

    #[test]
    fn scheduled_barrier_latency_close_to_model() {
        // The analytic model should be within an order of magnitude of the
        // scheduled algorithm (it is a coarse alpha model, not exact).
        let m = machine();
        let cm = CollectiveModel::new(&m);
        let mut p = Program::new(&m);
        let nodes = first_nodes(16);
        let entry = vec![Vec::new(); 16];
        let exits = dissemination_barrier(&mut p, &nodes, &entry);
        let rep = p.run();
        let scheduled = exits
            .iter()
            .map(|e| rep.delivered_at(*e))
            .fold(0.0, f64::max);
        let modeled = cm.barrier(16);
        assert!(
            scheduled > modeled * 0.1 && scheduled < modeled * 20.0,
            "scheduled {scheduled} vs modeled {modeled}"
        );
    }
}
