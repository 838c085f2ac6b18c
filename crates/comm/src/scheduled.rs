//! Additional scheduled collective algorithms: ring allgather, pairwise
//! all-to-all and binomial scatter.
//!
//! Like the algorithms in [`crate::collectives`], these build real message
//! DAGs over the torus, so their cost emerges from the simulated network
//! rather than a closed-form model. They are used by the data-coupling
//! workloads (boundary exchange, transpose-style coupling) and exercised
//! by the ablation benches.

use crate::program::Program;
use bgq_netsim::TransferId;
use bgq_torus::NodeId;

/// Ring allgather: each node contributes `bytes`; after `n-1` rounds every
/// node holds all contributions. Returns, per node, the token delivered
/// when that node's gather is complete.
pub fn ring_allgather(
    prog: &mut Program<'_>,
    nodes: &[NodeId],
    bytes: u64,
    entry: &[Vec<TransferId>],
) -> Vec<TransferId> {
    let n = nodes.len();
    assert!(n > 0, "allgather needs at least one node");
    assert_eq!(entry.len(), n);
    if n == 1 {
        return vec![prog.modeled_sync(nodes[0], 0.0, entry[0].clone())];
    }

    // incoming[i]: token for the block node i received in the last round.
    // Round r: node i sends the block it received in round r-1 (its own
    // block in round 0) to node (i+1) mod n.
    let mut last_recv: Vec<Vec<TransferId>> = entry.to_vec();
    let mut all_recvs: Vec<Vec<TransferId>> = vec![Vec::new(); n];
    for _round in 0..n - 1 {
        let mut next: Vec<Vec<TransferId>> = vec![Vec::new(); n];
        for i in 0..n {
            let to = (i + 1) % n;
            let send = prog.put_after(nodes[i], nodes[to], bytes, last_recv[i].clone(), 0.0);
            next[to] = vec![send];
            all_recvs[to].push(send);
        }
        last_recv = next;
    }
    (0..n)
        .map(|i| {
            let deps = all_recvs[i].clone();
            prog.modeled_sync(nodes[i], 0.0, deps)
        })
        .collect()
}

/// Pairwise-exchange all-to-all: every node sends a distinct `bytes` block
/// to every other node, one peer per round (`n-1` rounds, peer of node `i`
/// in round `r` is `i XOR r` for power-of-two `n`, else a shifted ring).
/// Returns per-node completion tokens.
pub fn pairwise_alltoall(prog: &mut Program<'_>, nodes: &[NodeId], bytes: u64) -> Vec<TransferId> {
    let n = nodes.len();
    assert!(n > 0, "alltoall needs at least one node");
    if n == 1 {
        return vec![prog.modeled_sync(nodes[0], 0.0, Vec::new())];
    }

    let pow2 = n.is_power_of_two();
    // sends_done[i]: the previous round's send by node i (serializes that
    // node's rounds); recvs[i]: everything node i must have received.
    let mut prev_send: Vec<Option<TransferId>> = vec![None; n];
    let mut recvs: Vec<Vec<TransferId>> = vec![Vec::new(); n];
    for r in 1..n {
        for i in 0..n {
            let peer = if pow2 { i ^ r } else { (i + r) % n };
            if peer == i || peer >= n {
                continue;
            }
            let deps: Vec<TransferId> = prev_send[i].into_iter().collect();
            let send = prog.put_after(nodes[i], nodes[peer], bytes, deps, 0.0);
            prev_send[i] = Some(send);
            recvs[peer].push(send);
        }
    }
    (0..n)
        .map(|i| {
            let mut deps = recvs[i].clone();
            deps.extend(prev_send[i]);
            prog.modeled_sync(nodes[i], 0.0, deps)
        })
        .collect()
}

/// Binomial scatter from `nodes[0]`: the root holds one distinct `bytes`
/// block per node; subtree roots receive their whole subtree's blocks and
/// forward onward. Returns per-node delivery tokens.
pub fn binomial_scatter(
    prog: &mut Program<'_>,
    nodes: &[NodeId],
    bytes: u64,
    root_deps: Vec<TransferId>,
) -> Vec<TransferId> {
    let n = nodes.len();
    assert!(n > 0, "scatter needs at least one node");
    let mut have: Vec<Option<TransferId>> = vec![None; n];
    have[0] = Some(prog.modeled_sync(nodes[0], 0.0, root_deps));

    // Largest power-of-two stride first: the root sends the top half of
    // the index space (with all its blocks) to its first child, etc.
    let mut stride = 1usize;
    while stride * 2 <= n.next_power_of_two() {
        stride *= 2;
    }
    while stride >= 1 {
        for i in (0..n).step_by(stride * 2) {
            let j = i + stride;
            if j < n && have[i].is_some() && have[j].is_none() {
                // Subtree payload: blocks for ranks j..min(j+stride, n).
                let blocks = (n - j).min(stride) as u64;
                let dep = have[i].unwrap();
                have[j] = Some(prog.put_after(nodes[i], nodes[j], bytes * blocks, vec![dep], 0.0));
            }
        }
        stride /= 2;
    }
    have.into_iter().map(|t| t.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use bgq_netsim::SimConfig;
    use bgq_torus::standard_shape;

    fn machine() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    fn nodes(k: u32) -> Vec<NodeId> {
        (0..k).map(NodeId).collect()
    }

    #[test]
    fn allgather_completion_after_all_rounds() {
        let m = machine();
        let mut p = Program::new(&m);
        let ns = nodes(6);
        let entry = vec![Vec::new(); 6];
        let tokens = ring_allgather(&mut p, &ns, 4096, &entry);
        assert_eq!(tokens.len(), 6);
        // n*(n-1) block transfers + n sync tokens.
        assert_eq!(p.len(), 6 * 5 + 6);
        let rep = p.run();
        for t in &tokens {
            assert!(rep.delivered_at(*t) > 0.0);
        }
    }

    #[test]
    fn allgather_volume_is_n_minus_1_blocks_per_node() {
        let m = machine();
        let mut p = Program::new(&m);
        let ns = nodes(4);
        let entry = vec![Vec::new(); 4];
        ring_allgather(&mut p, &ns, 1000, &entry);
        // Each round moves n blocks; n-1 rounds.
        assert_eq!(p.graph().total_bytes(), 4 * 3 * 1000);
    }

    #[test]
    fn allgather_single_node_trivial() {
        let m = machine();
        let mut p = Program::new(&m);
        let tokens = ring_allgather(&mut p, &nodes(1), 512, &[Vec::new()]);
        let rep = p.run();
        assert!(rep.delivered_at(tokens[0]) < 1e-3);
    }

    #[test]
    fn alltoall_moves_n_squared_blocks() {
        let m = machine();
        for k in [4u32, 5, 8] {
            let mut p = Program::new(&m);
            let tokens = pairwise_alltoall(&mut p, &nodes(k), 100);
            assert_eq!(tokens.len() as u32, k);
            assert_eq!(
                p.graph().total_bytes(),
                (k as u64) * (k as u64 - 1) * 100,
                "k={k}"
            );
            let rep = p.run();
            for t in &tokens {
                assert!(rep.delivered_at(*t).is_finite());
            }
        }
    }

    #[test]
    fn scatter_delivers_subtree_volumes() {
        let m = machine();
        let mut p = Program::new(&m);
        let ns = nodes(8);
        let tokens = binomial_scatter(&mut p, &ns, 1000, Vec::new());
        assert_eq!(tokens.len(), 8);
        // Total volume: root ships 4+2+1 subtree payloads:
        // 4 blocks to node 4, 2 to node 2, 1 to node 1; node 4 ships 2+1;
        // node 2 ships 1; node 6 ships 1... total = sum over non-roots of
        // their subtree size = 4+2+1 + 2+1 + 1 + 1 = 12 blocks.
        assert_eq!(p.graph().total_bytes(), 12 * 1000);
        let rep = p.run();
        let t_root = rep.delivered_at(tokens[0]);
        for t in &tokens[1..] {
            assert!(rep.delivered_at(*t) > t_root);
        }
    }

    #[test]
    fn scatter_handles_non_power_of_two() {
        let m = machine();
        let mut p = Program::new(&m);
        let tokens = binomial_scatter(&mut p, &nodes(6), 100, Vec::new());
        assert_eq!(tokens.len(), 6);
        let rep = p.run();
        for t in &tokens {
            assert!(rep.delivered_at(*t).is_finite());
        }
    }
}
