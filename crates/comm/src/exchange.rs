//! Sparse neighborhood exchange: the send-map and discovery layer.
//!
//! A multiphysics coupling step issues *many* sparse point-to-point
//! messages at once — every rank knows who it sends to, nobody knows who
//! they receive from. This module holds the communication-layer half of
//! the subsystem:
//!
//! * [`SparseSendMap`] — the canonical description of one exchange round:
//!   who sends how many bytes to whom, deduplicated and deterministically
//!   ordered so every consumer (planner, simulator, test) sees the same
//!   sequence;
//! * [`consensus_discovery`] — a modeled sparse dynamic data exchange
//!   (Geyko et al.: "A More Scalable Sparse Dynamic Data Exchange")
//!   discovery phase: before any payload moves, participants agree on who
//!   talks to whom via a barrier plus control-message gathers priced by
//!   [`CollectiveModel`], charged as per-node synchronization gates.
//!
//! The batch *routing* of an exchange (direct vs. proxy multipath, the
//! link-claim ledger) lives upstream in `sdm-core::exchange`, which
//! consumes these types.

use crate::collectives::CollectiveModel;
use crate::program::Program;
use bgq_netsim::TransferId;
use bgq_torus::NodeId;

/// One exchange round's sparse traffic: `(src, dst, bytes)` per logical
/// message, deduplicated (repeated inserts accumulate) and sorted by
/// `(src, dst)` so iteration order — and therefore every transfer DAG
/// built from the map — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseSendMap {
    pairs: Vec<(NodeId, NodeId, u64)>,
}

impl SparseSendMap {
    /// An empty map.
    pub fn new() -> SparseSendMap {
        SparseSendMap::default()
    }

    /// Add `bytes` to the `src → dst` message (accumulating on repeat).
    /// Zero-byte inserts are dropped — an exchange carries payload or the
    /// pair does not exist.
    ///
    /// # Panics
    /// Panics on a self-send; an exchange has no local messages.
    pub fn insert(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        assert_ne!(src, dst, "an exchange carries no self-sends");
        if bytes == 0 {
            return;
        }
        let key = (src, dst);
        match self.pairs.binary_search_by_key(&key, |&(s, d, _)| (s, d)) {
            Ok(i) => self.pairs[i].2 += bytes,
            Err(i) => self.pairs.insert(i, (src, dst, bytes)),
        }
    }

    /// Build a map from any pair iterator (duplicates accumulate,
    /// zero-byte entries are dropped).
    pub fn from_pairs<I>(pairs: I) -> SparseSendMap
    where
        I: IntoIterator<Item = (NodeId, NodeId, u64)>,
    {
        let mut map = SparseSendMap::new();
        for (src, dst, bytes) in pairs {
            map.insert(src, dst, bytes);
        }
        map
    }

    /// Build a map from raw rank triples, as the `bgq-workloads` pattern
    /// generators produce them.
    pub fn from_rank_pairs(pairs: &[(u32, u32, u64)]) -> SparseSendMap {
        Self::from_pairs(pairs.iter().map(|&(s, d, b)| (NodeId(s), NodeId(d), b)))
    }

    /// The messages, sorted by `(src, dst)`.
    pub fn pairs(&self) -> &[(NodeId, NodeId, u64)] {
        &self.pairs
    }

    /// Number of logical messages.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total payload across all messages.
    pub fn total_bytes(&self) -> u64 {
        self.pairs.iter().map(|&(_, _, b)| b).sum()
    }

    /// Every node that sends or receives, sorted and deduplicated.
    pub fn participants(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.pairs.iter().flat_map(|&(s, d, _)| [s, d]).collect();
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        nodes
    }

    /// Fraction of the dense all-to-all pair space this map populates.
    pub fn density(&self, num_nodes: u32) -> f64 {
        let dense = u64::from(num_nodes) * u64::from(num_nodes.saturating_sub(1));
        if dense == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / dense as f64
        }
    }
}

/// The modeled discovery phase of a consensus-style exchange.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// `(node, gate)` per participant, in participant order: no payload
    /// put of `node` may start before its gate token is delivered.
    pub gates: Vec<(NodeId, TransferId)>,
    /// The modeled latency every participant was charged.
    pub cost: f64,
}

impl Discovery {
    /// The gate token for `node`, if it participates.
    pub fn gate_for(&self, node: NodeId) -> Option<TransferId> {
        self.gates
            .binary_search_by_key(&node.0, |&(n, _)| n.0)
            .ok()
            .map(|i| self.gates[i].1)
    }
}

/// Schedule the discovery phase of a nonblocking-consensus exchange over
/// `map`'s participants: every participant is gated by a modeled
/// synchronization whose cost is one dissemination barrier plus one
/// control-message gather over the participant set, priced by
/// [`CollectiveModel`].
///
/// The real NBX protocol interleaves speculative receives with an
/// `MPI_Ibarrier`; a flow-level simulator has no message-probe semantics
/// to express that with, but the *cost shape* — `O(log n)` latency-bound
/// rounds plus a control payload proportional to the participant count —
/// is exactly what the analytic barrier + gather charge. The gates make
/// that cost visible to the payload DAG instead of vanishing into a
/// footnote.
pub fn consensus_discovery(
    prog: &mut Program<'_>,
    map: &SparseSendMap,
    model: &CollectiveModel<'_>,
) -> Discovery {
    let participants = map.participants();
    let n = participants.len() as u32;
    let cost = model.barrier(n) + model.gather_control(n);
    let gates = participants
        .into_iter()
        .map(|node| (node, prog.modeled_sync(node, cost, Vec::new())))
        .collect();
    Discovery { gates, cost }
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

    #[test]
    fn map_is_sorted_deduplicated_and_accumulating() {
        let mut map = SparseSendMap::new();
        map.insert(NodeId(5), NodeId(9), 100);
        map.insert(NodeId(1), NodeId(2), 10);
        map.insert(NodeId(5), NodeId(9), 50);
        map.insert(NodeId(5), NodeId(3), 7);
        map.insert(NodeId(1), NodeId(2), 0); // dropped
        assert_eq!(
            map.pairs(),
            &[
                (NodeId(1), NodeId(2), 10),
                (NodeId(5), NodeId(3), 7),
                (NodeId(5), NodeId(9), 150),
            ]
        );
        assert_eq!(map.len(), 3);
        assert_eq!(map.total_bytes(), 167);
        assert_eq!(
            map.participants(),
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(5), NodeId(9)]
        );
    }

    #[test]
    fn construction_order_does_not_matter() {
        let fwd = SparseSendMap::from_rank_pairs(&[(0, 1, 5), (2, 3, 6), (0, 4, 7)]);
        let rev = SparseSendMap::from_rank_pairs(&[(0, 4, 7), (0, 1, 5), (2, 3, 6)]);
        assert_eq!(fwd, rev);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_sends_are_rejected() {
        SparseSendMap::new().insert(NodeId(3), NodeId(3), 1);
    }

    #[test]
    fn density_counts_the_pair_space() {
        let map = SparseSendMap::from_rank_pairs(&[(0, 1, 1), (1, 0, 1)]);
        assert!((map.density(2) - 1.0).abs() < 1e-12);
        assert!(map.density(4) < 0.2);
        assert_eq!(SparseSendMap::new().density(0), 0.0);
    }

    #[test]
    fn discovery_gates_every_participant_at_the_modeled_cost() {
        let m = machine();
        let map = SparseSendMap::from_rank_pairs(&[(0, 7, 1 << 20), (3, 9, 1 << 20)]);
        let model = CollectiveModel::new(&m);
        let mut prog = Program::new(&m);
        let disc = consensus_discovery(&mut prog, &map, &model);
        assert_eq!(disc.gates.len(), 4);
        assert!(disc.cost > 0.0);
        assert_eq!(disc.cost, model.barrier(4) + model.gather_control(4));
        let rep = prog.run();
        let first = rep.delivered_at(disc.gates[0].1);
        for &(node, gate) in &disc.gates {
            assert!(disc.gate_for(node) == Some(gate));
            let t = rep.delivered_at(gate);
            // Delivered no earlier than the modeled cost (the simulator
            // adds its per-transfer base latency on top), same instant
            // for every participant.
            assert!(t >= disc.cost, "gate at {t}, cost {}", disc.cost);
            assert!(t - disc.cost < 1e-4, "gate at {t}, cost {}", disc.cost);
            assert_eq!(t, first, "all gates open together");
        }
        assert_eq!(disc.gate_for(NodeId(100)), None);
    }
}
