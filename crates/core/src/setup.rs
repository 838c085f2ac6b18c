//! Setup-phase costs of the paper's algorithms.
//!
//! Algorithm 1's Init part exchanges the coordinates of all sources and
//! destinations and computes each node's proxy set; Algorithm 2's Init
//! precomputes the aggregator table. The paper argues both are cheap
//! ("run once … the overhead for searching for proxies is negligible",
//! §IV.C) and amortized over many transfers. These helpers make that
//! claim checkable: they model the one-time communication cost and let a
//! plan include it explicitly, so experiments can report amortized vs.
//! cold-start throughput.

use crate::proxy::ProxySearchConfig;
use bgq_comm::{CollectiveModel, Program};
use bgq_netsim::TransferId;
use bgq_torus::NodeId;

/// Bytes to ship one node's coordinates (5 × u16, padded).
pub const COORD_BYTES: u64 = 16;

/// Modeled cost of Algorithm 1's Init: an allgather of the coordinates of
/// all `m` sources and `n` destinations over the participants.
pub fn coupling_init_cost(prog: &Program<'_>, m: u32, n: u32) -> f64 {
    let cm = CollectiveModel::new(prog.machine());
    let participants = m + n;
    // Allgather payload grows to (m+n) coordinate records.
    cm.allreduce(participants, (m as u64 + n as u64) * COORD_BYTES)
}

/// The search-work model of Algorithm 1 part II: `O(M·N·L)` candidate
/// checks (paper §IV.C), each a couple of route computations. Returns the
/// modeled CPU seconds for one node's search.
pub fn proxy_search_cost_model(
    m_sources: u32,
    n_dests_per_source: u32,
    cfg: &ProxySearchConfig,
    per_check_seconds: f64,
) -> f64 {
    // 2L directions x offsets checked per (source, destination).
    let checks = 2.0
        * bgq_torus::NDIMS as f64
        * cfg.max_offset as f64
        * m_sources as f64
        * n_dests_per_source as f64;
    checks * per_check_seconds
}

/// Add the coupling setup (coordinate exchange + local proxy search) to a
/// program as a synchronization token all subsequent transfers should
/// depend on. Returns the token.
pub fn add_coupling_setup(
    prog: &mut Program<'_>,
    sources: &[NodeId],
    dests: &[NodeId],
    cfg: &ProxySearchConfig,
) -> TransferId {
    let comm_cost = coupling_init_cost(prog, sources.len() as u32, dests.len() as u32);
    // Route computation is microseconds; 2 routes per candidate check.
    // Each node runs its own search over its targets (pairwise coupling:
    // one target per source), concurrently with the others.
    let targets_per_source = (dests.len() / sources.len().max(1)).max(1) as u32;
    let search_cost = proxy_search_cost_model(1, targets_per_source, cfg, 2e-6);
    let anchor = sources.first().copied().unwrap_or(NodeId(0));
    prog.modeled_sync(anchor, comm_cost + search_cost, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipath::{plan_group_via, MultipathOptions};
    use crate::proxy::find_proxy_groups;
    use bgq_comm::Machine;
    use bgq_netsim::SimConfig;
    use bgq_torus::{standard_shape, Zone};

    fn machine() -> Machine {
        Machine::new(standard_shape(512).unwrap(), SimConfig::default())
    }

    #[test]
    fn init_cost_grows_with_group_size() {
        let m = machine();
        let p = Program::new(&m);
        let small = coupling_init_cost(&p, 8, 8);
        let large = coupling_init_cost(&p, 256, 256);
        assert!(large > small);
        assert!(small > 0.0);
    }

    #[test]
    fn search_cost_model_scales_with_mnl() {
        let cfg = ProxySearchConfig::default();
        let a = proxy_search_cost_model(10, 1, &cfg, 1e-6);
        let b = proxy_search_cost_model(20, 1, &cfg, 1e-6);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn setup_is_negligible_for_large_coupled_transfers() {
        // The paper's claim: setup overhead is negligible relative to the
        // data movement it enables.
        let m = machine();
        let sources: Vec<NodeId> = (0..32).map(NodeId).collect();
        let dests: Vec<NodeId> = (480..512).map(NodeId).collect();
        let groups = find_proxy_groups(
            m.shape(),
            Zone::Z2,
            &sources,
            &dests,
            &ProxySearchConfig::default(),
        );
        assert!(!groups.is_empty());

        // Cold start: setup gates every transfer.
        let mut prog = Program::new(&m);
        let setup = add_coupling_setup(&mut prog, &sources, &dests, &ProxySearchConfig::default());
        let rep_setup_only = {
            let r = prog.run();
            r.delivered_at(setup)
        };

        let mut prog = Program::new(&m);
        let h = plan_group_via(
            &mut prog,
            &sources,
            &dests,
            32 << 20,
            &groups,
            false,
            &MultipathOptions::default(),
        );
        let t_transfer = h.completed_at(&prog.run());

        assert!(
            rep_setup_only < t_transfer * 0.05,
            "setup {rep_setup_only} not negligible vs transfer {t_transfer}"
        );
    }
}
