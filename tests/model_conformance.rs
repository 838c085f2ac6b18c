//! Conformance suite: the §IV.B analytical model vs. the simulator,
//! across a grid of message sizes, proxy counts and partitions.
//!
//! The paper derives its decision procedure from the closed-form model;
//! the planner trusts it. These tests pin how far the model may drift
//! from the network it abstracts.

use bgq_sparsemove::core::{
    find_proxies, plan_direct, plan_via_proxies, CostModel, MultipathOptions, ProxySearchConfig,
};
use bgq_sparsemove::prelude::*;
use std::collections::HashSet;

fn machine(nodes: u32) -> Machine {
    Machine::new(standard_shape(nodes).unwrap(), SimConfig::default())
}

fn proxies(m: &Machine, src: NodeId, dst: NodeId, k: usize) -> Vec<NodeId> {
    find_proxies(
        m.shape(),
        m.zone(),
        src,
        dst,
        &HashSet::new(),
        &ProxySearchConfig {
            min_proxies: 1,
            max_proxies: k,
            ..Default::default()
        },
    )
    .proxies()
}

#[test]
fn direct_times_match_within_two_percent() {
    let m = machine(128);
    let model = CostModel::from_sim_config(m.config(), m.mean_hops());
    for bytes in [16u64 << 10, 256 << 10, 1 << 20, 16 << 20, 128 << 20] {
        let mut p = Program::new(&m);
        let h = plan_direct(&mut p, NodeId(0), NodeId(127), bytes);
        let sim = h.completed_at(&p.run());
        let predicted = model.direct_time(bytes);
        let err = (sim - predicted).abs() / sim;
        assert!(
            err < 0.02,
            "direct {bytes}: model {predicted} vs sim {sim} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn proxy_times_match_within_ten_percent_for_disjoint_paths() {
    // The model assumes k equal disjoint paths; the search provides them
    // on this partition for k <= 4.
    let m = machine(128);
    let model = CostModel::from_sim_config(m.config(), m.mean_hops());
    for k in [3usize, 4] {
        let px = proxies(&m, NodeId(0), NodeId(127), k);
        assert_eq!(px.len(), k);
        for bytes in [512u64 << 10, 4 << 20, 64 << 20] {
            let mut p = Program::new(&m);
            let h = plan_via_proxies(
                &mut p,
                NodeId(0),
                NodeId(127),
                bytes,
                &px,
                &MultipathOptions::default(),
            );
            let sim = h.completed_at(&p.run());
            let predicted = model.proxy_time(bytes, k as u32);
            let err = (sim - predicted).abs() / sim;
            assert!(
                err < 0.10,
                "k={k} {bytes}: model {predicted} vs sim {sim} ({:.1}% off)",
                err * 100.0
            );
        }
    }
}

#[test]
fn measured_speedup_tracks_k_over_2() {
    let m = machine(128);
    let huge = 128u64 << 20;
    for k in [3usize, 4] {
        let px = proxies(&m, NodeId(0), NodeId(127), k);
        let mut pd = Program::new(&m);
        let t_direct = plan_direct(&mut pd, NodeId(0), NodeId(127), huge).completed_at(&pd.run());
        let mut pm = Program::new(&m);
        let t_multi = plan_via_proxies(
            &mut pm,
            NodeId(0),
            NodeId(127),
            huge,
            &px,
            &MultipathOptions::default(),
        )
        .completed_at(&pm.run());
        let speedup = t_direct / t_multi;
        let ideal = k as f64 / 2.0;
        assert!(
            (speedup - ideal).abs() / ideal < 0.08,
            "k={k}: measured {speedup:.2} vs k/2 = {ideal}"
        );
    }
}

#[test]
fn simulated_crossover_within_one_bucket_of_model() {
    let m = machine(128);
    let model = CostModel::from_sim_config(m.config(), m.mean_hops());
    let px = proxies(&m, NodeId(0), NodeId(127), 4);
    let th = model.threshold_bytes(4).unwrap();

    let time_at = |bytes: u64, multi: bool| {
        let mut p = Program::new(&m);
        let h = if multi {
            plan_via_proxies(
                &mut p,
                NodeId(0),
                NodeId(127),
                bytes,
                &px,
                &MultipathOptions::default(),
            )
        } else {
            plan_direct(&mut p, NodeId(0), NodeId(127), bytes)
        };
        h.completed_at(&p.run())
    };

    // One doubling below the model threshold the simulator agrees direct
    // wins; one doubling above it agrees proxies win.
    assert!(time_at(th / 2, false) < time_at(th / 2, true));
    assert!(time_at(th * 2, true) < time_at(th * 2, false));
}

#[test]
fn model_conformance_holds_across_partitions() {
    for nodes in [128u32, 256, 512] {
        let m = machine(nodes);
        let model = CostModel::from_sim_config(m.config(), m.mean_hops());
        let dst = NodeId(m.shape().num_nodes() - 1);
        let bytes = 32u64 << 20;
        let mut p = Program::new(&m);
        let h = plan_direct(&mut p, NodeId(0), dst, bytes);
        let sim = h.completed_at(&p.run());
        let err = (sim - model.direct_time(bytes)).abs() / sim;
        assert!(err < 0.02, "{nodes} nodes: {:.2}% off", err * 100.0);
    }
}
