//! Failure-injection tests: behaviour under degraded torus links.
//!
//! Deterministic routing cannot steer around a sick link, so a single
//! degraded link on the default path cripples a direct transfer; the
//! multipath scheme only loses the affected chunk's share.

use bgq_sparsemove::core::{find_proxies, plan_direct, plan_via_proxies, MultipathOptions};
use bgq_sparsemove::prelude::*;
use bgq_sparsemove::torus::route;
use std::collections::HashSet;

const BYTES: u64 = 64 << 20;

fn direct_time(machine: &Machine) -> f64 {
    let mut p = Program::new(machine);
    let h = plan_direct(&mut p, NodeId(0), NodeId(127), BYTES);
    h.completed_at(&p.run())
}

fn multipath_time(machine: &Machine) -> f64 {
    let sel = find_proxies(
        machine.shape(),
        machine.zone(),
        NodeId(0),
        NodeId(127),
        &HashSet::new(),
        &ProxySearchConfig {
            max_proxies: 4,
            ..Default::default()
        },
    );
    let mut p = Program::new(machine);
    let h = plan_via_proxies(
        &mut p,
        NodeId(0),
        NodeId(127),
        BYTES,
        &sel.proxies(),
        &MultipathOptions::default(),
    );
    h.completed_at(&p.run())
}

#[test]
fn degraded_default_path_cripples_direct_transfers() {
    let shape = standard_shape(128).unwrap();
    let healthy = Machine::new(shape, SimConfig::default());
    let t_healthy = direct_time(&healthy);

    // Degrade the first link of the default route to 10%.
    let first_link = route(&shape, NodeId(0), NodeId(127), healthy.zone()).links[0];
    let sick = Machine::new(shape, SimConfig::default()).with_degraded_links(&[(first_link, 0.1)]);
    let t_sick = direct_time(&sick);

    assert!(
        t_sick > t_healthy * 5.0,
        "a 10% link should dominate the direct path: {t_healthy} -> {t_sick}"
    );
}

#[test]
fn multipath_contains_the_blast_radius_of_one_sick_link() {
    let shape = standard_shape(128).unwrap();
    let healthy = Machine::new(shape, SimConfig::default());
    let t_healthy = multipath_time(&healthy);

    // Degrade the same default-route link: at most one of the four proxy
    // paths can cross it (they are pairwise disjoint).
    let first_link = route(&shape, NodeId(0), NodeId(127), healthy.zone()).links[0];
    let sick = Machine::new(shape, SimConfig::default()).with_degraded_links(&[(first_link, 0.1)]);
    let t_sick = multipath_time(&sick);

    // Equal splitting still waits for the chunk crossing the sick link,
    // but it carries only 1/4 of the bytes: the slowdown factor must be
    // about half the direct path's (which carries everything across it).
    let t_direct_sick = direct_time(&sick);
    let t_direct_healthy = {
        let healthy = Machine::new(shape, SimConfig::default());
        direct_time(&healthy)
    };
    let direct_slowdown = t_direct_sick / t_direct_healthy;
    let multi_slowdown = t_sick / t_healthy;
    assert!(
        multi_slowdown < direct_slowdown * 0.6,
        "multipath slowdown {multi_slowdown:.1}x should be well under direct's {direct_slowdown:.1}x"
    );
    // And degraded multipath must still beat degraded direct outright.
    assert!(t_sick < t_direct_sick);
}

#[test]
fn degradation_composes_with_io_plans() {
    // Degrading a torus link on the path to one bridge slows the default
    // write but the plan still completes and conserves bytes.
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let layout = machine.io_layout().clone();
    let bridge = layout.default_bridge(NodeId(5));
    let link = route(machine.shape(), NodeId(5), bridge, machine.zone()).links[0];

    let sick =
        Machine::new(*machine.shape(), SimConfig::default()).with_degraded_links(&[(link, 0.05)]);

    let run = |m: &Machine| {
        let mut p = Program::new(m);
        let t = p.write_default(NodeId(5), 8 << 20, Vec::new());
        let rep = p.run();
        rep.delivered_at(t)
    };
    let healthy_t = run(&machine);
    let sick_t = run(&sick);
    assert!(sick_t > healthy_t * 2.0, "{healthy_t} -> {sick_t}");
    assert!(sick_t.is_finite());
}

#[test]
#[should_panic(expected = "factor must be in")]
fn zero_factor_rejected() {
    let shape = standard_shape(128).unwrap();
    let _ = Machine::new(shape, SimConfig::default())
        .with_degraded_links(&[(bgq_sparsemove::torus::LinkId(0), 0.0)]);
}
