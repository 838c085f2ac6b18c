//! Time-to-solution of a coupled multiphysics run (the paper's §I claim:
//! "the network resources is underutilized and this leads to an increase
//! in the time-to-solution").
//!
//! Three modules (atmosphere / ocean / ice) share a 512-node partition;
//! every coupling step the atmosphere exchanges a field with the ocean
//! and the ocean with the ice, then everyone computes (communication-
//! silent). The example runs N coupling steps back-to-back with
//! (a) direct default-path coupling and (b) proxy-group multipath, and
//! reports total communication time plus a timeline of the final step.
//!
//! Run with: `cargo run --release --example coupled_timeline`

use bgq_sparsemove::core::{find_proxy_groups, plan_group_via, MultipathOptions, ProxyGroup};
use bgq_sparsemove::netsim::{gantt, trace, TransferId};
use bgq_sparsemove::prelude::*;
use bgq_sparsemove::workloads::{coupling_pairs, partition_modules};

const STEPS: usize = 8;

struct Coupling {
    sources: Vec<NodeId>,
    dests: Vec<NodeId>,
    groups: Vec<ProxyGroup>,
    field_bytes: u64,
}

fn main() {
    let machine = Machine::new(standard_shape(512).unwrap(), SimConfig::default());
    // The atmosphere and ocean sit at opposite ends of the allocation
    // (their coupling is the heavy one); the land model occupies the
    // middle and streams a small flux field to the in-situ visualization
    // module. Modules are sized so the heavy coupling's endpoints do not
    // blanket whole torus hyperplanes — otherwise no compute node is left
    // to serve as a proxy (the planner detects that and goes direct).
    let modules = partition_modules(
        machine.shape().num_nodes(),
        &[("atmosphere", 1), ("land", 5), ("ocean", 1), ("viz", 1)],
    );
    println!("module layout on a {} torus:", machine.shape());
    for m in &modules {
        println!(
            "  {:<11} nodes {:>4}..{:<4}",
            m.name, m.nodes.start, m.nodes.end
        );
    }

    let cfg = ProxySearchConfig {
        min_proxies: 0,
        ..Default::default()
    };
    // The heavy coupling is searched per B plane (each plane's pairs
    // share one uniform displacement; see fig6's methodology note).
    let atm_ocn = coupling_pairs(&modules[0], &modules[2]);
    let (plane0, plane1): (Vec<_>, Vec<_>) = atm_ocn
        .iter()
        .partition(|&&(s, _)| machine.shape().coord(s).get(Dim::B) == 0);
    let couplings: Vec<Coupling> = [
        (plane0, 16u64 << 20),                               // atm -> ocn plane 0
        (plane1, 16 << 20),                                  // atm -> ocn plane 1
        (coupling_pairs(&modules[1], &modules[3]), 2 << 20), // land -> viz (flux)
    ]
    .into_iter()
    .map(|(pairs, field_bytes)| {
        let (sources, dests): (Vec<NodeId>, Vec<NodeId>) = pairs.into_iter().unzip();
        let groups = find_proxy_groups(machine.shape(), machine.zone(), &sources, &dests, &cfg);
        Coupling {
            sources,
            dests,
            groups,
            field_bytes,
        }
    })
    .collect();
    println!(
        "\nproxy groups found: atm->ocn {} + {} (per plane), land->viz {}",
        couplings[0].groups.len(),
        couplings[1].groups.len(),
        couplings[2].groups.len()
    );

    let run = |multipath: bool| -> (f64, String) {
        let mut prog = Program::new(&machine);
        let mut gate: Option<TransferId> = None;
        for _ in 0..STEPS {
            let mut tokens = Vec::new();
            for c in &couplings {
                if multipath && c.groups.len() >= 3 {
                    let opts = MultipathOptions {
                        gate,
                        ..Default::default()
                    };
                    tokens.extend(
                        plan_group_via(
                            &mut prog,
                            &c.sources,
                            &c.dests,
                            c.field_bytes,
                            &c.groups,
                            false,
                            &opts,
                        )
                        .tokens,
                    );
                } else {
                    for (&s, &d) in c.sources.iter().zip(&c.dests) {
                        let deps: Vec<TransferId> = gate.into_iter().collect();
                        tokens.push(prog.put_after(s, d, c.field_bytes, deps, 0.0));
                    }
                }
            }
            // The coupler's step barrier.
            gate = Some(prog.modeled_sync(NodeId(0), 0.0, tokens));
        }
        let report = prog.run();
        let total = report.delivered_at(gate.unwrap());
        let rows = trace(prog.graph(), &report);
        let tail: Vec<_> = rows[rows.len().saturating_sub(10)..].to_vec();
        (total, gantt(&tail, report.makespan, 56))
    };

    let (t_direct, _) = run(false);
    let (t_multi, chart) = run(true);
    println!("\ncommunication time for {STEPS} coupling steps:");
    println!("  direct default paths : {:>8.2} ms", t_direct * 1e3);
    println!(
        "  proxy multipath      : {:>8.2} ms  ({:.2}x faster)",
        t_multi * 1e3,
        t_direct / t_multi
    );
    println!("\ntail of the multipath timeline (last coupling step):\n{chart}");
}
