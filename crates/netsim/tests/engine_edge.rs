//! Edge-case integration tests for the DES engine: wide fan-in/out,
//! deep dependency chains, mixed zero-byte synchronization, and penalty
//! interaction with caps.

use bgq_netsim::*;

fn cfg() -> SimConfig {
    SimConfig {
        link_bandwidth: 100.0,
        io_link_bandwidth: 100.0,
        per_flow_cap: 100.0,
        hop_latency: 0.0,
        send_overhead: 0.0,
        recv_overhead: 0.0,
        rma_phase_overhead: 0.0,
        forward_overhead: 0.0,
        contention_penalty: 0.0,
        contention_floor: 1.0,
        collect_link_stats: true,
    }
}

#[test]
fn thousand_flow_fan_in_is_fair_and_exact() {
    // 1,000 senders over 1,000 private links into one shared final link.
    let n = 1000u32;
    let mut caps = vec![100.0; n as usize];
    caps.push(1000.0); // the shared link
    let shared = ResourceId(n);
    let sim = Simulator::new(n + 1, caps, cfg());
    let mut g = TransferGraph::new();
    for i in 0..n {
        g.add(TransferSpec::new(i, n, 1000, vec![ResourceId(i), shared]));
    }
    let rep = sim.simulate(&g, SimOptions::new());
    // Shared link: 1000 flows over 1000 B/s -> 1 B/s each; 1000 bytes
    // each -> all complete at t = 1000.
    for t in &rep.delivery_time {
        assert!((t - 1000.0).abs() < 1e-3, "{t}");
    }
    // Byte conservation on the shared link.
    let rb = rep.resource_bytes.as_ref().unwrap();
    assert!((rb[n as usize] - 1_000_000.0).abs() < 10.0);
}

#[test]
fn deep_chain_of_thousand_transfers() {
    let sim = Simulator::new(2, vec![100.0], cfg());
    let mut g = TransferGraph::new();
    let mut prev = None;
    for i in 0..1000u32 {
        let mut s = TransferSpec::new(i % 2, (i + 1) % 2, 100, vec![ResourceId(0)]);
        if let Some(p) = prev {
            s = s.after(vec![p]);
        }
        prev = Some(g.add(s));
    }
    let rep = sim.simulate(&g, SimOptions::new());
    // Each link transfer takes 1 s; strictly sequential.
    assert!((rep.makespan - 1000.0).abs() < 1e-3, "{}", rep.makespan);
}

#[test]
fn zero_byte_barrier_tree_collapses_to_latency() {
    let mut c = cfg();
    c.hop_latency = 0.5;
    let sim = Simulator::new(8, vec![100.0; 8], c);
    let mut g = TransferGraph::new();
    // A 3-level binary fan-in of zero-byte messages.
    let leaves: Vec<TransferId> = (0..4)
        .map(|i| g.add(TransferSpec::new(i, 4, 0, vec![ResourceId(i)])))
        .collect();
    let mid = g.add(TransferSpec::new(4, 5, 0, vec![ResourceId(4)]).after(leaves));
    let root = g.add(TransferSpec::new(5, 6, 0, vec![ResourceId(5)]).after(vec![mid]));
    let rep = sim.simulate(&g, SimOptions::new());
    // 3 levels x (1 hop x 0.5 s); injections are free in this config.
    assert!((rep.delivered_at(root) - 1.5).abs() < 1e-9);
}

#[test]
fn penalty_and_cap_compose() {
    // Two flows share a 100-unit link with caps of 30: the penalty
    // derates the link to 100/1.1 = 90.9, but the caps (30 + 30 = 60)
    // bind first, so rates are unchanged by the penalty.
    let mut c = cfg();
    c.contention_penalty = 0.1;
    c.contention_floor = 0.7;
    c.per_flow_cap = 30.0;
    let sim = Simulator::new(3, vec![100.0], c);
    let mut g = TransferGraph::new();
    let a = g.add(TransferSpec::new(0, 2, 300, vec![ResourceId(0)]));
    let b = g.add(TransferSpec::new(1, 2, 300, vec![ResourceId(0)]));
    let rep = sim.simulate(&g, SimOptions::new());
    assert!((rep.delivered_at(a) - 10.0).abs() < 1e-6);
    assert!((rep.delivered_at(b) - 10.0).abs() < 1e-6);
}

#[test]
fn penalty_binds_when_caps_do_not() {
    let mut c = cfg();
    c.contention_penalty = 0.25;
    c.contention_floor = 0.5;
    let sim = Simulator::new(3, vec![100.0], c);
    let mut g = TransferGraph::new();
    // Two uncapped (cap=100) flows on a 100-unit link: derated total
    // 100/1.25 = 80 -> 40 each -> 400 bytes in 10 s.
    let a = g.add(TransferSpec::new(0, 2, 400, vec![ResourceId(0)]));
    g.add(TransferSpec::new(1, 2, 400, vec![ResourceId(0)]));
    let rep = sim.simulate(&g, SimOptions::new());
    assert!(
        (rep.delivered_at(a) - 10.0).abs() < 1e-6,
        "{}",
        rep.delivered_at(a)
    );
}

#[test]
fn wide_fan_out_from_one_node_serializes_injection() {
    let mut c = cfg();
    c.send_overhead = 0.1;
    let sim = Simulator::new(101, vec![1e9; 100], c);
    let mut g = TransferGraph::new();
    for i in 0..100u32 {
        g.add(TransferSpec::new(0, i + 1, 1, vec![ResourceId(i)]));
    }
    let rep = sim.simulate(&g, SimOptions::new());
    // The 100th injection cannot start before 99 x 0.1 s of CPU time.
    let last_start = rep.flow_start_time.iter().fold(0.0f64, |a, &b| a.max(b));
    assert!(last_start >= 9.999, "{last_start}");
}

#[test]
fn mixed_start_times_interleave_correctly() {
    let sim = Simulator::new(3, vec![100.0], cfg());
    let mut g = TransferGraph::new();
    // Flow A runs 0..10 alone (1000 bytes at 100); flow B enters at t=4.
    let a = g.add(TransferSpec::new(0, 2, 1000, vec![ResourceId(0)]));
    let b = g.add(TransferSpec::new(1, 2, 300, vec![ResourceId(0)]).not_before(4.0));
    let rep = sim.simulate(&g, SimOptions::new());
    // A: 400 bytes alone (t=0..4), then shares 50/50. B needs 300 bytes
    // at 50 -> 6 s -> done at 10. A: 400 + 6x50 = 700 by t=10, 300 left
    // alone at 100 -> done at 13.
    assert!(
        (rep.delivered_at(b) - 10.0).abs() < 1e-6,
        "{}",
        rep.delivered_at(b)
    );
    assert!(
        (rep.delivered_at(a) - 13.0).abs() < 1e-6,
        "{}",
        rep.delivered_at(a)
    );
}
