//! The bottleneck-attribution profiler's contract (see
//! `src/profile.rs` module docs): for ANY transfer graph and ANY fault
//! plan,
//!
//! * per flow, the time categories sum to its elapsed time;
//! * per-link blame sums to the network-limited total, and every blamed
//!   link lies on the flow's route;
//! * profiles are bit-identical between `SolverMode::Full` and
//!   `SolverMode::Cascade`;
//! * profiling is passive — the rest of the report is bit-identical to
//!   an unprofiled run;
//! * fault-free runs never charge a nanosecond to `stalled_by_fault`.

use bgq_netsim::*;
use proptest::prelude::*;

/// Strategy: a random small network scenario (mirrors `incremental.rs`).
fn scenario() -> impl Strategy<Value = (u32, Vec<f64>, Vec<TransferSpec>)> {
    let nodes = 2u32..8;
    let nres = 1usize..8;
    (nodes, nres).prop_flat_map(|(n, r)| {
        let caps = proptest::collection::vec(1.0f64..1000.0, r);
        let transfers = proptest::collection::vec(
            (
                0..n,
                0..n,
                0u64..100_000,
                proptest::collection::vec(0..r as u32, 0..4),
            ),
            1..20,
        );
        (Just(n), caps, transfers).prop_map(|(n, caps, ts)| {
            let specs = ts
                .into_iter()
                .map(|(src, dst, bytes, route)| {
                    TransferSpec::new(src, dst, bytes, route.into_iter().map(ResourceId).collect())
                })
                .collect();
            (n, caps, specs)
        })
    })
}

fn quick_config() -> SimConfig {
    SimConfig {
        link_bandwidth: 100.0,
        io_link_bandwidth: 100.0,
        per_flow_cap: 50.0,
        hop_latency: 1e-3,
        send_overhead: 1e-2,
        recv_overhead: 1e-2,
        rma_phase_overhead: 0.0,
        forward_overhead: 0.0,
        contention_penalty: 0.0,
        contention_floor: 1.0,
        collect_link_stats: true,
    }
}

fn build(n: u32, caps: Vec<f64>, specs: Vec<TransferSpec>) -> (Simulator, TransferGraph) {
    let sim = Simulator::new(n, caps, quick_config());
    let mut g = TransferGraph::new();
    for s in specs {
        g.add(s);
    }
    (sim, g)
}

/// Per-flow accounting: categories sum to elapsed time (delivery − ready,
/// or run end − ready for flows still in flight when the queue drained).
fn assert_decomposition_sums(report: &SimReport, ctx: &str) -> Result<(), TestCaseError> {
    let profile = report.profile.as_ref().expect("profiled run");
    prop_assert_eq!(
        profile.end_time.to_bits(),
        report.end_time.to_bits(),
        "profile clock ({})",
        ctx
    );
    for (i, tp) in profile.transfers.iter().enumerate() {
        for part in [
            tp.queued_before_start,
            tp.cap_limited,
            tp.stalled_by_fault,
            tp.delivery_latency,
        ] {
            prop_assert!(part >= 0.0, "negative category t{} ({}): {:?}", i, ctx, tp);
        }
        for &(_, s) in &tp.bottlenecked_on {
            prop_assert!(s >= 0.0, "negative link blame t{} ({}): {:?}", i, ctx, tp);
        }
        if tp.ready_time.is_infinite() {
            // Never became ready (dependency never delivered): nothing to
            // account.
            prop_assert_eq!(
                tp.accounted().to_bits(),
                0.0f64.to_bits(),
                "t{} ({})",
                i,
                ctx
            );
            continue;
        }
        let delivered = report.delivery_time[i];
        let elapsed = if delivered.is_finite() {
            delivered - tp.ready_time
        } else {
            report.end_time - tp.ready_time
        };
        let accounted = tp.accounted();
        let tol = 1e-9 * elapsed.abs().max(1.0);
        prop_assert!(
            (accounted - elapsed).abs() <= tol,
            "t{}: accounted {} != elapsed {} ({}): {:?}",
            i,
            accounted,
            elapsed,
            ctx,
            tp
        );
    }
    Ok(())
}

/// Per-link blame: sums to the network-limited total and only ever names
/// links on the flow's own route; binding timelines are time-ordered and
/// deduplicated.
fn assert_blame_consistent(
    report: &SimReport,
    g: &TransferGraph,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let profile = report.profile.as_ref().expect("profiled run");
    let mut per_flow_total = 0.0f64;
    for (i, tp) in profile.transfers.iter().enumerate() {
        per_flow_total += tp.network_limited();
        let route = &g.specs()[i].route;
        for &(r, _) in &tp.bottlenecked_on {
            prop_assert!(
                route.contains(&r),
                "t{} blamed off-route link {:?} ({})",
                i,
                r,
                ctx
            );
        }
        for w in tp.bottlenecked_on.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "t{} blame unsorted ({})", i, ctx);
        }
        for w in tp.binding_timeline.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "t{} timeline unordered ({})", i, ctx);
            prop_assert!(w[0].1 != w[1].1, "t{} timeline not deduped ({})", i, ctx);
        }
    }
    let rollup = profile.link_blame().iter().fold(0.0f64, |a, &(_, s)| a + s);
    let total = profile.total_network_limited();
    let tol = 1e-9 * total.abs().max(1.0);
    prop_assert!(
        (rollup - total).abs() <= tol,
        "rollup {} != per-flow total {} ({})",
        rollup,
        total,
        ctx
    );
    prop_assert!(
        (per_flow_total - total).abs() <= tol,
        "total_network_limited {} != hand sum {} ({})",
        total,
        per_flow_total,
        ctx
    );
    Ok(())
}

/// Bit-level equality of two profiles, field by field.
fn assert_profiles_identical(
    a: &SimProfile,
    b: &SimProfile,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.end_time.to_bits(),
        b.end_time.to_bits(),
        "end_time ({})",
        ctx
    );
    prop_assert_eq!(a.transfers.len(), b.transfers.len(), "len ({})", ctx);
    for (i, (x, y)) in a.transfers.iter().zip(&b.transfers).enumerate() {
        for (fx, fy, name) in [
            (x.ready_time, y.ready_time, "ready_time"),
            (x.queued_before_start, y.queued_before_start, "queued"),
            (x.cap_limited, y.cap_limited, "cap_limited"),
            (x.stalled_by_fault, y.stalled_by_fault, "stalled"),
            (x.delivery_latency, y.delivery_latency, "latency"),
        ] {
            prop_assert_eq!(fx.to_bits(), fy.to_bits(), "t{} {} ({})", i, name, ctx);
        }
        prop_assert_eq!(
            x.bottlenecked_on.len(),
            y.bottlenecked_on.len(),
            "t{} blame len ({})",
            i,
            ctx
        );
        for ((rx, sx), (ry, sy)) in x.bottlenecked_on.iter().zip(&y.bottlenecked_on) {
            prop_assert_eq!(rx, ry, "t{} blame link ({})", i, ctx);
            prop_assert_eq!(sx.to_bits(), sy.to_bits(), "t{} blame secs ({})", i, ctx);
        }
        prop_assert_eq!(
            x.binding_timeline.len(),
            y.binding_timeline.len(),
            "t{} timeline len ({})",
            i,
            ctx
        );
        for ((tx, bx), (ty, by)) in x.binding_timeline.iter().zip(&y.binding_timeline) {
            prop_assert_eq!(tx.to_bits(), ty.to_bits(), "t{} timeline time ({})", i, ctx);
            prop_assert_eq!(bx, by, "t{} timeline binding ({})", i, ctx);
        }
    }
    Ok(())
}

/// Bit-level equality of everything in the report *except* the profile.
fn assert_reports_identical(a: &SimReport, b: &SimReport, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.status.clone(), b.status.clone(), "status ({})", ctx);
    for (i, (x, y)) in a.delivery_time.iter().zip(&b.delivery_time).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "delivery_time[{}] ({})", i, ctx);
    }
    for (i, (x, y)) in a.flow_start_time.iter().zip(&b.flow_start_time).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "flow_start_time[{}] ({})", i, ctx);
    }
    for (i, (x, y)) in a.stall_time.iter().zip(&b.stall_time).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "stall_time[{}] ({})", i, ctx);
    }
    prop_assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "makespan ({})",
        ctx
    );
    prop_assert_eq!(
        a.end_time.to_bits(),
        b.end_time.to_bits(),
        "end_time ({})",
        ctx
    );
    match (&a.resource_bytes, &b.resource_bytes) {
        (Some(x), Some(y)) => {
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                prop_assert_eq!(u.to_bits(), v.to_bits(), "resource_bytes[{}] ({})", i, ctx);
            }
        }
        (None, None) => {}
        _ => prop_assert!(false, "resource_bytes presence differs ({})", ctx),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fault-free: decomposition sums, blame consistency, and zero fault
    /// stall on every random graph.
    #[test]
    fn decomposition_accounts_for_every_second((n, caps, specs) in scenario()) {
        let (sim, g) = build(n, caps, specs);
        let report = sim.simulate(&g, SimOptions::new().profiled());
        assert_decomposition_sums(&report, "fault-free")?;
        assert_blame_consistent(&report, &g, "fault-free")?;
        let profile = report.profile.as_ref().unwrap();
        for (i, tp) in profile.transfers.iter().enumerate() {
            prop_assert_eq!(
                tp.stalled_by_fault.to_bits(),
                0.0f64.to_bits(),
                "t{} charged to faults without a fault plan",
                i
            );
        }
    }

    /// Under random fault plans the books still balance: stall seconds
    /// are a category like any other.
    #[test]
    fn decomposition_accounts_under_faults(
        (n, caps, specs) in scenario(),
        seed in 0u64..1_000,
    ) {
        let (sim, g) = build(n, caps.clone(), specs);
        let plan = FaultPlan::random_link_faults(seed, caps.len() as u32, 20.0, 0.05, 1.0);
        let report = sim.simulate(&g, SimOptions::new().faults(&plan).profiled());
        assert_decomposition_sums(&report, "faulted")?;
        assert_blame_consistent(&report, &g, "faulted")?;
    }

    /// Attribution is solver-independent: Full and Cascade produce
    /// bit-identical profiles (the solvers pop the same binding resource
    /// in the same order), with or without faults.
    #[test]
    fn profile_identical_between_solvers(
        (n, caps, specs) in scenario(),
        seed in 0u64..1_000,
    ) {
        let (sim, g) = build(n, caps.clone(), specs);
        let plan = FaultPlan::random_link_faults(seed, caps.len() as u32, 20.0, 0.05, 1.0);
        for (plan, ctx) in [(None, "fault-free"), (Some(&plan), "faulted")] {
            let mut opts_full = SimOptions::new().solver(SolverMode::Full).profiled();
            let mut opts_inc = SimOptions::new().solver(SolverMode::default()).profiled();
            if let Some(p) = plan {
                opts_full = opts_full.faults(p);
                opts_inc = opts_inc.faults(p);
            }
            let full = sim.simulate(&g, opts_full);
            let inc = sim.simulate(&g, opts_inc);
            assert_profiles_identical(
                full.profile.as_ref().unwrap(),
                inc.profile.as_ref().unwrap(),
                ctx,
            )?;
            assert_reports_identical(&full, &inc, ctx)?;
        }
    }

    /// Profiling is passive: a profiled run's report (minus the profile
    /// itself) is bit-identical to an unprofiled run.
    #[test]
    fn profiling_never_perturbs_the_simulation(
        (n, caps, specs) in scenario(),
        seed in 0u64..1_000,
    ) {
        let (sim, g) = build(n, caps.clone(), specs);
        let plan = FaultPlan::random_link_faults(seed, caps.len() as u32, 20.0, 0.05, 1.0);
        let plain = sim.simulate(&g, SimOptions::new().faults(&plan));
        let profiled = sim.simulate(&g, SimOptions::new().faults(&plan).profiled());
        prop_assert!(plain.profile.is_none());
        prop_assert!(profiled.profile.is_some());
        assert_reports_identical(&plain, &profiled, "passivity")?;
    }
}

/// Deterministic pinning of the attribution itself: three flows fan in
/// on one link (each is link-bound there), a fourth runs alone under its
/// cap, and a mid-run degrade charges stall seconds. Mirrors the
/// `incremental.rs` regression shape so the two suites watch the same
/// scenario from both sides.
#[test]
fn fan_in_blames_the_shared_link() {
    let sim = Simulator::new(6, vec![100.0, 100.0, 100.0], quick_config());
    let mut g = TransferGraph::new();
    g.add(TransferSpec::new(0, 1, 40_000, vec![ResourceId(0)]));
    g.add(TransferSpec::new(2, 1, 25_000, vec![ResourceId(0)]));
    g.add(TransferSpec::new(
        3,
        1,
        10_000,
        vec![ResourceId(0), ResourceId(1)],
    ));
    // Disjoint pair on link 2: alone, so cap-limited (cap 50 < link 100).
    g.add(TransferSpec::new(4, 5, 30_000, vec![ResourceId(2)]));

    let report = sim.simulate(&g, SimOptions::new().profiled());
    assert!(report.all_delivered());
    let profile = report.profile.as_ref().unwrap();

    // The fan-in flows all spent time bound by the shared link 0 (three
    // flows × 50 cap > 100 link bandwidth).
    for i in 0..3 {
        let tp = &profile.transfers[i];
        let on_link0 = tp
            .bottlenecked_on
            .iter()
            .find(|&&(r, _)| r == ResourceId(0))
            .map(|&(_, s)| s)
            .unwrap_or(0.0);
        assert!(
            on_link0 > 0.0,
            "t{i} never blamed the contended link: {tp:?}"
        );
        assert!(!tp.binding_timeline.is_empty(), "t{i} has no timeline");
    }
    // The disjoint flow is purely cap-limited: no link blame at all.
    let solo = &profile.transfers[3];
    assert!(
        solo.bottlenecked_on.is_empty(),
        "solo flow blamed a link: {solo:?}"
    );
    assert!(solo.cap_limited > 0.0);
    assert_eq!(
        solo.binding_timeline
            .iter()
            .map(|&(_, b)| b)
            .collect::<Vec<_>>(),
        vec![Binding::FlowCap]
    );
    // Link 0 tops the run-level rollup.
    assert_eq!(profile.top_bottlenecks(1)[0].0, ResourceId(0));

    // Degrading link 2 mid-run stalls the solo flow: the stall category
    // picks up exactly what `SimReport::stall_time` reports.
    let plan = FaultPlan::new()
        .fail_link(1.0, ResourceId(2))
        .restore_link(5.0, ResourceId(2));
    let faulted = sim.simulate(&g, SimOptions::new().faults(&plan).profiled());
    let fp = faulted.profile.as_ref().unwrap();
    assert!(
        fp.transfers[3].stalled_by_fault > 0.0,
        "{:?}",
        fp.transfers[3]
    );
    assert_eq!(
        fp.transfers[3].stalled_by_fault.to_bits(),
        faulted.stall_time[3].to_bits()
    );
}
