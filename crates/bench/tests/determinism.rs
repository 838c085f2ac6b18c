//! The parallel runner's core contract: an [`ExperimentSession`] with N
//! worker threads produces byte-identical output to a sequential run,
//! and a [`PlanCache`] hit is indistinguishable from a fresh computation.

use bgq_bench::experiments::{Fig10, Fig5};
use bgq_bench::resilience::Resilience;
use bgq_bench::{fig10_scales, BenchArgs, Experiment, ExperimentSession, PlanCache};
use bgq_comm::{Machine, Program};
use bgq_netsim::{FaultPlan, SimConfig};
use bgq_torus::{standard_shape, NodeId, Zone};
use proptest::prelude::*;
use sdm_core::{find_proxies, plan_via_proxies, MultipathOptions, ProxySearchConfig};
use std::collections::HashSet;

/// fig5's representative scenario, executed on the session's warm cache.
fn fig5_execution(session: &ExperimentSession) -> bgq_bench::Execution {
    bgq_bench::Representative::of("fig5")
        .expect("fig5 has a representative scenario")
        .execute(session.cache(), &SimConfig::default())
}

fn csv_of<E: Experiment>(threads: usize, exp: &E) -> (String, u64) {
    let session = ExperimentSession::new(threads);
    let run = session.run(exp);
    (
        run.table(&exp.columns()).to_csv(),
        session.cache().stats().hits,
    )
}

#[test]
fn fig5_csv_identical_across_thread_counts() {
    let exp = Fig5 {
        sizes: vec![64 << 10, 1 << 20, 16 << 20, 128 << 20],
    };
    let (seq, _) = csv_of(1, &exp);
    let (par, hits) = csv_of(4, &exp);
    assert_eq!(seq, par, "4-thread CSV must match sequential byte-for-byte");
    assert!(hits > 0, "later sizes reuse the cached machine and proxies");
}

#[test]
fn fig10_csv_identical_across_thread_counts() {
    let exp = Fig10 {
        scales: fig10_scales(2048),
    };
    let (seq, _) = csv_of(1, &exp);
    let (par, hits) = csv_of(3, &exp);
    assert_eq!(seq, par);
    // Pattern 2 at a given core count reuses pattern 1's machine and
    // aggregator table — the weak-scaling figures must show a nonzero
    // cache hit rate.
    assert!(hits > 0, "pattern 2 must hit pattern 1's cached plans");
}

#[test]
fn resilience_csv_identical_across_thread_counts() {
    // The fault-injection sweep does many chained simulations per point
    // (retry attempts, plus the fault-free baseline) — exactly the kind
    // of workload where hidden shared state would show up as cross-thread
    // divergence. Two sizes x four scenarios keeps it quick.
    let exp = Resilience::new(vec![64 << 10, 16 << 20], 20140914);
    let (seq, _) = csv_of(1, &exp);
    let (par, hits) = csv_of(4, &exp);
    assert_eq!(seq, par, "4-thread CSV must match sequential byte-for-byte");
    assert!(hits > 0, "points share the cached machine and tables");
    // And the seed is the only source of randomness: the same seed gives
    // the same bytes on a fresh session, a different seed does not.
    let (again, _) = csv_of(2, &exp);
    assert_eq!(seq, again);
    let (other, _) = csv_of(2, &Resilience::new(vec![64 << 10, 16 << 20], 4242));
    assert_ne!(seq, other, "the random scenarios must respond to the seed");
}

#[test]
fn identical_fault_plans_give_identical_sim_reports() {
    // Seeded fault plan -> bit-identical SimReport, run after run: the
    // whole resilience layer rests on this.
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let plan = FaultPlan::random_link_faults(
        99,
        bgq_torus::num_links(machine.shape()),
        2000.0,
        0.005,
        0.1,
    );
    assert!(!plan.is_empty());
    let proxies = find_proxies(
        machine.shape(),
        Zone::Z2,
        NodeId(0),
        NodeId(127),
        &HashSet::new(),
        &ProxySearchConfig::default(),
    )
    .proxies();
    let run = || {
        let mut prog = Program::new(&machine);
        let h = plan_via_proxies(
            &mut prog,
            NodeId(0),
            NodeId(127),
            8 << 20,
            &proxies,
            &MultipathOptions::default(),
        );
        (prog.run_with_faults(&plan), h)
    };
    let (a, _) = run();
    let (b, _) = run();
    assert_eq!(a.status, b.status, "per-transfer outcomes must replay");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
    let times_bits = |r: &bgq_netsim::SimReport| {
        r.delivery_time
            .iter()
            .map(|t| t.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(times_bits(&a), times_bits(&b));
}

#[test]
fn timing_summary_reports_cache_counters() {
    let exp = Fig5 {
        sizes: vec![64 << 10, 128 << 20],
    };
    let session = ExperimentSession::new(2).with_timing(true);
    let run = session.run(&exp);
    let summary = session.timing_summary(exp.name(), &run);
    assert!(summary.contains("plan cache:"), "{summary}");
    assert!(summary.contains("2 points"), "{summary}");
    let stats = session.cache().stats();
    assert!(stats.hit_rate() > 0.0, "{stats:?}");
}

#[test]
fn bench_args_session_round_trip() {
    let args =
        BenchArgs::try_parse(["--threads", "4", "--timing"].iter().map(|s| s.to_string())).unwrap();
    let session = args.session();
    assert_eq!(session.threads(), 4);
    assert!(session.timing());
}

proptest! {
    // A cached proxy search returns exactly what a fresh search would,
    // for any endpoint pair and proxy budget.
    #[test]
    fn cached_proxy_search_equals_fresh(src in 0u32..128, dst in 0u32..128, k in 1usize..=6) {
        prop_assume!(src != dst);
        let shape = standard_shape(128).unwrap();
        let cfg = ProxySearchConfig { min_proxies: 1, max_proxies: k, ..Default::default() };
        let cache = PlanCache::new();
        let cached = cache.proxies(
            &shape, Zone::Z2, NodeId(src), NodeId(dst), &HashSet::new(), &cfg,
        );
        let fresh = find_proxies(
            &shape, Zone::Z2, NodeId(src), NodeId(dst), &HashSet::new(), &cfg,
        );
        prop_assert_eq!(cached.proxies(), fresh.proxies());
        // And the second lookup is a hit returning the same selection.
        let again = cache.proxies(
            &shape, Zone::Z2, NodeId(src), NodeId(dst), &HashSet::new(), &cfg,
        );
        prop_assert_eq!(again.proxies(), fresh.proxies());
        prop_assert!(cache.stats().hits >= 1);
    }
}

#[test]
fn second_identical_run_is_all_cache_hits() {
    // Satellite of the observability layer: replaying an experiment on a
    // warm session must touch the cache only through hits — any miss on
    // the second run means a cache key is unstable.
    let registry = std::sync::Arc::new(bgq_obs::MetricsRegistry::new());
    let session = ExperimentSession::new(2).with_metrics(std::sync::Arc::clone(&registry));
    let exp = Fig5 {
        sizes: vec![1 << 20, 16 << 20],
    };
    session.run(&exp);
    let warm = registry.snapshot();
    session.run(&exp);
    let delta = registry.snapshot().delta_from(&warm);
    let mut hits = 0;
    for kind in ["machine", "table", "proxies", "groups"] {
        hits += delta.counter(&format!("cache.{kind}.hits")).unwrap_or(0);
        assert_eq!(
            delta.counter(&format!("cache.{kind}.misses")).unwrap_or(0),
            0,
            "second identical run must be 100% cache hits ({kind})"
        );
    }
    assert!(hits > 0, "the second run must actually consult the cache");
}

#[test]
fn observed_artifacts_identical_across_thread_counts() {
    // The observability artifacts carry only simulated-time and integer
    // quantities, so the metrics CSV and the Chrome trace must be
    // byte-identical no matter how many workers produced them.
    let run = |threads: usize| {
        let registry = std::sync::Arc::new(bgq_obs::MetricsRegistry::new());
        let session =
            ExperimentSession::new(threads).with_metrics(std::sync::Arc::clone(&registry));
        session.run(&Fig5 {
            sizes: vec![64 << 10, 16 << 20],
        });
        let trace = fig5_execution(&session).trace().to_chrome_json();
        (registry.snapshot().to_csv(), trace)
    };
    let (m1, t1) = run(1);
    let (m4, t4) = run(4);
    assert_eq!(m1, m4, "metrics CSV must not depend on the thread count");
    assert_eq!(t1, t4, "trace JSON must not depend on the thread count");
}

#[test]
fn profile_artifacts_identical_across_thread_counts_and_reruns() {
    // The bottleneck-attribution artifact is pure simulated time: its
    // JSON must be byte-identical whether the session that warmed the
    // plan cache ran on one worker or four, and replaying the profile on
    // the same cache must reproduce the bytes exactly.
    let run = |threads: usize| {
        let session = ExperimentSession::new(threads);
        session.run(&Fig5 {
            sizes: vec![64 << 10, 16 << 20],
        });
        let art = fig5_execution(&session).profile();
        art.validate().expect("accounting must balance");
        let first = art.to_json();
        let again = fig5_execution(&session).profile().to_json();
        assert_eq!(first, again, "rerun on a warm cache must replay the bytes");
        first
    };
    let p1 = run(1);
    let p4 = run(4);
    assert_eq!(p1, p4, "profile JSON must not depend on the thread count");
    // And the artifact survives a parse/serialize round trip bit-exactly —
    // the property the `--diff` baseline workflow rests on.
    let reparsed = bgq_obs::ProfileArtifact::from_json(&p1)
        .expect("own JSON must parse")
        .to_json();
    assert_eq!(p1, reparsed, "JSON round trip must be bit-exact");
}
