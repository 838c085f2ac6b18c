//! Bottleneck-attribution profiles for the figure harnesses.
//!
//! This is the bridge between the engine's [`bgq_netsim::SimProfile`]
//! (resource indices, raw per-epoch accrual) and the topology-agnostic
//! [`bgq_obs::ProfileArtifact`] (link labels, critical paths, JSON/CSV
//! artifacts). Each figure with a representative trace also has a
//! representative *profile* ([`profile_for`]) built from the same
//! scenario, so `--profile-out` answers "why was this run slow": which
//! links the waterfill blamed, for how long, and which dependency chain
//! bounded the makespan.
//!
//! Profiles inherit the artifact contract: everything is keyed on
//! simulated time and serialized deterministically, so the JSON is
//! byte-identical across thread counts and repeated runs.

use crate::obs::TRACE_BYTES;
use crate::resilience::{fault_plan_for, Scenario};
use crate::runner::PlanCache;
use bgq_comm::{Machine, Program};
use bgq_netsim::{Binding, FaultPlan, ResourceId, SimConfig, SimOptions, SimReport};
use bgq_obs::{ProfileArtifact, Recorder, RunProfile, TransferProfile};
use bgq_torus::{shape_for_cores, standard_shape, NodeId, RankMap, Zone, CORES_PER_NODE};
use sdm_core::{
    plan_direct, plan_group_direct, plan_via_proxies, IoMoveOptions, MultipathOptions,
    ProxySearchConfig,
};
use std::collections::HashSet;

/// Human label for a simulated resource: torus links render as
/// `node:direction` (e.g. `n0:+A`), everything else (I/O stages) as
/// `io<id>`.
pub fn resource_label(machine: &Machine, r: ResourceId) -> String {
    match machine.torus_link(r) {
        Some(link) => link.to_string(),
        None => format!("io{}", r.0),
    }
}

fn binding_label(machine: &Machine, b: &Binding) -> String {
    match b {
        Binding::Link(r) => resource_label(machine, *r),
        Binding::FlowCap => "cap".to_string(),
    }
}

/// Execute `prog` under `faults` with profiling on. The report carries
/// `report.profile` and is otherwise bit-identical to an unprofiled run.
pub fn run_profiled(prog: &Program, faults: &FaultPlan) -> SimReport {
    prog.simulate(SimOptions::new().faults(faults).profiled())
}

/// Convert a profiled run into a labeled [`RunProfile`]: engine resource
/// indices become link labels, graph dependencies become the chain edges
/// the critical-path walk follows.
///
/// # Panics
/// Panics if `report` was not produced by a profiled run.
pub fn run_profile(
    name: &str,
    machine: &Machine,
    prog: &Program,
    report: &SimReport,
) -> RunProfile {
    let sp = report
        .profile
        .as_ref()
        .expect("run_profile needs a profiled report (SimOptions::profiled)");
    let mut transfers = Vec::with_capacity(sp.transfers.len());
    for (i, spec) in prog.graph().specs().iter().enumerate() {
        let tp = &sp.transfers[i];
        let delivered = report.delivery_time[i].is_finite();
        let end = if delivered {
            report.delivery_time[i]
        } else {
            report.end_time
        };
        let mut link_blame: Vec<(String, f64)> = tp
            .bottlenecked_on
            .iter()
            .map(|&(r, s)| (resource_label(machine, r), s))
            .collect();
        // Distinct resources can collide only if labels did, and they
        // don't (both label forms embed the id) — sorting suffices.
        link_blame.sort_by(|a, b| a.0.cmp(&b.0));
        transfers.push(TransferProfile {
            id: i as u32,
            label: format!("n{}->n{}", spec.src, spec.dst),
            bytes: spec.bytes,
            ready: tp.ready_time,
            start: report.flow_start_time[i],
            end,
            delivered,
            queued: tp.queued_before_start,
            cap_limited: tp.cap_limited,
            stalled: tp.stalled_by_fault,
            latency: tp.delivery_latency,
            link_blame,
            bindings: tp
                .binding_timeline
                .iter()
                .map(|(t, b)| (*t, binding_label(machine, b)))
                .collect(),
            deps: spec.deps.iter().map(|d| d.0).collect(),
        });
    }
    RunProfile {
        name: name.to_string(),
        end_time: report.end_time,
        transfers,
    }
}

/// Direct-vs-multipath profile pair on an `nodes`-node partition: the
/// corner pair, one `direct` run and one 4-proxy `multipath` run —
/// the profile twin of [`crate::obs::pair_trace`]. The run-ledger
/// passes a degraded `sim` to profile the same scenario on a weakened
/// machine; every other caller passes the default.
pub fn pair_profile(
    cache: &PlanCache,
    sim: &SimConfig,
    nodes: u32,
    bytes: u64,
) -> ProfileArtifact {
    let machine = cache.machine(standard_shape(nodes).unwrap(), sim);
    let (src, dst) = (NodeId(0), NodeId(machine.num_nodes() - 1));
    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let proxies = cache
        .proxies(machine.shape(), Zone::Z2, src, dst, &HashSet::new(), &cfg)
        .proxies();

    let mut pd = Program::new(&machine);
    plan_direct(&mut pd, src, dst, bytes);
    let rd = run_profiled(&pd, &FaultPlan::new());

    let mut pm = Program::new(&machine);
    plan_via_proxies(&mut pm, src, dst, bytes, &proxies, &MultipathOptions::default());
    let rm = run_profiled(&pm, &FaultPlan::new());

    ProfileArtifact {
        runs: vec![
            run_profile("direct", &machine, &pd, &rd),
            run_profile("multipath", &machine, &pm, &rm),
        ],
    }
}

/// Contended group-coupling profile: the first `pairs` nodes couple to
/// the opposed slab (fig6's placement) under a **4:1 fan-in** — source
/// `i` sends to slab node `i mod (pairs/4)`, so every destination's
/// ingress links necessarily carry four flows and the dimension-ordered
/// routes converge on shared corridor links.
///
/// This is the profiler's representative congestion scenario. The
/// figure harnesses use the aligned one-to-one pairing, which is
/// collision-free by construction: its direct baseline is bound by the
/// per-flow protocol cap, and the profile of such a run blames `cap`,
/// not links. The fan-in is the same coupling with a conflicting sparse
/// pattern (the paper's aggregation shape), which is where per-link
/// blame has something to say: the `direct` run names the converging
/// corridor links, and the per-pair 4-proxy `multipath` run shows the
/// same seconds redistributed across the proxy-path links.
pub fn coupling_profile(
    cache: &PlanCache,
    sim: &SimConfig,
    nodes: u32,
    pairs: u32,
    bytes: u64,
) -> ProfileArtifact {
    let machine = cache.machine(standard_shape(nodes).unwrap(), sim);
    let n = machine.shape().num_nodes();
    assert!(pairs >= 4 && pairs <= n / 4, "need 4..=n/4 coupling pairs");
    let sources: Vec<NodeId> = (0..pairs).map(NodeId).collect();
    let base = 3 * n / 4;
    let dests: Vec<NodeId> = (0..pairs).map(|i| NodeId(base + i % (pairs / 4))).collect();

    let mut pd = Program::new(&machine);
    plan_group_direct(&mut pd, &sources, &dests, bytes);
    let rd = run_profiled(&pd, &FaultPlan::new());

    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let mut pm = Program::new(&machine);
    for (&s, &d) in sources.iter().zip(&dests) {
        let proxies = cache
            .proxies(machine.shape(), Zone::Z2, s, d, &HashSet::new(), &cfg)
            .proxies();
        if proxies.is_empty() {
            plan_direct(&mut pm, s, d, bytes);
        } else {
            plan_via_proxies(&mut pm, s, d, bytes, &proxies, &MultipathOptions::default());
        }
    }
    let rm = run_profiled(&pm, &FaultPlan::new());

    ProfileArtifact {
        runs: vec![
            run_profile("direct", &machine, &pd, &rd),
            run_profile("multipath", &machine, &pm, &rm),
        ],
    }
}

/// Partition size of the fig6-scale coupling profile.
pub const FIG6_NODES: u32 = 2048;
/// Conflicting pairs of the fig6-scale coupling profile.
pub const FIG6_PAIRS: u32 = 128;

/// The fig6-scale coupling profile: [`FIG6_PAIRS`] conflicting pairs
/// between the opposed slabs of the [`FIG6_NODES`]-node partition,
/// [`TRACE_BYTES`] each (see [`coupling_profile`]). The committed
/// `results/BENCH_profile_fig6.json` and the ledger's `fig6` scenario
/// are both this run.
pub fn fig6_profile(cache: &PlanCache, sim: &SimConfig) -> ProfileArtifact {
    coupling_profile(cache, sim, FIG6_NODES, FIG6_PAIRS, TRACE_BYTES)
}

/// Sparse collective-write profile at `cores` (the weak-scaling plan:
/// nodes → aggregators → bridges → IONs), uniform 1 MB ranks — the
/// profile twin of [`crate::obs::io_trace`].
pub fn io_profile(cache: &PlanCache, sim: &SimConfig, cores: u32) -> ProfileArtifact {
    let shape = shape_for_cores(cores).expect("standard partition");
    let machine = cache.machine(shape, sim);
    let map = RankMap::default_map(shape, CORES_PER_NODE);
    let rank_sizes = vec![1u64 << 20; cores as usize];
    let data = bgq_workloads::coalesce_to_nodes(&map, &rank_sizes);
    let total: u64 = data.iter().map(|&(_, b)| b).sum();
    let chunk = crate::io::sim_chunk_bytes(total, shape.num_nodes());

    let mover = cache.mover(&machine);
    let mut prog = Program::new(&machine);
    mover.plan_sparse_write(
        &mut prog,
        &data,
        &IoMoveOptions {
            max_chunk: chunk,
            ..Default::default()
        },
    );
    let report = run_profiled(&prog, &FaultPlan::new());
    ProfileArtifact {
        runs: vec![run_profile("sparse_write", &machine, &prog, &report)],
    }
}

/// Fault-injection profile: the fig5 pair under the direct-route cut —
/// the `direct` run shows the stall charged to `stalled_by_fault`, the
/// `multipath` run routes around the cut and stays network-limited.
pub fn resilience_profile(
    cache: &PlanCache,
    sim: &SimConfig,
    bytes: u64,
) -> ProfileArtifact {
    let machine = cache.machine(standard_shape(128).unwrap(), sim);
    let (src, dst) = (NodeId(0), NodeId(127));
    let mut pd = Program::new(&machine);
    let hd = plan_direct(&mut pd, src, dst, bytes);
    let t0 = hd.completed_at(&pd.run());
    let plan = fault_plan_for(&machine, &Scenario::DirectCut, t0);
    let rd = run_profiled(&pd, &plan);

    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let proxies = cache
        .proxies(machine.shape(), Zone::Z2, src, dst, &HashSet::new(), &cfg)
        .proxies();
    let mut pm = Program::new(&machine);
    plan_via_proxies(&mut pm, src, dst, bytes, &proxies, &MultipathOptions::default());
    let rm = run_profiled(&pm, &plan);

    ProfileArtifact {
        runs: vec![
            run_profile("direct", &machine, &pd, &rd),
            run_profile("multipath", &machine, &pm, &rm),
        ],
    }
}

/// Per-algorithm neighborhood-exchange profile: the disjoint-heavy
/// pattern on a 512-node partition lowered under each
/// [`ExchangeAlgorithm`](sdm_core::ExchangeAlgorithm), one profiled run
/// per algorithm. The `direct` run's blame concentrates on the pairs'
/// own routes (each flow bound by its protocol cap on a disjoint
/// pattern); the `proxy_multipath` run shows the same payload spread
/// over the ledger's claimed links.
pub fn exchange_profile(cache: &PlanCache, sim: &SimConfig, bytes: u64) -> ProfileArtifact {
    let machine = cache.machine(standard_shape(512).unwrap(), sim);
    let map = crate::exchange::ExchangePattern::DisjointHeavy { bytes }
        .build(512, crate::exchange::EXCHANGE_SEED);
    let runs = sdm_core::ExchangeAlgorithm::ALL
        .into_iter()
        .map(|alg| {
            let ex = sdm_core::NeighborhoodExchange::with_mover(cache.mover(&machine));
            let mut prog = Program::new(&machine);
            ex.plan(&mut prog, &map, alg);
            let report = run_profiled(&prog, &FaultPlan::new());
            run_profile(alg.name(), &machine, &prog, &report)
        })
        .collect();
    ProfileArtifact { runs }
}

/// The representative profile for a figure by name, or `None` for
/// figures without a simulated execution. Mirrors
/// [`crate::obs::trace_for`] scenario-for-scenario.
pub fn profile_for(figure: &str, cache: &PlanCache) -> Option<ProfileArtifact> {
    let sim = &SimConfig::default();
    match figure {
        "fig5" => Some(pair_profile(cache, sim, 128, TRACE_BYTES)),
        "fig6" => Some(fig6_profile(cache, sim)),
        "fig7" => Some(pair_profile(cache, sim, 512, TRACE_BYTES)),
        "fig10" | "fig11" => Some(io_profile(cache, sim, 2048)),
        "resilience" => Some(resilience_profile(cache, sim, TRACE_BYTES)),
        "exchange" => Some(exchange_profile(cache, sim, TRACE_BYTES)),
        _ => None,
    }
}

/// Cap on flows given a binding track, keeping the trace a few
/// kilobytes even for the group figures.
const MAX_BINDING_FLOWS: usize = 64;

/// Render each run's binding timelines as Perfetto spans: track
/// `<run>/bindings`, one span per (flow, binding) stretch named
/// `t<id> <-- <link>`. Flows on the critical path come first; remaining
/// slots go to flows whose binding actually changed mid-run.
pub fn binding_trace(art: &ProfileArtifact) -> Recorder {
    let rec = Recorder::new();
    for run in &art.runs {
        let mut picked: Vec<u32> = run.critical_path();
        let on_path: HashSet<u32> = picked.iter().copied().collect();
        let mut rest: Vec<u32> = run
            .transfers
            .iter()
            .filter(|t| t.bindings.len() >= 2 && !on_path.contains(&t.id))
            .map(|t| t.id)
            .collect();
        rest.sort_unstable();
        picked.extend(rest);
        picked.truncate(MAX_BINDING_FLOWS);

        let track = format!("{}/bindings", run.name);
        for &id in &picked {
            let t = &run.transfers[id as usize];
            for (j, (at, label)) in t.bindings.iter().enumerate() {
                let until = t
                    .bindings
                    .get(j + 1)
                    .map(|&(next, _)| next)
                    .unwrap_or(t.end);
                rec.span(
                    &track,
                    &format!("t{id} <-- {label}"),
                    *at,
                    until,
                    &[("transfer", t.label.clone())],
                );
            }
        }
    }
    rec
}

/// [`profile_for`] plus the binding-change Perfetto trace built from it.
pub fn profile_for_with_trace(
    figure: &str,
    cache: &PlanCache,
) -> Option<(ProfileArtifact, Recorder)> {
    let art = profile_for(figure, cache)?;
    let rec = binding_trace(&art);
    Some((art, rec))
}

fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s.abs() >= 1.0 {
        format!("{s:.3} s")
    } else if s.abs() >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

/// Render the "why was this slow" report: per run, the aggregate time
/// decomposition, the ranked bottleneck links, and the critical path
/// with its slowest segment. Deterministic (pure function of the
/// artifact).
pub fn render_report(art: &ProfileArtifact) -> String {
    let mut out = String::new();
    for run in &art.runs {
        let n = run.transfers.len();
        out.push_str(&format!(
            "run {}: {} transfer(s), finished at {}\n",
            run.name,
            n,
            fmt_secs(run.end_time)
        ));
        let sum = |f: fn(&TransferProfile) -> f64| -> f64 { run.transfers.iter().map(f).sum() };
        let queued = sum(|t| t.queued);
        let network = run.total_network_limited();
        let cap = sum(|t| t.cap_limited);
        let stalled = sum(|t| t.stalled);
        let latency = sum(|t| t.latency);
        let total = queued + network + cap + stalled + latency;
        out.push_str("  where the flow-seconds went:\n");
        for (name, v) in [
            ("network-limited", network),
            ("cap-limited", cap),
            ("queued", queued),
            ("stalled by faults", stalled),
            ("delivery latency", latency),
        ] {
            if v > 0.0 {
                out.push_str(&format!(
                    "    {name:<18} {:>12}  ({:.1}%)\n",
                    fmt_secs(v),
                    100.0 * v / total.max(f64::MIN_POSITIVE)
                ));
            }
        }
        let undelivered = run.transfers.iter().filter(|t| !t.delivered).count();
        if undelivered > 0 {
            out.push_str(&format!(
                "    *** {undelivered} transfer(s) UNDELIVERED ***\n"
            ));
        }
        let top = run.top_bottlenecks(5);
        if top.is_empty() {
            out.push_str(
                "  no link was ever a binding resource: every flow was bound by its own\n  \
                 rate cap (the per-flow protocol limit) — add paths, not bandwidth\n",
            );
        } else {
            out.push_str("  top bottleneck links (time spent rate-limited by each):\n");
            for (i, (label, secs)) in top.iter().enumerate() {
                out.push_str(&format!(
                    "    {}. {label:<12} {:>12}\n",
                    i + 1,
                    fmt_secs(*secs)
                ));
            }
        }
        let path = run.critical_path();
        if path.len() > 1 {
            out.push_str(&format!(
                "  critical path ({} chained segment(s)):\n",
                path.len()
            ));
            for &id in &path {
                let t = &run.transfers[id as usize];
                let bound = t
                    .dominant_link()
                    .map(|(l, _)| l.to_string())
                    .unwrap_or_else(|| "cap".to_string());
                out.push_str(&format!(
                    "    t{id} {:<16} {:>12}  bound by {bound}\n",
                    t.label,
                    fmt_secs(t.elapsed())
                ));
            }
        }
        if let Some((id, secs)) = run.slowest_segment() {
            let t = &run.transfers[id as usize];
            out.push_str(&format!(
                "  slowest segment: t{id} {} at {}\n",
                t.label,
                fmt_secs(secs)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_profile_shows_the_protocol_cap() {
        // The fig5 story: a lone pair has no link contention anywhere —
        // direct and every proxy chunk are bound by the per-flow
        // protocol cap (1.6 < 1.8 GB/s), which is exactly why multipath
        // helps. The profiler must say so rather than invent link blame.
        let cache = PlanCache::new();
        let art = pair_profile(&cache, &SimConfig::default(), 128, 4 << 20);
        art.validate().expect("profile accounting must balance");

        let direct = art.run("direct").unwrap();
        assert_eq!(direct.transfers.len(), 1);
        let t = &direct.transfers[0];
        assert!(t.link_blame.is_empty(), "solo pair has no contention");
        assert!(
            t.cap_limited > 0.9 * t.elapsed(),
            "direct flow is cap-bound: {t:?}"
        );

        // Proxy chains are dependency chains: the critical path walks
        // src->proxy then proxy->dst.
        let multi = art.run("multipath").unwrap();
        assert!(multi.critical_path().len() >= 2);
        assert!(multi.slowest_segment().is_some());
    }

    #[test]
    fn coupling_profile_names_bottleneck_links() {
        // The congestion story (the fig6-scale scenario scaled down to
        // test size): conflicting pairs collide on shared dimension
        // lines, and the profiler names them.
        let cache = PlanCache::new();
        let art = coupling_profile(&cache, &SimConfig::default(), 128, 16, 4 << 20);
        art.validate().expect("profile accounting must balance");

        let direct = art.run("direct").unwrap();
        let top = direct.top_bottlenecks(3);
        assert!(!top.is_empty(), "conflicting routes must blame links");
        assert!(
            top[0].0.contains(':'),
            "blame is labeled with a torus link, got {:?}",
            top[0].0
        );

        // The multipath run spreads blame across the proxy-path links
        // (the ISSUE acceptance bar is >= 3 distinct links).
        let multi = art.run("multipath").unwrap();
        assert!(
            multi.link_blame().len() >= 3,
            "multipath blame too narrow: {:?}",
            multi.link_blame()
        );
    }

    #[test]
    fn exchange_profile_blames_each_algorithm_separately() {
        // One run per exchange algorithm over the same disjoint-heavy
        // map, so the per-algorithm link blame is directly comparable.
        let cache = PlanCache::new();
        let art = exchange_profile(&cache, &SimConfig::default(), TRACE_BYTES);
        art.validate().expect("profile accounting must balance");

        let direct = art.run("direct").unwrap();
        let consensus = art.run("consensus").unwrap();
        let multi = art.run("proxy_multipath").unwrap();

        // Antipodal puts collide pairwise on the A-dimension wrap links
        // (rank i and i+256 route through the same torus line), so the
        // direct run's blame concentrates on a handful of named links —
        // exactly the congestion the ledger routes around.
        assert_eq!(direct.transfers.len(), 8);
        let blame = direct.link_blame();
        assert!(
            !blame.is_empty() && blame.len() < direct.transfers.len(),
            "blame should concentrate on shared links: {blame:?}"
        );
        assert!(blame[0].0.contains(':'), "blame names torus links: {blame:?}");
        for t in &direct.transfers {
            assert!(
                t.network_limited() > 0.9 * t.elapsed(),
                "direct puts are network-bound: {t:?}"
            );
        }

        // Consensus adds one discovery gate per participant on top of
        // the same payload puts.
        assert!(consensus.transfers.len() > direct.transfers.len());

        // Multipath splits pairs across proxies: each multipath pair
        // becomes many two-leg chunk chains, so the run has far more
        // transfers than pairs. (The critical path can still end on a
        // dependency-free direct put — the pairs the ledger left alone
        // finish last once the contended wrap links are relieved.)
        assert!(multi.transfers.len() > 2 * direct.transfers.len());
        assert!(!multi.critical_path().is_empty());
        assert!(multi.slowest_segment().is_some());

        // The per-transfer decomposition sums to elapsed in every run
        // (validate checked the tolerance; spot-check the totals here).
        for run in &art.runs {
            for t in &run.transfers {
                assert!((t.accounted() - t.elapsed()).abs() <= 1e-6 * t.elapsed().max(1.0));
            }
        }
    }

    #[test]
    fn profile_artifact_is_deterministic() {
        let cache = PlanCache::new();
        let a = pair_profile(&cache, &SimConfig::default(), 128, 1 << 20).to_json();
        let b = pair_profile(&cache, &SimConfig::default(), 128, 1 << 20).to_json();
        assert_eq!(a, b, "same inputs must serialize to the same bytes");
        let back = ProfileArtifact::from_json(&a).unwrap();
        assert_eq!(back.to_json(), a, "round-trip is byte-exact");
    }

    #[test]
    fn profiled_report_matches_plain_run() {
        let cache = PlanCache::new();
        let machine = cache.machine(standard_shape(128).unwrap(), &SimConfig::default());
        let mut p = Program::new(&machine);
        plan_direct(&mut p, NodeId(0), NodeId(127), 4 << 20);
        let plain = p.run();
        let mut profiled = run_profiled(&p, &FaultPlan::new());
        assert!(profiled.profile.is_some());
        profiled.profile = None;
        assert_eq!(plain, profiled, "profiling must not perturb the engine");
    }

    #[test]
    fn resilience_profile_charges_the_stall_to_faults() {
        let cache = PlanCache::new();
        let art = resilience_profile(&cache, &SimConfig::default(), 4 << 20);
        art.validate().unwrap();
        let direct = art.run("direct").unwrap();
        assert!(
            direct.transfers.iter().any(|t| !t.delivered && t.stalled > 0.0),
            "cut route must show fault-stalled time"
        );
        let multi = art.run("multipath").unwrap();
        assert!(multi.transfers.iter().all(|t| t.delivered));
    }

    #[test]
    fn binding_trace_is_valid_and_labels_flows() {
        let cache = PlanCache::new();
        let (art, rec) = profile_for_with_trace("fig5", &cache).unwrap();
        let json = rec.to_chrome_json();
        bgq_obs::json::validate(&json).unwrap();
        assert!(json.contains("/bindings"), "binding tracks present");
        assert!(json.contains("t0 <-- "), "spans name the binding link");
        assert!(art.run("multipath").is_some());
        assert!(profile_for("fig8_9", &cache).is_none());
    }
}
