//! Trace builders and artifact writers for the observability layer.
//!
//! A figure run can emit two deterministic observability artifacts (see
//! [`produce`](crate::figures::produce)):
//!
//! * `--metrics-out PATH` — the session registry's snapshot as sorted
//!   CSV (`MetricsSnapshot::to_csv`), byte-identical for any thread
//!   count because every golden metric is a simulated-time or integer
//!   quantity;
//! * `--trace-out PATH` — a Chrome-trace JSON of one *representative
//!   run* of the figure ([`trace_for`]), loadable in Perfetto. Spans
//!   are transfers on their first-hop link-axis track, counter series
//!   are waterfill bytes-in-flight per axis, instants are stall /
//!   resume / fault edges.
//!
//! Everything here is keyed on simulated time, so both artifacts are
//! reproducible byte-for-byte regardless of worker threads or host.

use crate::resilience::{fault_plan_for, Scenario};
use crate::runner::PlanCache;
use bgq_comm::{Machine, Program};
use bgq_netsim::{FaultPlan, ResourceId, SimConfig, SimObserver, SimReport};
use bgq_obs::Recorder;
use bgq_torus::{shape_for_cores, standard_shape, NodeId, RankMap, Zone, CORES_PER_NODE};
use sdm_core::{
    plan_direct, plan_group_direct, plan_group_via, plan_via_proxies, IoMoveOptions,
    MultipathOptions, ProxySearchConfig,
};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;

/// Message size for representative traces: large enough that multipath
/// beats direct on the fig5 pair, small enough that the trace stays a
/// few kilobytes.
pub const TRACE_BYTES: u64 = 32 << 20;

/// The Perfetto track a simulated resource belongs to: torus links are
/// grouped per direction (`axis +B`, ...), everything else (eleventh
/// link, ION→fs stages) lands on the `io` track.
fn resource_track(machine: &Machine, r: ResourceId) -> String {
    match machine.torus_link(r) {
        Some(link) => format!("axis {}", link.direction()),
        None => "io".to_string(),
    }
}

/// Record one executed program into `rec`:
///
/// * a span per transfer on its first-hop axis track (undelivered
///   transfers span to the end of the run and say so in their name);
/// * a `bytes_in_flight` counter series per axis from the waterfill
///   heatmap samples;
/// * instants for every stall, resume and never-started transfer.
pub fn record_run(
    rec: &Recorder,
    machine: &Machine,
    prog: &Program,
    report: &SimReport,
    obs: &SimObserver,
) {
    for (i, spec) in prog.graph().specs().iter().enumerate() {
        let track = spec
            .route
            .first()
            .map(|&r| resource_track(machine, r))
            .unwrap_or_else(|| "local".to_string());
        let start = report.flow_start_time[i];
        if !start.is_finite() {
            rec.instant("faults", &format!("t{i} never started"), report.end_time);
            continue;
        }
        let delivered = report.delivery_time[i].is_finite();
        let end = if delivered {
            report.delivery_time[i]
        } else {
            report.end_time
        };
        let name = if delivered {
            format!("t{i} n{}->n{}", spec.src, spec.dst)
        } else {
            format!("t{i} n{}->n{} (undelivered)", spec.src, spec.dst)
        };
        rec.span(&track, &name, start, end, &[("bytes", spec.bytes.to_string())]);
    }

    // Axis-aggregated bytes-in-flight counters. Only axes that ever
    // carry traffic get a series, but those get a sample per epoch
    // (zeros included) so the Perfetto area chart drops back to zero.
    let tracks: Vec<String> = (0..machine.num_resources())
        .map(|r| resource_track(machine, ResourceId(r)))
        .collect();
    let mut active: BTreeMap<&str, ()> = BTreeMap::new();
    for s in &obs.heatmap.samples {
        for &(r, v) in &s.bytes_in_flight {
            if v > 0.0 {
                active.insert(tracks[r as usize].as_str(), ());
            }
        }
    }
    for s in &obs.heatmap.samples {
        let mut sums: BTreeMap<&str, f64> = active.keys().map(|&t| (t, 0.0)).collect();
        for &(r, v) in &s.bytes_in_flight {
            if v > 0.0 {
                *sums.get_mut(tracks[r as usize].as_str()).unwrap() += v;
            }
        }
        for (track, sum) in sums {
            rec.counter(track, "bytes_in_flight", s.time, sum);
        }
    }

    for &(t, tid) in &obs.stalls {
        rec.instant("faults", &format!("stall t{tid}"), t);
    }
    for &(t, tid) in &obs.resumes {
        rec.instant("faults", &format!("resume t{tid}"), t);
    }
}

/// Run `prog` under `faults` with an observer attached and record the
/// execution into `rec`. Returns the simulation report (bit-identical
/// to an unobserved run).
pub fn run_traced(rec: &Recorder, prog: &Program, faults: &FaultPlan) -> SimReport {
    let mut obs = SimObserver::new();
    let report = prog.run_observed(faults, &mut obs);
    record_run(rec, prog.machine(), prog, &report, &obs);
    report
}

/// Direct-vs-multipath pair trace on an `nodes`-node partition: the
/// corner pair, one direct timeline and one 4-proxy multipath timeline
/// merged under `direct/` and `multipath/` prefixes.
pub fn pair_trace(cache: &PlanCache, nodes: u32, bytes: u64) -> Recorder {
    let machine = cache.machine(standard_shape(nodes).unwrap(), &SimConfig::default());
    let (src, dst) = (NodeId(0), NodeId(machine.num_nodes() - 1));
    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let proxies = cache
        .proxies(machine.shape(), Zone::Z2, src, dst, &HashSet::new(), &cfg)
        .proxies();

    let all = Recorder::new();
    let direct = Recorder::new();
    let mut pd = Program::new(&machine);
    plan_direct(&mut pd, src, dst, bytes);
    run_traced(&direct, &pd, &FaultPlan::new());
    all.merge_prefixed(&direct, "direct/");

    let multi = Recorder::new();
    let mut pm = Program::new(&machine);
    plan_via_proxies(&mut pm, src, dst, bytes, &proxies, &MultipathOptions::default());
    run_traced(&multi, &pm, &FaultPlan::new());
    all.merge_prefixed(&multi, "multipath/");
    all
}

/// The fig5 representative trace: the 128-node corner pair.
pub fn fig5_trace(cache: &PlanCache, bytes: u64) -> Recorder {
    pair_trace(cache, 128, bytes)
}

/// Group-coupling trace (fig6's first plane): 128 aligned pairs between
/// opposed slabs of the 2048-node partition, direct vs. proxy groups.
pub fn fig6_trace(cache: &PlanCache, bytes: u64) -> Recorder {
    let machine = cache.machine(standard_shape(2048).unwrap(), &SimConfig::default());
    let n = machine.shape().num_nodes();
    let sources: Vec<NodeId> = (0..128).map(NodeId).collect();
    let dests: Vec<NodeId> = (3 * n / 4..3 * n / 4 + 128).map(NodeId).collect();
    let cfg = ProxySearchConfig::default();
    let groups = cache.proxy_groups(machine.shape(), Zone::Z2, &sources, &dests, &cfg);

    let all = Recorder::new();
    let direct = Recorder::new();
    let mut pd = Program::new(&machine);
    plan_group_direct(&mut pd, &sources, &dests, bytes);
    run_traced(&direct, &pd, &FaultPlan::new());
    all.merge_prefixed(&direct, "direct/");

    let multi = Recorder::new();
    let mut pm = Program::new(&machine);
    plan_group_via(
        &mut pm,
        &sources,
        &dests,
        bytes,
        &groups,
        false,
        &MultipathOptions::default(),
    );
    run_traced(&multi, &pm, &FaultPlan::new());
    all.merge_prefixed(&multi, "multipath/");
    all
}

/// Sparse collective-write trace for the weak-scaling figures: the
/// topology-aware aggregation plan (nodes → aggregators → bridges →
/// IONs) at `cores`, uniform 1 MB ranks.
pub fn io_trace(cache: &PlanCache, cores: u32) -> Recorder {
    let shape = shape_for_cores(cores).expect("standard partition");
    let machine = cache.machine(shape, &SimConfig::default());
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
    let rec = Recorder::new();
    run_traced(&rec, &prog, &FaultPlan::new());
    rec
}

/// Fault-injection trace: the fig5 pair under the direct-route cut. The
/// `direct/` timeline shows the stall instant and the undelivered span;
/// the `multipath/` timeline routes over link-disjoint proxies and
/// delivers.
pub fn resilience_trace(cache: &PlanCache, bytes: u64) -> Recorder {
    let machine = cache.machine(standard_shape(128).unwrap(), &SimConfig::default());
    let (src, dst) = (NodeId(0), NodeId(127));
    let mut pd = Program::new(&machine);
    let hd = plan_direct(&mut pd, src, dst, bytes);
    let t0 = hd.completed_at(&pd.run());
    let plan = fault_plan_for(&machine, &Scenario::DirectCut, t0);

    let all = Recorder::new();
    let direct = Recorder::new();
    run_traced(&direct, &pd, &plan);
    all.merge_prefixed(&direct, "direct/");

    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let proxies = cache
        .proxies(machine.shape(), Zone::Z2, src, dst, &HashSet::new(), &cfg)
        .proxies();
    let multi = Recorder::new();
    let mut pm = Program::new(&machine);
    plan_via_proxies(&mut pm, src, dst, bytes, &proxies, &MultipathOptions::default());
    run_traced(&multi, &pm, &plan);
    all.merge_prefixed(&multi, "multipath/");
    all
}

/// The representative trace for a figure by name, or `None` for figures
/// without one (the histogram figure has no simulated execution).
pub fn trace_for(figure: &str, cache: &PlanCache) -> Option<Recorder> {
    match figure {
        "fig5" => Some(fig5_trace(cache, TRACE_BYTES)),
        "fig6" => Some(fig6_trace(cache, TRACE_BYTES)),
        "fig7" => Some(pair_trace(cache, 512, TRACE_BYTES)),
        "fig10" | "fig11" => Some(io_trace(cache, 2048)),
        "resilience" => Some(resilience_trace(cache, TRACE_BYTES)),
        _ => None,
    }
}

/// Write `contents` to `path`, creating parent directories.
pub fn write_artifact(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_trace_is_valid_and_shows_both_strategies() {
        let cache = PlanCache::new();
        let rec = fig5_trace(&cache, 4 << 20);
        let json = rec.to_chrome_json();
        bgq_obs::json::validate(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("direct/axis"), "direct timeline present");
        assert!(json.contains("multipath/axis"), "multipath timeline present");
        assert!(json.contains("bytes_in_flight"), "heatmap counters present");
    }

    #[test]
    fn trace_export_is_identical_across_recordings() {
        let cache = PlanCache::new();
        let a = fig5_trace(&cache, 1 << 20).to_chrome_json();
        let b = fig5_trace(&cache, 1 << 20).to_chrome_json();
        assert_eq!(a, b, "same inputs must serialize to the same bytes");
    }

    #[test]
    fn resilience_trace_is_loud_about_the_stall() {
        let cache = PlanCache::new();
        let json = resilience_trace(&cache, 4 << 20).to_chrome_json();
        bgq_obs::json::validate(&json).unwrap();
        assert!(json.contains("stall t"), "direct stall instant recorded");
        assert!(json.contains("(undelivered)"), "cut route never delivers");
    }

    #[test]
    fn every_figure_with_a_trace_produces_valid_json() {
        // fig6/fig10 build big machines; keep this to the cheap ones and
        // the unknown-figure fallthrough.
        let cache = PlanCache::new();
        assert!(trace_for("fig8_9", &cache).is_none());
        let rec = trace_for("fig5", &cache).unwrap();
        bgq_obs::json::validate(&rec.to_chrome_json()).unwrap();
    }
}
