//! The bench side of the run-ledger: scenario builders that execute the
//! representative experiments (the same scenarios the traces and
//! profiles pin) and fold their results into a
//! [`bgq_obs::RunManifest`], plus the figure → manifest mapping the
//! `--manifest-out` flag uses.
//!
//! Every scenario records three things: a **config fingerprint**
//! (topology, sizes, seeds, simulator constants — the sentinel refuses
//! to compare apples to oranges silently), the **scalar metrics** the
//! paper's argument rests on (aggregate throughput, speedup ratios,
//! stall totals, waterfill solve counts, the exchange multipath win
//! ratio), and the **profiler blame rollup** (top-N link blame and
//! critical-path facts via [`ScenarioManifest::attach_profile`]) so a
//! later regression diff can name the links that absorbed the lost
//! time. Every metric is simulated time or a count, so an unchanged
//! tree reproduces the baseline byte for byte.
//!
//! All builders take the simulator config explicitly: the sentinel
//! binary's `--degrade-links` regression-injection knob replays the
//! same scenarios on a weakened machine, which is how the acceptance
//! path ("halve a link capacity, watch a REGRESSED verdict name the
//! link") is exercised end to end.

use crate::exchange::{exchange_point, ExchangePattern};
use crate::obs::TRACE_BYTES;
use crate::profile::{
    coupling_profile, exchange_profile, io_profile, pair_profile, resilience_profile,
};
use crate::resilience::{fault_plan_for, Scenario};
use crate::runner::PlanCache;
use crate::scale::scale_point;
use bgq_comm::Program;
use bgq_netsim::{SimConfig, SimObserver};
use bgq_obs::{ProfileArtifact, RunManifest, ScenarioManifest};
use bgq_torus::{standard_shape, NodeId, Zone, CORES_PER_NODE};
use sdm_core::{
    plan_direct, plan_via_proxies, ExchangeAlgorithm, MultipathOptions, ProxySearchConfig,
};
use std::collections::HashSet;

/// How the ledger runs its scenarios: which machine and how much blame
/// to keep. Nothing here changes how the engine executes — every
/// scenario runs its contention shards inline, in canonical order.
#[derive(Debug, Clone)]
pub struct LedgerOptions {
    /// Simulator config every scenario runs under. The default is the
    /// calibrated machine; the sentinel binary substitutes a degraded
    /// one to inject regressions.
    pub sim: SimConfig,
    /// How many most-blamed links each profiled run contributes to the
    /// scenario's blame map.
    pub top_blame: usize,
}

impl Default for LedgerOptions {
    fn default() -> LedgerOptions {
        LedgerOptions {
            sim: SimConfig::default(),
            top_blame: 3,
        }
    }
}

/// Record the simulator constants that shape every scenario's numbers.
/// Part of the config fingerprint: a run on a degraded machine must not
/// diff silently against the calibrated baseline.
fn sim_config_entries(s: &mut ScenarioManifest, sim: &SimConfig) {
    s.config("sim.link_bandwidth", format!("{:?}", sim.link_bandwidth));
    s.config(
        "sim.io_link_bandwidth",
        format!("{:?}", sim.io_link_bandwidth),
    );
    s.config("sim.per_flow_cap", format!("{:?}", sim.per_flow_cap));
    s.config(
        "sim.contention_penalty",
        format!("{:?}", sim.contention_penalty),
    );
    s.config(
        "sim.contention_floor",
        format!("{:?}", sim.contention_floor),
    );
}

/// Aggregate throughput of a profiled run: payload bytes over the run's
/// end time (`0` if the run never finishes — `undelivered` metrics
/// carry that story).
fn run_throughput(art: &ProfileArtifact, run: &str) -> f64 {
    let r = art.run(run).expect("run exists");
    let bytes: u64 = r.transfers.iter().map(|t| t.bytes).sum();
    if r.end_time.is_finite() && r.end_time > 0.0 {
        bytes as f64 / r.end_time
    } else {
        0.0
    }
}

/// Fold a direct-vs-multipath profile pair into throughput + speedup
/// metrics (speedup = direct end time over multipath end time, the
/// paper's headline ratio).
fn pair_metrics(s: &mut ScenarioManifest, art: &ProfileArtifact) {
    for run in &art.runs {
        s.metric(
            &format!("{}.throughput", run.name),
            run_throughput(art, &run.name),
        );
    }
    if let (Some(d), Some(m)) = (art.run("direct"), art.run("multipath")) {
        if d.end_time.is_finite() && m.end_time.is_finite() && m.end_time > 0.0 {
            s.metric("speedup", d.end_time / m.end_time);
        }
    }
}

/// fig5: the 128-node corner pair, direct vs 4-proxy multipath.
pub fn fig5_scenario(cache: &PlanCache, opts: &LedgerOptions) -> ScenarioManifest {
    let mut s = ScenarioManifest::new("fig5");
    s.config("nodes", 128);
    s.config("bytes", TRACE_BYTES);
    s.config("proxies", 4);
    sim_config_entries(&mut s, &opts.sim);
    let art = pair_profile(cache, &opts.sim, 128, TRACE_BYTES);
    pair_metrics(&mut s, &art);
    s.attach_profile(&art, opts.top_blame);
    s
}

/// fig6: the contended 2048-node group coupling (128 conflicting
/// pairs, 4:1 fan-in) — the same cell `results/BENCH_profile_fig6.json`
/// pins, so `obs_report --cross` can check the two artifacts agree.
pub fn fig6_scenario(cache: &PlanCache, opts: &LedgerOptions) -> ScenarioManifest {
    let mut s = ScenarioManifest::new("fig6");
    s.config("nodes", 2048);
    s.config("pairs", 128);
    s.config("bytes", TRACE_BYTES);
    sim_config_entries(&mut s, &opts.sim);
    let art = coupling_profile(cache, &opts.sim, 2048, 128, TRACE_BYTES);
    pair_metrics(&mut s, &art);
    s.attach_profile(&art, opts.top_blame);
    s
}

/// fig7: the 512-node corner pair (the proxy-count sweep's partition).
pub fn fig7_scenario(cache: &PlanCache, opts: &LedgerOptions) -> ScenarioManifest {
    let mut s = ScenarioManifest::new("fig7");
    s.config("nodes", 512);
    s.config("bytes", TRACE_BYTES);
    s.config("proxies", 4);
    sim_config_entries(&mut s, &opts.sim);
    let art = pair_profile(cache, &opts.sim, 512, TRACE_BYTES);
    pair_metrics(&mut s, &art);
    s.attach_profile(&art, opts.top_blame);
    s
}

/// io: the 2048-core sparse collective write (nodes → aggregators →
/// bridges → IONs), uniform 1 MB ranks.
pub fn io_scenario(cache: &PlanCache, opts: &LedgerOptions) -> ScenarioManifest {
    const CORES: u32 = 2048;
    let mut s = ScenarioManifest::new("io");
    s.config("cores", CORES);
    s.config("nodes", CORES / CORES_PER_NODE);
    s.config("rank_bytes", 1u64 << 20);
    sim_config_entries(&mut s, &opts.sim);
    let art = io_profile(cache, &opts.sim, CORES);
    s.metric("sparse_write.throughput", run_throughput(&art, "sparse_write"));
    s.attach_profile(&art, opts.top_blame);
    s
}

/// resilience: the fig5 pair under the direct-route cut, plus an
/// observed multipath run so the engine's stall/resume/fault counters
/// land in the ledger (via [`SimObserver::scalars`]).
pub fn resilience_scenario(cache: &PlanCache, opts: &LedgerOptions) -> ScenarioManifest {
    let mut s = ScenarioManifest::new("resilience");
    s.config("nodes", 128);
    s.config("bytes", TRACE_BYTES);
    s.config("scenario", "direct_cut");
    sim_config_entries(&mut s, &opts.sim);
    let art = resilience_profile(cache, &opts.sim, TRACE_BYTES);
    s.attach_profile(&art, opts.top_blame);

    // Observed replay of the multipath side: the profile shows *where*
    // the direct run's stall went; the observer counts *how many* flows
    // the fault epoch froze and thawed.
    let machine = cache.machine(standard_shape(128).unwrap(), &opts.sim);
    let (src, dst) = (NodeId(0), NodeId(127));
    let mut pd = Program::new(&machine);
    let hd = plan_direct(&mut pd, src, dst, TRACE_BYTES);
    let t0 = hd.completed_at(&pd.run());
    let plan = fault_plan_for(&machine, &Scenario::DirectCut, t0);
    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let proxies = cache
        .proxies(machine.shape(), Zone::Z2, src, dst, &HashSet::new(), &cfg)
        .proxies();
    let mut pm = Program::new(&machine);
    plan_via_proxies(&mut pm, src, dst, TRACE_BYTES, &proxies, &MultipathOptions::default());
    let mut obs = SimObserver::new();
    let rep = pm.run_observed(&plan, &mut obs);
    s.metric("multipath.makespan", rep.end_time);
    for (name, v) in obs.scalars("sim.") {
        s.metric(&name, v);
    }
    s
}

/// scale: the 512-node cold-vs-cascade waterfill comparison — makespan
/// and event/solve counts.
pub fn scale_scenario(opts: &LedgerOptions) -> ScenarioManifest {
    let mut s = ScenarioManifest::new("scale");
    s.config("nodes", 512);
    sim_config_entries(&mut s, &opts.sim);
    let p = scale_point(512, &opts.sim);
    s.metric("transfers", p.transfers as f64);
    s.metric("shards", p.shards as f64);
    s.metric("makespan", p.full.makespan);
    s.metric("events", p.full.events as f64);
    s.metric("full_mode.full_runs", p.full.full_runs as f64);
    s.metric("incremental_mode.full_runs", p.incremental.full_runs as f64);
    s.metric(
        "incremental_mode.incremental_runs",
        p.incremental.incremental_runs as f64,
    );
    s.metric("full_run_reduction", p.full_run_reduction());
    s
}

/// exchange: the 512-node disjoint-heavy neighborhood exchange under
/// all three algorithms — the sweep cell pinned as
/// `tests/golden/exchange.csv` — plus the per-algorithm profile.
pub fn exchange_scenario(cache: &PlanCache, opts: &LedgerOptions) -> ScenarioManifest {
    let mut s = ScenarioManifest::new("exchange");
    let pattern = ExchangePattern::DisjointHeavy { bytes: TRACE_BYTES };
    s.config("nodes", 512);
    s.config("pattern", "disjoint_heavy");
    s.config("bytes", TRACE_BYTES);
    s.config("seed", crate::exchange::EXCHANGE_SEED);
    sim_config_entries(&mut s, &opts.sim);

    let point = exchange_point(cache, &opts.sim, 512, pattern);
    s.metric("pairs", point.pairs as f64);
    for r in &point.results {
        let name = r.algorithm.name();
        s.metric(&format!("{name}.throughput"), r.throughput);
        s.metric(&format!("{name}.makespan"), r.makespan);
        s.metric(&format!("{name}.discovery_cost"), r.discovery_cost);
    }
    s.metric("speedup", point.speedup());
    let mp = point.result(ExchangeAlgorithm::ProxyMultipath);
    s.metric("multipath.links_claimed", mp.links_claimed as f64);
    s.metric(
        "multipath.win_ratio",
        mp.pairs_multipath as f64 / (point.pairs.max(1)) as f64,
    );

    let art = exchange_profile(cache, &opts.sim, TRACE_BYTES);
    s.attach_profile(&art, opts.top_blame);
    s
}

/// Run every ledger scenario and assemble the manifest. This is what
/// the `sentinel` binary executes; scenario order in the output is
/// alphabetical regardless of execution order.
pub fn run_ledger(cache: &PlanCache, opts: &LedgerOptions) -> RunManifest {
    let mut m = RunManifest::default();
    m.push(fig5_scenario(cache, opts));
    m.push(fig6_scenario(cache, opts));
    m.push(fig7_scenario(cache, opts));
    m.push(io_scenario(cache, opts));
    m.push(resilience_scenario(cache, opts));
    m.push(scale_scenario(opts));
    m.push(exchange_scenario(cache, opts));
    m.validate().expect("ledger manifest must validate");
    m
}

/// The single-scenario manifest for a figure's `--manifest-out`,
/// or `None` for figures without a simulated execution (mirrors
/// [`crate::profile::profile_for`] scenario-for-scenario).
pub fn manifest_for(figure: &str, cache: &PlanCache) -> Option<RunManifest> {
    let opts = LedgerOptions::default();
    let scenario = match figure {
        "fig5" => fig5_scenario(cache, &opts),
        "fig6" => fig6_scenario(cache, &opts),
        "fig7" => fig7_scenario(cache, &opts),
        "fig10" | "fig11" => io_scenario(cache, &opts),
        "resilience" => resilience_scenario(cache, &opts),
        "exchange" => exchange_scenario(cache, &opts),
        "scale" => scale_scenario(&opts),
        _ => return None,
    };
    let mut m = RunManifest::default();
    m.push(scenario);
    Some(m)
}

/// One `history.jsonl` entry for a manifest (and, when a baseline
/// comparison ran, its verdict totals). Deliberately timestamp-free:
/// the history is keyed on the manifest fingerprint so re-runs of an
/// unchanged tree append nothing new.
pub fn history_line(manifest: &RunManifest, report: Option<&bgq_obs::SentinelReport>) -> String {
    let metrics: usize = manifest.scenarios.iter().map(|s| s.metrics.len()).sum();
    let mut line = format!(
        "{{\"hash\": \"{}\", \"scenarios\": {}, \"metrics\": {metrics}",
        manifest.fingerprint(),
        manifest.scenarios.len()
    );
    if let Some(rep) = report {
        let (r, i, n) = rep.totals();
        line.push_str(&format!(
            ", \"regressed\": {r}, \"improved\": {i}, \"neutral\": {n}"
        ));
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_obs::sentinel;

    #[test]
    fn fig5_scenario_is_deterministic_and_self_neutral() {
        let cache = PlanCache::new();
        let opts = LedgerOptions::default();
        let a = fig5_scenario(&cache, &opts);
        let b = fig5_scenario(&cache, &opts);
        assert_eq!(a, b, "same inputs, same scenario");
        a.validate().unwrap();
        assert!(a.metric_value("speedup").unwrap() > 1.0, "multipath wins");
        assert!(a.metric_value("direct.throughput").unwrap() > 0.0);
        assert_eq!(a.metric_value("profile.direct.undelivered"), Some(0.0));

        let mut m = RunManifest::default();
        m.push(a);
        let rep = sentinel::diff(&m, &m);
        assert!(!rep.has_regressions());
        let js = m.to_json();
        assert_eq!(RunManifest::from_json(&js).unwrap().to_json(), js);
    }

    #[test]
    fn scale_scenario_records_simulated_quantities() {
        let opts = LedgerOptions::default();
        let s = scale_scenario(&opts);
        assert!(s.metric_value("makespan").unwrap() > 0.0);
        assert!(s.metric_value("full_run_reduction").unwrap() >= 1.0);
        s.validate().unwrap();
    }

    #[test]
    fn exchange_scenario_records_the_win_ratio() {
        let cache = PlanCache::new();
        let s = exchange_scenario(&cache, &LedgerOptions::default());
        assert_eq!(s.metric_value("pairs"), Some(8.0));
        assert!(s.metric_value("speedup").unwrap() >= 1.5, "the paper's bar");
        let win = s.metric_value("multipath.win_ratio").unwrap();
        assert!((0.0..=1.0).contains(&win));
        assert!(s.metric_value("proxy_multipath.throughput").unwrap() > 0.0);
        assert!(!s.blame.is_empty(), "profiled runs contribute blame");
    }

    #[test]
    fn degraded_links_regress_with_link_attribution() {
        // The acceptance-criteria path: halve the link capacity and the
        // sentinel must flag REGRESSED verdicts whose attribution names
        // at least one blamed link.
        let cache = PlanCache::new();
        let base_opts = LedgerOptions::default();
        let mut bad_opts = LedgerOptions::default();
        bad_opts.sim.link_bandwidth *= 0.5;
        bad_opts.sim.io_link_bandwidth *= 0.5;

        let mut base = RunManifest::default();
        base.push(fig5_scenario(&cache, &base_opts));
        let mut cur = RunManifest::default();
        cur.push(fig5_scenario(&cache, &bad_opts));

        let rep = sentinel::diff(&cur, &base);
        assert!(rep.has_regressions(), "halved links must regress");
        let s = &rep.scenarios[0];
        assert!(
            !s.config_drift.is_empty(),
            "degraded sim constants show as config drift"
        );
        assert!(
            s.attribution.iter().any(|l| l.contains("link ")),
            "attribution names a link: {:?}",
            s.attribution
        );
    }

    #[test]
    fn manifest_for_mirrors_the_figure_map() {
        let cache = PlanCache::new();
        assert!(manifest_for("fig8_9", &cache).is_none());
        assert!(manifest_for("nonsense", &cache).is_none());
        let m = manifest_for("scale", &cache).unwrap();
        assert!(m.scenario("scale").is_some());
    }

    #[test]
    fn history_line_is_valid_json_and_hash_keyed() {
        let mut m = RunManifest::default();
        m.push(bgq_obs::ScenarioManifest::new("x"));
        let line = history_line(&m, None);
        bgq_obs::json::validate(&line).unwrap();
        assert!(line.contains(&m.fingerprint()));
        let rep = sentinel::diff(&m, &m);
        let line2 = history_line(&m, Some(&rep));
        bgq_obs::json::validate(&line2).unwrap();
        assert!(line2.contains("\"regressed\": 0"));
    }
}
