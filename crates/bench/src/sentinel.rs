//! The bench side of the run-ledger: each representative execution
//! (see [`crate::representative`]) folded into a
//! [`bgq_obs::ScenarioManifest`], plus the ledger-only `scale`
//! scenario, assembled into a [`bgq_obs::RunManifest`].
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
//! The ledger runs every scenario on [`LedgerOptions::sim`]: the
//! sentinel binary's `--degrade-links` regression-injection knob
//! replays the same scenarios on a weakened machine, which is how the
//! acceptance path ("halve a link capacity, watch a REGRESSED verdict
//! name the link") is exercised end to end.

use crate::exchange::{exchange_point, ExchangePattern};
use crate::representative::{Execution, Run, REPRESENTATIVES, TRACE_BYTES};
use crate::runner::PlanCache;
use crate::scale::scale_point;
use bgq_netsim::SimConfig;
use bgq_obs::{RunManifest, ScenarioManifest};
use sdm_core::ExchangeAlgorithm;

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

/// Aggregate throughput of a run: payload bytes over the run's end
/// time (`0` if the run never finishes — `undelivered` metrics carry
/// that story).
fn run_throughput(run: &Run) -> f64 {
    let bytes: u64 = run.graph.specs().iter().map(|t| t.bytes).sum();
    let end = run.report.end_time;
    if end.is_finite() && end > 0.0 {
        bytes as f64 / end
    } else {
        0.0
    }
}

/// Direct vs multipath: each run's throughput, and the speedup (direct
/// end time over multipath end time, the paper's headline ratio).
pub(crate) fn pair_metrics(ex: &Execution, _: &PlanCache, s: &mut ScenarioManifest) {
    for run in &ex.runs {
        s.metric(&format!("{}.throughput", run.name), run_throughput(run));
    }
    if let (Some(d), Some(m)) = (ex.run("direct"), ex.run("multipath")) {
        let (d, m) = (d.report.end_time, m.report.end_time);
        if d.is_finite() && m.is_finite() && m > 0.0 {
            s.metric("speedup", d / m);
        }
    }
}

/// The sparse write's throughput.
pub(crate) fn write_metrics(ex: &Execution, _: &PlanCache, s: &mut ScenarioManifest) {
    let run = ex.run("sparse_write").expect("the write run");
    s.metric("sparse_write.throughput", run_throughput(run));
}

/// The multipath run under the cut: its makespan and the engine's
/// stall/resume/fault counters ([`bgq_netsim::SimObserver::scalars`]).
/// The profile shows *where* the direct run's stall went; the observer
/// counts *how many* flows the fault epoch froze and thawed.
pub(crate) fn cut_metrics(ex: &Execution, _: &PlanCache, s: &mut ScenarioManifest) {
    let run = ex.run("multipath").expect("the multipath run");
    s.metric("multipath.makespan", run.report.end_time);
    for (name, v) in run.obs.scalars("sim.") {
        s.metric(&name, v);
    }
}

/// The exchange sweep cell of the same map (pinned as
/// `tests/golden/exchange.csv`): per-algorithm throughput, makespan and
/// discovery cost, the speedup and the multipath win ratio.
pub(crate) fn exchange_metrics(ex: &Execution, cache: &PlanCache, s: &mut ScenarioManifest) {
    let pattern = ExchangePattern::DisjointHeavy { bytes: TRACE_BYTES };
    let point = exchange_point(cache, ex.machine.config(), ex.machine.num_nodes(), pattern);
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
}

/// The ledger scenario of a representative execution: its config
/// fingerprint, its metrics and the blame rollup of its profile, keeping
/// the `top_blame` most-blamed links of each run.
pub fn scenario_manifest(ex: &Execution, cache: &PlanCache, top_blame: usize) -> ScenarioManifest {
    let mut s = ScenarioManifest::new(ex.scenario.name);
    for (key, value) in &ex.config {
        s.config(key, value);
    }
    sim_config_entries(&mut s, ex.machine.config());
    (ex.scenario.metrics)(ex, cache, &mut s);
    s.attach_profile(&ex.profile(), top_blame);
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

/// Run every ledger scenario and assemble the manifest. This is what
/// the `sentinel` binary executes; scenario order in the output is
/// alphabetical regardless of execution order.
pub fn run_ledger(cache: &PlanCache, opts: &LedgerOptions) -> RunManifest {
    let mut m = RunManifest::default();
    for rep in REPRESENTATIVES {
        let ex = rep.execute(cache, &opts.sim);
        m.push(scenario_manifest(&ex, cache, opts.top_blame));
    }
    m.push(scale_scenario(opts));
    m.validate().expect("ledger manifest must validate");
    m
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

    /// The ledger scenario called `name`, executed on `opts.sim`.
    fn scenario(name: &str, cache: &PlanCache, opts: &LedgerOptions) -> ScenarioManifest {
        let rep = REPRESENTATIVES.iter().find(|r| r.name == name).unwrap();
        scenario_manifest(&rep.execute(cache, &opts.sim), cache, opts.top_blame)
    }

    #[test]
    fn fig5_scenario_is_deterministic_and_self_neutral() {
        let cache = PlanCache::new();
        let opts = LedgerOptions::default();
        let a = scenario("fig5", &cache, &opts);
        let b = scenario("fig5", &cache, &opts);
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
        let s = scenario("exchange", &cache, &LedgerOptions::default());
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
        base.push(scenario("fig5", &cache, &base_opts));
        let mut cur = RunManifest::default();
        cur.push(scenario("fig5", &cache, &bad_opts));

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
    fn resilience_counts_the_cut_on_its_one_multipath_run() {
        let cache = PlanCache::new();
        let s = scenario("resilience", &cache, &LedgerOptions::default());
        assert_eq!(
            s.metric_value("sim.fault_events"),
            Some(1.0),
            "the cut fired"
        );
        assert_eq!(
            s.metric_value("sim.stalls"),
            Some(0.0),
            "multipath avoids it"
        );
        assert_eq!(
            s.metric_value("multipath.makespan"),
            s.metric_value("profile.multipath.end_time"),
            "counters and profile read the same execution"
        );
        assert_eq!(s.metric_value("profile.direct.undelivered"), Some(1.0));
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
