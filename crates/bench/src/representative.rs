//! The registry of representative scenarios: one run of the paper's
//! scenario per simulated figure, the execution every side artifact of
//! that figure explains.
//!
//! Each [`Representative`] builds a machine on a given [`SimConfig`]
//! and its named runs (`direct`/`multipath`, `sparse_write`, or one per
//! exchange algorithm), each a program plus the fault plan it runs
//! under. [`Representative::execute`] runs every one of them once, with
//! an observer attached and profiling on, and the artifacts are views
//! of that one [`Execution`]:
//!
//! * the Chrome trace ([`Execution::trace`], `--trace-out`);
//! * the bottleneck-attribution profile ([`Execution::profile`],
//!   `--profile-out`, the `profile` binary);
//! * the run-ledger scenario ([`crate::sentinel::scenario_manifest`],
//!   `--manifest-out`, the `sentinel` binary).
//!
//! [`REPRESENTATIVES`] is the only map from figure names to scenarios.
//! The ledger's `scale` scenario is not here: it has no representative
//! program.

use crate::exchange::{ExchangePattern, EXCHANGE_SEED};
use crate::obs::record_run;
use crate::profile::run_profile;
use crate::resilience::{fault_plan_for, Scenario};
use crate::runner::PlanCache;
use crate::sentinel;
use bgq_comm::{Machine, Program};
use bgq_netsim::{FaultPlan, SimConfig, SimObserver, SimOptions, SimReport, TransferGraph};
use bgq_obs::{ProfileArtifact, Recorder, ScenarioManifest};
use bgq_torus::{shape_for_cores, standard_shape, NodeId, RankMap, Zone, CORES_PER_NODE};
use sdm_core::{
    plan_direct, plan_group_direct, plan_via_proxies, ExchangeAlgorithm, IoMoveOptions,
    MultipathOptions, NeighborhoodExchange, ProxySearchConfig,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Message size of the representative runs: large enough that
/// multipath beats direct on the fig5 pair, small enough that a trace
/// stays a few kilobytes.
pub const TRACE_BYTES: u64 = 32 << 20;

/// A representative scenario of the registry.
#[derive(Debug)]
pub struct Representative {
    /// Its run-ledger scenario name.
    pub name: &'static str,
    /// The figures it represents (operands of `reproduce` and `profile`).
    pub figures: &'static [&'static str],
    /// Its machine on a simulator config, its config fingerprint and
    /// its named runs.
    build: fn(&PlanCache, &SimConfig) -> Setup,
    /// The scalar metrics the ledger records for it.
    pub(crate) metrics: fn(&Execution, &PlanCache, &mut ScenarioManifest),
}

/// Every representative scenario, in ledger order.
pub static REPRESENTATIVES: &[Representative] = &[
    Representative {
        name: "fig5",
        figures: &["fig5"],
        build: |cache, sim| corner_pair(cache, sim, 128),
        metrics: sentinel::pair_metrics,
    },
    Representative {
        name: "fig6",
        figures: &["fig6"],
        build: fan_in_coupling,
        metrics: sentinel::pair_metrics,
    },
    Representative {
        name: "fig7",
        figures: &["fig7"],
        build: |cache, sim| corner_pair(cache, sim, 512),
        metrics: sentinel::pair_metrics,
    },
    Representative {
        name: "io",
        figures: &["fig10", "fig11"],
        build: sparse_write,
        metrics: sentinel::write_metrics,
    },
    Representative {
        name: "resilience",
        figures: &["resilience"],
        build: direct_cut,
        metrics: sentinel::cut_metrics,
    },
    Representative {
        name: "exchange",
        figures: &["exchange"],
        build: exchange,
        metrics: sentinel::exchange_metrics,
    },
];

/// A built scenario before it runs.
struct Setup {
    machine: Arc<Machine>,
    config: Vec<(&'static str, String)>,
    runs: Vec<(&'static str, TransferGraph, FaultPlan)>,
}

/// One named run, executed once with an observer attached and
/// profiling on.
#[derive(Debug)]
pub struct Run {
    pub name: &'static str,
    pub graph: TransferGraph,
    pub faults: FaultPlan,
    /// Carries [`SimReport::profile`]; every other field is
    /// bit-identical to an unobserved, unprofiled run.
    pub report: SimReport,
    pub obs: SimObserver,
}

/// A representative scenario after its one execution.
#[derive(Debug)]
pub struct Execution {
    pub(crate) scenario: &'static Representative,
    pub machine: Arc<Machine>,
    /// Its config fingerprint entries (topology, sizes, seeds) for the
    /// ledger; the simulator constants come from the machine.
    pub(crate) config: Vec<(&'static str, String)>,
    pub runs: Vec<Run>,
}

impl Representative {
    /// The scenario representing `figure`, or `None` for figures
    /// without a simulated execution.
    pub fn of(figure: &str) -> Option<&'static Representative> {
        REPRESENTATIVES.iter().find(|r| r.figures.contains(&figure))
    }

    /// Every figure with a representative scenario, for messages.
    pub fn figure_names() -> Vec<&'static str> {
        REPRESENTATIVES
            .iter()
            .flat_map(|r| r.figures)
            .copied()
            .collect()
    }

    /// Build the scenario on `sim` and execute each run once.
    pub fn execute(&'static self, cache: &PlanCache, sim: &SimConfig) -> Execution {
        let Setup {
            machine,
            config,
            runs,
        } = (self.build)(cache, sim);
        let simulator = machine.simulator();
        let runs = runs
            .into_iter()
            .map(|(name, graph, faults)| {
                let mut obs = SimObserver::new();
                let opts = SimOptions::new()
                    .faults(&faults)
                    .observer(&mut obs)
                    .profiled();
                let report = simulator.simulate(&graph, opts);
                Run {
                    name,
                    graph,
                    faults,
                    report,
                    obs,
                }
            })
            .collect();
        Execution {
            scenario: self,
            machine,
            config,
            runs,
        }
    }
}

impl Execution {
    /// The run called `name`.
    pub fn run(&self, name: &str) -> Option<&Run> {
        self.runs.iter().find(|r| r.name == name)
    }

    /// The Chrome trace: every run on one timeline, its tracks under
    /// `<run>/` when the scenario has more than one run.
    pub fn trace(&self) -> Recorder {
        let all = Recorder::new();
        if let [run] = self.runs.as_slice() {
            record_run(&all, &self.machine, run);
            return all;
        }
        for run in &self.runs {
            let rec = Recorder::new();
            record_run(&rec, &self.machine, run);
            all.merge_prefixed(&rec, &format!("{}/", run.name));
        }
        all
    }

    /// The bottleneck-attribution profile, one entry per run.
    pub fn profile(&self) -> ProfileArtifact {
        ProfileArtifact {
            runs: self
                .runs
                .iter()
                .map(|run| run_profile(&self.machine, run))
                .collect(),
        }
    }
}

/// Plan `src → dst` over up to four link-disjoint proxies, or direct
/// when the search finds none.
fn plan_multipath(prog: &mut Program<'_>, cache: &PlanCache, src: NodeId, dst: NodeId) {
    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let shape = prog.machine().shape();
    let proxies = cache
        .proxies(shape, Zone::Z2, src, dst, &HashSet::new(), &cfg)
        .proxies();
    if proxies.is_empty() {
        plan_direct(prog, src, dst, TRACE_BYTES);
    } else {
        let opts = MultipathOptions::default();
        plan_via_proxies(prog, src, dst, TRACE_BYTES, &proxies, &opts);
    }
}

/// The direct and multipath programs of one pair.
fn pair_graphs(
    cache: &PlanCache,
    machine: &Machine,
    src: NodeId,
    dst: NodeId,
) -> (TransferGraph, TransferGraph) {
    let mut pd = Program::new(machine);
    plan_direct(&mut pd, src, dst, TRACE_BYTES);
    let mut pm = Program::new(machine);
    plan_multipath(&mut pm, cache, src, dst);
    (pd.into_graph(), pm.into_graph())
}

/// fig5/fig7: the corner pair of an `nodes`-node partition, direct vs
/// 4-proxy multipath. A lone pair has no link contention: both runs
/// are bound by the per-flow protocol cap, which is why multipath wins.
fn corner_pair(cache: &PlanCache, sim: &SimConfig, nodes: u32) -> Setup {
    let machine = cache.machine(standard_shape(nodes).expect("standard partition"), sim);
    let (src, dst) = (NodeId(0), NodeId(machine.num_nodes() - 1));
    let (direct, multi) = pair_graphs(cache, &machine, src, dst);
    Setup {
        config: vec![
            ("nodes", nodes.to_string()),
            ("bytes", TRACE_BYTES.to_string()),
            ("proxies", 4.to_string()),
        ],
        runs: vec![
            ("direct", direct, FaultPlan::new()),
            ("multipath", multi, FaultPlan::new()),
        ],
        machine,
    }
}

/// Partition size of the fig6 coupling.
const FIG6_NODES: u32 = 2048;
/// Conflicting pairs of the fig6 coupling.
const FIG6_PAIRS: u32 = 128;

/// fig6: the first [`FIG6_PAIRS`] nodes couple to the opposed slab of
/// the [`FIG6_NODES`]-node partition under a **4:1 fan-in**: source `i`
/// sends to slab node `i mod (pairs/4)`, so every destination's ingress
/// links carry four flows and the dimension-ordered routes converge on
/// shared corridor links.
///
/// The figure's own sweep uses the aligned one-to-one pairing, which is
/// collision-free by construction: its direct run is bound by the
/// per-flow cap, and a profile of it blames `cap`, not links. The
/// fan-in is the same coupling with a conflicting sparse pattern (the
/// paper's aggregation shape): the `direct` run names the converging
/// corridor links, and the per-pair 4-proxy `multipath` run shows the
/// same seconds spread across the proxy-path links.
fn fan_in_coupling(cache: &PlanCache, sim: &SimConfig) -> Setup {
    let machine = cache.machine(standard_shape(FIG6_NODES).expect("standard partition"), sim);
    let base = 3 * machine.shape().num_nodes() / 4;
    let sources: Vec<NodeId> = (0..FIG6_PAIRS).map(NodeId).collect();
    let dests: Vec<NodeId> = (0..FIG6_PAIRS)
        .map(|i| NodeId(base + i % (FIG6_PAIRS / 4)))
        .collect();

    let mut pd = Program::new(&machine);
    plan_group_direct(&mut pd, &sources, &dests, TRACE_BYTES);
    let mut pm = Program::new(&machine);
    for (&s, &d) in sources.iter().zip(&dests) {
        plan_multipath(&mut pm, cache, s, d);
    }
    let runs = vec![
        ("direct", pd.into_graph(), FaultPlan::new()),
        ("multipath", pm.into_graph(), FaultPlan::new()),
    ];
    Setup {
        config: vec![
            ("nodes", FIG6_NODES.to_string()),
            ("pairs", FIG6_PAIRS.to_string()),
            ("bytes", TRACE_BYTES.to_string()),
        ],
        runs,
        machine,
    }
}

/// fig10/fig11: the 2,048-core sparse collective write (nodes →
/// aggregators → bridges → IONs), uniform 1 MB ranks.
fn sparse_write(cache: &PlanCache, sim: &SimConfig) -> Setup {
    const CORES: u32 = 2048;
    const RANK_BYTES: u64 = 1 << 20;
    let shape = shape_for_cores(CORES).expect("standard partition");
    let machine = cache.machine(shape, sim);
    let map = RankMap::default_map(shape, CORES_PER_NODE);
    let data = bgq_workloads::coalesce_to_nodes(&map, &[RANK_BYTES; CORES as usize]);
    let total: u64 = data.iter().map(|&(_, b)| b).sum();
    let opts = IoMoveOptions {
        max_chunk: crate::io::sim_chunk_bytes(total, shape.num_nodes()),
        ..Default::default()
    };
    let mut prog = Program::new(&machine);
    cache
        .mover(&machine)
        .plan_sparse_write(&mut prog, &data, &opts);
    let runs = vec![("sparse_write", prog.into_graph(), FaultPlan::new())];
    Setup {
        config: vec![
            ("cores", CORES.to_string()),
            ("nodes", (CORES / CORES_PER_NODE).to_string()),
            ("rank_bytes", RANK_BYTES.to_string()),
        ],
        runs,
        machine,
    }
}

/// resilience: the fig5 pair under the direct-route cut, timed at half
/// the fault-free direct completion. The `direct` run stalls and never
/// delivers; the `multipath` run routes over link-disjoint proxies and
/// delivers.
fn direct_cut(cache: &PlanCache, sim: &SimConfig) -> Setup {
    let machine = cache.machine(standard_shape(128).expect("standard partition"), sim);
    let (direct, multi) = pair_graphs(cache, &machine, NodeId(0), NodeId(127));
    // The direct program is its one put.
    let t0 = machine
        .simulator()
        .simulate(&direct, SimOptions::new())
        .delivery_time[0];
    let plan = fault_plan_for(&machine, &Scenario::DirectCut, t0);
    Setup {
        config: vec![
            ("nodes", 128.to_string()),
            ("bytes", TRACE_BYTES.to_string()),
            ("scenario", "direct_cut".to_string()),
        ],
        runs: vec![("direct", direct, plan.clone()), ("multipath", multi, plan)],
        machine,
    }
}

/// exchange: the 512-node disjoint-heavy neighborhood exchange, one run
/// per [`ExchangeAlgorithm`] over the same send map.
fn exchange(cache: &PlanCache, sim: &SimConfig) -> Setup {
    const NODES: u32 = 512;
    let machine = cache.machine(standard_shape(NODES).expect("standard partition"), sim);
    let map = ExchangePattern::DisjointHeavy { bytes: TRACE_BYTES }.build(NODES, EXCHANGE_SEED);
    let runs = ExchangeAlgorithm::ALL
        .into_iter()
        .map(|alg| {
            let mut prog = Program::new(&machine);
            NeighborhoodExchange::with_mover(cache.mover(&machine)).plan(&mut prog, &map, alg);
            (alg.name(), prog.into_graph(), FaultPlan::new())
        })
        .collect();
    Setup {
        config: vec![
            ("nodes", NODES.to_string()),
            ("pattern", "disjoint_heavy".to_string()),
            ("bytes", TRACE_BYTES.to_string()),
            ("seed", EXCHANGE_SEED.to_string()),
        ],
        runs,
        machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_obs::json::{self, Value};

    fn execute(figure: &str) -> Execution {
        Representative::of(figure)
            .unwrap()
            .execute(&PlanCache::new(), &SimConfig::default())
    }

    /// Microseconds as the trace writes them (three decimals).
    fn us(seconds: f64) -> f64 {
        format!("{:.3}", seconds * 1e6).parse().unwrap()
    }

    /// `(transfer id, start, duration)` of every span on a `<run>/`
    /// track of a Chrome trace, sorted.
    fn trace_spans(trace: &str, run: &str) -> Vec<(u32, f64, f64)> {
        let doc = json::parse(trace).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let field = |e: &Value, k: &str| e.get(k).cloned().unwrap();
        let tracks: Vec<(f64, String)> = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("M"))
            .map(|e| {
                let name = field(e, "args")
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string();
                (field(e, "tid").as_f64().unwrap(), name)
            })
            .collect();
        let on_run = |tid: f64| {
            tracks
                .iter()
                .any(|(t, name)| *t == tid && name.starts_with(&format!("{run}/")))
        };
        let mut spans: Vec<(u32, f64, f64)> = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("X"))
            .filter(|e| on_run(field(e, "tid").as_f64().unwrap()))
            .map(|e| {
                let name = field(e, "name").as_str().unwrap().to_string();
                let id = name[1..].split(' ').next().unwrap().parse().unwrap();
                let at = |k| field(e, k).as_f64().unwrap();
                (id, at("ts"), at("dur"))
            })
            .collect();
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        spans
    }

    #[test]
    fn figure_names_map_to_one_scenario_each() {
        let figures = Representative::figure_names();
        for (i, f) in figures.iter().enumerate() {
            assert!(!figures[i + 1..].contains(f), "{f} is mapped twice");
        }
        for (i, r) in REPRESENTATIVES.iter().enumerate() {
            assert!(REPRESENTATIVES[i + 1..].iter().all(|o| o.name != r.name));
        }
        assert_eq!(Representative::of("fig11").unwrap().name, "io");
        assert!(Representative::of("fig8_9").is_none());
        assert!(Representative::of("scale").is_none(), "ledger-only");
    }

    #[test]
    fn trace_spans_are_the_profiled_transfers() {
        // The trace and the profile are views of one execution: under
        // each `<run>/` prefix the spans are exactly that run's profiled
        // transfers, same count, same start and end times.
        for figure in ["fig5", "fig6", "resilience"] {
            let ex = execute(figure);
            let trace = ex.trace().to_chrome_json();
            for run in &ex.profile().runs {
                let expected: Vec<(u32, f64, f64)> = run
                    .transfers
                    .iter()
                    .map(|t| (t.id, us(t.start), us((t.end - t.start).max(0.0))))
                    .collect();
                let spans = trace_spans(&trace, &run.name);
                assert_eq!(spans.len(), run.transfers.len(), "{figure} {}", run.name);
                assert_eq!(spans, expected, "{figure} {}", run.name);
            }
        }
    }

    #[test]
    fn observing_and_profiling_leave_the_reports_untouched() {
        for figure in ["fig5", "resilience"] {
            let ex = execute(figure);
            let simulator = ex.machine.simulator();
            for run in &ex.runs {
                let plain = simulator.simulate(&run.graph, SimOptions::new().faults(&run.faults));
                let mut report = run.report.clone();
                assert!(report.profile.take().is_some());
                assert_eq!(report, plain, "{figure} {}", run.name);
            }
        }
    }

    #[test]
    fn fig5_shows_the_protocol_cap_on_both_strategies() {
        // A lone pair has no link contention anywhere: direct and every
        // proxy chunk are bound by the per-flow protocol cap (1.6 < 1.8
        // GB/s), which is exactly why multipath helps. The profiler must
        // say so rather than invent link blame.
        let ex = execute("fig5");
        let json = ex.trace().to_chrome_json();
        json::validate(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("direct/axis"), "direct timeline present");
        assert!(
            json.contains("multipath/axis"),
            "multipath timeline present"
        );
        assert!(json.contains("bytes_in_flight"), "heatmap counters present");

        let art = ex.profile();
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

        let bindings = crate::profile::binding_trace(&art).to_chrome_json();
        json::validate(&bindings).unwrap();
        assert!(bindings.contains("/bindings"), "binding tracks present");
        assert!(bindings.contains("t0 <-- "), "spans name the binding link");
    }

    #[test]
    fn fig6_fan_in_names_bottleneck_links() {
        // Conflicting pairs collide on shared dimension lines, and the
        // profiler names them; multipath spreads the blame across the
        // proxy-path links.
        let art = execute("fig6").profile();
        art.validate().expect("profile accounting must balance");
        let direct = art.run("direct").unwrap();
        assert_eq!(direct.transfers.len(), FIG6_PAIRS as usize);
        let top = direct.top_bottlenecks(3);
        assert!(!top.is_empty(), "conflicting routes must blame links");
        assert!(top[0].0.contains(':'), "blame names a torus link: {top:?}");
        let multi = art.run("multipath").unwrap();
        assert!(
            multi.link_blame().len() >= 3,
            "multipath blame too narrow: {:?}",
            multi.link_blame()
        );
    }

    #[test]
    fn resilience_is_loud_about_the_stall() {
        let ex = execute("resilience");
        let json = ex.trace().to_chrome_json();
        json::validate(&json).unwrap();
        assert!(json.contains("stall t"), "direct stall instant recorded");
        assert!(json.contains("(undelivered)"), "cut route never delivers");

        let art = ex.profile();
        art.validate().unwrap();
        let direct = art.run("direct").unwrap();
        assert!(
            direct
                .transfers
                .iter()
                .any(|t| !t.delivered && t.stalled > 0.0),
            "cut route must show fault-stalled time"
        );
        let multi = art.run("multipath").unwrap();
        assert!(multi.transfers.iter().all(|t| t.delivered));
    }

    #[test]
    fn exchange_blames_each_algorithm_separately() {
        // One run per exchange algorithm over the same disjoint-heavy
        // map, so the per-algorithm link blame is directly comparable.
        let art = execute("exchange").profile();
        art.validate().expect("profile accounting must balance");
        let direct = art.run("direct").unwrap();
        let consensus = art.run("consensus").unwrap();
        let multi = art.run("proxy_multipath").unwrap();

        // Antipodal puts collide pairwise on the A-dimension wrap links
        // (rank i and i+256 route through the same torus line), so the
        // direct run's blame concentrates on a handful of named links.
        assert_eq!(direct.transfers.len(), 8);
        let blame = direct.link_blame();
        assert!(
            !blame.is_empty() && blame.len() < direct.transfers.len(),
            "blame should concentrate on shared links: {blame:?}"
        );
        assert!(
            blame[0].0.contains(':'),
            "blame names torus links: {blame:?}"
        );
        for t in &direct.transfers {
            assert!(
                t.network_limited() > 0.9 * t.elapsed(),
                "direct puts are network-bound: {t:?}"
            );
        }
        // Consensus adds one discovery gate per participant on top of
        // the same payload puts.
        assert!(consensus.transfers.len() > direct.transfers.len());
        // Multipath splits pairs into two-leg chunk chains.
        assert!(multi.transfers.len() > 2 * direct.transfers.len());
        assert!(!multi.critical_path().is_empty());
    }

    #[test]
    fn executions_serialize_to_the_same_bytes() {
        let cache = PlanCache::new();
        let fig5 = Representative::of("fig5").unwrap();
        let (a, b) = (
            fig5.execute(&cache, &SimConfig::default()),
            fig5.execute(&cache, &SimConfig::default()),
        );
        assert_eq!(a.trace().to_chrome_json(), b.trace().to_chrome_json());
        let js = a.profile().to_json();
        assert_eq!(js, b.profile().to_json());
        assert_eq!(ProfileArtifact::from_json(&js).unwrap().to_json(), js);
    }
}
