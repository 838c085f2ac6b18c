//! Parallel experiment execution with shared planning caches.
//!
//! Every figure harness in this crate is a sweep over independent points
//! (message sizes, core counts, scenarios). This module gives them one
//! shared execution layer:
//!
//! * [`PlanCache`] — memoizes the expensive, *deterministic* planning
//!   artifacts (built [`Machine`]s, precomputed [`AggregatorTable`]s,
//!   proxy selections and proxy groups) so repeated sweep points at the
//!   same partition shape reuse them instead of recomputing;
//! * [`Experiment`] — the uniform shape of a figure harness: a name, a
//!   header, a list of points, and a pure `run_point` that turns one
//!   point into one table [`Row`];
//! * [`ExperimentSession`] — fans the points of an experiment across
//!   worker threads (`std::thread::scope`) while collecting results *by
//!   point index*, so the output is bit-identical to a sequential run
//!   regardless of thread count.
//!
//! Everything an experiment computes is a pure function of its point and
//! the (deterministic) cached plans, which is what makes the parallel
//! fan-out safe: the only shared state is the cache, and a cache hit
//! returns an `Arc` to the exact value a fresh computation would produce.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgq_comm::Machine;
use bgq_netsim::SimConfig;
use bgq_obs::MetricsRegistry;
use bgq_torus::{NodeId, Shape, Zone};
use sdm_core::{
    find_proxies, find_proxy_groups, AggregatorTable, ProxyGroup, ProxySearchConfig,
    ProxySelection, SparseMover,
};

use crate::table::Table;

/// `SimConfig` has `f64` fields, so it cannot be a `HashMap` key directly;
/// the bit patterns can. Distinct NaN payloads would compare unequal, but
/// no configuration in this crate produces NaN parameters.
type ConfigBits = [u64; 11];

fn config_bits(c: &SimConfig) -> ConfigBits {
    [
        c.link_bandwidth.to_bits(),
        c.io_link_bandwidth.to_bits(),
        c.per_flow_cap.to_bits(),
        c.hop_latency.to_bits(),
        c.send_overhead.to_bits(),
        c.recv_overhead.to_bits(),
        c.rma_phase_overhead.to_bits(),
        c.forward_overhead.to_bits(),
        c.contention_penalty.to_bits(),
        c.contention_floor.to_bits(),
        c.collect_link_stats as u64,
    ]
}

fn search_key(cfg: &ProxySearchConfig) -> (usize, usize, u16) {
    (cfg.min_proxies, cfg.max_proxies, cfg.max_offset)
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct MachineKey {
    shape: Shape,
    config: ConfigBits,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct ProxyKey {
    shape: Shape,
    zone: Zone,
    src: NodeId,
    dst: NodeId,
    forbidden: Vec<NodeId>,
    cfg: (usize, usize, u16),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    shape: Shape,
    zone: Zone,
    sources: Vec<NodeId>,
    dests: Vec<NodeId>,
    cfg: (usize, usize, u16),
}

/// Cache hit/miss counters, readable at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoized planning artifacts shared by all points of a session.
///
/// All cached values are deterministic functions of their key, so a hit
/// is indistinguishable from a fresh computation — that invariant is what
/// lets [`ExperimentSession`] share one cache across worker threads while
/// keeping output bit-identical to a sequential run. Values are handed
/// out as `Arc`s; the cache never evicts (sweeps are finite).
#[derive(Default)]
pub struct PlanCache {
    machines: Mutex<HashMap<MachineKey, Arc<Machine>>>,
    tables: Mutex<HashMap<Shape, Option<Arc<AggregatorTable>>>>,
    proxies: Mutex<HashMap<ProxyKey, Arc<ProxySelection>>>,
    groups: Mutex<HashMap<GroupKey, Arc<Vec<ProxyGroup>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Attach a metrics registry: every lookup then also lands in
    /// per-table counters (`cache.machine.hits`, `cache.proxies.misses`,
    /// …), and [`PlanCache::mover`] hands out planners that record their
    /// decisions into the same registry.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> PlanCache {
        self.metrics = Some(metrics);
        self
    }

    /// The attached registry, if observation is on.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Look up `key`, computing with `make` on a miss. The computation
    /// runs outside the lock (points are heavyweight); if two threads
    /// race on the same key, both compute the identical value and the
    /// first insert wins. `kind` names the table in the per-kind metrics.
    ///
    /// Counter determinism: a *miss* is only recorded by the thread whose
    /// insert actually lands; a race loser records the hit its lookup
    /// would have been under any serialized schedule. Misses therefore
    /// equal the number of unique keys and hits equal lookups minus
    /// unique keys — both independent of the thread count, so the
    /// counters are safe to golden-pin.
    fn get_or_insert<K, V, F>(
        &self,
        map: &Mutex<HashMap<K, V>>,
        kind: &'static str,
        key: K,
        make: F,
    ) -> V
    where
        K: std::hash::Hash + Eq,
        V: Clone,
        F: FnOnce() -> V,
    {
        if let Some(v) = map.lock().unwrap().get(&key) {
            self.record(kind, true);
            return v.clone();
        }
        let v = make();
        match map.lock().unwrap().entry(key) {
            Entry::Occupied(e) => {
                self.record(kind, true);
                e.get().clone()
            }
            Entry::Vacant(slot) => {
                self.record(kind, false);
                slot.insert(v).clone()
            }
        }
    }

    fn record(&self, kind: &'static str, hit: bool) {
        let (global, name) = if hit {
            (&self.hits, "hits")
        } else {
            (&self.misses, "misses")
        };
        global.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.counter(&format!("cache.{kind}.{name}")).inc();
        }
    }

    /// A machine for `shape` under `config`, built at most once.
    pub fn machine(&self, shape: Shape, config: &SimConfig) -> Arc<Machine> {
        let key = MachineKey {
            shape,
            config: config_bits(config),
        };
        self.get_or_insert(&self.machines, "machine", key, || {
            Arc::new(Machine::new(shape, config.clone()))
        })
    }

    /// The precomputed aggregator table for `machine`'s shape (Algorithm 2
    /// phase 1). The table depends only on the I/O layout, which is a pure
    /// function of the shape, so it is shared across machines that differ
    /// only in `SimConfig`. `None` when the partition has no I/O layout.
    pub fn aggregator_table(&self, machine: &Machine) -> Option<Arc<AggregatorTable>> {
        let shape = *machine.shape();
        self.get_or_insert(&self.tables, "table", shape, || {
            machine
                .io()
                .map(|io| Arc::new(AggregatorTable::precompute(io)))
        })
    }

    /// A [`SparseMover`] for `machine` that reuses the cached aggregator
    /// table instead of precomputing its own. When the cache carries a
    /// metrics registry, the mover records its decisions into it.
    pub fn mover<'m>(&self, machine: &'m Machine) -> SparseMover<'m> {
        let mover = SparseMover::with_aggregator_table(machine, self.aggregator_table(machine));
        match &self.metrics {
            Some(m) => mover.with_metrics(Arc::clone(m)),
            None => mover,
        }
    }

    /// Memoized [`find_proxies`] (Algorithm 1) for a node pair.
    pub fn proxies(
        &self,
        shape: &Shape,
        zone: Zone,
        src: NodeId,
        dst: NodeId,
        forbidden: &HashSet<NodeId>,
        cfg: &ProxySearchConfig,
    ) -> Arc<ProxySelection> {
        let mut fb: Vec<NodeId> = forbidden.iter().copied().collect();
        fb.sort_unstable_by_key(|n| n.0);
        let key = ProxyKey {
            shape: *shape,
            zone,
            src,
            dst,
            forbidden: fb,
            cfg: search_key(cfg),
        };
        self.get_or_insert(&self.proxies, "proxies", key, || {
            Arc::new(find_proxies(shape, zone, src, dst, forbidden, cfg))
        })
    }

    /// Memoized [`find_proxy_groups`] (Algorithm 1 for coupled groups).
    pub fn proxy_groups(
        &self,
        shape: &Shape,
        zone: Zone,
        sources: &[NodeId],
        dests: &[NodeId],
        cfg: &ProxySearchConfig,
    ) -> Arc<Vec<ProxyGroup>> {
        let key = GroupKey {
            shape: *shape,
            zone,
            sources: sources.to_vec(),
            dests: dests.to_vec(),
            cfg: search_key(cfg),
        };
        self.get_or_insert(&self.groups, "groups", key, || {
            Arc::new(find_proxy_groups(shape, zone, sources, dests, cfg))
        })
    }

    /// Counters accumulated since the cache was created.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// One table row produced by a sweep point: the formatted cells plus the
/// raw metrics behind them, so footers (crossover points, plateaus,
/// speedup summaries) can be computed without re-running the sweep or
/// parsing formatted text back.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub cells: Vec<String>,
    pub metrics: Vec<f64>,
}

impl Row {
    pub fn new(cells: Vec<String>, metrics: Vec<f64>) -> Row {
        Row { cells, metrics }
    }

    /// A row with no numeric sidecar.
    pub fn text(cells: Vec<String>) -> Row {
        Row {
            cells,
            metrics: Vec::new(),
        }
    }
}

/// A figure harness, reduced to its uniform shape: independent points,
/// each mapped to one row of output.
///
/// `run_point` must be a pure function of `(self, cache, point)` — it is
/// called from worker threads in an unspecified order. Results are
/// reassembled by point index, so implementations never need to care
/// about scheduling.
pub trait Experiment: Sync {
    /// The unit of parallel work (a message size, a core count, …).
    type Point: Send + Sync;

    /// Short identifier used in the `--timing` footer.
    fn name(&self) -> &'static str;

    /// Column headers for the output table.
    fn columns(&self) -> Vec<String>;

    /// The sweep, in output order.
    fn points(&self) -> Vec<Self::Point>;

    /// Evaluate one point. Runs on a worker thread.
    fn run_point(&self, cache: &PlanCache, point: &Self::Point) -> Row;

    /// Optional lines printed after the table (crossovers, plateaus…),
    /// computed from the already-collected rows.
    fn footer(&self, rows: &[Row]) -> Option<String> {
        let _ = rows;
        None
    }
}

/// The collected output of [`ExperimentSession::run`].
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// One row per point, in `points()` order.
    pub rows: Vec<Row>,
    /// Wall-clock time spent inside `run_point`, per point.
    pub point_times: Vec<Duration>,
    /// Wall-clock time for the whole fan-out.
    pub elapsed: Duration,
}

impl ExperimentRun {
    /// Assemble the rows into a [`Table`] under `columns`.
    pub fn table(&self, columns: &[String]) -> Table {
        let cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&cols);
        for row in &self.rows {
            t.row(row.cells.clone());
        }
        t
    }
}

/// Runs [`Experiment`]s across a pool of scoped worker threads with a
/// shared [`PlanCache`].
///
/// Points are claimed from an atomic counter and results are written into
/// index-ordered slots, so the assembled output is byte-identical whether
/// the session uses 1 thread or N.
///
/// ```
/// use bgq_bench::runner::{Experiment, ExperimentSession, PlanCache, Row};
///
/// struct Squares;
/// impl Experiment for Squares {
///     type Point = u64;
///     fn name(&self) -> &'static str { "squares" }
///     fn columns(&self) -> Vec<String> { vec!["n".into(), "n^2".into()] }
///     fn points(&self) -> Vec<u64> { (1..=4).collect() }
///     fn run_point(&self, _cache: &PlanCache, n: &u64) -> Row {
///         Row::new(vec![n.to_string(), (n * n).to_string()], vec![(n * n) as f64])
///     }
/// }
///
/// let session = ExperimentSession::new(4);
/// let run = session.run(&Squares);
/// assert_eq!(run.rows.len(), 4);
/// // Output order follows point order, not completion order.
/// assert_eq!(run.rows[3].cells, vec!["4", "16"]);
/// ```
pub struct ExperimentSession {
    threads: usize,
    timing: bool,
    cache: PlanCache,
}

impl ExperimentSession {
    /// A session running up to `threads` points concurrently (clamped to
    /// at least 1). The planning cache starts empty and persists for the
    /// life of the session, so later experiments reuse plans built by
    /// earlier ones.
    pub fn new(threads: usize) -> ExperimentSession {
        ExperimentSession {
            threads: threads.max(1),
            timing: false,
            cache: PlanCache::new(),
        }
    }

    /// Enable or disable the `--timing` footer printed by [`tabulate`].
    ///
    /// [`tabulate`]: ExperimentSession::tabulate
    pub fn with_timing(mut self, timing: bool) -> ExperimentSession {
        self.timing = timing;
        self
    }

    /// Attach a metrics registry to the session's plan cache: cache
    /// lookups and planner decisions across every experiment run by this
    /// session then accumulate in one place. All recorded values are
    /// thread-order independent (counters sum `u64`s), so snapshots are
    /// identical for any `--threads` setting.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> ExperimentSession {
        self.cache = std::mem::take(&mut self.cache).with_metrics(metrics);
        self
    }

    /// The session's registry, if observation is on.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.cache.metrics()
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn timing(&self) -> bool {
        self.timing
    }

    /// The session-wide planning cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Apply `f` to every point, in parallel, returning results in point
    /// order. The generic building block under [`run`]; useful directly
    /// when a harness wants raw values instead of rows.
    ///
    /// [`run`]: ExperimentSession::run
    pub fn map<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&PlanCache, &P) -> R + Sync,
    {
        let n = points.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            return points.iter().map(|p| f(&self.cache, p)).collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let out = Mutex::new(slots);
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&self.cache, &points[i]);
                    out.lock().unwrap()[i] = Some(r);
                });
            }
        });
        out.into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("every point index was claimed by a worker"))
            .collect()
    }

    /// Run every point of `exp` and collect rows in point order.
    pub fn run<E: Experiment>(&self, exp: &E) -> ExperimentRun {
        let points = exp.points();
        let t0 = Instant::now();
        let timed = self.map(&points, |cache, p| {
            let start = Instant::now();
            let row = exp.run_point(cache, p);
            (row, start.elapsed())
        });
        let elapsed = t0.elapsed();
        let (rows, point_times) = timed.into_iter().unzip();
        ExperimentRun {
            rows,
            point_times,
            elapsed,
        }
    }

    /// Run `exp` and return its table and footer. With timing enabled the
    /// per-point summary with cache counters goes to stderr, so stdout
    /// carries only the figure.
    pub fn tabulate<E: Experiment>(&self, exp: &E) -> (Table, Option<String>) {
        let run = self.run(exp);
        if self.timing {
            eprint!("{}", self.timing_summary(exp.name(), &run));
        }
        (run.table(&exp.columns()), exp.footer(&run.rows))
    }

    /// The `--timing` footer: slowest points, totals, and planning-cache
    /// hit/miss counters for this session so far.
    pub fn timing_summary(&self, name: &str, run: &ExperimentRun) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "-- timing: {name} --");
        let mut by_time: Vec<(usize, Duration)> =
            run.point_times.iter().copied().enumerate().collect();
        by_time.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(i, dt) in by_time.iter().take(5) {
            let label = run.rows[i].cells.first().map(|s| s.as_str()).unwrap_or("?");
            let _ = writeln!(
                out,
                "  point {label:>10}  {:>8.1} ms",
                dt.as_secs_f64() * 1e3
            );
        }
        let busy: Duration = run.point_times.iter().sum();
        let _ = writeln!(
            out,
            "  {} points in {:.2} s wall ({:.2} s cpu) on {} thread(s)",
            run.point_times.len(),
            run.elapsed.as_secs_f64(),
            busy.as_secs_f64(),
            self.threads,
        );
        let stats = self.cache.stats();
        let _ = writeln!(
            out,
            "  plan cache: {} hits, {} misses ({:.0}% hit rate)",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
        );
        out
    }
}

/// Everything the worker threads share must be `Send + Sync`; assert it
/// at compile time so a future interior-mutability change cannot silently
/// serialize (or break) the fan-out.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<AggregatorTable>();
    assert_send_sync::<ProxySelection>();
    assert_send_sync::<ProxyGroup>();
    assert_send_sync::<PlanCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_torus::standard_shape;

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = PlanCache::new();
        let shape = standard_shape(128).unwrap();
        let cfg = SimConfig::default();
        let m1 = cache.machine(shape, &cfg);
        let m2 = cache.machine(shape, &cfg);
        assert!(Arc::ptr_eq(&m1, &m2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);

        // A different SimConfig is a different machine…
        let other = SimConfig::default().with_link_stats();
        let m3 = cache.machine(shape, &other);
        assert!(!Arc::ptr_eq(&m1, &m3));
        // …but the aggregator table depends only on the shape.
        let t1 = cache.aggregator_table(&m1).unwrap();
        let t3 = cache.aggregator_table(&m3).unwrap();
        assert!(Arc::ptr_eq(&t1, &t3));
    }

    #[test]
    fn per_kind_cache_counters_mirror_the_totals() {
        let reg = Arc::new(MetricsRegistry::new());
        let cache = PlanCache::new().with_metrics(Arc::clone(&reg));
        let shape = standard_shape(128).unwrap();
        let cfg = SimConfig::default();
        let m = cache.machine(shape, &cfg);
        cache.machine(shape, &cfg);
        cache.aggregator_table(&m);
        cache.proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &ProxySearchConfig::default(),
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache.machine.misses"), Some(1));
        assert_eq!(snap.counter("cache.machine.hits"), Some(1));
        assert_eq!(snap.counter("cache.table.misses"), Some(1));
        assert_eq!(snap.counter("cache.proxies.misses"), Some(1));
        let stats = cache.stats();
        let per_kind: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("cache."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_kind, stats.hits + stats.misses);
    }

    #[test]
    fn cached_proxies_match_fresh_search() {
        let cache = PlanCache::new();
        let shape = standard_shape(128).unwrap();
        let cfg = ProxySearchConfig::default();
        let fresh = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg,
        );
        let cached = cache.proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg,
        );
        assert_eq!(cached.proxies(), fresh.proxies());
        let again = cache.proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg,
        );
        assert!(Arc::ptr_eq(&cached, &again));
    }

    struct Doubler;
    impl Experiment for Doubler {
        type Point = usize;
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn columns(&self) -> Vec<String> {
            vec!["i".into(), "2i".into()]
        }
        fn points(&self) -> Vec<usize> {
            (0..37).collect()
        }
        fn run_point(&self, _cache: &PlanCache, p: &usize) -> Row {
            Row::new(
                vec![p.to_string(), (2 * p).to_string()],
                vec![2.0 * *p as f64],
            )
        }
    }

    #[test]
    fn parallel_run_preserves_point_order() {
        let seq = ExperimentSession::new(1).run(&Doubler);
        let par = ExperimentSession::new(4).run(&Doubler);
        assert_eq!(seq.rows, par.rows);
        assert_eq!(seq.rows[36].cells, vec!["36", "72"]);
        assert_eq!(
            seq.table(&Doubler.columns()).to_csv(),
            par.table(&Doubler.columns()).to_csv()
        );
    }

    #[test]
    fn map_handles_empty_and_oversubscribed() {
        let session = ExperimentSession::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(session.map(&empty, |_, p| *p).is_empty());
        let one = session.map(&[5u32], |_, p| p + 1);
        assert_eq!(one, vec![6]);
    }
}
