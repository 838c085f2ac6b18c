//! Named counters, gauges and fixed-bucket histograms, snapshotable to
//! deterministic sorted CSV.
//!
//! Instruments are handed out as cheap `Arc` handles; hot loops hoist
//! the handle once and update lock-free. Counters and histogram buckets
//! are *sharded*: each updating thread lands on one of a fixed set of
//! atomic cells (per-thread stripe, merged at scrape), so concurrent
//! increments do not bounce one cache line between cores.
//!
//! Determinism: counter and bucket values are unsigned integer sums, so
//! any interleaving of updates produces the same totals; snapshots
//! iterate a `BTreeMap` (sorted, deduplicated by construction). Gauges
//! hold a single last-written value and are therefore only deterministic
//! when written from deterministic (single-threaded or value-racing-free)
//! code — the workspace uses them for end-of-run facts, not hot paths.
//! The workspace registers only simulated quantities and counts (host
//! timings go to stderr), so [`MetricsSnapshot::to_csv`] is safe to
//! golden-pin.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of atomic stripes per counter. A small power of two: enough to
/// spread the handful of worker threads an [`ExperimentSession`] uses,
/// cheap to sum at scrape.
///
/// [`ExperimentSession`]: https://docs.rs/bgq-bench
const SHARDS: usize = 8;

/// The calling thread's stripe index, assigned once per thread.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

#[derive(Default)]
struct Stripes {
    cells: [AtomicU64; SHARDS],
}

impl Stripes {
    fn add(&self, delta: u64) {
        self.cells[shard_index()].fetch_add(delta, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// A monotonically increasing sum. Clone freely; all clones share the
/// same cells.
#[derive(Clone, Default)]
pub struct Counter(Arc<Stripes>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.0.add(delta);
    }

    /// The merged total across all stripes.
    pub fn value(&self) -> u64 {
        self.0.sum()
    }
}

/// A last-written `f64` value (bit-stored, so NaN round-trips).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing. An
    /// implicit `+inf` bucket catches the rest.
    bounds: Vec<f64>,
    /// One stripe set per bucket (`bounds.len() + 1` entries).
    buckets: Vec<Stripes>,
}

/// A fixed-bucket histogram of `f64` observations. Only integer bucket
/// counts are kept — no floating-point sum — so the scrape is exact and
/// order-independent.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut buckets = Vec::with_capacity(bounds.len() + 1);
        buckets.resize_with(bounds.len() + 1, Stripes::default);
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
        }))
    }

    pub fn observe(&self, value: f64) {
        let i = self
            .0
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[i].add(1);
    }

    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Merged per-bucket counts (`bounds().len() + 1` entries; the last
    /// is the overflow bucket).
    pub fn counts(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|s| s.sum()).collect()
    }

    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|s| s.sum()).sum()
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation within the bucket containing the target rank — the
    /// standard estimator for log-spaced latency buckets. See
    /// [`quantile_from_buckets`] for the exact semantics and edge cases.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.0.bounds, &self.counts(), q)
    }
}

/// Quantile estimate over fixed-bucket histogram data: find the bucket
/// containing rank `q · count` and interpolate linearly inside it.
///
/// Buckets span `(prev bound, bound]`, with the first bucket anchored at
/// 0 (observations are assumed non-negative, which is how the workspace
/// uses histograms — sizes, durations, counts). The overflow bucket has
/// no upper edge, so any quantile landing there reports the last finite
/// bound (a lower bound on the true value). An empty histogram reports
/// `NaN`.
///
/// Everything is computed from integer counts and the fixed bounds, so
/// the estimate is deterministic for a given snapshot.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let target = q * total as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cum + c;
        if (next as f64) >= target {
            if i >= bounds.len() {
                // Overflow bucket: no upper edge to interpolate toward.
                return bounds.last().copied().unwrap_or(f64::NAN);
            }
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds[i];
            let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
            return lo + frac * (hi - lo);
        }
        cum = next;
    }
    bounds.last().copied().unwrap_or(f64::NAN)
}

/// A registry of named instruments. Lookups take a mutex on a
/// `BTreeMap` — fine for registration and for cold paths; hot loops
/// should hoist the returned handle.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created with `bounds` on first use.
    ///
    /// # Panics
    /// Panics if the name was already registered with different bounds —
    /// two call sites silently disagreeing on buckets would corrupt the
    /// artifact.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let h = self
            .histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone();
        assert_eq!(
            h.bounds(),
            bounds,
            "histogram {name:?} re-registered with different bounds"
        );
        h
    }

    /// A point-in-time, merged view of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), (v.bounds().to_vec(), v.counts())))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters.lock().unwrap().len())
            .field("gauges", &self.gauges.lock().unwrap().len())
            .field("histograms", &self.histograms.lock().unwrap().len())
            .finish()
    }
}

/// A histogram's snapshot payload: `(bucket bounds, per-bucket counts)`.
pub type HistogramData = (Vec<f64>, Vec<u64>);

/// A merged, name-sorted scrape of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, last value)`, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, (bounds, per-bucket counts))`, sorted by name.
    pub histograms: Vec<(String, HistogramData)>,
}

/// Shortest-round-trip float formatting (Rust's `{:?}` for `f64`), which
/// is deterministic for a given bit pattern.
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// RFC-4180 CSV field quoting: fields containing a comma, double quote,
/// or line break are wrapped in double quotes with inner quotes doubled;
/// clean fields pass through unchanged (so existing goldens, whose names
/// never need quoting, stay byte-identical).
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl MetricsSnapshot {
    /// Counter total by exact name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The difference `self - earlier` for counters and histogram bucket
    /// counts (gauges keep `self`'s values: they are levels, not sums).
    /// Used to emit per-experiment artifacts from a session-cumulative
    /// registry. Instruments absent from `earlier` pass through whole.
    pub fn delta_from(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let base: BTreeMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let hbase: BTreeMap<&str, &Vec<u64>> = earlier
            .histograms
            .iter()
            .map(|(k, (_, c))| (k.as_str(), c))
            .collect();
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - base.get(k.as_str()).copied().unwrap_or(0)))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, (b, c))| {
                    let counts = match hbase.get(k.as_str()) {
                        Some(old) if old.len() == c.len() => {
                            c.iter().zip(old.iter()).map(|(n, o)| n - o).collect()
                        }
                        _ => c.clone(),
                    };
                    (k.clone(), (b.clone(), counts))
                })
                .collect(),
        }
    }

    fn rows(&self) -> Vec<(&'static str, String, String)> {
        let mut rows = Vec::new();
        for (name, v) in &self.counters {
            rows.push(("counter", name.clone(), v.to_string()));
        }
        for (name, v) in &self.gauges {
            rows.push(("gauge", name.clone(), fmt_f64(*v)));
        }
        for (name, (bounds, counts)) in &self.histograms {
            for (i, &c) in counts.iter().enumerate() {
                // Zero-padded bucket index keeps rows lexically sorted
                // regardless of how the bound itself formats.
                let le = bounds
                    .get(i)
                    .map(|b| fmt_f64(*b))
                    .unwrap_or_else(|| "inf".to_string());
                rows.push((
                    "histogram",
                    format!("{name}.bucket{i:02}_le_{le}"),
                    c.to_string(),
                ));
            }
            rows.push((
                "histogram",
                format!("{name}.count"),
                counts.iter().sum::<u64>().to_string(),
            ));
            // Quantile estimates (deterministic: derived from the bounds
            // and integer counts alone). `pNN` sorts after `bucketNN`
            // and `count`, keeping the row order lexical.
            for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                rows.push((
                    "histogram",
                    format!("{name}.{label}"),
                    fmt_f64(quantile_from_buckets(bounds, counts, q)),
                ));
            }
        }
        rows.sort();
        rows
    }

    /// Deterministic CSV: one `kind,name,value` row per counter, gauge
    /// and histogram bucket/count/quantile, sorted and deduplicated.
    /// Safe to golden-pin.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        for (kind, name, value) in self.rows() {
            out.push_str(&format!("{kind},{},{value}\n", csv_field(&name)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
        assert_eq!(reg.counter("x").value(), 4000, "same name, same cells");
    }

    #[test]
    fn gauge_holds_last_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(reg.gauge("g").get(), -2.25);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let reg = MetricsRegistry::new();
        // Log-spaced bounds, 100 observations spread 50/30/20 across
        // (0,1], (1,10], (10,100].
        let h = reg.histogram("q", &[1.0, 10.0, 100.0]);
        for _ in 0..50 {
            h.observe(0.5);
        }
        for _ in 0..30 {
            h.observe(5.0);
        }
        for _ in 0..20 {
            h.observe(50.0);
        }
        // p50: rank 50 is exactly the top of bucket 0 -> 1.0.
        assert!((h.quantile(0.5) - 1.0).abs() < 1e-12, "{}", h.quantile(0.5));
        // p80: rank 80 tops bucket 1 -> 10.0.
        assert!((h.quantile(0.8) - 10.0).abs() < 1e-12);
        // p90: halfway through bucket 2 -> 10 + 0.5*90 = 55.
        assert!((h.quantile(0.9) - 55.0).abs() < 1e-9, "{}", h.quantile(0.9));
        // Extremes.
        assert!((h.quantile(0.0) - 0.0).abs() < 1e-12);
        assert!((h.quantile(1.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_edge_cases() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("e", &[1.0, 10.0]);
        assert!(h.quantile(0.5).is_nan(), "empty histogram has no quantile");
        // Everything in the overflow bucket: report the last finite bound.
        h.observe(1e9);
        assert_eq!(h.quantile(0.5), 10.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_out_of_range_q() {
        let reg = MetricsRegistry::new();
        reg.histogram("h", &[1.0]).quantile(1.5);
    }

    #[test]
    fn snapshot_includes_quantile_rows() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 10.0]);
        for _ in 0..10 {
            h.observe(0.5);
        }
        let snap = reg.snapshot();
        let csv = snap.to_csv();
        assert!(csv.contains("histogram,lat.p50,0.5"), "{csv}");
        assert!(csv.contains("histogram,lat.p95,0.95"), "{csv}");
        assert!(csv.contains("histogram,lat.p99,0.99"), "{csv}");
        // An empty histogram has no quantile: its rows read NaN.
        let reg2 = MetricsRegistry::new();
        reg2.histogram("empty", &[1.0]);
        let csv = reg2.snapshot().to_csv();
        assert!(csv.contains("histogram,empty.count,0"), "{csv}");
        assert!(csv.contains("histogram,empty.p50,NaN"), "{csv}");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_must_agree() {
        let reg = MetricsRegistry::new();
        reg.histogram("h", &[1.0]);
        reg.histogram("h", &[2.0]);
    }

    #[test]
    fn snapshot_csv_is_sorted_and_deduplicated() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(2);
        reg.counter("a.first").inc();
        reg.counter("z.last").inc(); // same instrument, not a new row
        reg.gauge("m.level").set(3.0);
        let csv = reg.snapshot().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,value");
        let mut sorted = lines[1..].to_vec();
        sorted.sort();
        assert_eq!(lines[1..], sorted[..], "rows must come out sorted");
        assert_eq!(
            lines.iter().filter(|l| l.contains("z.last")).count(),
            1,
            "one row per instrument"
        );
        assert!(csv.contains("counter,z.last,3"));
        assert!(csv.contains("gauge,m.level,3.0"));
    }

    #[test]
    fn delta_subtracts_counters_and_buckets() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h", &[10.0]);
        c.add(5);
        h.observe(1.0);
        let before = reg.snapshot();
        c.add(3);
        h.observe(100.0);
        let d = reg.snapshot().delta_from(&before);
        assert_eq!(d.counter("c"), Some(3));
        assert_eq!(d.histograms[0].1 .1, vec![0, 1]);
    }

    #[test]
    fn csv_quotes_labels_with_commas_and_quotes() {
        assert_eq!(csv_field("plain.name"), "plain.name");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");

        let reg = MetricsRegistry::new();
        reg.counter("link{x,y}.stalls").add(3);
        reg.gauge("label with \"quotes\"").set(1.0);
        let csv = reg.snapshot().to_csv();
        assert!(
            csv.contains("counter,\"link{x,y}.stalls\",3"),
            "comma-bearing name must be quoted: {csv}"
        );
        assert!(
            csv.contains("gauge,\"label with \"\"quotes\"\"\",1.0"),
            "quote-bearing name must be escaped: {csv}"
        );
        // Clean names stay unquoted so golden CSVs are unchanged.
        reg.counter("clean.name").inc();
        assert!(reg.snapshot().to_csv().contains("counter,clean.name,1"));
    }
}
