//! The closed loop: repeated set-up, timed iterations until the time
//! budget is spent, output checks against the first iteration and the
//! committed reference, and the metrics derived from it all.

use crate::trace::Tracer;
use crate::workloads::{self, Counters, SideOutcome, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up repetitions per process; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// Bare iterations an untraced run always times, however long they take,
/// so that even `exchange_sparse` (about 13 s each) has a low quantile.
pub const MIN_ITERATIONS: usize = 3;

/// The quantile of bare iteration times that `iter_p10_s` reports. Host
/// interference only ever slows an iteration down, so a low quantile
/// tracks the code's own speed; the median drifts with the neighbours.
const ITER_QUANTILE: f64 = 0.10;

/// Reference results: `<workload> <side> <digest> <makespan_s> <bytes>`.
const REFERENCE: &str = include_str!("reference.txt");

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Which output a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Gated end-to-end metric of the untraced run.
    EndToEnd,
    /// Per-layer metric of the traced run.
    PerLayer,
    /// Printed for attribution (per side, simulated model values), not
    /// part of the result object.
    Detail,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations run: one per (iteration, side).
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed checks (at most a few per side).
    pub problems: Vec<String>,
    /// One reference row per side, from the first iteration.
    pub reference_rows: Vec<String>,
    /// Chrome trace of the traced iterations.
    pub trace_json: Option<String>,
}

/// One row of `reference.txt`.
#[derive(Debug, Clone, PartialEq)]
pub struct RefRow {
    pub workload: String,
    pub side: String,
    pub digest: u64,
    pub makespan: f64,
    pub bytes: u64,
}

impl RefRow {
    fn of(workload: Workload, o: &SideOutcome) -> RefRow {
        RefRow {
            workload: workload.name().to_string(),
            side: o.side.to_string(),
            digest: o.digest,
            makespan: o.makespan,
            bytes: o.bytes,
        }
    }

    /// The row as it appears in `reference.txt`.
    pub fn line(&self) -> String {
        format!(
            "{} {} {:016x} {:?} {}",
            self.workload, self.side, self.digest, self.makespan, self.bytes
        )
    }
}

/// Parse the committed reference (`#` comments and blank lines skipped).
pub fn reference() -> Vec<RefRow> {
    REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 5, "malformed reference row {l:?}");
            RefRow {
                workload: f[0].to_string(),
                side: f[1].to_string(),
                digest: u64::from_str_radix(f[2], 16).expect("hex digest"),
                makespan: f[3].parse().expect("makespan in seconds"),
                bytes: f[4].parse().expect("payload bytes"),
            }
        })
        .collect()
}

/// Run one workload for `opts.seconds` of closed-loop iterations.
///
/// Untraced, every iteration is timed bare, at least [`MIN_ITERATIONS`] of
/// them, and the end-to-end metrics come out. Traced, even iterations
/// carry spans and a `SimObserver` and odd ones run bare, at least one of
/// each, so the per-layer metrics and the tracing overhead come from the
/// same process.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut setup = workloads::setup(w, opts.seed);
    setup_times.push(setup.times);
    for _ in 1..SETUP_REPS {
        drop(setup);
        setup = workloads::setup(w, opts.seed);
        setup_times.push(setup.times);
    }

    let runner = workloads::Runner::new(&setup);
    let sides = w.sides();
    // Seeded workloads have reference results only at the default seed.
    let reference_applies = !w.seeded() || opts.seed == DEFAULT_SEED;
    let all_refs = reference();
    let refs: Vec<Option<&RefRow>> = sides
        .iter()
        .map(|s| {
            all_refs
                .iter()
                .find(|r| r.workload == w.name() && r.side == *s)
        })
        .collect();

    let mut tracer = Tracer::new();
    let mut first: Vec<Option<SideOutcome>> = vec![None; sides.len()];
    let mut counters: Vec<Option<Counters>> = vec![None; sides.len()];
    let mut bare = Vec::new();
    let mut traced = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    for iter in 0u32.. {
        let observe = opts.trace && iter % 2 == 0;
        tracer.start_iteration(iter, observe);
        let t0 = Instant::now();
        let root = tracer.begin("bench.iteration", "");
        let outs: Vec<SideOutcome> = (0..sides.len())
            .map(|s| runner.run_side(s, observe, &mut tracer))
            .collect();
        tracer.end(root);
        let dt = t0.elapsed().as_secs_f64();
        if observe {
            traced.push(dt);
        } else {
            bare.push(dt);
        }

        for (i, o) in outs.into_iter().enumerate() {
            attempted += 1;
            let mut bad = o.problems.clone();
            if let Some(f) = &first[i] {
                if f.digest != o.digest {
                    bad.push("simulated timeline differs from iteration 0".to_string());
                }
            }
            if reference_applies {
                match &refs[i] {
                    Some(r) if **r == RefRow::of(w, &o) => {}
                    Some(r) => bad.push(format!(
                        "result {} differs from reference {}",
                        RefRow::of(w, &o).line(),
                        r.line()
                    )),
                    None => bad.push("no reference row".to_string()),
                }
            }
            if counters[i].is_none() {
                counters[i] = o.counters;
            }
            if !bad.is_empty() {
                failed += 1;
                if problems.len() < 4 * sides.len() {
                    problems.extend(
                        bad.iter()
                            .map(|p| format!("iteration {iter}, side {}: {p}", o.side)),
                    );
                }
            }
            if first[i].is_none() {
                first[i] = Some(o);
            }
        }

        let sampled = if opts.trace {
            !bare.is_empty() && !traced.is_empty()
        } else {
            bare.len() >= MIN_ITERATIONS
        };
        if sampled && start.elapsed() >= budget {
            break;
        }
    }

    let first: Vec<SideOutcome> = first.into_iter().map(|o| o.expect("ran once")).collect();
    let mut m = Metrics::default();
    m.setup(&setup_times, opts.trace);
    if opts.trace {
        m.per_layer(&tracer, &counters, &traced, &bare, sides);
    } else {
        m.end_to_end(&bare);
    }
    m.model(w, &first);
    let trace_json = opts.trace.then(|| tracer.to_chrome_json());
    Outcome {
        metrics: m.0,
        attempted,
        failed,
        problems,
        reference_rows: first.iter().map(|o| RefRow::of(w, o).line()).collect(),
        trace_json,
    }
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, kind: Kind, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            kind,
        });
    }

    /// Set-up time by part (detail) and in total (end to end).
    fn setup(&mut self, setup: &[workloads::SetupTimes], trace: bool) {
        let col = |f: fn(&workloads::SetupTimes) -> f64| -> f64 {
            median(&setup.iter().map(f).collect::<Vec<_>>())
        };
        if !trace {
            self.push(
                Kind::EndToEnd,
                "setup_s",
                col(workloads::SetupTimes::total),
                "s",
            );
        }
        self.push(Kind::Detail, "setup.machine_s", col(|t| t.machine), "s");
        self.push(Kind::Detail, "setup.mover_s", col(|t| t.mover), "s");
        self.push(Kind::Detail, "setup.workload_s", col(|t| t.workload), "s");
    }

    fn end_to_end(&mut self, iters: &[f64]) {
        self.push(
            Kind::EndToEnd,
            "iter_p10_s",
            quantile(iters, ITER_QUANTILE),
            "s",
        );
        self.push(Kind::EndToEnd, "peak_rss_mb", peak_rss_mb(), "MiB");
        self.push(Kind::Detail, "iter_samples", iters.len() as f64, "count");
        self.push(Kind::Detail, "iter_p50_s", median(iters), "s");
        // The highest percentile with at least ten samples beyond it.
        if iters.len() >= 1000 {
            self.push(Kind::Detail, "iter_p99_s", quantile(iters, 0.99), "s");
        } else if iters.len() >= 100 {
            self.push(Kind::Detail, "iter_p90_s", quantile(iters, 0.90), "s");
        }
    }

    fn per_layer(
        &mut self,
        tracer: &Tracer,
        counters: &[Option<Counters>],
        traced: &[f64],
        bare: &[f64],
        sides: &[&'static str],
    ) {
        self.push(Kind::Detail, "trace.peak_rss_mb", peak_rss_mb(), "MiB");

        // Self time per (layer, side) and per iteration, from the spans.
        let selfs = tracer.self_times();
        let mut by_side: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        let mut by_iter: BTreeMap<u32, [f64; 4]> = BTreeMap::new();
        for (s, own) in tracer.spans().iter().zip(&selfs) {
            let own = own.as_secs_f64();
            let slot = by_iter.entry(s.iter).or_default();
            match s.layer {
                "core.plan" | "iosys.plan" | "comm.build" => slot[0] += own,
                "netsim.simulate" => slot[1] += own,
                "bench.verify" => slot[2] += own,
                "bench.iteration" => slot[3] = s.duration().as_secs_f64(),
                _ => {}
            }
            if !s.side.is_empty() {
                by_side.entry((s.layer, s.side)).or_default().push(own);
            }
        }
        let iters: Vec<[f64; 4]> = by_iter.into_values().collect();
        let layer = |i: usize| median(&iters.iter().map(|v| v[i]).collect::<Vec<_>>());
        let share = |i: usize| median(&iters.iter().map(|v| v[i] / v[3]).collect::<Vec<_>>());
        let simulate_s = layer(1);
        self.push(Kind::PerLayer, "plan_build_s", layer(0), "s");
        self.push(Kind::PerLayer, "simulate_s", simulate_s, "s");
        self.push(Kind::PerLayer, "bench.verify_s", layer(2), "s");
        self.push(Kind::PerLayer, "share.plan_build", share(0), "fraction");
        self.push(Kind::PerLayer, "share.simulate", share(1), "fraction");

        let c = counters
            .iter()
            .map(|c| c.expect("traced iterations observe every side"))
            .fold(Counters::default(), |a, c| Counters {
                full_runs: a.full_runs + c.full_runs,
                incremental_runs: a.incremental_runs + c.incremental_runs,
                shards: a.shards + c.shards,
                events: a.events + c.events,
            });
        self.counters("", &c, simulate_s, Kind::PerLayer);
        self.push(Kind::PerLayer, "trace.iter_p50_s", median(traced), "s");
        self.push(
            Kind::PerLayer,
            "trace.overhead",
            median(traced) / median(bare),
            "ratio",
        );

        for ((layer, side), v) in &by_side {
            let name = match *layer {
                "core.plan" => "core.plan_s",
                "iosys.plan" => "iosys.plan_s",
                "comm.build" => "comm.build_s",
                "netsim.simulate" => "netsim.simulate_s",
                "bench.verify" => "bench.verify_s",
                _ => continue,
            };
            self.push(Kind::Detail, format!("{name}.{side}"), median(v), "s");
        }
        for (side, c) in sides.iter().zip(counters) {
            let sim = median(&by_side[&("netsim.simulate", *side)]);
            self.counters(
                &format!(".{side}"),
                &c.expect("observed"),
                sim,
                Kind::Detail,
            );
        }
    }

    fn counters(&mut self, suffix: &str, c: &Counters, simulate_s: f64, kind: Kind) {
        let relevels = c.full_runs + c.incremental_runs;
        self.push(
            kind,
            format!("netsim.waterfill_full_runs{suffix}"),
            c.full_runs as f64,
            "count",
        );
        self.push(
            kind,
            format!("netsim.waterfill_incremental_runs{suffix}"),
            c.incremental_runs as f64,
            "count",
        );
        self.push(
            kind,
            format!("netsim.incremental_share{suffix}"),
            c.incremental_runs as f64 / relevels.max(1) as f64,
            "fraction",
        );
        self.push(
            Kind::Detail,
            format!("netsim.shards{suffix}"),
            c.shards as f64,
            "count",
        );
        self.push(
            kind,
            format!("netsim.events{suffix}"),
            c.events as f64,
            "count",
        );
        self.push(
            kind,
            format!("netsim.events_per_s{suffix}"),
            c.events as f64 / simulate_s,
            "1/s",
        );
    }

    /// Simulated results (exact, host-independent) and the planner's
    /// choices: printed for reference, never gated on time.
    fn model(&mut self, w: Workload, first: &[SideOutcome]) {
        for o in first {
            self.push(
                Kind::Detail,
                format!("model.makespan_s.{}", o.side),
                o.makespan,
                "s",
            );
            self.push(
                Kind::Detail,
                format!("comm.transfers.{}", o.side),
                o.transfers as f64,
                "count",
            );
            if let Some(p) = o.plan {
                self.push(
                    Kind::Detail,
                    "core.pairs_multipath",
                    p.pairs_multipath as f64,
                    "count",
                );
                self.push(
                    Kind::Detail,
                    "core.pairs_combined",
                    p.pairs_combined as f64,
                    "count",
                );
                self.push(
                    Kind::Detail,
                    "core.links_claimed",
                    p.links_claimed as f64,
                    "count",
                );
            }
        }
        let transfers: usize = first.iter().map(|o| o.transfers).sum();
        self.push(Kind::Detail, "comm.transfers", transfers as f64, "count");
        // Throughput of the contribution over its baseline.
        let (better, base) = match w {
            Workload::ExchangeSparse | Workload::ExchangeDisjoint => (2, 0),
            Workload::IoHacc => (0, 1),
            Workload::ScaleHub => return,
        };
        let thr = |o: &SideOutcome| o.bytes as f64 / o.makespan;
        self.push(
            Kind::Detail,
            "model.speedup",
            thr(&first[better]) / thr(&first[base]),
            "ratio",
        );
    }
}

/// Median (mean of the middle pair for even counts).
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` of `v` (`v` non-empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
