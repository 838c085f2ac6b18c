//! Ties between the benchmark, its reference results, the committed
//! simulated artifacts under `results/`, and `BENCHMARK.json`. The
//! artifacts are read, never written.

use crate::bench::{self, reference, Kind, Options, RefRow};
use crate::trace::Tracer;
use crate::workloads::{setup, Runner, Workload, DEFAULT_SEED};
use crate::{parse_args, result_json};
use bgq_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// A file of the repository, found from whichever manifest built the tests
/// (`crates/bench` in the workspace, or this directory's own).
fn repo_file(rel: &str) -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .ancestors()
        .find(|d| d.join("BENCHMARK.json").is_file())
        .unwrap_or_else(|| panic!("no BENCHMARK.json above {}", manifest.display()));
    let path = root.join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn reference_rows(w: Workload) -> Vec<RefRow> {
    let rows: Vec<RefRow> = reference()
        .into_iter()
        .filter(|r| r.workload == w.name())
        .collect();
    let sides: Vec<&str> = rows.iter().map(|r| r.side.as_str()).collect();
    assert_eq!(
        sides,
        w.sides(),
        "one reference row per side, in side order"
    );
    rows
}

fn run(w: Workload, trace: bool) -> bench::Outcome {
    bench::run(&Options {
        workload: w,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
    })
}

#[test]
fn hub_pattern_reproduces_the_committed_scale_row() {
    let scale = json::parse(&repo_file("results/BENCH_scale.json")).expect("BENCH_scale.json");
    let row = scale
        .get("points")
        .and_then(Value::as_arr)
        .and_then(|p| {
            p.iter()
                .find(|p| p.get("nodes").and_then(Value::as_u64) == Some(8192))
        })
        .expect("an 8,192-node row");
    let inc = row.get("incremental").expect("incremental side");
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).expect(k);

    let s = setup(Workload::ScaleHub, DEFAULT_SEED);
    let o = Runner::new(&s).run_side(0, true, &mut Tracer::new());
    let c = o.counters.expect("observed");
    assert!(o.problems.is_empty(), "{:?}", o.problems);
    assert_eq!(o.transfers as f64, num(row, "transfers"));
    assert_eq!(c.shards as f64, num(row, "shards"));
    assert_eq!(c.events as f64, num(inc, "events"));
    assert_eq!(c.full_runs as f64, num(inc, "full_runs"));
    assert_eq!(c.incremental_runs as f64, num(inc, "incremental_runs"));
    assert_eq!(o.makespan.to_bits(), num(inc, "makespan").to_bits());
    assert_eq!((o.transfers, c.shards, c.events), (5888, 2304, 27_136));
}

#[test]
fn fixed_workloads_match_their_reference_digests() {
    for w in [Workload::ScaleHub, Workload::ExchangeDisjoint] {
        let out = run(w, false);
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.problems);
        assert_eq!(
            out.attempted,
            (bench::MIN_ITERATIONS * w.sides().len()) as u64
        );
        let rows: Vec<String> = reference_rows(w).iter().map(RefRow::line).collect();
        assert_eq!(out.reference_rows, rows);
    }
}

#[test]
fn exchange_sparse_reference_is_the_committed_sweep_row() {
    let sweep =
        json::parse(&repo_file("results/BENCH_exchange.json")).expect("BENCH_exchange.json");
    assert_eq!(
        sweep.get("seed").and_then(Value::as_u64),
        Some(DEFAULT_SEED)
    );
    let row = sweep
        .get("points")
        .and_then(Value::as_arr)
        .and_then(|p| {
            p.iter().find(|p| {
                p.get("nodes").and_then(Value::as_u64) == Some(1024)
                    && p.get("pattern").and_then(Value::as_str) == Some("sparse f4 256K")
            })
        })
        .expect("the 1,024-node sparse f4 256K row");
    for r in reference_rows(Workload::ExchangeSparse) {
        let makespan = row
            .get(&r.side)
            .and_then(|a| a.get("makespan"))
            .and_then(Value::as_f64)
            .expect("makespan per algorithm");
        assert_eq!(r.makespan.to_bits(), makespan.to_bits(), "{}", r.side);
        assert_eq!(
            Some(r.bytes),
            row.get("payload_bytes").and_then(Value::as_u64)
        );
    }
    let bits = |side: &str| {
        reference_rows(Workload::ExchangeSparse)
            .into_iter()
            .find(|r| r.side == side)
            .map(|r| r.makespan)
    };
    assert_eq!(bits("direct"), Some(0.0012560263573567479));
    assert_eq!(bits("consensus"), Some(0.0013115285795789746));
    assert_eq!(bits("proxy_multipath"), Some(0.0013530994040404022));
}

#[test]
fn io_hacc_reference_gives_the_fig11_row() {
    let csv = repo_file("results/fig11.csv");
    let row: Vec<&str> = csv
        .lines()
        .map(|l| l.split(',').collect::<Vec<_>>())
        .find(|f| f[0] == "65536")
        .expect("the 65,536-core row");
    let gbs: Vec<String> = reference_rows(Workload::IoHacc)
        .iter()
        .map(|r| format!("{:.3}", r.bytes as f64 / r.makespan / 1e9))
        .collect();
    assert_eq!(
        gbs,
        [row[2], row[3]],
        "custom aggregators, default collective I/O"
    );
    assert_eq!(gbs, ["57.067", "26.716"]);
}

#[test]
fn traced_run_is_passive_and_writes_a_valid_trace() {
    // Iteration 0 is traced (spans + observer), iteration 1 bare; the
    // digest check fails an operation if their timelines differ.
    let out = run(Workload::ScaleHub, true);
    assert_eq!(out.failed, 0, "{:?}", out.problems);
    assert_eq!(out.attempted, 2);
    let trace = out.trace_json.expect("traced run keeps its spans");
    json::validate(&trace).expect("Chrome trace must be valid JSON");
    for span in [
        "bench.iteration",
        "bench.side.hub",
        "comm.build.hub",
        "netsim.simulate.hub",
        "bench.verify.hub",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "missing span {span}"
        );
    }
}

#[test]
fn benchmark_json_names_every_emitted_metric_with_its_unit() {
    let spec = json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    let list = |key: &str| -> BTreeMap<String, String> {
        spec.get(key)
            .and_then(Value::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str).expect("name");
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    };
    let (e2e, layer) = (list("end_to_end"), list("per_layer"));
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layer.len()));
    assert_eq!(e2e.get("setup_s").map(String::as_str), Some("s"));

    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (trace, kind, want) in [
        (false, Kind::EndToEnd, &e2e),
        (true, Kind::PerLayer, &layer),
    ] {
        let out = run(Workload::ScaleHub, trace);
        let mut seen = BTreeMap::new();
        for m in &out.metrics {
            assert!(valid(&m.name), "bad metric name {:?}", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            if m.kind == kind {
                assert!(
                    seen.insert(m.name.clone(), m.unit.to_string()).is_none(),
                    "{} twice",
                    m.name
                );
            }
        }
        assert_eq!(&seen, want, "metrics of the {kind:?} output");
        let shown: Vec<&bench::Metric> = out.metrics.iter().filter(|m| m.kind == kind).collect();
        let line = result_json(&out, &shown);
        let v = json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert!(v.get("attempted").and_then(Value::as_u64) >= Some(1));
    }
}

#[test]
fn arguments_are_checked() {
    let args = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
    let ok = args(&[
        "--workload",
        "io_hacc",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("valid");
    assert_eq!(ok.opts.workload, Workload::IoHacc);
    assert_eq!(
        (ok.opts.seed, ok.opts.seconds, ok.opts.trace),
        (7, 3.0, true)
    );
    let defaults = args(&["--workload", "scale_hub"]).expect("valid");
    assert_eq!(
        (defaults.opts.seed, defaults.opts.trace),
        (DEFAULT_SEED, false)
    );
    for bad in [
        &[][..],
        &["--workload", "nope"],
        &["--workload", "scale_hub", "--trace", "2"],
        &["--workload", "scale_hub", "--seconds", "-1"],
        &["--workload", "scale_hub", "--seed"],
        &["--workload", "scale_hub", "--bogus"],
        &["--workload", "scale_hub", "--trace-out", "t.json"],
    ] {
        assert!(args(bad).is_err(), "{bad:?} must be rejected");
    }
}
