//! `perf`: closed-loop host-time benchmark of the sparse-data-movement
//! stack — planners (`sdm-core`, `bgq-iosys`), graph build (`bgq-comm`)
//! and the flow simulator (`bgq-netsim`) — on four workloads.
//!
//! One process runs one workload on one thread: set-up (repeated, median
//! reported), then back-to-back iterations for `--seconds` (and at least
//! three). Every side of every iteration is checked against the first
//! iteration and, where the inputs are the committed ones, against
//! `reference.txt`; a result that moves any simulated statistic counts as
//! a failed operation.
//!
//! ```text
//! cargo run --release -p bgq-bench --bin perf -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--trace-out PATH]
//! ```
//!
//! The directory also has a manifest of its own, so the benchmark builds
//! from it alone: `cargo run --release --manifest-path
//! crates/bench/src/bin/perf/Cargo.toml -- ...` runs the same program.
//!
//! Output: one `name value unit` line per metric, `ops`/`ops_failed`, and
//! as the last line a JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics untraced, per-layer metrics traced).
//! Exits 1 if any operation failed, 2 on bad arguments.

mod bench;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use bench::{Kind, Metric, Options, Outcome};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SEED};

/// Default measuring time per run, in seconds.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    opts: Options,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--trace-out PATH]",
        names.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::ExchangeSparse,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let (mut out, mut trace_out) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds: not a duration in [0, 3600]: {v:?}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if trace_out.is_some() && !opts.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(Args {
        opts,
        out,
        trace_out,
    })
}

/// The result object: `correct`, `attempted`, `failed` and the metrics of
/// the run's output kind (or every metric, for `--out`).
fn result_json(o: &Outcome, metrics: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            bgq_obs::json::escape(&m.name),
            m.value,
            bgq_obs::json::escape(m.unit)
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = bench::run(&args.opts);

    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("ops {} count", outcome.attempted);
    println!("ops_failed {} count", outcome.failed);
    for row in &outcome.reference_rows {
        println!("ref {row}");
    }
    for p in &outcome.problems {
        eprintln!("perf: FAILED {p}");
    }

    let mut io_ok = true;
    if let Some(json) = &outcome.trace_json {
        if let Err(e) = bgq_obs::json::validate(json) {
            eprintln!("perf: trace is not valid JSON: {e}");
            io_ok = false;
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("perf: writing {}: {e}", path.display());
                io_ok = false;
            }
        }
    }
    if let Some(path) = &args.out {
        let all: Vec<&Metric> = outcome.metrics.iter().collect();
        if let Err(e) = std::fs::write(path, result_json(&outcome, &all) + "\n") {
            eprintln!("perf: writing {}: {e}", path.display());
            io_ok = false;
        }
    }

    let kind = if args.opts.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let shown: Vec<&Metric> = outcome.metrics.iter().filter(|m| m.kind == kind).collect();
    println!("{}", result_json(&outcome, &shown));
    if outcome.failed == 0 && io_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
