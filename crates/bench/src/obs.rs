//! The trace view of a representative run, and the artifact writer.
//!
//! A figure run can emit two deterministic observability artifacts (see
//! [`produce`](crate::figures::produce)):
//!
//! * `--metrics-out PATH` — the session registry's snapshot as sorted
//!   CSV (`MetricsSnapshot::to_csv`), byte-identical for any thread
//!   count because every golden metric is a simulated-time or integer
//!   quantity;
//! * `--trace-out PATH` — a Chrome-trace JSON of the figure's
//!   representative execution
//!   ([`Execution::trace`](crate::representative::Execution::trace)),
//!   loadable in Perfetto. [`record_run`] draws each run: spans are
//!   transfers on their first-hop link-axis track, counter series are
//!   waterfill bytes-in-flight per axis, instants are stall / resume /
//!   fault edges.
//!
//! Everything here is keyed on simulated time, so both artifacts are
//! reproducible byte-for-byte regardless of worker threads or host.

use crate::representative::Run;
use bgq_comm::Machine;
use bgq_netsim::ResourceId;
use bgq_obs::Recorder;
use std::collections::BTreeMap;
use std::path::Path;

/// The Perfetto track a simulated resource belongs to: torus links are
/// grouped per direction (`axis +B`, ...), everything else (eleventh
/// link, ION→fs stages) lands on the `io` track.
fn resource_track(machine: &Machine, r: ResourceId) -> String {
    match machine.torus_link(r) {
        Some(link) => format!("axis {}", link.direction()),
        None => "io".to_string(),
    }
}

/// Record one executed run into `rec`:
///
/// * a span per transfer on its first-hop axis track (undelivered
///   transfers span to the end of the run and say so in their name);
/// * a `bytes_in_flight` counter series per axis from the waterfill
///   heatmap samples;
/// * instants for every stall, resume and never-started transfer.
pub fn record_run(rec: &Recorder, machine: &Machine, run: &Run) {
    let (report, obs) = (&run.report, &run.obs);
    for (i, spec) in run.graph.specs().iter().enumerate() {
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
        rec.span(
            &track,
            &name,
            start,
            end,
            &[("bytes", spec.bytes.to_string())],
        );
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

/// Write `contents` to `path`, creating parent directories.
pub fn write_artifact(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}
