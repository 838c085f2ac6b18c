//! The profile view of a representative run, and its report.
//!
//! This is the bridge between the engine's [`bgq_netsim::SimProfile`]
//! (resource indices, raw per-epoch accrual) and the topology-agnostic
//! [`bgq_obs::ProfileArtifact`] (link labels, critical paths, JSON/CSV
//! artifacts). [`run_profile`] labels one run of a figure's
//! representative execution
//! ([`Execution::profile`](crate::representative::Execution::profile)
//! calls it per run), the same execution its trace and ledger scenario
//! read, so `--profile-out` answers "why was this run slow": which
//! links the waterfill blamed, for how long, and which dependency chain
//! bounded the makespan.
//!
//! Profiles inherit the artifact contract: everything is keyed on
//! simulated time and serialized deterministically, so the JSON is
//! byte-identical across thread counts and repeated runs.

use crate::representative::Run;
use bgq_comm::Machine;
use bgq_netsim::{Binding, ResourceId};
use bgq_obs::{ProfileArtifact, Recorder, RunProfile, TransferProfile};
use std::collections::HashSet;

/// Human label for a simulated resource: torus links render as
/// `node:direction` (e.g. `n0:+A`), everything else (I/O stages) as
/// `io<id>`.
pub fn resource_label(machine: &Machine, r: ResourceId) -> String {
    match machine.torus_link(r) {
        Some(link) => link.to_string(),
        None => format!("io{}", r.0),
    }
}

fn binding_label(machine: &Machine, b: &Binding) -> String {
    match b {
        Binding::Link(r) => resource_label(machine, *r),
        Binding::FlowCap => "cap".to_string(),
    }
}

/// Convert a profiled run into a labeled [`RunProfile`]: engine resource
/// indices become link labels, graph dependencies become the chain edges
/// the critical-path walk follows.
///
/// # Panics
/// Panics if the run was not profiled.
pub fn run_profile(machine: &Machine, run: &Run) -> RunProfile {
    let report = &run.report;
    let sp = report
        .profile
        .as_ref()
        .expect("run_profile needs a profiled report (SimOptions::profiled)");
    let mut transfers = Vec::with_capacity(sp.transfers.len());
    for (i, spec) in run.graph.specs().iter().enumerate() {
        let tp = &sp.transfers[i];
        let delivered = report.delivery_time[i].is_finite();
        let end = if delivered {
            report.delivery_time[i]
        } else {
            report.end_time
        };
        let mut link_blame: Vec<(String, f64)> = tp
            .bottlenecked_on
            .iter()
            .map(|&(r, s)| (resource_label(machine, r), s))
            .collect();
        // Distinct resources can collide only if labels did, and they
        // don't (both label forms embed the id) — sorting suffices.
        link_blame.sort_by(|a, b| a.0.cmp(&b.0));
        transfers.push(TransferProfile {
            id: i as u32,
            label: format!("n{}->n{}", spec.src, spec.dst),
            bytes: spec.bytes,
            ready: tp.ready_time,
            start: report.flow_start_time[i],
            end,
            delivered,
            queued: tp.queued_before_start,
            cap_limited: tp.cap_limited,
            stalled: tp.stalled_by_fault,
            latency: tp.delivery_latency,
            link_blame,
            bindings: tp
                .binding_timeline
                .iter()
                .map(|(t, b)| (*t, binding_label(machine, b)))
                .collect(),
            deps: spec.deps.iter().map(|d| d.0).collect(),
        });
    }
    RunProfile {
        name: run.name.to_string(),
        end_time: report.end_time,
        transfers,
    }
}

/// Cap on flows given a binding track, keeping the trace a few
/// kilobytes even for the group figures.
const MAX_BINDING_FLOWS: usize = 64;

/// Render each run's binding timelines as Perfetto spans: track
/// `<run>/bindings`, one span per (flow, binding) stretch named
/// `t<id> <-- <link>`. Flows on the critical path come first; remaining
/// slots go to flows whose binding actually changed mid-run.
pub fn binding_trace(art: &ProfileArtifact) -> Recorder {
    let rec = Recorder::new();
    for run in &art.runs {
        let mut picked: Vec<u32> = run.critical_path();
        let on_path: HashSet<u32> = picked.iter().copied().collect();
        let mut rest: Vec<u32> = run
            .transfers
            .iter()
            .filter(|t| t.bindings.len() >= 2 && !on_path.contains(&t.id))
            .map(|t| t.id)
            .collect();
        rest.sort_unstable();
        picked.extend(rest);
        picked.truncate(MAX_BINDING_FLOWS);

        let track = format!("{}/bindings", run.name);
        for &id in &picked {
            let t = &run.transfers[id as usize];
            for (j, (at, label)) in t.bindings.iter().enumerate() {
                let until = t
                    .bindings
                    .get(j + 1)
                    .map(|&(next, _)| next)
                    .unwrap_or(t.end);
                rec.span(
                    &track,
                    &format!("t{id} <-- {label}"),
                    *at,
                    until,
                    &[("transfer", t.label.clone())],
                );
            }
        }
    }
    rec
}

fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s.abs() >= 1.0 {
        format!("{s:.3} s")
    } else if s.abs() >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

/// Render the "why was this slow" report: per run, the aggregate time
/// decomposition, the ranked bottleneck links, and the critical path
/// with its slowest segment. Deterministic (pure function of the
/// artifact).
pub fn render_report(art: &ProfileArtifact) -> String {
    let mut out = String::new();
    for run in &art.runs {
        let n = run.transfers.len();
        out.push_str(&format!(
            "run {}: {} transfer(s), finished at {}\n",
            run.name,
            n,
            fmt_secs(run.end_time)
        ));
        let sum = |f: fn(&TransferProfile) -> f64| -> f64 { run.transfers.iter().map(f).sum() };
        let queued = sum(|t| t.queued);
        let network = run.total_network_limited();
        let cap = sum(|t| t.cap_limited);
        let stalled = sum(|t| t.stalled);
        let latency = sum(|t| t.latency);
        let total = queued + network + cap + stalled + latency;
        out.push_str("  where the flow-seconds went:\n");
        for (name, v) in [
            ("network-limited", network),
            ("cap-limited", cap),
            ("queued", queued),
            ("stalled by faults", stalled),
            ("delivery latency", latency),
        ] {
            if v > 0.0 {
                out.push_str(&format!(
                    "    {name:<18} {:>12}  ({:.1}%)\n",
                    fmt_secs(v),
                    100.0 * v / total.max(f64::MIN_POSITIVE)
                ));
            }
        }
        let undelivered = run.transfers.iter().filter(|t| !t.delivered).count();
        if undelivered > 0 {
            out.push_str(&format!(
                "    *** {undelivered} transfer(s) UNDELIVERED ***\n"
            ));
        }
        let top = run.top_bottlenecks(5);
        if top.is_empty() {
            out.push_str(
                "  no link was ever a binding resource: every flow was bound by its own\n  \
                 rate cap (the per-flow protocol limit) — add paths, not bandwidth\n",
            );
        } else {
            out.push_str("  top bottleneck links (time spent rate-limited by each):\n");
            for (i, (label, secs)) in top.iter().enumerate() {
                out.push_str(&format!(
                    "    {}. {label:<12} {:>12}\n",
                    i + 1,
                    fmt_secs(*secs)
                ));
            }
        }
        let path = run.critical_path();
        if path.len() > 1 {
            out.push_str(&format!(
                "  critical path ({} chained segment(s)):\n",
                path.len()
            ));
            for &id in &path {
                let t = &run.transfers[id as usize];
                let bound = t
                    .dominant_link()
                    .map(|(l, _)| l.to_string())
                    .unwrap_or_else(|| "cap".to_string());
                out.push_str(&format!(
                    "    t{id} {:<16} {:>12}  bound by {bound}\n",
                    t.label,
                    fmt_secs(t.elapsed())
                ));
            }
        }
        if let Some((id, secs)) = run.slowest_segment() {
            let t = &run.transfers[id as usize];
            out.push_str(&format!(
                "  slowest segment: t{id} {} at {}\n",
                t.label,
                fmt_secs(secs)
            ));
        }
    }
    out
}
