//! Post-run analysis of simulation reports: utilization, bottlenecks,
//! per-node traffic and timeline summaries.
//!
//! The raw [`SimReport`] carries per-transfer timings and
//! (optionally) per-resource byte counters; this module turns them into
//! the quantities the paper reasons about — link utilization ("one path is
//! used, other paths are idle", Fig. 2), bottleneck resources, and
//! effective per-endpoint throughput.

use crate::engine::SimReport;
use crate::graph::{TransferGraph, TransferId};

/// Utilization summary over a set of resources.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// Resources that carried at least one byte.
    pub active_resources: usize,
    /// Resources with zero traffic.
    pub idle_resources: usize,
    /// Mean utilization of *active* resources (bytes / capacity / makespan).
    pub mean_active_utilization: f64,
    /// Highest utilization over all resources.
    pub peak_utilization: f64,
    /// Resource with the highest utilization.
    pub busiest: Option<u32>,
}

/// Why a stats computation could not run on a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The report was produced without `collect_link_stats`.
    MissingLinkStats,
    /// The report's per-resource counters and the capacity table disagree
    /// on length (report from a different network).
    CapacityMismatch { resources: usize, capacities: usize },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::MissingLinkStats => {
                write!(f, "report lacks link stats; enable collect_link_stats")
            }
            StatsError::CapacityMismatch {
                resources,
                capacities,
            } => write!(
                f,
                "report has {resources} resources but {capacities} capacities were given"
            ),
        }
    }
}

impl std::error::Error for StatsError {}

/// Compute utilization over `capacities` from a report with link stats.
///
/// # Panics
/// Panics if the report was produced without `collect_link_stats` or the
/// capacity table does not match; use [`try_utilization`] to handle those
/// as values.
pub fn utilization(report: &SimReport, capacities: &[f64]) -> Utilization {
    try_utilization(report, capacities).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`utilization`], matching the workspace's `try_*`
/// convention for conditions a caller can meaningfully handle.
pub fn try_utilization(report: &SimReport, capacities: &[f64]) -> Result<Utilization, StatsError> {
    let bytes = report
        .resource_bytes
        .as_ref()
        .ok_or(StatsError::MissingLinkStats)?;
    if bytes.len() != capacities.len() {
        return Err(StatsError::CapacityMismatch {
            resources: bytes.len(),
            capacities: capacities.len(),
        });
    }
    let span = report.makespan.max(f64::MIN_POSITIVE);

    let mut active = 0usize;
    let mut sum_active = 0.0f64;
    let mut peak = 0.0f64;
    let mut busiest = None;
    for (i, (&b, &c)) in bytes.iter().zip(capacities).enumerate() {
        if b > 0.0 {
            active += 1;
            let u = b / (c * span);
            sum_active += u;
            if u > peak {
                peak = u;
                busiest = Some(i as u32);
            }
        }
    }
    Ok(Utilization {
        active_resources: active,
        idle_resources: bytes.len() - active,
        mean_active_utilization: if active > 0 {
            sum_active / active as f64
        } else {
            0.0
        },
        peak_utilization: peak,
        busiest,
    })
}

/// Fraction of resources that carried any traffic — the paper's notion of
/// resource utilization for sparse patterns ("only specific regions of the
/// system are involved", §IV.A).
///
/// # Panics
/// Panics without `collect_link_stats`; see [`try_active_fraction`].
pub fn active_fraction(report: &SimReport) -> f64 {
    try_active_fraction(report).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`active_fraction`].
pub fn try_active_fraction(report: &SimReport) -> Result<f64, StatsError> {
    let bytes = report
        .resource_bytes
        .as_ref()
        .ok_or(StatsError::MissingLinkStats)?;
    if bytes.is_empty() {
        return Ok(0.0);
    }
    Ok(bytes.iter().filter(|&&b| b > 0.0).count() as f64 / bytes.len() as f64)
}

/// Per-node byte totals (sent, received) for a run.
pub fn node_traffic(graph: &TransferGraph, num_nodes: u32) -> (Vec<u64>, Vec<u64>) {
    let mut sent = vec![0u64; num_nodes as usize];
    let mut received = vec![0u64; num_nodes as usize];
    for s in graph.specs() {
        sent[s.src as usize] += s.bytes;
        received[s.dst as usize] += s.bytes;
    }
    (sent, received)
}

/// The transfers that finished last (the stragglers that set the
/// makespan), up to `k` of them, latest first.
pub fn stragglers(report: &SimReport, k: usize) -> Vec<(TransferId, f64)> {
    let mut v: Vec<(TransferId, f64)> = report
        .delivery_time
        .iter()
        .enumerate()
        .map(|(i, &t)| (TransferId(i as u32), t))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v.truncate(k);
    v
}

/// Effective throughput of one logical operation spanning `ids`:
/// `bytes / (last delivery - first flow start)`.
pub fn windowed_throughput(report: &SimReport, graph: &TransferGraph, ids: &[TransferId]) -> f64 {
    if ids.is_empty() {
        return 0.0;
    }
    let bytes: u64 = ids.iter().map(|id| graph.specs()[id.index()].bytes).sum();
    let start = ids
        .iter()
        .map(|id| report.flow_start_time[id.index()])
        .fold(f64::INFINITY, f64::min);
    let end = report.last_delivery(ids);
    if end > start {
        bytes as f64 / (end - start)
    } else {
        0.0
    }
}

/// Approximate network activity over time: the makespan is divided into
/// `windows` equal buckets and each transfer's bytes are spread uniformly
/// over its flow interval (`flow_start..delivered`). Returns, per bucket,
/// the aggregate bytes/second in flight — a utilization timeline suitable
/// for spotting phases and stragglers without per-event link accounting.
pub fn activity_timeline(graph: &TransferGraph, report: &SimReport, windows: usize) -> Vec<f64> {
    assert!(windows > 0, "need at least one window");
    let span = report.makespan;
    let mut buckets = vec![0.0f64; windows];
    if span <= 0.0 {
        return buckets;
    }
    let wlen = span / windows as f64;
    for (i, s) in graph.specs().iter().enumerate() {
        if s.bytes == 0 {
            continue;
        }
        let start = report.flow_start_time[i];
        let end = report.delivery_time[i];
        if !(start.is_finite() && end.is_finite()) || end <= start {
            continue;
        }
        let rate = s.bytes as f64 / (end - start);
        let first = ((start / wlen) as usize).min(windows - 1);
        let last = ((end / wlen) as usize).min(windows - 1);
        for (w, bucket) in buckets.iter_mut().enumerate().take(last + 1).skip(first) {
            let wstart = w as f64 * wlen;
            let wend = wstart + wlen;
            let overlap = (end.min(wend) - start.max(wstart)).max(0.0);
            *bucket += rate * overlap / wlen;
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::graph::{ResourceId, TransferSpec};

    fn cfg() -> SimConfig {
        SimConfig {
            link_bandwidth: 100.0,
            io_link_bandwidth: 100.0,
            per_flow_cap: 100.0,
            hop_latency: 0.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            rma_phase_overhead: 0.0,
            forward_overhead: 0.0,
            contention_penalty: 0.0,
            contention_floor: 1.0,
            collect_link_stats: true,
        }
    }

    fn run_two_flows() -> (SimReport, TransferGraph, Vec<f64>) {
        let caps = vec![100.0, 100.0, 100.0];
        let sim = Simulator::new(3, caps.clone(), cfg());
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 500, vec![ResourceId(1)]));
        let rep = sim.simulate(&g, crate::SimOptions::new());
        (rep, g, caps)
    }

    #[test]
    fn utilization_identifies_idle_and_busy() {
        let (rep, _g, caps) = run_two_flows();
        let u = utilization(&rep, &caps);
        assert_eq!(u.active_resources, 2);
        assert_eq!(u.idle_resources, 1);
        assert_eq!(u.busiest, Some(0), "the 1000-byte flow's link is busiest");
        assert!(u.peak_utilization <= 1.0 + 1e-9);
        assert!(u.mean_active_utilization > 0.0);
    }

    #[test]
    fn active_fraction_matches() {
        let (rep, _, _) = run_two_flows();
        assert!((active_fraction(&rep) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn node_traffic_sums_per_endpoint() {
        let (_, g, _) = run_two_flows();
        let (sent, recv) = node_traffic(&g, 3);
        assert_eq!(sent, vec![1000, 500, 0]);
        assert_eq!(recv, vec![0, 1000, 500]);
    }

    #[test]
    fn stragglers_are_sorted_latest_first() {
        let (rep, _, _) = run_two_flows();
        let s = stragglers(&rep, 2);
        assert_eq!(s.len(), 2);
        assert!(s[0].1 >= s[1].1);
        assert_eq!(s[0].0, TransferId(0), "the big flow finishes last");
    }

    #[test]
    fn windowed_throughput_excludes_queueing() {
        let (rep, g, _) = run_two_flows();
        let thr = windowed_throughput(&rep, &g, &[TransferId(0)]);
        // 1000 bytes at 100 B/s from flow start to delivery.
        assert!((thr - 100.0).abs() < 1e-6, "{thr}");
        assert_eq!(windowed_throughput(&rep, &g, &[]), 0.0);
    }

    #[test]
    fn activity_timeline_spreads_flow_rates() {
        let (rep, g, _) = run_two_flows();
        let buckets = activity_timeline(&g, &rep, 4);
        assert_eq!(buckets.len(), 4);
        // Flow 0: 1000 B over [0,10] at 100 B/s; flow 1: 500 B over [0,5]
        // at 100 B/s. Makespan 10, windows of 2.5 s:
        // w0,w1: both flows -> 200 B/s; w2,w3: only flow 0 -> 100 B/s.
        assert!((buckets[0] - 200.0).abs() < 1e-6, "{buckets:?}");
        assert!((buckets[1] - 200.0).abs() < 1e-6);
        assert!((buckets[2] - 100.0).abs() < 1e-6);
        assert!((buckets[3] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn activity_timeline_empty_graph() {
        let sim = Simulator::new(1, vec![], cfg());
        let g = TransferGraph::new();
        let rep = sim.simulate(&g, crate::SimOptions::new());
        assert_eq!(activity_timeline(&g, &rep, 3), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_windows_panics() {
        let (rep, g, _) = run_two_flows();
        activity_timeline(&g, &rep, 0);
    }

    #[test]
    fn try_utilization_reports_errors_as_values() {
        let (rep, _g, caps) = run_two_flows();
        // Matching inputs: same answer as the panicking wrapper.
        assert_eq!(try_utilization(&rep, &caps), Ok(utilization(&rep, &caps)));
        // Capacity table from a different network.
        let err = try_utilization(&rep, &[100.0]).unwrap_err();
        assert_eq!(
            err,
            StatsError::CapacityMismatch {
                resources: 3,
                capacities: 1
            }
        );
        // No link stats collected.
        let mut c = cfg();
        c.collect_link_stats = false;
        let sim = Simulator::new(2, vec![100.0], c);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 10, vec![ResourceId(0)]));
        let bare = sim.simulate(&g, crate::SimOptions::new());
        assert_eq!(
            try_utilization(&bare, &[100.0]).unwrap_err(),
            StatsError::MissingLinkStats
        );
        assert_eq!(
            try_active_fraction(&bare),
            Err(StatsError::MissingLinkStats)
        );
        assert!(err.to_string().contains("3 resources"));
    }

    #[test]
    #[should_panic(expected = "lacks link stats")]
    fn utilization_requires_stats() {
        let mut c = cfg();
        c.collect_link_stats = false;
        let sim = Simulator::new(2, vec![100.0], c);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 10, vec![ResourceId(0)]));
        let rep = sim.simulate(&g, crate::SimOptions::new());
        utilization(&rep, &[100.0]);
    }
}
