//! Post-run analysis of simulation reports: per-resource bytes and link
//! utilization.
//!
//! The raw [`SimReport`] carries per-transfer timings and statuses; with
//! the [`TransferGraph`] that produced it, this module derives the
//! quantities the paper reasons about — bytes per resource and link
//! utilization ("one path is used, other paths are idle", Fig. 2).

use crate::engine::{SimReport, TransferStatus};
use crate::graph::TransferGraph;

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

/// Why a stats computation could not run on a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The graph routes over more resources than the capacity table has
    /// (capacities from a different network).
    CapacityMismatch { resources: usize, capacities: usize },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::CapacityMismatch {
                resources,
                capacities,
            } => write!(
                f,
                "graph routes over {resources} resources but {capacities} capacities were given"
            ),
        }
    }
}

impl std::error::Error for StatsError {}

/// Bytes each of `num_resources` resources carried in a run of `graph`.
///
/// A delivered transfer carried its whole payload over every resource on
/// its route, so each one adds its `bytes` once per route hop. Transfers
/// that did not deliver ([`TransferStatus::Stalled`] or
/// [`TransferStatus::NotStarted`]) add nothing, even where a stalled
/// flow had moved part of its payload before its fault.
///
/// # Panics
/// Panics if the report is not of `graph` (different transfer count) or
/// a route names a resource at or past `num_resources`.
pub fn resource_bytes(graph: &TransferGraph, report: &SimReport, num_resources: usize) -> Vec<f64> {
    assert_eq!(
        report.status.len(),
        graph.len(),
        "report and graph disagree on the transfer count"
    );
    let mut bytes = vec![0.0f64; num_resources];
    for (s, &status) in graph.specs().iter().zip(&report.status) {
        if status == TransferStatus::Delivered {
            for r in &s.route {
                bytes[r.0 as usize] += s.bytes as f64;
            }
        }
    }
    bytes
}

/// Compute utilization over `capacities` of a run of `graph`, from
/// [`resource_bytes`].
///
/// # Panics
/// Panics if the graph routes over a resource outside `capacities`; use
/// [`try_utilization`] to handle that as a value.
pub fn utilization(graph: &TransferGraph, report: &SimReport, capacities: &[f64]) -> Utilization {
    try_utilization(graph, report, capacities).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`utilization`], matching the workspace's `try_*`
/// convention for conditions a caller can meaningfully handle.
pub fn try_utilization(
    graph: &TransferGraph,
    report: &SimReport,
    capacities: &[f64],
) -> Result<Utilization, StatsError> {
    let resources = graph
        .specs()
        .iter()
        .flat_map(|s| &s.route)
        .map(|r| r.0 as usize + 1)
        .max()
        .unwrap_or(0);
    if resources > capacities.len() {
        return Err(StatsError::CapacityMismatch {
            resources,
            capacities: capacities.len(),
        });
    }
    let bytes = resource_bytes(graph, report, capacities.len());
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

/// Fraction of `num_resources` resources that carried any traffic — the
/// paper's notion of resource utilization for sparse patterns ("only
/// specific regions of the system are involved", §IV.A).
///
/// # Panics
/// As [`resource_bytes`].
pub fn active_fraction(graph: &TransferGraph, report: &SimReport, num_resources: usize) -> f64 {
    if num_resources == 0 {
        return 0.0;
    }
    let bytes = resource_bytes(graph, report, num_resources);
    bytes.iter().filter(|&&b| b > 0.0).count() as f64 / num_resources as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::fault::FaultPlan;
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
        let (rep, g, caps) = run_two_flows();
        let u = utilization(&g, &rep, &caps);
        assert_eq!(u.active_resources, 2);
        assert_eq!(u.idle_resources, 1);
        assert_eq!(u.busiest, Some(0), "the 1000-byte flow's link is busiest");
        assert!(u.peak_utilization <= 1.0 + 1e-9);
        assert!(u.mean_active_utilization > 0.0);
    }

    #[test]
    fn active_fraction_matches() {
        let (rep, g, caps) = run_two_flows();
        assert!((active_fraction(&g, &rep, caps.len()) - 2.0 / 3.0).abs() < 1e-12);
        // No resources at all: nothing is active.
        let empty = TransferGraph::new();
        let rep = Simulator::new(1, vec![], cfg()).simulate(&empty, crate::SimOptions::new());
        assert_eq!(active_fraction(&empty, &rep, 0), 0.0);
    }

    #[test]
    fn delivered_transfer_adds_its_payload_to_every_hop() {
        // Three hops, one of them shared with a second transfer.
        let sim = Simulator::new(4, vec![100.0; 4], cfg());
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(
            0,
            3,
            1000,
            vec![ResourceId(0), ResourceId(1), ResourceId(2)],
        ));
        g.add(TransferSpec::new(1, 2, 300, vec![ResourceId(1)]));
        let rep = sim.simulate(&g, crate::SimOptions::new());
        assert_eq!(
            resource_bytes(&g, &rep, 4),
            vec![1000.0, 1300.0, 1000.0, 0.0]
        );
    }

    #[test]
    fn stalled_transfer_contributes_nothing() {
        // Transfer 0's only link dies mid-flight and never heals; transfer
        // 1 runs on its own link and delivers.
        let sim = Simulator::new(3, vec![100.0, 100.0], cfg());
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 500, vec![ResourceId(1)]));
        let plan = FaultPlan::new().fail_link(2.0, ResourceId(0));
        let rep = sim.simulate(&g, crate::SimOptions::new().faults(&plan));
        assert_eq!(
            rep.status,
            vec![TransferStatus::Stalled, TransferStatus::Delivered]
        );
        assert_eq!(resource_bytes(&g, &rep, 2), vec![0.0, 500.0]);
        assert_eq!(active_fraction(&g, &rep, 2), 0.5);
    }

    #[test]
    fn try_utilization_reports_errors_as_values() {
        let (rep, g, caps) = run_two_flows();
        // Matching inputs: same answer as the panicking wrapper.
        assert_eq!(
            try_utilization(&g, &rep, &caps),
            Ok(utilization(&g, &rep, &caps))
        );
        // Capacity table from a smaller network than the graph routes over.
        let err = try_utilization(&g, &rep, &[100.0]).unwrap_err();
        assert_eq!(
            err,
            StatsError::CapacityMismatch {
                resources: 2,
                capacities: 1
            }
        );
        assert!(err.to_string().contains("2 resources"));
    }

    #[test]
    #[should_panic(expected = "1 capacities were given")]
    fn utilization_panics_on_a_short_capacity_table() {
        let (rep, g, _) = run_two_flows();
        utilization(&g, &rep, &[100.0]);
    }
}
