//! Timeline traces: per-transfer phase timelines suitable for debugging
//! protocols and for rendering simple text Gantt charts.
//!
//! A trace row combines the graph's structure with the report's timings:
//! when a transfer became eligible (all dependencies delivered), when its
//! flow started moving bytes (injection complete) and when it was
//! delivered. Queueing and synchronization time is the gap between
//! eligibility and flow start.

use crate::engine::SimReport;
use crate::graph::{TransferGraph, TransferId};
use std::fmt::Write as _;

/// Timeline of one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow {
    pub id: TransferId,
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
    /// When the last dependency was delivered (0 for root transfers).
    pub eligible: f64,
    /// When bytes started moving.
    pub flow_start: f64,
    /// Delivery at the destination.
    pub delivered: f64,
}

/// Build the trace for every transfer of a completed run.
pub fn trace(graph: &TransferGraph, report: &SimReport) -> Vec<TraceRow> {
    graph
        .specs()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let eligible = s
                .deps
                .iter()
                .map(|d| report.delivery_time[d.index()])
                .fold(s.start_at, f64::max);
            TraceRow {
                id: TransferId(i as u32),
                src: s.src,
                dst: s.dst,
                bytes: s.bytes,
                eligible,
                flow_start: report.flow_start_time[i],
                delivered: report.delivery_time[i],
            }
        })
        .collect()
}

/// Render a text Gantt chart of the trace (one row per transfer), `width`
/// characters across the full makespan. Rows are ordered by flow start.
pub fn gantt(rows: &[TraceRow], makespan: f64, width: usize) -> String {
    assert!(width >= 10, "gantt needs at least 10 columns");
    let mut sorted: Vec<&TraceRow> = rows.iter().collect();
    sorted.sort_by(|a, b| a.flow_start.total_cmp(&b.flow_start));
    let span = makespan.max(f64::MIN_POSITIVE);
    let scale = |t: f64| ((t / span) * (width - 1) as f64).round() as usize;

    let mut out = String::new();
    for r in sorted {
        let s = scale(r.flow_start).min(width - 1);
        let e = scale(r.delivered).clamp(s + 1, width);
        let mut bar = vec![b' '; width];
        for b in bar.iter_mut().take(e).skip(s) {
            *b = b'=';
        }
        let _ = writeln!(
            out,
            "{:>6} {:>5}->{:<5} |{}| {:>9.3}ms",
            r.id.to_string(),
            r.src,
            r.dst,
            String::from_utf8(bar).unwrap(),
            r.delivered * 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::graph::{ResourceId, TransferSpec};

    fn run() -> (TransferGraph, SimReport) {
        let cfg = SimConfig {
            link_bandwidth: 100.0,
            io_link_bandwidth: 100.0,
            per_flow_cap: 100.0,
            hop_latency: 0.0,
            send_overhead: 1.0,
            recv_overhead: 0.0,
            rma_phase_overhead: 0.0,
            forward_overhead: 0.0,
            contention_penalty: 0.0,
            contention_floor: 1.0,
        };
        let sim = Simulator::new(3, vec![100.0, 100.0], cfg);
        let mut g = TransferGraph::new();
        let a = g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        g.add(
            TransferSpec::new(1, 2, 500, vec![ResourceId(1)])
                .after(vec![a])
                .with_delay(0.5),
        );
        let rep = sim.simulate(&g, crate::SimOptions::new());
        (g, rep)
    }

    #[test]
    fn trace_reconstructs_phases() {
        let (g, rep) = run();
        let rows = trace(&g, &rep);
        assert_eq!(rows.len(), 2);
        // Root transfer: eligible at 0, flow starts after 1s injection.
        assert_eq!(rows[0].eligible, 0.0);
        assert!((rows[0].flow_start - 1.0).abs() < 1e-9);
        let rate = rows[0].bytes as f64 / (rows[0].delivered - rows[0].flow_start);
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        // Dependent: eligible when the first was delivered (11.0); waits
        // the 0.5 s forwarding delay plus 1 s injection.
        assert!((rows[1].eligible - 11.0).abs() < 1e-9);
        let wait = rows[1].flow_start - rows[1].eligible;
        assert!((wait - 1.5).abs() < 1e-9, "{wait}");
    }

    #[test]
    fn gantt_renders_every_row() {
        let (g, rep) = run();
        let rows = trace(&g, &rep);
        let chart = gantt(&rows, rep.makespan, 40);
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.contains('='));
    }

    #[test]
    #[should_panic(expected = "at least 10")]
    fn tiny_gantt_rejected() {
        gantt(&[], 1.0, 5);
    }
}
