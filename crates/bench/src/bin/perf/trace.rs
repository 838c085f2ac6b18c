//! Wall-clock spans for the traced run: recorded around each layer call
//! the benchmark makes, kept in memory, and written as Chrome trace-event
//! JSON (loadable in Perfetto or `chrome://tracing`) when the run ends.
//!
//! A disabled tracer records nothing, so untraced iterations pay only a
//! branch per span.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span: a layer call on one side of one iteration.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Module-qualified layer, e.g. `netsim.simulate`.
    pub layer: &'static str,
    /// Workload side, or `""` for the iteration span.
    pub side: &'static str,
    pub iter: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Token returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
    iter: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: false,
            iter: 0,
        }
    }

    /// Start iteration `iter`, recording its spans only when `enabled`.
    pub fn start_iteration(&mut self, iter: u32, enabled: bool) {
        debug_assert!(self.open.is_empty(), "iteration started inside a span");
        self.iter = iter;
        self.enabled = enabled;
    }

    pub fn begin(&mut self, layer: &'static str, side: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            side,
            iter: self.iter,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
            self.spans[id].end = self.origin.elapsed();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the durations of its
    /// direct children (which nest inside it).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.duration());
            }
        }
        out
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph":"X"`)
    /// event per span, times in microseconds, with the iteration, parent
    /// index and self time under `args`.
    pub fn to_chrome_json(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = if s.side.is_empty() {
                s.layer.to_string()
            } else {
                format!("{}.{}", s.layer, s.side)
            };
            let cat = s.layer.split('.').next().unwrap_or(s.layer);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"iter\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                bgq_obs::json::escape(&name),
                bgq_obs::json::escape(cat),
                micros(s.start),
                micros(s.duration()),
                s.iter,
                s.parent.map_or(-1, |p| p as i64),
                micros(*own),
            );
        }
        out.push_str("]}");
        out
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new();
        tr.start_iteration(0, true);
        let root = tr.begin("bench.iteration", "");
        let side = tr.begin("bench.side", "a");
        let leaf = tr.begin("netsim.simulate", "a");
        std::thread::sleep(Duration::from_millis(2));
        tr.end(leaf);
        tr.end(side);
        tr.end(root);
        let selfs = tr.self_times();
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(selfs[2], spans[2].duration());
        assert_eq!(selfs[1], spans[1].duration() - spans[2].duration());
        assert_eq!(selfs[0], spans[0].duration() - spans[1].duration());
        let json = tr.to_chrome_json();
        bgq_obs::json::validate(&json).expect("trace must be valid JSON");
        assert!(json.contains("\"name\":\"netsim.simulate.a\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.start_iteration(3, false);
        let s = tr.begin("netsim.simulate", "a");
        tr.end(s);
        assert!(tr.spans().is_empty());
        assert_eq!(
            tr.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
