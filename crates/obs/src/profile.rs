//! Run profiles: per-transfer time decomposition, per-link blame, and
//! critical-path extraction, with deterministic JSON/CSV artifacts.
//!
//! This is the topology-agnostic half of the bottleneck-attribution
//! profiler. The simulator (`bgq-netsim`) attributes every active
//! nanosecond of every flow to a binding resource; the bench layer
//! resolves resource indices to human link labels and converts the
//! result into a [`RunProfile`] here. This module owns everything that
//! does *not* need the engine: the artifact schema, rollups, ranking,
//! dependency-chain (critical path) analysis, and the read-back/diff
//! used for regression checking.
//!
//! Artifact contract (shared with the rest of the crate): serialization
//! is deterministic — fixed key order, sorted link labels,
//! shortest-round-trip floats — so two identical runs produce
//! byte-identical files, and [`ProfileArtifact::from_json`] restores
//! the exact float bits [`ProfileArtifact::to_json`] wrote.

use crate::json::{self, Value};

/// Time decomposition of one transfer, with engine resource indices
/// already resolved to link labels.
///
/// Category semantics (mirroring `bgq-netsim`'s profiler): `queued` is
/// ready→first-byte (injection queueing + overhead + parked-while-down),
/// `link_blame` is time rate-limited by each named link, `cap_limited`
/// is time bound by the flow's own rate cap (the per-flow protocol
/// limit), `stalled` is fault freeze time, and `latency` is
/// drain→delivery pipeline time. The categories sum to `end - ready`
/// within float-accumulation noise ([`RunProfile::validate`] checks).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferProfile {
    /// Transfer id (graph index within its run).
    pub id: u32,
    /// Human label, e.g. `"n0->n127"`.
    pub label: String,
    /// Payload size.
    pub bytes: u64,
    /// When dependencies were met; `INFINITY` if never ready.
    pub ready: f64,
    /// When the first byte moved; `INFINITY` if the flow never started.
    pub start: f64,
    /// Delivery time, or the run's `end_time` if undelivered.
    pub end: f64,
    pub delivered: bool,
    pub queued: f64,
    pub cap_limited: f64,
    pub stalled: f64,
    pub latency: f64,
    /// `(link label, seconds)` sorted by label, unique labels.
    pub link_blame: Vec<(String, f64)>,
    /// Binding change points `(time, label)`; `"cap"` = own rate cap.
    pub bindings: Vec<(f64, String)>,
    /// Ids of the transfers this one waited for (gate tokens included —
    /// the store-and-forward chaining of multipath proxy stages).
    pub deps: Vec<u32>,
}

impl TransferProfile {
    /// Total seconds rate-limited by links. (Folded from `+0.0`: an
    /// empty `Sum` would yield `-0.0`, which reads badly in reports.)
    pub fn network_limited(&self) -> f64 {
        self.link_blame.iter().fold(0.0, |a, (_, s)| a + s)
    }

    /// Sum of all categories; should equal [`elapsed`](Self::elapsed).
    pub fn accounted(&self) -> f64 {
        self.queued + self.cap_limited + self.stalled + self.latency + self.network_limited()
    }

    /// Wall time from ready to end (0 if the transfer never readied).
    pub fn elapsed(&self) -> f64 {
        if self.ready.is_finite() {
            self.end - self.ready
        } else {
            0.0
        }
    }

    /// The link this transfer spent the most time bound by.
    pub fn dominant_link(&self) -> Option<(&str, f64)> {
        self.link_blame
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, s)| (l.as_str(), *s))
    }
}

/// One simulated run's worth of transfer profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// Run name, e.g. `"direct"` or `"multipath"`.
    pub name: String,
    /// Simulation clock when the run's event queue drained.
    pub end_time: f64,
    pub transfers: Vec<TransferProfile>,
}

impl RunProfile {
    /// Per-link blame rollup, sorted by label: every flow's
    /// link-limited seconds regrouped by link.
    pub fn link_blame(&self) -> Vec<(String, f64)> {
        let mut acc: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
        for t in &self.transfers {
            for (l, s) in &t.link_blame {
                *acc.entry(l.as_str()).or_insert(0.0) += s;
            }
        }
        acc.into_iter().map(|(l, s)| (l.to_string(), s)).collect()
    }

    /// Total link-limited seconds across all transfers.
    pub fn total_network_limited(&self) -> f64 {
        self.transfers
            .iter()
            .fold(0.0, |a, t| a + t.network_limited())
    }

    /// The `k` most-blamed links, descending seconds (ties by label).
    pub fn top_bottlenecks(&self, k: usize) -> Vec<(String, f64)> {
        let mut blame = self.link_blame();
        blame.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        blame.truncate(k);
        blame
    }

    /// The dependency chain ending at the transfer that finished last:
    /// walk back from the latest `end`, at each step following the
    /// dependency that delivered last (the gating one — a transfer
    /// becomes ready when its *last* dependency delivers). For multipath
    /// proxy chains this recovers the src→proxy→dst store-and-forward
    /// sequence that bounded the run. Returns transfer ids in
    /// chronological order; empty only for a run with no transfers.
    pub fn critical_path(&self) -> Vec<u32> {
        let latest = |ids: &mut dyn Iterator<Item = u32>| -> Option<u32> {
            ids.max_by(|&a, &b| {
                let (ta, tb) = (&self.transfers[a as usize], &self.transfers[b as usize]);
                ta.end.total_cmp(&tb.end).then(b.cmp(&a)) // ties: lowest id
            })
        };
        let Some(mut cur) = latest(&mut (0..self.transfers.len() as u32)) else {
            return Vec::new();
        };
        let mut path = vec![cur];
        loop {
            let deps = &self.transfers[cur as usize].deps;
            let Some(gate) = latest(&mut deps.iter().copied()) else {
                break;
            };
            // Defensive: malformed artifacts could make dep cycles;
            // never loop forever.
            if path.contains(&gate) {
                break;
            }
            path.push(gate);
            cur = gate;
        }
        path.reverse();
        path
    }

    /// The slowest segment on the critical path: the transfer whose
    /// ready→end span is largest, with that span in seconds.
    pub fn slowest_segment(&self) -> Option<(u32, f64)> {
        self.critical_path()
            .into_iter()
            .map(|id| (id, self.transfers[id as usize].elapsed()))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Structural and accounting invariants:
    ///
    /// * per-transfer categories sum to the elapsed time within
    ///   float-accumulation tolerance;
    /// * `link_blame` labels sorted and unique;
    /// * dependency ids in range;
    /// * no transfer ends after `end_time`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.transfers.len();
        for t in &self.transfers {
            if t.ready.is_finite() {
                let elapsed = t.elapsed();
                let err = (t.accounted() - elapsed).abs();
                let tol = 1e-6 * elapsed.abs().max(1.0);
                if err > tol {
                    return Err(format!(
                        "run {:?} transfer {}: categories sum to {} but elapsed is {} (err {err:e})",
                        self.name,
                        t.id,
                        t.accounted(),
                        elapsed,
                    ));
                }
            }
            if !t.link_blame.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!(
                    "run {:?} transfer {}: link_blame labels not sorted/unique",
                    self.name, t.id
                ));
            }
            for &d in &t.deps {
                if d as usize >= n {
                    return Err(format!(
                        "run {:?} transfer {}: dep {d} out of range ({n} transfers)",
                        self.name, t.id
                    ));
                }
            }
            if t.end > self.end_time * (1.0 + 1e-12) + 1e-12 {
                return Err(format!(
                    "run {:?} transfer {}: ends at {} after end_time {}",
                    self.name, t.id, t.end, self.end_time
                ));
            }
        }
        Ok(())
    }

    /// CSV rows for this run's transfers (no header).
    fn csv_rows(&self, out: &mut String) {
        for t in &self.transfers {
            let dom = t.dominant_link().map(|(l, _)| l).unwrap_or("");
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                self.name,
                t.id,
                t.label,
                t.bytes,
                t.delivered,
                fmt(t.ready),
                fmt(t.start),
                fmt(t.end),
                fmt(t.queued),
                fmt(t.network_limited()),
                fmt(t.cap_limited),
                fmt(t.stalled),
                fmt(t.latency),
                dom,
            ));
        }
    }
}

/// Shortest-round-trip float formatting; infinities come out as `inf`
/// (CSV only — JSON uses `null`).
fn fmt(v: f64) -> String {
    format!("{v:?}")
}

/// Artifact schema version (`"bgq_profile"` top-level key).
pub const PROFILE_VERSION: u64 = 1;

/// A profile artifact: one or more named runs, e.g. the direct and
/// multipath variants of a figure scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileArtifact {
    pub runs: Vec<RunProfile>,
}

impl ProfileArtifact {
    /// Run by name.
    pub fn run(&self, name: &str) -> Option<&RunProfile> {
        self.runs.iter().find(|r| r.name == name)
    }

    /// Validate every run (see [`RunProfile::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.runs {
            r.validate()?;
        }
        Ok(())
    }

    /// Deterministic JSON: fixed key order, sorted blame labels, floats
    /// in shortest-round-trip form, non-finite times as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"bgq_profile\": {PROFILE_VERSION},\n  \"runs\": [");
        for (ri, r) in self.runs.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"name\": {},\n      \"end_time\": {},\n      \"transfers\": [",
                json::escape(&r.name),
                json::number(r.end_time)
            ));
            for (ti, t) in r.transfers.iter().enumerate() {
                if ti > 0 {
                    out.push(',');
                }
                let blame: Vec<String> = t
                    .link_blame
                    .iter()
                    .map(|(l, s)| format!("[{}, {}]", json::escape(l), fmt(*s)))
                    .collect();
                let binds: Vec<String> = t
                    .bindings
                    .iter()
                    .map(|(at, l)| format!("[{}, {}]", fmt(*at), json::escape(l)))
                    .collect();
                let deps: Vec<String> = t.deps.iter().map(|d| d.to_string()).collect();
                out.push_str(&format!(
                    "\n        {{\"id\": {}, \"label\": {}, \"bytes\": {}, \
                     \"ready\": {}, \"start\": {}, \"end\": {}, \"delivered\": {}, \
                     \"queued\": {}, \"cap_limited\": {}, \"stalled\": {}, \"latency\": {}, \
                     \"link_blame\": [{}], \"bindings\": [{}], \"deps\": [{}]}}",
                    t.id,
                    json::escape(&t.label),
                    t.bytes,
                    json::number(t.ready),
                    json::number(t.start),
                    json::number(t.end),
                    t.delivered,
                    fmt(t.queued),
                    fmt(t.cap_limited),
                    fmt(t.stalled),
                    fmt(t.latency),
                    blame.join(", "),
                    binds.join(", "),
                    deps.join(", "),
                ));
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Deterministic per-transfer CSV
    /// (`run,id,label,bytes,delivered,ready,start,end,queued,network_limited,cap_limited,stalled,latency,dominant_link`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "run,id,label,bytes,delivered,ready,start,end,queued,network_limited,cap_limited,stalled,latency,dominant_link\n",
        );
        for r in &self.runs {
            r.csv_rows(&mut out);
        }
        out
    }

    /// Deterministic per-link blame rollup CSV (`run,link,seconds`).
    pub fn blame_csv(&self) -> String {
        let mut out = String::from("run,link,seconds\n");
        for r in &self.runs {
            for (l, s) in r.link_blame() {
                out.push_str(&format!("{},{},{}\n", r.name, l, fmt(s)));
            }
        }
        out
    }

    /// Parse an artifact previously written by
    /// [`to_json`](Self::to_json). Floats restore bit-exactly.
    pub fn from_json(input: &str) -> Result<ProfileArtifact, String> {
        let v = json::parse(input)?;
        let version = v
            .get("bgq_profile")
            .and_then(Value::as_u64)
            .ok_or("missing \"bgq_profile\" version key")?;
        if version != PROFILE_VERSION {
            return Err(format!(
                "profile version {version} unsupported (expected {PROFILE_VERSION})"
            ));
        }
        let runs = v
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or("missing \"runs\" array")?;
        let mut out = ProfileArtifact::default();
        for (ri, rv) in runs.iter().enumerate() {
            let name = rv
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("run {ri}: missing name"))?
                .to_string();
            let end_time =
                opt_f64(rv.get("end_time")).ok_or_else(|| format!("run {ri}: missing end_time"))?;
            let mut transfers = Vec::new();
            for (ti, tv) in rv
                .get("transfers")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("run {ri}: missing transfers"))?
                .iter()
                .enumerate()
            {
                let ctx = || format!("run {ri} transfer {ti}");
                let f =
                    |key: &str| opt_f64(tv.get(key)).ok_or_else(|| format!("{}: bad {key}", ctx()));
                let mut link_blame = Vec::new();
                for pair in tv
                    .get("link_blame")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("{}: bad link_blame", ctx()))?
                {
                    let p = pair.as_arr().filter(|p| p.len() == 2);
                    let (l, s) = p
                        .and_then(|p| Some((p[0].as_str()?, p[1].as_f64()?)))
                        .ok_or_else(|| format!("{}: bad link_blame pair", ctx()))?;
                    link_blame.push((l.to_string(), s));
                }
                let mut bindings = Vec::new();
                for pair in tv
                    .get("bindings")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("{}: bad bindings", ctx()))?
                {
                    let p = pair.as_arr().filter(|p| p.len() == 2);
                    let (at, l) = p
                        .and_then(|p| Some((p[0].as_f64()?, p[1].as_str()?)))
                        .ok_or_else(|| format!("{}: bad bindings pair", ctx()))?;
                    bindings.push((at, l.to_string()));
                }
                let deps = tv
                    .get("deps")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("{}: bad deps", ctx()))?
                    .iter()
                    .map(|d| d.as_u64().map(|d| d as u32))
                    .collect::<Option<Vec<u32>>>()
                    .ok_or_else(|| format!("{}: bad dep id", ctx()))?;
                transfers.push(TransferProfile {
                    id: tv
                        .get("id")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("{}: bad id", ctx()))?
                        as u32,
                    label: tv
                        .get("label")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{}: bad label", ctx()))?
                        .to_string(),
                    bytes: tv
                        .get("bytes")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("{}: bad bytes", ctx()))?,
                    ready: f("ready")?,
                    start: f("start")?,
                    end: f("end")?,
                    delivered: tv
                        .get("delivered")
                        .and_then(Value::as_bool)
                        .ok_or_else(|| format!("{}: bad delivered", ctx()))?,
                    queued: f("queued")?,
                    cap_limited: f("cap_limited")?,
                    stalled: f("stalled")?,
                    latency: f("latency")?,
                    link_blame,
                    bindings,
                    deps,
                });
            }
            out.runs.push(RunProfile {
                name,
                end_time,
                transfers,
            });
        }
        Ok(out)
    }

    /// Compare against a baseline artifact for regression checking.
    /// Returns human-readable difference lines (empty = no regressions):
    /// run set changes, makespan drift beyond `1e-6` relative, transfer
    /// count changes, bottleneck-link set changes, and per-link blame
    /// drift beyond 1% relative.
    pub fn diff(&self, baseline: &ProfileArtifact) -> Vec<String> {
        let mut out = Vec::new();
        for b in &baseline.runs {
            if self.run(&b.name).is_none() {
                out.push(format!("run {:?} missing (present in baseline)", b.name));
            }
        }
        for r in &self.runs {
            let Some(b) = baseline.run(&r.name) else {
                out.push(format!("run {:?} added (absent from baseline)", r.name));
                continue;
            };
            let drift = (r.end_time - b.end_time).abs();
            if drift > 1e-6 * b.end_time.abs().max(1e-12) {
                out.push(format!(
                    "run {:?}: end_time {} vs baseline {} ({:+.3}%)",
                    r.name,
                    fmt(r.end_time),
                    fmt(b.end_time),
                    (r.end_time - b.end_time) / b.end_time * 100.0
                ));
            }
            if r.transfers.len() != b.transfers.len() {
                out.push(format!(
                    "run {:?}: {} transfers vs baseline {}",
                    r.name,
                    r.transfers.len(),
                    b.transfers.len()
                ));
            }
            let (rb, bb) = (r.link_blame(), b.link_blame());
            let bmap: std::collections::BTreeMap<&str, f64> =
                bb.iter().map(|(l, s)| (l.as_str(), *s)).collect();
            let rmap: std::collections::BTreeMap<&str, f64> =
                rb.iter().map(|(l, s)| (l.as_str(), *s)).collect();
            for (l, s) in &bmap {
                if !rmap.contains_key(l) {
                    out.push(format!(
                        "run {:?}: link {l} no longer blamed (baseline {})",
                        r.name,
                        fmt(*s)
                    ));
                }
            }
            for (l, s) in &rmap {
                match bmap.get(l) {
                    None => out.push(format!(
                        "run {:?}: new blamed link {l} ({})",
                        r.name,
                        fmt(*s)
                    )),
                    Some(bs) => {
                        if (s - bs).abs() > 0.01 * bs.abs().max(1e-12) {
                            out.push(format!(
                                "run {:?}: link {l} blame {} vs baseline {} ({:+.3}%)",
                                r.name,
                                fmt(*s),
                                fmt(*bs),
                                (s - bs) / bs * 100.0
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

fn opt_f64(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Null) => Some(f64::INFINITY),
        Some(v) => v.as_f64(),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(id: u32, ready: f64, end: f64, deps: &[u32]) -> TransferProfile {
        TransferProfile {
            id,
            label: format!("t{id}"),
            bytes: 1000,
            ready,
            start: ready + 1.0,
            end,
            delivered: true,
            queued: 1.0,
            cap_limited: 0.0,
            stalled: 0.0,
            latency: 0.0,
            link_blame: vec![("l0".to_string(), end - ready - 1.0)],
            bindings: vec![(ready + 1.0, "l0".to_string())],
            deps: deps.to_vec(),
        }
    }

    fn chain_run() -> RunProfile {
        // 0 -> 1 -> 3 is the gating chain; 2 is a fast side branch.
        RunProfile {
            name: "direct".to_string(),
            end_time: 30.0,
            transfers: vec![
                transfer(0, 0.0, 10.0, &[]),
                transfer(1, 10.0, 25.0, &[0, 2]),
                transfer(2, 0.0, 5.0, &[]),
                transfer(3, 25.0, 30.0, &[1]),
            ],
        }
    }

    #[test]
    fn critical_path_follows_latest_dependency() {
        let r = chain_run();
        assert_eq!(r.critical_path(), vec![0, 1, 3]);
        // Segment 1 spans 15 s — the slowest on the path.
        assert_eq!(r.slowest_segment(), Some((1, 15.0)));
        r.validate().unwrap();
    }

    #[test]
    fn rollups_and_ranking() {
        let mut r = chain_run();
        r.transfers[0].link_blame = vec![("a".into(), 2.0), ("b".into(), 7.0)];
        r.transfers[1].link_blame = vec![("b".into(), 14.0)];
        let blame = r.link_blame();
        assert_eq!(blame[0], ("a".to_string(), 2.0));
        assert_eq!(blame[1], ("b".to_string(), 21.0));
        assert_eq!(r.top_bottlenecks(1), vec![("b".to_string(), 21.0)]);
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let art = ProfileArtifact {
            runs: vec![chain_run()],
        };
        let js = art.to_json();
        json::validate(&js).unwrap();
        let back = ProfileArtifact::from_json(&js).unwrap();
        assert_eq!(back, art);
        // Byte-identical re-serialization (the determinism contract).
        assert_eq!(back.to_json(), js);
    }

    #[test]
    fn infinite_times_serialize_as_null() {
        let mut r = chain_run();
        r.transfers[0].ready = f64::INFINITY;
        r.transfers[0].start = f64::INFINITY;
        r.transfers[0].delivered = false;
        let art = ProfileArtifact { runs: vec![r] };
        let js = art.to_json();
        assert!(js.contains("\"ready\": null"), "{js}");
        let back = ProfileArtifact::from_json(&js).unwrap();
        assert!(back.runs[0].transfers[0].ready.is_infinite());
    }

    #[test]
    fn validate_catches_broken_accounting() {
        let mut r = chain_run();
        r.transfers[0].queued = 100.0; // categories no longer sum
        assert!(r.validate().unwrap_err().contains("categories sum"));

        let mut r = chain_run();
        r.transfers[0].deps = vec![9];
        assert!(r.validate().unwrap_err().contains("out of range"));

        let mut r = chain_run();
        r.transfers[0].link_blame = vec![("b".into(), 4.5), ("a".into(), 4.5)];
        assert!(r.validate().unwrap_err().contains("not sorted"));
    }

    #[test]
    fn diff_reports_regressions_only() {
        let art = ProfileArtifact {
            runs: vec![chain_run()],
        };
        assert!(art.diff(&art).is_empty(), "self-diff must be clean");

        let mut changed = art.clone();
        changed.runs[0].end_time = 33.0;
        for t in &mut changed.runs[0].transfers {
            t.link_blame = vec![("l9".into(), 9.0)];
        }
        let lines = changed.diff(&art);
        assert!(lines.iter().any(|l| l.contains("end_time")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("new blamed link l9")));
        assert!(lines.iter().any(|l| l.contains("no longer blamed")));

        let empty = ProfileArtifact::default();
        assert!(empty
            .diff(&art)
            .iter()
            .any(|l| l.contains("missing (present in baseline)")));
    }

    #[test]
    fn csv_outputs_are_deterministic() {
        let art = ProfileArtifact {
            runs: vec![chain_run()],
        };
        let csv = art.to_csv();
        assert!(csv.starts_with("run,id,label,bytes,delivered,"));
        assert_eq!(csv.lines().count(), 1 + 4);
        assert_eq!(art.to_csv(), csv);
        let blame = art.blame_csv();
        assert!(blame.contains("direct,l0,"), "{blame}");
    }
}
