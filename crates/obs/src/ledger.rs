//! The performance run-ledger: a [`RunManifest`] bundling, per
//! scenario, a config fingerprint, extracted scalar metrics, and
//! profiler blame rollups — the unit the regression sentinel
//! ([`crate::sentinel`]) diffs across runs.
//!
//! A manifest is the semantic counterpart of the raw `BENCH_*.json`
//! artifacts: instead of byte-diffing whole sweeps, it pins the handful
//! of scalars the paper's argument rests on (aggregate throughput,
//! speedup ratios, stall totals, waterfill solve counts, exchange win
//! ratios) next to the profiler's per-link blame, so a diff can say not
//! only *that* a delta eroded but *which links absorbed the lost time*.
//!
//! Manifests inherit the workspace artifact contract: every serialized
//! value is simulated time or an integer count, keys are sorted, floats
//! use shortest-round-trip formatting (non-finite as `null`, restored
//! as `INFINITY` on parse) — so two identical runs produce
//! byte-identical files and [`RunManifest::from_json`] restores the
//! exact float bits [`RunManifest::to_json`] wrote.

use crate::json::{self, Value};
use crate::profile::ProfileArtifact;

/// Manifest schema version (`"bgq_manifest"` top-level key).
pub const MANIFEST_VERSION: u64 = 1;

/// One scenario's ledger entry: what was run (config), what came out
/// (metrics), and where the time went (blame).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioManifest {
    /// Scenario name, e.g. `"fig5"` or `"exchange"`.
    pub name: String,
    /// Config fingerprint `(key, value)`, sorted by key, unique —
    /// topology, sizes, seeds, policy, simulator constants. Two
    /// manifests are only comparable metric-by-metric where their
    /// configs agree; the sentinel reports config drift loudly.
    pub config: Vec<(String, String)>,
    /// Extracted scalar metrics `(name, value)`, sorted by name,
    /// unique.
    pub metrics: Vec<(String, f64)>,
    /// Profiler blame rollup `(label, seconds)`, sorted by label,
    /// unique. Labels are `"<run>/<link>"` so one scenario can carry
    /// several profiled runs' bottleneck links side by side.
    pub blame: Vec<(String, f64)>,
}

/// Insert `(key, value)` into a sorted-unique vec, replacing on match.
fn upsert<T>(v: &mut Vec<(String, T)>, key: &str, value: T) {
    match v.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
        Ok(i) => v[i].1 = value,
        Err(i) => v.insert(i, (key.to_string(), value)),
    }
}

fn lookup<'a, T>(v: &'a [(String, T)], key: &str) -> Option<&'a T> {
    v.binary_search_by(|(k, _)| k.as_str().cmp(key))
        .ok()
        .map(|i| &v[i].1)
}

fn check_sorted<T>(v: &[(String, T)], what: &str, scenario: &str) -> Result<(), String> {
    for w in v.windows(2) {
        if w[0].0 >= w[1].0 {
            return Err(format!(
                "scenario {scenario:?}: {what} keys not sorted/unique: {:?} then {:?}",
                w[0].0, w[1].0
            ));
        }
    }
    Ok(())
}

impl ScenarioManifest {
    pub fn new(name: &str) -> ScenarioManifest {
        ScenarioManifest {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Record one config fact (replaces on duplicate key).
    pub fn config(&mut self, key: &str, value: impl ToString) {
        upsert(&mut self.config, key, value.to_string());
    }

    /// Record one scalar metric (replaces on duplicate name).
    pub fn metric(&mut self, name: &str, value: f64) {
        upsert(&mut self.metrics, name, value);
    }

    /// Record one blame entry (replaces on duplicate label).
    pub fn blame(&mut self, label: &str, seconds: f64) {
        upsert(&mut self.blame, label, seconds);
    }

    /// Metric value by exact name.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        lookup(&self.metrics, name).copied()
    }

    /// Config value by exact key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        lookup(&self.config, key).map(String::as_str)
    }

    /// Fold a profile artifact into this scenario: per run, the
    /// end time, transfer/undelivered counts, critical-path length,
    /// category rollups (under `profile.<run>.cat.*`), and the top-`k`
    /// most-blamed links as `"<run>/<link>"` blame entries.
    pub fn attach_profile(&mut self, art: &ProfileArtifact, top_k: usize) {
        for run in &art.runs {
            let p = |suffix: &str| format!("profile.{}.{suffix}", run.name);
            self.metric(&p("end_time"), run.end_time);
            self.metric(&p("transfers"), run.transfers.len() as f64);
            self.metric(
                &p("undelivered"),
                run.transfers.iter().filter(|t| !t.delivered).count() as f64,
            );
            self.metric(&p("critical_path_len"), run.critical_path().len() as f64);
            let sum = |f: fn(&crate::profile::TransferProfile) -> f64| -> f64 {
                run.transfers.iter().fold(0.0, |a, t| a + f(t))
            };
            self.metric(&p("cat.queued"), sum(|t| t.queued));
            self.metric(&p("cat.network"), run.total_network_limited());
            self.metric(&p("cat.cap"), sum(|t| t.cap_limited));
            self.metric(&p("cat.stalled"), sum(|t| t.stalled));
            self.metric(&p("cat.latency"), sum(|t| t.latency));
            for (link, secs) in run.top_bottlenecks(top_k) {
                self.blame(&format!("{}/{link}", run.name), secs);
            }
        }
    }

    /// Structural invariants: sorted-unique keys in all three maps.
    pub fn validate(&self) -> Result<(), String> {
        check_sorted(&self.config, "config", &self.name)?;
        check_sorted(&self.metrics, "metrics", &self.name)?;
        check_sorted(&self.blame, "blame", &self.name)
    }
}

/// A full ledger entry: every scenario of one bench run, sorted by
/// scenario name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    pub scenarios: Vec<ScenarioManifest>,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl RunManifest {
    /// Scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioManifest> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Insert a scenario, keeping the list sorted by name (replaces an
    /// existing scenario of the same name).
    pub fn push(&mut self, s: ScenarioManifest) {
        match self
            .scenarios
            .binary_search_by(|x| x.name.as_str().cmp(&s.name))
        {
            Ok(i) => self.scenarios[i] = s,
            Err(i) => self.scenarios.insert(i, s),
        }
    }

    /// Validate every scenario and the scenario ordering itself.
    pub fn validate(&self) -> Result<(), String> {
        for w in self.scenarios.windows(2) {
            if w[0].name >= w[1].name {
                return Err(format!(
                    "scenarios not sorted/unique: {:?} then {:?}",
                    w[0].name, w[1].name
                ));
            }
        }
        for s in &self.scenarios {
            s.validate()?;
        }
        Ok(())
    }

    /// Deterministic JSON: sorted scenarios and keys, fixed key order,
    /// shortest-round-trip floats, non-finite values as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"bgq_manifest\": {MANIFEST_VERSION},\n  \"scenarios\": [");
        for (si, s) in self.scenarios.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"name\": {},\n      \"config\": {{",
                json::escape(&s.name)
            ));
            for (i, (k, v)) in s.config.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {}: {}",
                    json::escape(k),
                    json::escape(v)
                ));
            }
            out.push_str("\n      },\n      \"metrics\": {");
            for (i, (k, v)) in s.metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n        {}: {}", json::escape(k), json_f64(*v)));
            }
            out.push_str("\n      },\n      \"blame\": {");
            for (i, (k, v)) in s.blame.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n        {}: {}", json::escape(k), json_f64(*v)));
            }
            out.push_str("\n      }\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a manifest previously written by [`to_json`](Self::to_json).
    /// Floats restore bit-exactly; `null` restores as `INFINITY`
    /// (matching the profile artifact convention).
    pub fn from_json(input: &str) -> Result<RunManifest, String> {
        let v = json::parse(input)?;
        let version = v
            .get("bgq_manifest")
            .and_then(Value::as_u64)
            .ok_or("missing \"bgq_manifest\" version key")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "manifest version {version} unsupported (expected {MANIFEST_VERSION})"
            ));
        }
        let scenarios = v
            .get("scenarios")
            .and_then(Value::as_arr)
            .ok_or("missing \"scenarios\" array")?;
        let mut out = RunManifest::default();
        for (si, sv) in scenarios.iter().enumerate() {
            let name = sv
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("scenario {si}: missing name"))?
                .to_string();
            let obj = |key: &str| -> Result<&[(String, Value)], String> {
                match sv.get(key) {
                    Some(Value::Obj(members)) => Ok(members),
                    _ => Err(format!("scenario {name:?}: missing {key:?} object")),
                }
            };
            let mut s = ScenarioManifest::new(&name);
            for (k, val) in obj("config")? {
                let v = val
                    .as_str()
                    .ok_or_else(|| format!("scenario {name:?}: config {k:?} not a string"))?;
                s.config.push((k.clone(), v.to_string()));
            }
            for (k, val) in obj("metrics")? {
                let v = match val {
                    Value::Null => f64::INFINITY,
                    v => v
                        .as_f64()
                        .ok_or_else(|| format!("scenario {name:?}: metric {k:?} not a number"))?,
                };
                s.metrics.push((k.clone(), v));
            }
            for (k, val) in obj("blame")? {
                let v = match val {
                    Value::Null => f64::INFINITY,
                    v => v
                        .as_f64()
                        .ok_or_else(|| format!("scenario {name:?}: blame {k:?} not a number"))?,
                };
                s.blame.push((k.clone(), v));
            }
            out.scenarios.push(s);
        }
        out.validate()?;
        Ok(out)
    }

    /// FNV-1a 64-bit hash of the serialized manifest, as 16 hex digits.
    /// The key the run history (`history.jsonl`) is deduplicated on: a
    /// re-run with identical results hashes identically.
    pub fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{RunProfile, TransferProfile};

    fn sample() -> RunManifest {
        let mut s = ScenarioManifest::new("fig5");
        s.config("nodes", 128);
        s.config("bytes", 33554432u64);
        s.metric("speedup", 2.5);
        s.metric("direct.makespan", 0.125);
        s.blame("direct/n0:+A", 0.75);
        let mut m = RunManifest::default();
        m.push(s);
        m
    }

    #[test]
    fn maps_stay_sorted_and_replace_on_duplicate() {
        let m = sample();
        let s = m.scenario("fig5").unwrap();
        assert_eq!(s.config[0].0, "bytes", "config sorted by key");
        assert_eq!(s.metric_value("speedup"), Some(2.5));
        assert_eq!(s.config_value("nodes"), Some("128"));
        m.validate().unwrap();

        let mut s2 = s.clone();
        s2.metric("speedup", 3.0);
        assert_eq!(s2.metric_value("speedup"), Some(3.0));
        assert_eq!(s2.metrics.len(), s.metrics.len(), "replaced, not added");
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let m = sample();
        let js = m.to_json();
        json::validate(&js).unwrap();
        let back = RunManifest::from_json(&js).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), js, "re-serialization is byte-exact");
    }

    #[test]
    fn non_finite_metrics_serialize_as_null_and_restore_infinite() {
        let mut m = sample();
        m.scenarios[0].metric("direct.end_time", f64::INFINITY);
        let js = m.to_json();
        assert!(js.contains("\"direct.end_time\": null"), "{js}");
        let back = RunManifest::from_json(&js).unwrap();
        assert!(back.scenarios[0]
            .metric_value("direct.end_time")
            .unwrap()
            .is_infinite());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let m = sample();
        assert_eq!(m.fingerprint().len(), 16);
        assert_eq!(m.fingerprint(), m.clone().fingerprint());
        let mut changed = m.clone();
        changed.scenarios[0].metric("speedup", 2.6);
        assert_ne!(m.fingerprint(), changed.fingerprint());
    }

    #[test]
    fn attach_profile_extracts_rollups_and_top_blame() {
        let run = RunProfile {
            name: "direct".to_string(),
            end_time: 30.0,
            transfers: vec![TransferProfile {
                id: 0,
                label: "n0->n1".to_string(),
                bytes: 1000,
                ready: 0.0,
                start: 1.0,
                end: 30.0,
                delivered: false,
                queued: 1.0,
                cap_limited: 2.0,
                stalled: 3.0,
                latency: 4.0,
                link_blame: vec![("a".into(), 5.0), ("b".into(), 15.0)],
                bindings: vec![],
                deps: vec![],
            }],
        };
        let art = ProfileArtifact { runs: vec![run] };
        let mut s = ScenarioManifest::new("x");
        s.attach_profile(&art, 1);
        assert_eq!(s.metric_value("profile.direct.end_time"), Some(30.0));
        assert_eq!(s.metric_value("profile.direct.undelivered"), Some(1.0));
        assert_eq!(s.metric_value("profile.direct.cat.network"), Some(20.0));
        assert_eq!(s.metric_value("profile.direct.cat.stalled"), Some(3.0));
        assert_eq!(s.metric_value("profile.direct.critical_path_len"), Some(1.0));
        // top_k = 1 keeps only the most-blamed link.
        assert_eq!(s.blame, vec![("direct/b".to_string(), 15.0)]);
        s.validate().unwrap();
    }

    #[test]
    fn validate_rejects_unsorted_maps() {
        let mut m = sample();
        m.scenarios[0].metrics.push(("aaa".into(), 1.0)); // breaks order
        assert!(m.validate().unwrap_err().contains("not sorted"));

        let mut m2 = RunManifest::default();
        m2.scenarios.push(ScenarioManifest::new("b"));
        m2.scenarios.push(ScenarioManifest::new("a"));
        assert!(m2.validate().unwrap_err().contains("scenarios not sorted"));
    }

    #[test]
    fn from_json_rejects_malformed_manifests() {
        assert!(RunManifest::from_json("{}").unwrap_err().contains("bgq_manifest"));
        assert!(RunManifest::from_json("{\"bgq_manifest\": 99, \"scenarios\": []}")
            .unwrap_err()
            .contains("version 99"));
        let missing = "{\"bgq_manifest\": 1, \"scenarios\": [{\"name\": \"x\"}]}";
        assert!(RunManifest::from_json(missing)
            .unwrap_err()
            .contains("config"));
    }
}
