//! The regression sentinel: diff two [`RunManifest`]s into per-metric
//! verdicts, and attribute every regression to the links and time
//! categories that absorbed the lost time.
//!
//! Verdicts are classed per metric name ([`classify`]): simulated-time
//! quantities (makespans, stall totals, queue/latency sums) compare
//! *exactly* — the whole stack is deterministic, so any drift is a real
//! behavior change — while derived ratios (throughput, speedup, win
//! ratio) get a hair of relative tolerance for float-path differences.
//! Direction matters: a larger makespan is a regression, a larger
//! speedup is an improvement, and structural counts (transfer counts,
//! solver run counts, critical-path lengths) are reported as changed
//! but never flip the exit code on their own.
//!
//! Attribution reuses the manifest's profiler rollups: for a scenario
//! with at least one REGRESSED verdict, the sentinel diffs the blame
//! map (`"<run>/<link>"` → seconds) and the `profile.*.cat.*` category
//! sums, and emits the links/categories whose share grew — the
//! "where did the time go" answer next to the "it got slower" verdict.

use crate::ledger::{RunManifest, ScenarioManifest};

/// Whether a larger value of a metric is good, bad, or merely different.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    HigherIsBetter,
    LowerIsBetter,
    /// Informational: drift is reported but is never a regression.
    Neutral,
}

/// The tolerance class a metric name falls in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricClass {
    /// Short label rendered next to the verdict, e.g. `"sim-time"`.
    pub label: &'static str,
    pub direction: Direction,
    /// Relative tolerance; `0.0` means exact comparison.
    pub rel_tol: f64,
}

/// Map a metric name to its tolerance class. First matching rule wins;
/// names the rules don't recognize are informational.
pub fn classify(name: &str) -> MetricClass {
    let has = |pat: &str| name.contains(pat);
    if has("undelivered") {
        MetricClass {
            label: "count",
            direction: Direction::LowerIsBetter,
            rel_tol: 0.0,
        }
    } else if has("delivered") {
        MetricClass {
            label: "count",
            direction: Direction::HigherIsBetter,
            rel_tol: 0.0,
        }
    } else if has("throughput") {
        MetricClass {
            label: "throughput",
            direction: Direction::HigherIsBetter,
            rel_tol: 1e-9,
        }
    } else if has("speedup") || has("win_ratio") || has("reduction") {
        MetricClass {
            label: "ratio",
            direction: Direction::HigherIsBetter,
            rel_tol: 1e-9,
        }
    } else if has("makespan")
        || has("end_time")
        || has("stall")
        || has("discovery")
        || has("queued")
        || has("latency")
        || has("limited")
        || has(".cat.")
    {
        MetricClass {
            label: "sim-time",
            direction: Direction::LowerIsBetter,
            rel_tol: 0.0,
        }
    } else if has("critical_path")
        || has("transfers")
        || has("runs")
        || has("events")
        || has("pairs")
        || has("links")
        || has("count")
    {
        MetricClass {
            label: "structure",
            direction: Direction::Neutral,
            rel_tol: 0.0,
        }
    } else {
        MetricClass {
            label: "info",
            direction: Direction::Neutral,
            rel_tol: 0.0,
        }
    }
}

/// Outcome of comparing one metric against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Neutral,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "IMPROVED",
            Verdict::Neutral => "NEUTRAL",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVerdict {
    pub name: String,
    pub class: MetricClass,
    pub verdict: Verdict,
    pub current: f64,
    pub baseline: f64,
    /// Whether the value moved at all (NEUTRAL verdicts can still be
    /// changed when the direction is informational).
    pub changed: bool,
}

impl MetricVerdict {
    fn delta_pct(&self) -> f64 {
        if self.baseline.is_finite() && self.baseline != 0.0 && self.current.is_finite() {
            (self.current - self.baseline) / self.baseline * 100.0
        } else {
            f64::NAN
        }
    }

    fn render(&self) -> String {
        let fmtv = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "inf".to_string()
            }
        };
        let pct = self.delta_pct();
        let drift = if pct.is_finite() {
            format!(" ({pct:+.3}%)")
        } else {
            String::new()
        };
        format!(
            "{} {} [{}]: {} -> {}{drift}",
            self.verdict.label(),
            self.name,
            self.class.label,
            fmtv(self.baseline),
            fmtv(self.current),
        )
    }
}

/// One scenario's comparison: verdicts, config drift, and — when
/// something regressed — the blame attribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioDiff {
    pub name: String,
    /// Config keys whose values differ (or exist on only one side).
    /// Non-empty config drift makes metric verdicts apples-to-oranges;
    /// the report flags it before any verdict.
    pub config_drift: Vec<String>,
    pub verdicts: Vec<MetricVerdict>,
    /// Metric names present only in the baseline (lost coverage — each
    /// is counted as a regression).
    pub removed_metrics: Vec<String>,
    /// Metric names present only in the current manifest.
    pub added_metrics: Vec<String>,
    /// For regressed scenarios: which links/categories absorbed the
    /// lost time, largest increase first.
    pub attribution: Vec<String>,
}

impl ScenarioDiff {
    pub fn regressed(&self) -> bool {
        !self.removed_metrics.is_empty()
            || self
                .verdicts
                .iter()
                .any(|v| v.verdict == Verdict::Regressed)
    }

    fn count(&self, v: Verdict) -> usize {
        self.verdicts.iter().filter(|m| m.verdict == v).count()
    }
}

/// The full sentinel comparison of two manifests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SentinelReport {
    pub scenarios: Vec<ScenarioDiff>,
    /// Scenario names present only in the baseline — lost coverage,
    /// counted as a regression.
    pub removed_scenarios: Vec<String>,
    /// Scenario names present only in the current manifest.
    pub added_scenarios: Vec<String>,
}

impl SentinelReport {
    pub fn has_regressions(&self) -> bool {
        !self.removed_scenarios.is_empty() || self.scenarios.iter().any(ScenarioDiff::regressed)
    }

    /// `(regressed, improved, neutral)` verdict totals.
    pub fn totals(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for s in &self.scenarios {
            t.0 += s.count(Verdict::Regressed) + s.removed_metrics.len();
            t.1 += s.count(Verdict::Improved);
            t.2 += s.count(Verdict::Neutral);
        }
        t.0 += self.removed_scenarios.len();
        t
    }

    /// The human report: per-scenario verdict lines (NEUTRAL rows are
    /// summarized, not listed), config drift, and regression
    /// attribution.
    pub fn render(&self) -> String {
        let (r, i, n) = self.totals();
        let mut out = format!(
            "sentinel: {} scenario(s) compared, {} verdict(s): {r} regressed, {i} improved, {n} neutral\n",
            self.scenarios.len(),
            r + i + n
        );
        for name in &self.removed_scenarios {
            out.push_str(&format!(
                "scenario {name}: REGRESSED — missing from current run (present in baseline)\n"
            ));
        }
        for name in &self.added_scenarios {
            out.push_str(&format!("scenario {name}: new (absent from baseline)\n"));
        }
        for s in &self.scenarios {
            let status = if s.regressed() {
                "REGRESSED"
            } else if s.count(Verdict::Improved) > 0 {
                "IMPROVED"
            } else {
                "NEUTRAL"
            };
            out.push_str(&format!(
                "scenario {}: {status} ({} metric(s))\n",
                s.name,
                s.verdicts.len()
            ));
            for key in &s.config_drift {
                out.push_str(&format!(
                    "  !! config drift on {key:?} — verdicts compare different experiments\n"
                ));
            }
            for m in &s.verdicts {
                if m.verdict != Verdict::Neutral
                    || (m.changed && m.class.direction == Direction::Neutral)
                {
                    out.push_str(&format!("  {}\n", m.render()));
                }
            }
            for name in &s.removed_metrics {
                out.push_str(&format!(
                    "  REGRESSED {name}: metric missing from current run\n"
                ));
            }
            for name in &s.added_metrics {
                out.push_str(&format!("  new metric {name}\n"));
            }
            if !s.attribution.is_empty() {
                out.push_str("  attribution (where the lost time went):\n");
                for line in &s.attribution {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out
    }

    /// A markdown summary table (one row per scenario) plus the
    /// regression details — the artifact `--markdown-out` writes.
    pub fn to_markdown(&self) -> String {
        let (r, i, n) = self.totals();
        let mut out = String::from("# Sentinel report\n\n");
        out.push_str(&format!(
            "**{r} regressed**, {i} improved, {n} neutral across {} scenario(s).\n\n",
            self.scenarios.len()
        ));
        out.push_str("| scenario | status | regressed | improved | neutral |\n");
        out.push_str("|---|---|---:|---:|---:|\n");
        for name in &self.removed_scenarios {
            out.push_str(&format!("| {name} | missing | — | — | — |\n"));
        }
        for s in &self.scenarios {
            let status = if s.regressed() {
                "**REGRESSED**"
            } else if s.count(Verdict::Improved) > 0 {
                "improved"
            } else {
                "neutral"
            };
            out.push_str(&format!(
                "| {} | {status} | {} | {} | {} |\n",
                s.name,
                s.count(Verdict::Regressed) + s.removed_metrics.len(),
                s.count(Verdict::Improved),
                s.count(Verdict::Neutral)
            ));
        }
        for s in self
            .scenarios
            .iter()
            .filter(|s| s.regressed() || s.count(Verdict::Improved) > 0)
        {
            out.push_str(&format!("\n## {}\n\n", s.name));
            for key in &s.config_drift {
                out.push_str(&format!("- ⚠ config drift on `{key}`\n"));
            }
            for m in &s.verdicts {
                if m.verdict != Verdict::Neutral {
                    out.push_str(&format!("- {}\n", m.render()));
                }
            }
            for name in &s.removed_metrics {
                out.push_str(&format!("- REGRESSED `{name}`: metric missing\n"));
            }
            if !s.attribution.is_empty() {
                out.push_str("\nAttribution:\n\n");
                for line in &s.attribution {
                    out.push_str(&format!("- {line}\n"));
                }
            }
        }
        out
    }
}

fn verdict_for(class: MetricClass, current: f64, baseline: f64) -> (Verdict, bool) {
    // Bit-equality first: catches equal infinities and exact matches.
    if current.to_bits() == baseline.to_bits() {
        return (Verdict::Neutral, false);
    }
    let within_tol = current.is_finite()
        && baseline.is_finite()
        && (current - baseline).abs() <= class.rel_tol * baseline.abs().max(1e-300);
    if within_tol {
        return (Verdict::Neutral, false);
    }
    // Changed beyond tolerance. Infinities order correctly under `>`:
    // a makespan going finite -> inf is "increased".
    let increased = current > baseline;
    let v = match class.direction {
        Direction::Neutral => Verdict::Neutral,
        Direction::HigherIsBetter => {
            if increased {
                Verdict::Improved
            } else {
                Verdict::Regressed
            }
        }
        Direction::LowerIsBetter => {
            if increased {
                Verdict::Regressed
            } else {
                Verdict::Improved
            }
        }
    };
    (v, true)
}

fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        "inf".to_string()
    } else if s == 0.0 {
        "0".to_string()
    } else if s.abs() >= 1.0 {
        format!("{s:.3} s")
    } else if s.abs() >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

/// Blame-diff attribution for a regressed scenario: the links (from the
/// blame map) and categories (from `profile.*.cat.*` metrics) whose
/// absorbed seconds grew beyond 1% relative (matching the profiler's
/// own drift threshold), largest increase first.
fn attribution(cur: &ScenarioManifest, base: &ScenarioManifest) -> Vec<String> {
    let mut grew: Vec<(f64, String)> = Vec::new();
    let significant = |delta: f64, b: f64| delta > 0.01 * b.abs().max(1e-12);

    let base_blame: std::collections::BTreeMap<&str, f64> =
        base.blame.iter().map(|(l, s)| (l.as_str(), *s)).collect();
    for (label, s) in &cur.blame {
        let b = base_blame.get(label.as_str()).copied().unwrap_or(0.0);
        let delta = s - b;
        if significant(delta, b) {
            let what = if base_blame.contains_key(label.as_str()) {
                format!(
                    "link {label} absorbed +{} ({} -> {})",
                    fmt_secs(delta),
                    fmt_secs(b),
                    fmt_secs(*s)
                )
            } else {
                format!("link {label} newly blamed for {}", fmt_secs(*s))
            };
            grew.push((delta, what));
        }
    }
    for (label, b) in &base_blame {
        if !cur.blame.iter().any(|(l, _)| l == label) && *b > 1e-12 {
            grew.push((
                0.0,
                format!("link {label} no longer blamed (released {})", fmt_secs(*b)),
            ));
        }
    }
    for (name, s) in &cur.metrics {
        if !name.contains(".cat.") {
            continue;
        }
        let b = base.metric_value(name).unwrap_or(0.0);
        let delta = s - b;
        if significant(delta, b) {
            grew.push((
                delta,
                format!(
                    "category {} absorbed +{} ({} -> {})",
                    name.trim_start_matches("profile."),
                    fmt_secs(delta),
                    fmt_secs(b),
                    fmt_secs(*s)
                ),
            ));
        }
    }
    grew.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    grew.into_iter().map(|(_, line)| line).collect()
}

fn diff_scenario(cur: &ScenarioManifest, base: &ScenarioManifest) -> ScenarioDiff {
    let mut d = ScenarioDiff {
        name: cur.name.clone(),
        ..Default::default()
    };

    let mut keys: Vec<&str> = cur.config.iter().map(|(k, _)| k.as_str()).collect();
    keys.extend(base.config.iter().map(|(k, _)| k.as_str()));
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        if cur.config_value(k) != base.config_value(k) {
            d.config_drift.push(k.to_string());
        }
    }

    for (name, &v) in cur.metrics.iter().map(|(k, v)| (k, v)) {
        match base.metric_value(name) {
            Some(b) => {
                let class = classify(name);
                let (verdict, changed) = verdict_for(class, v, b);
                d.verdicts.push(MetricVerdict {
                    name: name.clone(),
                    class,
                    verdict,
                    current: v,
                    baseline: b,
                    changed,
                });
            }
            None => d.added_metrics.push(name.clone()),
        }
    }
    for (name, _) in &base.metrics {
        if cur.metric_value(name).is_none() {
            d.removed_metrics.push(name.clone());
        }
    }

    if d.regressed() {
        d.attribution = attribution(cur, base);
    }
    d
}

/// Diff `current` against `baseline`, scenario by scenario. Scenarios
/// and metrics present only in the baseline count as regressions (lost
/// coverage); new ones are reported but benign.
pub fn diff(current: &RunManifest, baseline: &RunManifest) -> SentinelReport {
    let mut report = SentinelReport::default();
    for b in &baseline.scenarios {
        if current.scenario(&b.name).is_none() {
            report.removed_scenarios.push(b.name.clone());
        }
    }
    for c in &current.scenarios {
        match baseline.scenario(&c.name) {
            Some(b) => report.scenarios.push(diff_scenario(c, b)),
            None => report.added_scenarios.push(c.name.clone()),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        let mut s = ScenarioManifest::new("fig5");
        s.config("nodes", 128);
        s.metric("direct.makespan", 0.125);
        s.metric("direct.throughput", 2.0e9);
        s.metric("speedup", 2.5);
        s.metric("profile.direct.cat.network", 0.1);
        s.metric("profile.direct.transfers", 5.0);
        s.metric("profile.direct.undelivered", 0.0);
        s.blame("direct/n0:+A", 0.08);
        let mut m = RunManifest::default();
        m.push(s);
        m
    }

    #[test]
    fn classes_cover_the_metric_families() {
        assert_eq!(
            classify("direct.makespan").direction,
            Direction::LowerIsBetter
        );
        assert_eq!(
            classify("direct.makespan").rel_tol,
            0.0,
            "sim-time is exact"
        );
        assert_eq!(
            classify("agg.throughput").direction,
            Direction::HigherIsBetter
        );
        assert_eq!(classify("speedup").direction, Direction::HigherIsBetter);
        assert_eq!(
            classify("multipath.win_ratio").direction,
            Direction::HigherIsBetter
        );
        assert_eq!(
            classify("profile.direct.undelivered").direction,
            Direction::LowerIsBetter
        );
        assert_eq!(
            classify("profile.x.cat.stalled").direction,
            Direction::LowerIsBetter
        );
        assert_eq!(
            classify("profile.x.critical_path_len").direction,
            Direction::Neutral
        );
        assert_eq!(
            classify("full_run_reduction").direction,
            Direction::HigherIsBetter
        );
        assert_eq!(classify("something.else").label, "info");
    }

    #[test]
    fn self_diff_is_all_neutral() {
        let m = manifest();
        let rep = diff(&m, &m);
        assert!(!rep.has_regressions());
        let (r, i, n) = rep.totals();
        assert_eq!((r, i), (0, 0));
        assert_eq!(n, m.scenarios[0].metrics.len());
        assert!(rep.scenarios[0].attribution.is_empty());
        assert!(rep.render().contains("0 regressed"));
    }

    #[test]
    fn slower_makespan_regresses_with_attribution() {
        let base = manifest();
        let mut cur = base.clone();
        {
            let s = &mut cur.scenarios[0];
            s.metric("direct.makespan", 0.25); // slower: regression
            s.metric("direct.throughput", 1.0e9); // lower: regression
            s.metric("profile.direct.cat.network", 0.22);
            s.blame("direct/n0:+A", 0.2); // the link that absorbed it
        }
        let rep = diff(&cur, &base);
        assert!(rep.has_regressions());
        let s = &rep.scenarios[0];
        assert!(s.regressed());
        let makespan = s
            .verdicts
            .iter()
            .find(|v| v.name == "direct.makespan")
            .unwrap();
        assert_eq!(makespan.verdict, Verdict::Regressed);
        assert!(
            s.attribution.iter().any(|l| l.contains("direct/n0:+A")),
            "attribution names the link: {:?}",
            s.attribution
        );
        assert!(
            s.attribution.iter().any(|l| l.contains("cat.network")),
            "attribution names the category: {:?}",
            s.attribution
        );
        let text = rep.render();
        assert!(text.contains("REGRESSED direct.makespan"), "{text}");
        assert!(text.contains("attribution"), "{text}");
        let md = rep.to_markdown();
        assert!(md.contains("**REGRESSED**"), "{md}");
        assert!(md.contains("direct/n0:+A"), "{md}");
    }

    #[test]
    fn faster_makespan_improves_without_attribution() {
        let base = manifest();
        let mut cur = base.clone();
        cur.scenarios[0].metric("direct.makespan", 0.1);
        cur.scenarios[0].metric("speedup", 3.0);
        let rep = diff(&cur, &base);
        assert!(!rep.has_regressions());
        let (r, i, _) = rep.totals();
        assert_eq!(r, 0);
        assert_eq!(i, 2);
        assert!(rep.scenarios[0].attribution.is_empty());
    }

    #[test]
    fn structural_drift_is_reported_but_not_regressed() {
        let base = manifest();
        let mut cur = base.clone();
        cur.scenarios[0].metric("profile.direct.transfers", 7.0);
        let rep = diff(&cur, &base);
        assert!(!rep.has_regressions());
        let v = rep.scenarios[0]
            .verdicts
            .iter()
            .find(|v| v.name == "profile.direct.transfers")
            .unwrap();
        assert_eq!(v.verdict, Verdict::Neutral);
        assert!(v.changed);
        assert!(
            rep.render().contains("profile.direct.transfers"),
            "changed structure is listed"
        );
    }

    #[test]
    fn undelivered_and_infinite_end_times_regress() {
        let base = manifest();
        let mut cur = base.clone();
        cur.scenarios[0].metric("profile.direct.undelivered", 2.0);
        cur.scenarios[0].metric("direct.makespan", f64::INFINITY);
        let rep = diff(&cur, &base);
        assert!(rep.has_regressions());
        let und = rep.scenarios[0]
            .verdicts
            .iter()
            .find(|v| v.name == "profile.direct.undelivered")
            .unwrap();
        assert_eq!(und.verdict, Verdict::Regressed);
        let mk = rep.scenarios[0]
            .verdicts
            .iter()
            .find(|v| v.name == "direct.makespan")
            .unwrap();
        assert_eq!(mk.verdict, Verdict::Regressed, "finite -> inf is slower");
    }

    #[test]
    fn missing_coverage_is_a_regression() {
        let base = manifest();
        let mut cur = base.clone();
        cur.scenarios[0].metrics.retain(|(k, _)| k != "speedup");
        let rep = diff(&cur, &base);
        assert!(rep.has_regressions());
        assert_eq!(
            rep.scenarios[0].removed_metrics,
            vec!["speedup".to_string()]
        );

        let empty = RunManifest::default();
        let rep = diff(&empty, &base);
        assert!(rep.has_regressions());
        assert_eq!(rep.removed_scenarios, vec!["fig5".to_string()]);
        assert!(rep.render().contains("missing from current run"));

        // New scenarios/metrics are benign.
        let rep = diff(&base, &empty);
        assert!(!rep.has_regressions());
        assert_eq!(rep.added_scenarios, vec!["fig5".to_string()]);
    }

    #[test]
    fn config_drift_is_flagged() {
        let base = manifest();
        let mut cur = base.clone();
        cur.scenarios[0].config("nodes", 256);
        let rep = diff(&cur, &base);
        assert_eq!(rep.scenarios[0].config_drift, vec!["nodes".to_string()]);
        assert!(rep.render().contains("config drift"));
    }

    #[test]
    fn ratio_tolerance_absorbs_float_noise() {
        let base = manifest();
        let mut cur = base.clone();
        let v = base.scenarios[0].metric_value("speedup").unwrap();
        cur.scenarios[0].metric("speedup", v * (1.0 + 1e-12));
        let rep = diff(&cur, &base);
        assert!(!rep.has_regressions());
        let (_, i, _) = rep.totals();
        assert_eq!(i, 0, "sub-tolerance drift is neutral");
    }
}
