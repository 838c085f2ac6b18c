//! Inspect and validate observability artifacts.
//!
//! ```text
//! cargo run --release -p bgq-bench --bin obs_report -- [--check] FILE...
//! cargo run --release -p bgq-bench --bin obs_report -- [--check] --diff NEW BASELINE
//! cargo run --release -p bgq-bench --bin obs_report -- [--check] --cross MANIFEST PROFILE SCENARIO
//! ```
//!
//! Files ending in `.csv` are treated as metrics snapshots
//! (`name,value` / histogram rows): the report prints the planner
//! decision and cache counters, checks the rows are name-sorted and
//! duplicate-free, and shouts if `comm.transfers_undelivered` is
//! non-zero — a stalled run must never look like a quiet success.
//! Files ending in `.json` are treated as Chrome traces — unless they
//! carry the `"bgq_profile"` schema key, in which case they are parsed
//! as bottleneck-attribution profiles, their accounting invariants
//! checked ([`bgq_obs::profile::RunProfile::validate`]), and their
//! per-run bottleneck summary printed — or the `"bgq_manifest"` key,
//! which makes them run-ledger manifests: parsed, structurally
//! validated, round-trip checked, and summarized per scenario.
//!
//! `--diff NEW BASELINE` compares two profile artifacts (makespan
//! drift, transfer-count changes, bottleneck-link set changes, >1%
//! per-link blame drift) — the regression gate `just profile` runs
//! against the committed `results/BENCH_*.json` baselines.
//!
//! `--cross MANIFEST PROFILE SCENARIO` cross-checks a ledger manifest
//! against a profile artifact of the same scenario: every
//! `profile.<run>.end_time` metric in the manifest must agree with the
//! profile's run end time to within 0.1% — a louder disagreement means
//! the two artifacts describe different executions and is reported as
//! a problem, never silently passed.
//!
//! With `--check`, any problem (unsorted/duplicate CSV, undelivered
//! transfers, profile diffs, manifest/profile disagreement) exits
//! non-zero — the mode `just obs` / `just profile` / `just sentinel`
//! and CI use. Artifacts that cannot be understood at all — empty or
//! truncated files, invalid JSON, JSON with none of the recognized
//! schema keys — exit non-zero with an error naming the offending path
//! even without `--check`: an unreadable artifact must never look like
//! a quiet success.

use bgq_bench::args::{Cli, Parsed};
use bgq_obs::{ProfileArtifact, RunManifest};
use std::process::ExitCode;

/// One validated artifact: its path and the problems found in it.
#[derive(Debug)]
struct Checked {
    path: String,
    problems: Vec<String>,
}

/// Split one `kind,name,value` row, honoring RFC-4180 quoting on the
/// name field (labels may legitimately contain commas or quotes; the
/// snapshot serializer quotes them). Returns the *unescaped* name.
fn split_metrics_row(line: &str) -> Option<(&str, String, &str)> {
    let (kind, rest) = line.split_once(',')?;
    if let Some(quoted) = rest.strip_prefix('"') {
        // Scan for the closing quote, un-doubling inner quote pairs.
        let mut name = String::new();
        let mut chars = quoted.char_indices();
        while let Some((i, c)) = chars.next() {
            if c != '"' {
                name.push(c);
            } else if let Some((_, '"')) = chars.next() {
                name.push('"');
            } else {
                // Closing quote: the value follows after a comma.
                let value = quoted.get(i + 1..)?.strip_prefix(',')?;
                return Some((kind, name, value));
            }
        }
        None
    } else {
        let (name, value) = rest.split_once(',')?;
        Some((kind, name.to_string(), value))
    }
}

fn check_metrics_csv(path: &str, contents: &str) -> Checked {
    let mut problems = Vec::new();
    // (kind, name) per row, in file order — must be strictly increasing.
    let mut keys: Vec<(String, String)> = Vec::new();
    let mut undelivered: u64 = 0;
    let mut planner = Vec::new();
    let mut cache = Vec::new();
    let mut comm = Vec::new();
    for (lineno, line) in contents.lines().enumerate() {
        if line.is_empty() || (lineno == 0 && line == "kind,name,value") {
            continue;
        }
        let Some((kind, name, value)) = split_metrics_row(line) else {
            problems.push(format!(
                "line {}: not kind,name,value: {line:?}",
                lineno + 1
            ));
            continue;
        };
        keys.push((kind.to_string(), name.clone()));
        if name == "comm.transfers_undelivered" {
            undelivered = value.parse().unwrap_or(u64::MAX);
        }
        if name.starts_with("planner.") {
            planner.push((name, value.to_string()));
        } else if name.starts_with("cache.") {
            cache.push((name, value.to_string()));
        } else if name.starts_with("comm.") {
            comm.push((name, value.to_string()));
        }
    }
    for w in keys.windows(2) {
        if w[0] >= w[1] {
            problems.push(format!(
                "rows not sorted/deduplicated: {:?} then {:?}",
                w[0], w[1]
            ));
            break;
        }
    }

    println!("{path}: {} metric row(s)", keys.len());
    for (title, rows) in [("planner", &planner), ("cache", &cache), ("comm", &comm)] {
        if !rows.is_empty() {
            println!("  {title}:");
            for (name, value) in rows {
                println!("    {name} = {value}");
            }
        }
    }
    if undelivered > 0 {
        println!("  *** WARNING: {undelivered} transfer(s) UNDELIVERED — a run stalled ***");
        problems.push(format!("{undelivered} undelivered transfer(s)"));
    }
    Checked {
        path: path.to_string(),
        problems,
    }
}

fn check_profile_json(path: &str, contents: &str) -> Checked {
    let mut problems = Vec::new();
    match ProfileArtifact::from_json(contents) {
        Ok(art) => {
            if let Err(e) = art.validate() {
                problems.push(format!("accounting invariant broken: {e}"));
            }
            println!("{path}: profile with {} run(s)", art.runs.len());
            for run in &art.runs {
                let undelivered = run.transfers.iter().filter(|t| !t.delivered).count();
                println!(
                    "  {}: {} transfer(s), end {:?} s, network-limited {:.6} s",
                    run.name,
                    run.transfers.len(),
                    run.end_time,
                    run.total_network_limited(),
                );
                for (label, secs) in run.top_bottlenecks(3) {
                    println!("    bottleneck {label}: {secs:.6} s");
                }
                if undelivered > 0 {
                    println!("  *** WARNING: {undelivered} transfer(s) UNDELIVERED ***");
                    problems.push(format!(
                        "{undelivered} undelivered transfer(s) in {}",
                        run.name
                    ));
                }
            }
        }
        Err(e) => problems.push(format!("invalid profile: {e}")),
    }
    Checked {
        path: path.to_string(),
        problems,
    }
}

fn check_manifest_json(path: &str, contents: &str) -> Checked {
    let mut problems = Vec::new();
    match RunManifest::from_json(contents) {
        Ok(m) => {
            if m.to_json() != contents {
                problems
                    .push("manifest does not re-serialize byte-exactly (hand-edited?)".to_string());
            }
            println!(
                "{path}: manifest {} with {} scenario(s)",
                m.fingerprint(),
                m.scenarios.len()
            );
            for s in &m.scenarios {
                println!(
                    "  {}: {} config key(s), {} metric(s), {} blame entr(ies)",
                    s.name,
                    s.config.len(),
                    s.metrics.len(),
                    s.blame.len()
                );
                // Warn but don't fail: some scenarios deliberately run
                // a doomed route (resilience cuts the direct path), and
                // the sentinel diff already pins undelivered counts
                // exactly — growth there is a REGRESSED verdict.
                for (name, v) in &s.metrics {
                    if name.contains("undelivered") && *v > 0.0 {
                        println!("  *** WARNING: {}: {name} = {v} ***", s.name);
                    }
                }
            }
        }
        Err(e) => problems.push(format!("invalid manifest: {e}")),
    }
    Checked {
        path: path.to_string(),
        problems,
    }
}

/// Maximum relative disagreement between a manifest's recorded
/// `profile.<run>.end_time` and the profile artifact's own run end time
/// before the pair is reported as inconsistent.
const CROSS_TOLERANCE: f64 = 1e-3;

/// Cross-check a manifest scenario against a profile artifact of the
/// same scenario: the two are written by different code paths, and a
/// total-elapsed disagreement beyond 0.1% means they describe different
/// executions — report it loudly instead of silently passing.
fn cross_check(
    manifest_path: &str,
    profile_path: &str,
    scenario: &str,
) -> Result<Vec<String>, String> {
    let manifest = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{manifest_path}: {e}"))
        .and_then(|c| RunManifest::from_json(&c).map_err(|e| format!("{manifest_path}: {e}")))?;
    let profile = std::fs::read_to_string(profile_path)
        .map_err(|e| format!("{profile_path}: {e}"))
        .and_then(|c| ProfileArtifact::from_json(&c).map_err(|e| format!("{profile_path}: {e}")))?;
    let s = manifest
        .scenario(scenario)
        .ok_or_else(|| format!("{manifest_path}: no scenario {scenario:?}"))?;

    let mut problems = Vec::new();
    let mut compared = 0;
    for run in &profile.runs {
        let key = format!("profile.{}.end_time", run.name);
        let Some(recorded) = s.metric_value(&key) else {
            problems.push(format!(
                "scenario {scenario}: manifest has no {key} but the profile has run {:?}",
                run.name
            ));
            continue;
        };
        compared += 1;
        let disagreement = if recorded.is_finite() && run.end_time.is_finite() {
            (recorded - run.end_time).abs() / run.end_time.abs().max(f64::MIN_POSITIVE)
        } else if recorded.is_finite() != run.end_time.is_finite() {
            f64::INFINITY
        } else {
            0.0
        };
        if disagreement > CROSS_TOLERANCE {
            problems.push(format!(
                "scenario {scenario}, run {}: manifest says elapsed {recorded:?} but the \
                 profile says {:?} ({:.3}% apart — these artifacts describe different runs)",
                run.name,
                run.end_time,
                disagreement * 100.0
            ));
        }
    }
    if compared == 0 && problems.is_empty() {
        problems.push(format!(
            "scenario {scenario}: nothing to cross-check (no profile.* end_time metrics)"
        ));
    }
    Ok(problems)
}

fn diff_profiles(new_path: &str, base_path: &str) -> Result<Vec<String>, String> {
    let read = |p: &str| -> Result<ProfileArtifact, String> {
        let contents = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        ProfileArtifact::from_json(&contents).map_err(|e| format!("{p}: {e}"))
    };
    Ok(read(new_path)?.diff(&read(base_path)?))
}

fn check_trace_json(path: &str, contents: &str) -> Checked {
    let mut problems = Vec::new();
    if let Err(e) = bgq_obs::json::validate(contents) {
        problems.push(format!("invalid JSON: {e}"));
    }
    if !contents.contains("\"traceEvents\"") {
        problems.push("missing \"traceEvents\" envelope".to_string());
    }
    let events = contents.matches("\"ph\":").count();
    println!("{path}: {events} trace event(s)");
    Checked {
        path: path.to_string(),
        problems,
    }
}

/// Classify one artifact by content and run the matching checker.
///
/// `Err` means the file could not be understood at all — empty,
/// truncated/invalid JSON, or JSON carrying none of the recognized
/// schema keys. The caller treats that as a hard failure regardless of
/// `--check`; the message always names the path.
fn check_artifact(path: &str, contents: &str) -> Result<Checked, String> {
    let body = contents.trim_start();
    if body.is_empty() {
        return Err(format!("{path}: empty artifact (truncated write?)"));
    }
    let looks_json = path.ends_with(".json") || body.starts_with('{') || body.starts_with('[');
    if looks_json {
        if let Err(e) = bgq_obs::json::validate(contents) {
            return Err(format!("{path}: truncated or invalid JSON: {e}"));
        }
        if contents.contains("\"bgq_profile\"") {
            Ok(check_profile_json(path, contents))
        } else if contents.contains("\"bgq_manifest\"") {
            Ok(check_manifest_json(path, contents))
        } else if contents.contains("\"traceEvents\"") {
            Ok(check_trace_json(path, contents))
        } else {
            Err(format!(
                "{path}: unrecognized JSON artifact: expected a Chrome trace \
                 (\"traceEvents\") or a \"bgq_profile\"/\"bgq_manifest\" schema key"
            ))
        }
    } else if path.ends_with(".csv") || body.starts_with("kind,name,value") {
        Ok(check_metrics_csv(path, contents))
    } else {
        Err(format!(
            "{path}: unrecognized artifact: not JSON and not a kind,name,value \
             metrics snapshot"
        ))
    }
}

static CLI: Cli = Cli {
    name: "obs_report",
    flags: &[("--check", None), ("--diff", None), ("--cross", None)],
    operands: "FILE...",
};

/// Parse the arguments. Any other `--flag` is an error, never a path,
/// and `--diff` and `--cross` are two modes, not one.
fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
    let p = CLI.parse(args)?;
    if p.has("--diff") && p.has("--cross") {
        return Err("--diff and --cross are separate modes; give one".into());
    }
    Ok(p)
}

fn main() -> ExitCode {
    let args = parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| CLI.exit_usage(e));
    let (strict, paths) = (args.has("--check"), &args.operands);

    if args.has("--cross") {
        if paths.len() != 3 {
            CLI.exit_usage("--cross takes MANIFEST PROFILE SCENARIO");
        }
        let problems = match cross_check(&paths[0], &paths[1], &paths[2]) {
            Ok(problems) => problems,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if problems.is_empty() {
            println!(
                "{} and {} agree on scenario {} (within 0.1%)",
                paths[0], paths[1], paths[2]
            );
            return ExitCode::SUCCESS;
        }
        for p in &problems {
            eprintln!("PROBLEM: {p}");
        }
        return if strict {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if args.has("--diff") {
        if paths.len() != 2 {
            CLI.exit_usage("--diff takes NEW BASELINE");
        }
        let lines = match diff_profiles(&paths[0], &paths[1]) {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if lines.is_empty() {
            println!("{} matches baseline {}", paths[0], paths[1]);
            return ExitCode::SUCCESS;
        }
        println!("{} vs baseline {}:", paths[0], paths[1]);
        for l in &lines {
            println!("  {l}");
        }
        return if strict {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let mut failed = false;
    let mut unusable = false;
    for path in paths {
        let contents = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{path}: {e}");
                unusable = true;
                continue;
            }
        };
        let checked = match check_artifact(path, &contents) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                unusable = true;
                continue;
            }
        };
        for p in &checked.problems {
            eprintln!("{}: PROBLEM: {p}", checked.path);
        }
        failed |= !checked.problems.is_empty();
    }
    if unusable || (strict && failed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::{check_artifact, parse_cli, Parsed};

    fn cli(args: &[&str]) -> Result<Parsed, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_and_operands_parse() {
        let c = cli(&["--check", "--diff", "new.json", "base.json"]).unwrap();
        assert!(c.has("--check") && c.has("--diff") && !c.has("--cross"));
        assert_eq!(c.operands, ["new.json", "base.json"]);
    }

    #[test]
    fn a_misspelled_flag_is_an_error_not_a_path() {
        let e = cli(&["--chek", "results/obs/fig5.metrics.csv"]).unwrap_err();
        assert!(e.contains("--chek") && e.contains("--check"), "{e}");
    }

    #[test]
    fn diff_and_cross_together_are_an_error_not_cross() {
        let e = cli(&["--diff", "--cross", "a", "b", "c"]).unwrap_err();
        assert!(e.contains("--diff") && e.contains("--cross"), "{e}");
        assert!(cli(&["--check"]).unwrap_err().contains("FILE..."));
    }

    #[test]
    fn empty_and_truncated_artifacts_are_hard_errors_naming_the_path() {
        let e = check_artifact("results/x.json", "").expect_err("empty must not pass");
        assert!(e.contains("results/x.json") && e.contains("empty"), "{e}");
        let e = check_artifact("results/x.json", "  \n\t").expect_err("blank must not pass");
        assert!(e.contains("empty"), "{e}");
        // A write that died mid-stream: valid prefix, no closing brace.
        let e = check_artifact("p.json", "{\"bgq_profile\": 1, \"runs\": [{\"na")
            .expect_err("truncated JSON must not pass");
        assert!(
            e.contains("p.json") && e.contains("truncated or invalid JSON"),
            "{e}"
        );
    }

    #[test]
    fn unrecognized_json_names_the_expected_schemas() {
        let e = check_artifact("results/who.json", "{\"something\": []}")
            .expect_err("schema-less JSON must not pass");
        assert!(e.contains("results/who.json"), "{e}");
        assert!(
            e.contains("traceEvents") && e.contains("bgq_profile") && e.contains("bgq_manifest"),
            "the error must say what would have been accepted: {e}"
        );
    }

    #[test]
    fn json_is_sniffed_by_content_not_just_extension() {
        // A JSON body behind a non-.json name still goes down the JSON
        // path (and fails loudly rather than being parsed as CSV).
        assert!(check_artifact("artifact.dat", "{\"something\": 1}").is_err());
        let ok = check_artifact("trace.dat", "{\"traceEvents\": []}").unwrap();
        assert!(ok.problems.is_empty());
    }

    #[test]
    fn recognized_artifacts_still_check_clean() {
        let trace = "{\"traceEvents\": [{\"ph\": \"X\"}]}";
        assert!(check_artifact("t.json", trace).unwrap().problems.is_empty());
        let csv = "kind,name,value\ncounter,comm.transfers_undelivered,0\n";
        assert!(check_artifact("m.csv", csv).unwrap().problems.is_empty());
    }

    #[test]
    fn domain_problems_stay_soft_not_hard() {
        // Malformed *rows* in an otherwise recognizable snapshot are
        // reported as problems (gated by --check), not hard errors.
        let csv = "kind,name,value\nnot-a-row\n";
        let c = check_artifact("m.csv", csv).unwrap();
        assert_eq!(c.problems.len(), 1);
        assert!(c.problems[0].contains("not kind,name,value"));
    }
}
