//! Integration pin of the run-ledger baseline: the committed
//! `results/ledger/baseline.json` must stay a valid, self-consistent
//! sentinel baseline. The heavy check — regenerating the manifest and
//! byte-comparing it — lives in `just sentinel`; this test guards the
//! artifact itself so a hand-edited or merge-mangled baseline fails
//! `cargo test` before it silently poisons every future verdict.
//!
//! Re-pin after an intentional model change with
//!
//! ```text
//! UPDATE_GOLDEN=1 just sentinel
//! ```

use bgq_obs::{sentinel, RunManifest};
use std::path::Path;

fn baseline() -> (String, RunManifest) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/ledger/baseline.json");
    let js =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let manifest = RunManifest::from_json(&js)
        .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
    (js, manifest)
}

#[test]
fn baseline_parses_validates_and_round_trips_byte_exactly() {
    let (js, manifest) = baseline();
    manifest.validate().expect("baseline must validate");
    assert_eq!(
        manifest.to_json(),
        js,
        "baseline must be in canonical serialization (regenerate, don't hand-edit)"
    );
}

#[test]
fn baseline_covers_every_ledger_scenario() {
    let (_, manifest) = baseline();
    for name in [
        "fig5",
        "fig6",
        "fig7",
        "io",
        "resilience",
        "scale",
        "exchange",
    ] {
        let s = manifest
            .scenario(name)
            .unwrap_or_else(|| panic!("baseline must cover scenario {name}"));
        assert!(!s.metrics.is_empty(), "{name} must carry metrics");
        assert!(!s.config.is_empty(), "{name} must fingerprint its config");
    }
}

#[test]
fn baseline_self_diff_is_all_neutral() {
    let (_, manifest) = baseline();
    let report = sentinel::diff(&manifest, &manifest);
    assert!(!report.has_regressions(), "self-diff must not regress");
    let (regressed, improved, _) = report.totals();
    assert_eq!((regressed, improved), (0, 0));
    for s in &report.scenarios {
        assert!(
            s.config_drift.is_empty(),
            "{}: no drift against itself",
            s.name
        );
        assert!(s.attribution.is_empty(), "{}: no attribution", s.name);
    }
}

#[test]
fn baseline_carries_profiler_rollups_and_blame() {
    let (_, manifest) = baseline();
    // The sentinel's attribution machinery needs profiler rollups to
    // blame anything; make sure the baseline actually has them.
    let fig6 = manifest.scenario("fig6").expect("fig6 present");
    assert!(
        fig6.metrics
            .iter()
            .any(|(k, _)| k.starts_with("profile.") && k.contains(".cat.")),
        "fig6 must carry profiler category rollups"
    );
    assert!(!fig6.blame.is_empty(), "fig6 must carry per-link blame");
    assert!(
        manifest
            .scenarios
            .iter()
            .all(|s| s.metrics.iter().all(|(k, _)| !k.starts_with("wall."))),
        "wall-clock metrics must never reach the committed baseline"
    );
}
