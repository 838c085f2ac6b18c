//! Golden pin of the bottleneck-attribution profiler: the fig5
//! representative profile artifact (deterministic JSON, see
//! [`bgq_obs::profile`]) must match `tests/golden/profile_fig5.json`
//! byte-for-byte, whether the session that warmed the plan cache ran on
//! one worker thread or four. Every number in the artifact is simulated
//! time, so any diff means either the simulator/planner moved
//! (regenerate alongside the change) or nondeterminism crept into the
//! attribution path (a bug).
//!
//! Regenerate after an intentional engine/planner change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test profile_golden
//! ```

use bgq_bench::experiments::Fig5;
use bgq_bench::{profile_for, ExperimentSession};
use bgq_netsim::SimConfig;
use std::path::Path;

fn fig5_profile_json(threads: usize) -> String {
    let session = ExperimentSession::new(threads);
    session.run(&Fig5 {
        sizes: vec![64 << 10, 16 << 20],
    });
    let art = profile_for("fig5", session.cache()).expect("fig5 has a representative profile");
    art.validate().expect("accounting must balance");
    art.to_json()
}

fn golden_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profile_fig5.json")
}

#[test]
fn fig5_profile_matches_golden_across_thread_counts() {
    let seq = fig5_profile_json(1);
    let par = fig5_profile_json(4);
    assert_eq!(
        seq, par,
        "profile JSON must be byte-identical for 1 and 4 worker threads"
    );
    bgq_obs::json::validate(&seq).expect("profile must be valid JSON");

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden/");
        std::fs::write(&path, &seq).expect("rewrite golden profile");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test profile_golden",
            path.display()
        )
    });
    assert_eq!(
        seq,
        expected,
        "fig5 profile diverged from tests/golden/profile_fig5.json; if the \
         simulator or planner changed intentionally, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test profile_golden"
    );
}

#[test]
fn exchange_profile_matches_golden_and_accounts_to_elapsed() {
    // One profiled run per exchange algorithm over the disjoint-heavy
    // map. `validate()` is the accounting pin: every transfer's
    // cap/link-blame/serialization decomposition must sum to its
    // elapsed time, so the per-algorithm link blame is trustworthy.
    let art = bgq_bench::exchange_profile(
        ExperimentSession::new(1).cache(),
        &SimConfig::default(),
        32 << 20,
    );
    art.validate().expect("exchange profile accounting must balance");
    for run in &art.runs {
        let blamed: f64 = run.link_blame().iter().map(|(_, s)| s).sum();
        let elapsed: f64 = run.transfers.iter().map(|t| t.elapsed()).sum();
        assert!(
            blamed <= elapsed + 1e-9,
            "{}: link blame {blamed} exceeds summed elapsed {elapsed}",
            run.name
        );
        assert!(
            (blamed - run.total_network_limited()).abs() <= 1e-6 * elapsed.max(1.0),
            "{}: link blame must equal network-limited time",
            run.name
        );
    }
    let json = art.to_json();
    bgq_obs::json::validate(&json).expect("profile must be valid JSON");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profile_exchange.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).expect("rewrite golden exchange profile");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test profile_golden",
            path.display()
        )
    });
    assert_eq!(
        json, expected,
        "exchange profile diverged from tests/golden/profile_exchange.json; \
         regenerate with UPDATE_GOLDEN=1 cargo test --test profile_golden \
         if the planner or simulator changed intentionally"
    );
}

#[test]
fn golden_profile_diffs_clean_against_itself() {
    // The `--diff` baseline workflow rests on a parsed artifact comparing
    // clean against its own bytes.
    let art = bgq_obs::ProfileArtifact::from_json(&fig5_profile_json(2))
        .expect("own JSON must parse");
    assert!(art.diff(&art).is_empty(), "self-diff must be empty");
}
