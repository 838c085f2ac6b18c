//! Golden pin of the observability layer: the fig5 representative trace
//! (Chrome trace-event JSON) is generated twice — once on a 1-thread
//! session, once on a 4-thread session — and both must match
//! `tests/golden/trace_fig5.json` byte-for-byte. Timestamps come from the
//! simulation clock and the exporter totally orders events, so any diff
//! here means either the simulator moved (regenerate alongside the
//! change) or nondeterminism crept into the recording path (a bug).
//!
//! Regenerate after an intentional engine/planner change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test observability
//! ```

use bgq_bench::experiments::Fig5;
use bgq_bench::{ExperimentSession, Representative, TRACE_BYTES};
use bgq_netsim::SimConfig;
use bgq_obs::MetricsRegistry;
use std::path::Path;
use std::sync::Arc;

/// Run the coarse fig5 sweep on `threads` workers with metrics attached,
/// then build the figure's representative trace from the warm cache.
fn fig5_trace_json(threads: usize) -> String {
    let session = ExperimentSession::new(threads).with_metrics(Arc::new(MetricsRegistry::new()));
    session.run(&Fig5 {
        sizes: vec![64 << 10, TRACE_BYTES],
    });
    Representative::of("fig5")
        .expect("fig5 has a representative scenario")
        .execute(session.cache(), &SimConfig::default())
        .trace()
        .to_chrome_json()
}

fn golden_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_fig5.json")
}

#[test]
fn fig5_trace_matches_golden_across_thread_counts() {
    let seq = fig5_trace_json(1);
    let par = fig5_trace_json(4);
    assert_eq!(
        seq, par,
        "trace JSON must be byte-identical for 1 and 4 worker threads"
    );
    bgq_obs::json::validate(&seq).expect("trace must be valid JSON");

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden/");
        std::fs::write(&path, &seq).expect("rewrite golden trace");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test observability",
            path.display()
        )
    });
    assert_eq!(
        seq, expected,
        "fig5 trace diverged from tests/golden/trace_fig5.json; if the \
         simulator or planner changed intentionally, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test observability"
    );
}

#[test]
fn update_golden_is_stable() {
    // Rewriting the golden file must be idempotent: generating the
    // artifact twice yields the same bytes (no hidden wall-clock or
    // iteration-order leakage).
    assert_eq!(fig5_trace_json(2), fig5_trace_json(2));
}
