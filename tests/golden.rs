//! Golden-file snapshot tests: small fixed-point runs of the figure
//! experiments, diffed byte-for-byte against reference CSVs committed
//! under `tests/golden/`. Any change to the simulator, the cost model,
//! the planner, or the fault-free engine path shows up here as a diff —
//! intentional changes regenerate the files with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and the new CSVs go in the same commit as the change that moved them.

use bgq_bench::experiments::{Fig10, Fig5, Fig7};
use bgq_bench::resilience::Resilience;
use bgq_bench::{fig10_scales, ExchangeSweep, Experiment, ExperimentSession};
use std::path::Path;

/// Run `exp` sequentially and return its CSV. One thread keeps the runs
/// cheap; the determinism suite separately proves N threads give the
/// same bytes.
fn csv_of<E: Experiment>(exp: &E) -> String {
    let session = ExperimentSession::new(1);
    session.run(exp).table(&exp.columns()).to_csv()
}

/// Compare against `tests/golden/<name>.csv`, or rewrite it when
/// `UPDATE_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.csv"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden/");
        std::fs::write(&path, actual).expect("rewrite golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{name} output drifted from {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test --test golden",
        path.display()
    );
}

/// Three sizes spanning the sweep: below the multipath threshold, just
/// above it, and the largest paper point.
fn golden_sizes() -> Vec<u64> {
    vec![64 << 10, 1 << 20, 128 << 20]
}

#[test]
fn fig5_matches_golden() {
    check(
        "fig5",
        &csv_of(&Fig5 {
            sizes: golden_sizes(),
        }),
    );
}

#[test]
fn fig7_matches_golden() {
    check(
        "fig7",
        &csv_of(&Fig7 {
            sizes: golden_sizes(),
        }),
    );
}

#[test]
fn fig10_matches_golden() {
    check(
        "fig10",
        &csv_of(&Fig10 {
            scales: fig10_scales(2048),
        }),
    );
}

#[test]
fn exchange_matches_golden() {
    // The 512-node slice of the exchange sweep: all four patterns, all
    // three algorithms per row. Pins the send-map generators, the
    // link-claim ledger, combining, and consensus discovery in one CSV.
    check("exchange", &csv_of(&ExchangeSweep::new(512)));
}

#[test]
fn resilience_matches_golden() {
    // Two sizes (one below the multipath threshold, one well above) at
    // the default seed — pins the retry loop and the fault schedule, not
    // just the fault-free engine path.
    check(
        "resilience",
        &csv_of(&Resilience::new(
            vec![64 << 10, 16 << 20],
            bgq_bench::resilience::DEFAULT_SEED,
        )),
    );
}
