//! The committed figure files under `results/` have exactly one
//! producer, the figure registry, and the cheap figures still reproduce
//! them byte-for-byte through the same path `reproduce` takes.

use bgq_bench::figures::{figure, produce, FIGURES};
use bgq_bench::BenchArgs;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn registry_files_are_exactly_the_committed_figure_files() {
    let mut committed: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ is readable")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".txt") || name.ends_with(".csv"))
        .collect();
    committed.sort();
    let mut registry: Vec<String> = FIGURES.iter().map(|f| f.file.to_string()).collect();
    registry.sort();
    assert_eq!(
        registry, committed,
        "every results/*.txt and results/*.csv file must come from exactly one registry figure"
    );
}

#[test]
fn cheap_figures_reproduce_their_committed_files() {
    let args = BenchArgs::default();
    for name in [
        "fig5",
        "fig8_9",
        "thresholds",
        "diversity",
        "ablation_report",
    ] {
        let fig = figure(name).unwrap();
        let (text, _) = produce(fig, &args, fig.format()).unwrap();
        let committed = std::fs::read_to_string(results_dir().join(fig.file)).unwrap();
        assert!(
            text == committed,
            "`reproduce {name}` no longer matches results/{}; after an intentional change \
             regenerate it with `UPDATE_GOLDEN=1 just reproduce`\n--- rendered ---\n{}",
            fig.file,
            text
        );
    }
}
