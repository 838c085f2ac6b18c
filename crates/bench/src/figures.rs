//! The figure registry: every figure `reproduce` regenerates, with its
//! title lines, the experiments that fill it and its committed file
//! under `results/`. It is the only list of figure drivers.
//!
//! A figure renders through one function (`Figure::render`) whether it
//! goes to its file or to stdout, and every side artifact (metrics
//! snapshot, trace, profile, manifest) comes from one function
//! (`Artifact::contents`); [`produce`] runs both. The trace, profile and
//! manifest are views of one execution of the figure's representative
//! scenario ([`crate::representative`]).

use crate::args::BenchArgs;
use crate::experiments::{
    AblationForwarding, AblationPolicy, AblationProxyCount, Diversity, Fig10, Fig11, Fig5, Fig6,
    Fig7, GammaSensitivity, ModelThresholds, ModelVsSim, PatternHistogram, Storage, Utilization,
};
use crate::io::{fig10_scales, fig11_scales};
use crate::representative::{Execution, Representative};
use crate::resilience::{default_sizes, Resilience};
use crate::runner::ExperimentSession;
use crate::sentinel::{scenario_manifest, LedgerOptions};
use crate::table::{paper_size_sweep, Table};
use bgq_netsim::SimConfig;
use bgq_obs::RunManifest;
use std::cell::OnceCell;

/// How a figure is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Each table under its title lines, followed by its footer.
    Text,
    /// Bare CSV tables: no title, no footer.
    Csv,
}

/// One table of a figure: its title line(s) and the run that fills it
/// (the table plus its footer).
type Section = (
    &'static str,
    fn(&BenchArgs, &ExperimentSession) -> (Table, Option<String>),
);

/// A figure of the reproduction and its committed output.
#[derive(Debug)]
pub struct Figure {
    /// Its committed file under `results/`. The stem is the figure's
    /// name; a `.csv` file holds [`Format::Csv`], any other
    /// [`Format::Text`].
    pub file: &'static str,
    /// Its tables, in output order.
    sections: &'static [Section],
}

/// Every figure, in the order `reproduce` regenerates them.
pub static FIGURES: &[Figure] = &[
    Figure {
        file: "fig5.txt",
        sections: &[(
            "Figure 5: point-to-point PUT throughput w & w/o proxies (2x2x4x4x2, 128 nodes)",
            |_, s| s.tabulate(&Fig5 { sizes: paper_size_sweep() }),
        )],
    },
    Figure {
        file: "fig6.txt",
        sections: &[(
            "Figure 6: PUT throughput w & w/o proxies between 2 groups of 256 nodes (4x4x4x16x2, 2K nodes)",
            |_, s| s.tabulate(&Fig6 { sizes: paper_size_sweep() }),
        )],
    },
    Figure {
        file: "fig7.txt",
        sections: &[(
            "Figure 7: PUT throughput vs number of proxy groups (2 groups of 32 nodes, 4x4x4x4x2)",
            |_, s| s.tabulate(&Fig7 { sizes: paper_size_sweep() }),
        )],
    },
    Figure {
        file: "fig8_9.txt",
        sections: &[
            (
                "Figure 8: Pattern 1 histogram (uniform 0-8MB, 1,024 processes)",
                |_, s| s.tabulate(&PatternHistogram::fig8()),
            ),
            (
                "Figure 9: Pattern 2 histogram (Pareto, 1,024 processes)",
                |_, s| s.tabulate(&PatternHistogram::fig9()),
            ),
        ],
    },
    Figure {
        file: "fig10.csv",
        sections: &[(
            "Figure 10: aggregation throughput to ION /dev/null (weak scaling)",
            |a, s| s.tabulate(&Fig10 { scales: fig10_scales(a.max_cores) }),
        )],
    },
    Figure {
        file: "fig11.csv",
        sections: &[(
            "Figure 11: HACC I/O write throughput to ION /dev/null",
            |a, s| s.tabulate(&Fig11 { scales: fig11_scales(a.max_cores) }),
        )],
    },
    Figure {
        file: "thresholds.txt",
        sections: &[
            (
                "Analytical model (Eqs. 1-5): proxy-count thresholds",
                |_, s| s.tabulate(&ModelThresholds),
            ),
            (
                "Model vs simulator (2 nodes, 4 proxies, 2x2x4x4x2):",
                |_, s| s.tabulate(&ModelVsSim),
            ),
        ],
    },
    Figure {
        file: "utilization.txt",
        sections: &[(
            "Resource utilization of sparse data movement (128-node partition)",
            |_, s| s.tabulate(&Utilization),
        )],
    },
    Figure {
        file: "diversity.txt",
        sections: &[(
            "Link-disjoint single-proxy path diversity (corner-to-corner pairs)",
            |_, s| s.tabulate(&Diversity::default()),
        )],
    },
    Figure {
        file: "storage.txt",
        sections: &[(
            "Sparse write (pattern 2, 512 nodes): /dev/null vs file servers",
            |_, s| s.tabulate(&Storage),
        )],
    },
    Figure {
        file: "resilience.csv",
        sections: &[(
            "Resilience: completion and delivery under link faults (2x2x4x4x2, node 0 -> node 127)",
            |a, s| s.tabulate(&Resilience::new(default_sizes(), a.seed)),
        )],
    },
    Figure {
        file: "ablation_report.txt",
        sections: &[
            (
                "Ablation: proxy count (64 MB pair transfer, 128-node partition)",
                |_, s| s.tabulate(&AblationProxyCount),
            ),
            (
                "Ablation: forwarding strategy (64 MB, 4 proxies)",
                |_, s| s.tabulate(&AblationForwarding),
            ),
            (
                "Ablation: aggregator assignment policy (pattern 2, 2,048 cores)",
                |_, s| s.tabulate(&AblationPolicy),
            ),
            (
                "Sensitivity: contention penalty γ (headline pair speedup, 4 proxies)",
                |_, s| s.tabulate(&GammaSensitivity),
            ),
        ],
    },
];

/// The registry entry called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name() == name)
}

impl Figure {
    /// The operand `reproduce` takes for it: its file's stem.
    pub fn name(&self) -> &'static str {
        self.file
            .split_once('.')
            .map_or(self.file, |(stem, _)| stem)
    }

    /// The core counts up to `max_cores` of a weak-scaling figure's
    /// sweep (ascending), or `None` for a figure without such a sweep.
    fn scales(&self, max_cores: u32) -> Option<Vec<u32>> {
        match self.name() {
            "fig10" => Some(fig10_scales(max_cores)),
            "fig11" => Some(fig11_scales(max_cores)),
            _ => None,
        }
    }

    /// The layout of the committed file.
    pub fn format(&self) -> Format {
        if self.file.ends_with(".csv") {
            Format::Csv
        } else {
            Format::Text
        }
    }

    /// Run every section on `session` and render the figure as `format`,
    /// sections separated by a blank line.
    fn render(&self, args: &BenchArgs, session: &ExperimentSession, format: Format) -> String {
        let mut out = String::new();
        for (i, (title, run)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let (table, footer) = run(args, session);
            match format {
                Format::Text => {
                    out.push_str(title);
                    out.push('\n');
                    out.push_str(&table.render());
                    if let Some(footer) = footer {
                        out.push_str(&footer);
                        out.push('\n');
                    }
                }
                Format::Csv => out.push_str(&table.to_csv()),
            }
        }
        out
    }
}

/// A side artifact of a figure run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Artifact {
    /// The session's metrics snapshot (deterministic CSV).
    Metrics,
    /// A Chrome trace of the figure's representative run.
    Trace,
    /// A bottleneck-attribution profile of that run (JSON).
    Profile,
    /// A single-scenario run-ledger manifest of that run (JSON).
    Manifest,
}

impl Artifact {
    /// Every kind, metrics first: its snapshot must not count the
    /// representative execution the other kinds read.
    const ALL: [Artifact; 4] = [
        Artifact::Metrics,
        Artifact::Trace,
        Artifact::Profile,
        Artifact::Manifest,
    ];

    /// The flag naming this artifact's path, the path `args` gives it,
    /// and the file `--observe` writes it to under
    /// `results/obs/<figure>.` (metrics and trace only).
    fn request(self, args: &BenchArgs) -> (&'static str, Option<&str>, Option<&'static str>) {
        match self {
            Artifact::Metrics => (
                "--metrics-out",
                args.metrics_out.as_deref(),
                Some("metrics.csv"),
            ),
            Artifact::Trace => ("--trace-out", args.trace_out.as_deref(), Some("trace.json")),
            Artifact::Profile => ("--profile-out", args.profile_out.as_deref(), None),
            Artifact::Manifest => ("--manifest-out", args.manifest_out.as_deref(), None),
        }
    }

    /// This artifact once the figure ran on `session`, or `None` when
    /// the figure has none: no representative scenario, or metrics on
    /// an unobserved session. `representative` executes the figure's
    /// representative scenario, at most once for all artifacts.
    fn contents<'e>(
        self,
        session: &ExperimentSession,
        representative: impl FnOnce() -> Option<&'e Execution>,
    ) -> Option<String> {
        match self {
            Artifact::Metrics => session.metrics().map(|m| m.snapshot().to_csv()),
            Artifact::Trace => representative().map(|ex| ex.trace().to_chrome_json()),
            Artifact::Profile => representative().map(|ex| {
                let art = ex.profile();
                art.validate()
                    .unwrap_or_else(|e| panic!("profile accounting broken: {e}"));
                art.to_json()
            }),
            Artifact::Manifest => representative().map(|ex| {
                let top_blame = LedgerOptions::default().top_blame;
                let mut m = RunManifest::default();
                m.push(scenario_manifest(ex, session.cache(), top_blame));
                m.validate()
                    .unwrap_or_else(|e| panic!("manifest broken: {e}"));
                m.to_json()
            }),
        }
    }
}

/// The figures `args` selects: the named ones, or the whole registry
/// (the committed set) when none is named. Rejects, before anything
/// runs, flags the selection cannot honour: a path flag needs exactly
/// one named figure, `--csv` applies to stdout only, and `--max-cores`
/// must leave every selected weak-scaling figure at least one point.
pub fn select(args: &BenchArgs) -> Result<Vec<&'static Figure>, String> {
    let figures = selection(args)?;
    for fig in &figures {
        if fig.scales(args.max_cores).is_some_and(|s| s.is_empty()) {
            let first = fig.scales(u32::MAX).expect("a weak-scaling figure")[0];
            return Err(format!(
                "--max-cores {} leaves {} without a point (it starts at {first} cores)",
                args.max_cores,
                fig.name()
            ));
        }
    }
    Ok(figures)
}

/// [`select`] before the `--max-cores` check.
fn selection(args: &BenchArgs) -> Result<Vec<&'static Figure>, String> {
    let requests = Artifact::ALL.map(|a| a.request(args));
    if let Some((flag, ..)) = requests.iter().find(|(_, path, _)| path.is_some()) {
        if args.positional.len() != 1 {
            return Err(format!("{flag} needs exactly one named figure"));
        }
    }
    if args.positional.is_empty() {
        if args.csv {
            return Err("--csv applies to figures printed to stdout".into());
        }
        return Ok(FIGURES.iter().collect());
    }
    let names: Vec<&str> = FIGURES.iter().map(Figure::name).collect();
    args.positional
        .iter()
        .map(|name| {
            figure(name)
                .ok_or_else(|| format!("unknown figure {name:?} (figures: {})", names.join(", ")))
        })
        .collect()
}

/// Run `fig` on a fresh session and render it as `format`, with the
/// side artifacts `args` asks for as `(path, contents)`. A path flag
/// for an artifact the figure does not have is an error, and then
/// nothing is to be printed or written; `--observe` takes the metrics
/// and trace the figure has.
pub fn produce(
    fig: &Figure,
    args: &BenchArgs,
    format: Format,
) -> Result<(String, Vec<(String, String)>), String> {
    let session = args.session();
    let text = fig.render(args, &session, format);
    let execution = OnceCell::new();
    let representative = || {
        execution
            .get_or_init(|| {
                Representative::of(fig.name())
                    .map(|r| r.execute(session.cache(), &SimConfig::default()))
            })
            .as_ref()
    };
    let mut files = Vec::new();
    for kind in Artifact::ALL {
        let (flag, asked, observed) = kind.request(args);
        let observed = observed
            .filter(|_| args.observe)
            .map(|ext| format!("results/obs/{}.{ext}", fig.name()));
        if asked.is_none() && observed.is_none() {
            continue;
        }
        match kind.contents(&session, representative) {
            Some(contents) => files.extend(
                asked
                    .map(str::to_string)
                    .into_iter()
                    .chain(observed)
                    .map(|path| (path, contents.clone())),
            ),
            None if asked.is_some() => {
                return Err(format!("{flag}: {} has no such artifact", fig.name()))
            }
            None => {}
        }
    }
    Ok((text, files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> BenchArgs {
        BenchArgs::try_parse(line.iter().map(|s| s.to_string())).unwrap()
    }

    fn produce_named(line: &[&str]) -> Result<(String, Vec<(String, String)>), String> {
        let a = args(line);
        let figs = select(&a)?;
        assert_eq!(figs.len(), 1);
        produce(figs[0], &a, figs[0].format())
    }

    #[test]
    fn names_and_files_are_unique() {
        for (i, f) in FIGURES.iter().enumerate() {
            for g in &FIGURES[i + 1..] {
                assert_ne!(f.name(), g.name());
            }
            assert!(!f.sections.is_empty(), "{} has no table", f.name());
        }
    }

    #[test]
    fn no_operand_selects_the_committed_set() {
        assert_eq!(select(&args(&[])).unwrap().len(), FIGURES.len());
        let two = select(&args(&["fig8_9", "thresholds"])).unwrap();
        assert_eq!(
            two.iter().map(|f| f.name()).collect::<Vec<_>>(),
            ["fig8_9", "thresholds"]
        );
        let err = select(&args(&["fig12"])).unwrap_err();
        assert!(
            err.contains("unknown figure") && err.contains("fig8_9"),
            "{err}"
        );
    }

    #[test]
    fn path_flags_need_exactly_one_named_figure() {
        let err = select(&args(&[
            "--metrics-out",
            "m.csv",
            "--profile-out",
            "p.json",
            "--manifest-out",
            "man.json",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--metrics-out needs exactly one named figure"),
            "{err}"
        );
        let err = select(&args(&["fig5", "fig6", "--trace-out", "t.json"])).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
        assert!(select(&args(&["fig5", "--trace-out", "t.json"])).is_ok());
    }

    #[test]
    fn max_cores_must_leave_every_selected_sweep_a_point() {
        // With no operand an empty sweep would overwrite the committed
        // fig10/fig11 files with bare headers.
        let err = select(&args(&["--max-cores", "5"])).unwrap_err();
        assert!(err.contains("fig10") && err.contains("2048 cores"), "{err}");
        let err = select(&args(&["fig11", "--max-cores", "4096"])).unwrap_err();
        assert!(err.contains("fig11") && err.contains("8192 cores"), "{err}");
        assert!(select(&args(&["fig10", "--max-cores", "4096"])).is_ok());
        assert!(select(&args(&["fig5", "--max-cores", "5"])).is_ok());
        assert!(select(&args(&["--max-cores", "8192"])).is_ok());
    }

    #[test]
    fn csv_is_rejected_for_the_committed_set() {
        assert!(select(&args(&["--csv"])).unwrap_err().contains("--csv"));
        assert!(select(&args(&["fig5", "--csv"])).is_ok());
    }

    #[test]
    fn an_artifact_the_figure_lacks_is_an_error() {
        // Figures without a simulated scenario have no trace, profile or
        // manifest.
        for line in [
            [
                "diversity",
                "--trace-out",
                "t.json",
                "--manifest-out",
                "m.json",
            ],
            ["fig8_9", "--profile-out", "p.json", "--csv", "--timing"],
            ["thresholds", "--manifest-out", "m.json", "--threads", "1"],
        ] {
            let err = produce_named(&line).unwrap_err();
            assert!(err.contains("has no such artifact"), "{err}");
        }
    }

    #[test]
    fn every_requested_artifact_is_produced() {
        let (text, files) =
            produce_named(&["fig8_9", "--metrics-out", "m.csv", "--observe"]).unwrap();
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        // --observe writes the metrics it has and skips the trace it has not.
        assert_eq!(paths, ["m.csv", "results/obs/fig8_9.metrics.csv"]);
        assert!(files[0].1.starts_with("kind,name,value"));
        assert!(text.starts_with("Figure 8: "));
    }

    #[test]
    fn csv_drops_titles_and_footers() {
        let fig = figure("fig8_9").unwrap();
        let a = args(&[]);
        let csv = fig.render(&a, &a.session(), Format::Csv);
        assert!(csv.starts_with("bin (MB),ranks,bar\n"), "{csv}");
        assert!(
            !csv.contains("Figure") && !csv.contains("total data"),
            "{csv}"
        );
        assert_eq!(csv.matches("bin (MB)").count(), 2, "both histograms");
    }
}
