//! Shared command-line handling for `reproduce`, `profile` and
//! `fig10_point`.
//!
//! They accept the same flags, parsed fallibly into a [`BenchArgs`]; a
//! binary that writes no file for an artifact flag rejects it
//! ([`BenchArgs::only_artifacts`]):
//!
//! * `--csv` — machine-readable output instead of aligned tables;
//! * `--max-cores N` — cap for the weak-scaling sweeps (fig10/fig11;
//!   default 65,536, the committed setting);
//! * `--threads N` — worker threads for the parallel fan-out (default:
//!   the machine's available parallelism);
//! * `--timing` — print per-point timings and plan-cache counters;
//! * `--seed N` — seed for the randomized fault scenarios (`resilience`);
//! * `--observe` — attach a metrics registry and trace recorder to the
//!   session (implied by the two output flags below) and write each
//!   figure's metrics and trace under `results/obs/`;
//! * `--metrics-out PATH` — write the session's metrics snapshot as
//!   deterministic CSV after the run;
//! * `--trace-out PATH` — write a Perfetto-loadable Chrome trace of a
//!   representative run of the figure;
//! * `--profile-out PATH` — write a bottleneck-attribution profile
//!   (deterministic JSON, see [`bgq_obs::profile`]) of the same
//!   representative run;
//! * `--manifest-out PATH` — write a single-scenario run-ledger
//!   manifest (deterministic JSON, see [`bgq_obs::ledger`]) of the same
//!   representative scenario, for sentinel comparison.
//!
//! Arguments that don't start with `--` are collected into
//! [`BenchArgs::positional`]: the figure names of `reproduce` and
//! `profile`, the point of `fig10_point`.

use crate::runner::ExperimentSession;

/// Why the command line could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag this harness does not know.
    UnknownFlag(String),
    /// A flag that needs a value was last on the line.
    MissingValue(&'static str),
    /// A flag value that did not parse.
    BadValue { flag: &'static str, value: String },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(
                f,
                "unknown flag {flag} (supported: --csv, --max-cores N, --threads N, --timing, --seed N, --observe, --metrics-out PATH, --trace-out PATH, --profile-out PATH, --manifest-out PATH)"
            ),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "{flag} needs a number, got {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Lets a `Result<_, String>` parser use `?` on [`parse_value`].
impl From<ArgError> for String {
    fn from(e: ArgError) -> String {
        e.to_string()
    }
}

/// Parsed harness options. Construct with [`BenchArgs::parse`] (exits on
/// bad input, like any CLI) or [`BenchArgs::try_parse`] (reports
/// [`ArgError`] as a value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    pub csv: bool,
    pub max_cores: u32,
    /// Worker threads for [`ExperimentSession`].
    pub threads: usize,
    /// Print the per-point timing footer.
    pub timing: bool,
    /// Seed for the randomized fault scenarios (`resilience`).
    pub seed: u64,
    /// Attach the observability layer even without output paths.
    pub observe: bool,
    /// Write the metrics snapshot (deterministic CSV) here after the run.
    pub metrics_out: Option<String>,
    /// Write a Chrome trace of a representative run here after the run.
    pub trace_out: Option<String>,
    /// Write a bottleneck-attribution profile (JSON) here after the run.
    pub profile_out: Option<String>,
    /// Write a run-ledger manifest (JSON) here after the run.
    pub manifest_out: Option<String>,
    /// Non-flag operands, in order.
    pub positional: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs {
            csv: false,
            max_cores: 65_536,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            timing: false,
            seed: crate::resilience::DEFAULT_SEED,
            observe: false,
            metrics_out: None,
            trace_out: None,
            profile_out: None,
            manifest_out: None,
            positional: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parse the process arguments, printing the error and exiting with
    /// status 2 on bad input.
    pub fn parse() -> BenchArgs {
        match BenchArgs::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an explicit argument list (no program name).
    pub fn try_parse<I>(args: I) -> Result<BenchArgs, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--csv" => out.csv = true,
                "--timing" => out.timing = true,
                "--max-cores" => {
                    out.max_cores = parse_value("--max-cores", it.next())?;
                }
                "--threads" => {
                    out.threads = parse_value("--threads", it.next())?;
                    out.threads = out.threads.max(1);
                }
                "--seed" => {
                    out.seed = parse_value("--seed", it.next())?;
                }
                "--observe" => out.observe = true,
                "--metrics-out" => {
                    out.metrics_out =
                        Some(it.next().ok_or(ArgError::MissingValue("--metrics-out"))?);
                }
                "--trace-out" => {
                    out.trace_out = Some(it.next().ok_or(ArgError::MissingValue("--trace-out"))?);
                }
                "--profile-out" => {
                    out.profile_out =
                        Some(it.next().ok_or(ArgError::MissingValue("--profile-out"))?);
                }
                "--manifest-out" => {
                    out.manifest_out =
                        Some(it.next().ok_or(ArgError::MissingValue("--manifest-out"))?);
                }
                other if other.starts_with("--") => {
                    return Err(ArgError::UnknownFlag(other.to_string()));
                }
                _ => out.positional.push(arg),
            }
        }
        Ok(out)
    }

    /// Err naming the first artifact flag given that is not in
    /// `written`: a binary must write every file it is asked for or
    /// refuse the request.
    pub fn only_artifacts(&self, written: &[&str]) -> Result<(), String> {
        let given = [
            ("--observe", self.observe),
            ("--metrics-out", self.metrics_out.is_some()),
            ("--trace-out", self.trace_out.is_some()),
            ("--profile-out", self.profile_out.is_some()),
            ("--manifest-out", self.manifest_out.is_some()),
        ];
        match given
            .into_iter()
            .find(|&(flag, set)| set && !written.contains(&flag))
        {
            Some((flag, _)) => Err(format!(
                "{flag} is not supported here (this binary writes no such file)"
            )),
            None => Ok(()),
        }
    }

    /// Whether the observability layer should be attached: `--observe`,
    /// or either output path implies it.
    pub fn observe_enabled(&self) -> bool {
        self.observe || self.metrics_out.is_some() || self.trace_out.is_some()
    }

    /// An [`ExperimentSession`] configured from these flags. With
    /// observation enabled the session carries a metrics registry that
    /// the plan cache and planners record into.
    pub fn session(&self) -> ExperimentSession {
        let session = ExperimentSession::new(self.threads).with_timing(self.timing);
        if self.observe_enabled() {
            session.with_metrics(std::sync::Arc::new(bgq_obs::MetricsRegistry::new()))
        } else {
            session
        }
    }
}

/// Parse the value following `flag` (`None` when the flag was last on
/// the line).
pub fn parse_value<T: std::str::FromStr>(
    flag: &'static str,
    value: Option<String>,
) -> Result<T, ArgError> {
    let value = value.ok_or(ArgError::MissingValue(flag))?;
    value
        .parse()
        .map_err(|_| ArgError::BadValue { flag, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, ArgError> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--csv", "--threads", "3", "--timing", "--seed", "7"]).unwrap();
        assert!(a.csv && a.timing);
        assert_eq!(a.threads, 3);
        assert_eq!(a.seed, 7);
        assert_eq!(
            parse(&[]).unwrap().seed,
            crate::resilience::DEFAULT_SEED,
            "seed defaults to the experiment's date stamp"
        );
        assert_eq!(
            parse(&[]).unwrap().max_cores,
            65_536,
            "the weak-scaling figures stop where the committed files do"
        );
        let a = parse(&["--max-cores", "8192", "pareto", "2048"]).unwrap();
        assert_eq!(a.max_cores, 8192);
        assert_eq!(a.positional, vec!["pareto", "2048"]);
        assert_eq!(
            parse(&["--coarse"]),
            Err(ArgError::UnknownFlag("--coarse".into())),
            "the full sweep is cheap; there is no coarse mode"
        );
    }

    #[test]
    fn only_artifacts_rejects_the_files_a_binary_cannot_write() {
        let a = parse(&["--profile-out", "p.json", "--manifest-out", "m.json"]).unwrap();
        assert_eq!(
            a.only_artifacts(&["--profile-out", "--manifest-out"]),
            Ok(())
        );
        let err = a
            .only_artifacts(&["--profile-out", "--trace-out"])
            .unwrap_err();
        assert!(err.starts_with("--manifest-out"), "{err}");
        assert!(parse(&["--observe"]).unwrap().only_artifacts(&[]).is_err());
        assert_eq!(
            parse(&["--csv", "--timing"]).unwrap().only_artifacts(&[]),
            Ok(())
        );
    }

    #[test]
    fn observe_flags_parse_and_imply_observation() {
        let plain = parse(&[]).unwrap();
        assert!(!plain.observe_enabled());
        assert!(plain.session().metrics().is_none());

        let a = parse(&["--observe"]).unwrap();
        assert!(a.observe_enabled() && a.metrics_out.is_none());
        assert!(a.session().metrics().is_some());

        let b = parse(&["--metrics-out", "m.csv", "--trace-out", "t.json"]).unwrap();
        assert!(b.observe_enabled(), "output paths imply observation");
        assert_eq!(b.metrics_out.as_deref(), Some("m.csv"));
        assert_eq!(b.trace_out.as_deref(), Some("t.json"));

        let c = parse(&["--profile-out", "p.json"]).unwrap();
        assert_eq!(c.profile_out.as_deref(), Some("p.json"));
        assert!(
            !c.observe_enabled(),
            "profiles run their own scenario; no session registry needed"
        );

        let d = parse(&["--manifest-out", "m.json"]).unwrap();
        assert_eq!(d.manifest_out.as_deref(), Some("m.json"));
        assert!(
            !d.observe_enabled(),
            "manifests run their own scenario; no session registry needed"
        );
        assert_eq!(
            parse(&["--manifest-out"]),
            Err(ArgError::MissingValue("--manifest-out"))
        );

        assert_eq!(
            parse(&["--metrics-out"]),
            Err(ArgError::MissingValue("--metrics-out"))
        );
        assert_eq!(
            parse(&["--trace-out"]),
            Err(ArgError::MissingValue("--trace-out"))
        );
        assert_eq!(
            parse(&["--profile-out"]),
            Err(ArgError::MissingValue("--profile-out"))
        );
    }

    #[test]
    fn errors_are_values_not_panics() {
        assert_eq!(
            parse(&["--bogus"]),
            Err(ArgError::UnknownFlag("--bogus".into()))
        );
        assert_eq!(
            parse(&["--threads"]),
            Err(ArgError::MissingValue("--threads"))
        );
        assert!(matches!(
            parse(&["--max-cores", "lots"]),
            Err(ArgError::BadValue {
                flag: "--max-cores",
                ..
            })
        ));
        // Errors render a usable message.
        let msg = parse(&["--bogus"]).unwrap_err().to_string();
        assert!(msg.contains("--threads"), "usage lists the flags: {msg}");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(parse(&["--threads", "0"]).unwrap().threads, 1);
    }
}
