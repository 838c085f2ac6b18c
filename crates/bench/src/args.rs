//! Command-line handling for every `bgq-bench` binary.
//!
//! Each binary declares its command line once, as a [`Cli`]: its name,
//! a table of the flags it acts on (each a name and either a value
//! placeholder such as `N` or `PATH`, or none for a switch) and its
//! operands. [`Cli::parse`] reads the arguments against that table; the
//! unknown-flag error and [`Cli::usage`] come from the same table, so a
//! flag a binary would ignore is a usage error, never quietly accepted.
//!
//! [`BenchArgs`] is the command line of the figure driver `reproduce`,
//! filled from its table [`REPRODUCE`]:
//!
//! * `--csv` — machine-readable output instead of aligned tables;
//! * `--max-cores N` — cap for the weak-scaling sweeps (fig10/fig11;
//!   default 65,536, the committed setting);
//! * `--threads N` — worker threads for the parallel fan-out (default:
//!   [`default_threads`]);
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
//! Its operands, [`BenchArgs::positional`], are the figure names.

use crate::runner::ExperimentSession;

/// One flag: its name and the placeholder of its value (`N`, `PATH`),
/// or `None` for a switch.
pub type Flag = (&'static str, Option<&'static str>);

/// A binary's command line, declared once.
#[derive(Debug)]
pub struct Cli {
    /// The program name that starts the usage line and every error.
    pub name: &'static str,
    /// Every flag the binary acts on.
    pub flags: &'static [Flag],
    /// The operands as the usage line shows them, space-separated:
    /// `[X]` is optional and `X...` repeats. Optional operands come
    /// last.
    pub operands: &'static str,
}

/// Why the command line could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag the binary does not declare, and the flags it does.
    UnknownFlag {
        flag: String,
        supported: &'static [Flag],
    },
    /// A flag that needs a value was last on the line.
    MissingValue(&'static str),
    /// A flag value that did not parse.
    BadValue { flag: &'static str, value: String },
    /// A required operand that was not given.
    MissingOperand(&'static str),
    /// An operand past the last one the binary takes.
    ExtraOperand(String),
}

/// `--flag` or `--flag PLACEHOLDER`.
fn show(&(flag, placeholder): &Flag) -> String {
    placeholder.map_or(flag.to_string(), |p| format!("{flag} {p}"))
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag { flag, supported } => {
                let mut list: Vec<String> = supported.iter().map(show).collect();
                if list.is_empty() {
                    list.push("none".into());
                }
                write!(f, "unknown flag {flag} (supported: {})", list.join(", "))
            }
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "{flag} needs a number, got {value:?}")
            }
            ArgError::MissingOperand(operand) => write!(f, "missing operand {operand}"),
            ArgError::ExtraOperand(operand) => write!(f, "unexpected operand {operand:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Lets a `Result<_, String>` parser use `?` on [`Cli::parse`] and
/// [`Parsed::value`].
impl From<ArgError> for String {
    fn from(e: ArgError) -> String {
        e.to_string()
    }
}

impl Cli {
    /// Parse an argument list (no program name) against the table. An
    /// argument starting with `--` must be a declared flag; a flag with
    /// a placeholder takes the next argument as its value, and the last
    /// one given wins; every other argument is an operand, and their
    /// count must fit [`Cli::operands`].
    pub fn parse<I>(&self, args: I) -> Result<Parsed, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut values = vec![None; self.flags.len()];
        let mut operands = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                operands.push(arg);
                continue;
            }
            let Some(i) = self.flags.iter().position(|(f, _)| *f == arg) else {
                return Err(ArgError::UnknownFlag {
                    flag: arg,
                    supported: self.flags,
                });
            };
            values[i] = Some(match self.flags[i] {
                (flag, Some(_)) => args.next().ok_or(ArgError::MissingValue(flag))?,
                (_, None) => String::new(),
            });
        }
        let words: Vec<&'static str> = self.operands.split_whitespace().collect();
        if let Some(&missing) = words.get(operands.len()).filter(|w| !w.starts_with('[')) {
            return Err(ArgError::MissingOperand(missing));
        }
        if operands.len() > words.len() && !self.operands.contains("...") {
            return Err(ArgError::ExtraOperand(operands.swap_remove(words.len())));
        }
        Ok(Parsed {
            flags: self.flags,
            values,
            operands,
        })
    }

    /// `usage: NAME OPERANDS [--flag] [--flag PLACEHOLDER]...`.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {} {}", self.name, self.operands);
        line.truncate(line.trim_end().len());
        for flag in self.flags {
            line += &format!(" [{}]", show(flag));
        }
        line
    }

    /// Print `error` and the usage line, then exit with status 2.
    pub fn exit_usage(&self, error: impl std::fmt::Display) -> ! {
        eprintln!("{}: {error}\n{}", self.name, self.usage());
        std::process::exit(2)
    }
}

/// A command line parsed by [`Cli::parse`]: the value of each flag
/// given and the operands.
#[derive(Debug)]
pub struct Parsed {
    flags: &'static [Flag],
    /// Per table entry, the flag's value if given (empty for a switch).
    values: Vec<Option<String>>,
    /// The arguments that are not flags or flag values, in order.
    pub operands: Vec<String>,
}

impl Parsed {
    /// The table's name for `flag` and its value if given. Asking for a
    /// flag the table does not declare is a bug in the binary, so it
    /// panics.
    fn get(&self, flag: &str) -> (&'static str, Option<&String>) {
        let i = self.flags.iter().position(|(f, _)| *f == flag);
        let i = i.unwrap_or_else(|| panic!("{flag} is not in the flag table"));
        (self.flags[i].0, self.values[i].as_ref())
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.get(flag).1.is_some()
    }

    /// The value given for `flag`.
    pub fn text(&self, flag: &str) -> Option<String> {
        self.get(flag).1.cloned()
    }

    /// The value given for `flag`, parsed.
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError> {
        let (flag, value) = self.get(flag);
        let parse = |value: &String| {
            value.parse().map_err(|_| ArgError::BadValue {
                flag,
                value: value.clone(),
            })
        };
        value.map(parse).transpose()
    }
}

/// The default worker-thread count: the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The command line of `reproduce`, the figure driver.
pub static REPRODUCE: Cli = Cli {
    name: "reproduce",
    flags: &[
        ("--csv", None),
        ("--max-cores", Some("N")),
        ("--threads", Some("N")),
        ("--timing", None),
        ("--seed", Some("N")),
        ("--observe", None),
        ("--metrics-out", Some("PATH")),
        ("--trace-out", Some("PATH")),
        ("--profile-out", Some("PATH")),
        ("--manifest-out", Some("PATH")),
    ],
    operands: "[FIGURE...]",
};

/// Parsed figure-driver options. Construct with [`BenchArgs::parse`]
/// (exits on bad input, like any CLI) or [`BenchArgs::try_parse`]
/// (reports [`ArgError`] as a value); [`BenchArgs::default`] is the
/// empty command line.
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
    /// The figure names, in order.
    pub positional: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs::try_parse([]).expect("the empty command line parses")
    }
}

impl BenchArgs {
    /// Parse the process arguments, printing the error and the usage
    /// line and exiting with status 2 on bad input.
    pub fn parse() -> BenchArgs {
        BenchArgs::try_parse(std::env::args().skip(1)).unwrap_or_else(|e| REPRODUCE.exit_usage(e))
    }

    /// Parse an explicit argument list (no program name).
    pub fn try_parse<I>(args: I) -> Result<BenchArgs, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let p = REPRODUCE.parse(args)?;
        Ok(BenchArgs {
            csv: p.has("--csv"),
            max_cores: p.value("--max-cores")?.unwrap_or(65_536),
            threads: p.value("--threads")?.unwrap_or_else(default_threads),
            timing: p.has("--timing"),
            seed: p
                .value("--seed")?
                .unwrap_or(crate::resilience::DEFAULT_SEED),
            observe: p.has("--observe"),
            metrics_out: p.text("--metrics-out"),
            trace_out: p.text("--trace-out"),
            profile_out: p.text("--profile-out"),
            manifest_out: p.text("--manifest-out"),
            positional: p.operands,
        })
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, ArgError> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    fn unknown(flag: &str) -> ArgError {
        ArgError::UnknownFlag {
            flag: flag.into(),
            supported: REPRODUCE.flags,
        }
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
            Err(unknown("--coarse")),
            "the full sweep is cheap; there is no coarse mode"
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
        assert_eq!(parse(&["--bogus"]), Err(unknown("--bogus")));
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
        assert!(msg.contains("--threads N"), "usage lists the flags: {msg}");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(
            parse(&["--threads", "0"]).unwrap().session().threads(),
            1,
            "the session clamps the worker count"
        );
    }

    static POINT: Cli = Cli {
        name: "point",
        flags: &[("--fast", None)],
        operands: "<a> <b> [c]",
    };

    fn point(args: &[&str]) -> Result<Parsed, ArgError> {
        POINT.parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn operand_counts_follow_the_synopsis() {
        assert_eq!(point(&["1", "2"]).unwrap().operands, ["1", "2"]);
        assert_eq!(point(&["1", "2", "3"]).unwrap().operands.len(), 3);
        assert_eq!(point(&["1"]).unwrap_err(), ArgError::MissingOperand("<b>"));
        assert_eq!(point(&[]).unwrap_err(), ArgError::MissingOperand("<a>"));
        assert_eq!(
            point(&["1", "--fast", "2", "3", "4"]).unwrap_err(),
            ArgError::ExtraOperand("4".into())
        );
        assert_eq!(
            POINT.usage(),
            "usage: point <a> <b> [c] [--fast]",
            "the usage line comes from the table"
        );
        let many: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        assert_eq!(REPRODUCE.parse(many).unwrap().operands.len(), 5);
    }

    #[test]
    fn a_switch_takes_no_value_and_the_last_value_wins() {
        let p = point(&["--fast", "1", "2"]).unwrap();
        assert!(p.has("--fast"));
        assert_eq!(p.operands, ["1", "2"], "a switch does not eat an operand");
        let a = parse(&["--seed", "1", "--seed", "2"]).unwrap();
        assert_eq!(a.seed, 2);
    }

    #[test]
    #[should_panic(expected = "--slow is not in the flag table")]
    fn reading_an_undeclared_flag_is_a_bug() {
        point(&["1", "2"]).unwrap().has("--slow");
    }

    #[test]
    fn no_flags_means_every_flag_is_unknown() {
        static BARE: Cli = Cli {
            name: "bare",
            flags: &[],
            operands: "",
        };
        let e = BARE.parse(["--seed".to_string()]).unwrap_err();
        assert_eq!(e.to_string(), "unknown flag --seed (supported: none)");
        assert_eq!(
            BARE.parse(["x".to_string()]).unwrap_err(),
            ArgError::ExtraOperand("x".into())
        );
        assert_eq!(BARE.usage(), "usage: bare");
    }
}
