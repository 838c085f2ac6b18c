//! Run-ledger + regression sentinel: execute the ledger's scenario
//! sweep, emit the manifest, track the run history, and compare against
//! the committed baseline with profiler-attributed verdicts.
//!
//! ```text
//! sentinel [--out PATH] [--baseline PATH] [--history PATH]
//!          [--markdown-out PATH] [--degrade-links F]
//!          [--update-baseline] [--force] [--no-history]
//! ```
//!
//! The flow, in order:
//!
//! 1. run every ledger scenario (fig5/fig6/fig7/io/resilience/scale/
//!    exchange) and assemble the [`RunManifest`];
//! 2. self-check: the manifest validates and round-trips byte-exactly;
//! 3. write it to `--out` (default `results/ledger/manifest.json`);
//! 4. append a fingerprint-keyed entry to the history (default
//!    `results/ledger/history.jsonl`) unless the last entry already has
//!    this hash — an unchanged tree appends nothing, so the file stays
//!    deterministic;
//! 5. if the baseline (default `results/ledger/baseline.json`) exists,
//!    diff against it: print the human report (and write the markdown
//!    summary when asked), and **exit 1 on any REGRESSED verdict** with
//!    the blame attribution naming the links that absorbed the lost
//!    time. With `--update-baseline` the manifest is pinned as the new
//!    baseline instead, and regressions don't fail the run.
//!
//! `--degrade-links F` multiplies the torus and I/O link bandwidths by
//! `F` — the regression-injection knob: `--degrade-links 0.5` halves
//! every link capacity, which must flip the exit code nonzero with
//! verdicts naming the newly-binding links. Pinning a degraded run as
//! the baseline would silently bless the regression for every later
//! run, so `--update-baseline` together with `--degrade-links` is a
//! usage error unless `--force` is also given.
//!
//! Exit codes: 0 clean, 1 regression or an unreadable history file,
//! 2 usage error.

use bgq_bench::args::parse_value;
use bgq_bench::{history_line, run_ledger, write_artifact, LedgerOptions, PlanCache};
use bgq_obs::{sentinel, RunManifest};
use std::process::ExitCode;

#[derive(Debug)]
struct Cli {
    out: String,
    baseline: String,
    history: Option<String>,
    markdown_out: Option<String>,
    degrade_links: f64,
    update_baseline: bool,
    force: bool,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        out: "results/ledger/manifest.json".to_string(),
        baseline: "results/ledger/baseline.json".to_string(),
        history: Some("results/ledger/history.jsonl".to_string()),
        markdown_out: None,
        degrade_links: 1.0,
        update_baseline: false,
        force: false,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => cli.out = parse_value("--out", args.next())?,
            "--baseline" => cli.baseline = parse_value("--baseline", args.next())?,
            "--history" => cli.history = Some(parse_value("--history", args.next())?),
            "--no-history" => cli.history = None,
            "--markdown-out" => {
                cli.markdown_out = Some(parse_value("--markdown-out", args.next())?)
            }
            "--degrade-links" => {
                cli.degrade_links = parse_value("--degrade-links", args.next())?;
                if cli.degrade_links.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(format!(
                        "--degrade-links must be positive, got {}",
                        cli.degrade_links
                    ));
                }
            }
            "--update-baseline" => cli.update_baseline = true,
            "--force" => cli.force = true,
            other => {
                return Err(format!(
                    "unknown flag {other:?} (supported: --out PATH, --baseline PATH, \
                     --history PATH, --no-history, --markdown-out PATH, \
                     --degrade-links F, --update-baseline, --force)"
                ))
            }
        }
    }
    if cli.update_baseline && cli.degrade_links != 1.0 && !cli.force {
        return Err(format!(
            "refusing --update-baseline with --degrade-links {}: pinning a degraded run \
             would bless the regression for every later comparison (pass --force to \
             override)",
            cli.degrade_links
        ));
    }
    Ok(cli)
}

/// Append `line` to the history unless its hash matches the last
/// entry's — reruns of an unchanged tree leave the file untouched.
/// A missing file starts an empty history; any other read error is
/// returned with the file left as it was.
fn append_history(path: &str, line: &str, hash: &str) -> std::io::Result<bool> {
    let existing = match std::fs::read_to_string(path) {
        Ok(existing) => existing,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    if let Some(last) = existing.lines().rev().find(|l| !l.trim().is_empty()) {
        if last.contains(hash) {
            return Ok(false);
        }
    }
    write_artifact(path, &format!("{existing}{line}\n"))?;
    Ok(true)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut opts = LedgerOptions::default();
    if cli.degrade_links != 1.0 {
        opts.sim.link_bandwidth *= cli.degrade_links;
        opts.sim.io_link_bandwidth *= cli.degrade_links;
        eprintln!(
            "degrading links by {:.3}x: link {:.3e} B/s, io link {:.3e} B/s",
            cli.degrade_links, opts.sim.link_bandwidth, opts.sim.io_link_bandwidth
        );
    }

    eprintln!("running ledger scenarios...");
    let cache = PlanCache::new();
    let manifest = run_ledger(&cache, &opts);

    // Self-check before anything touches disk: the artifact must
    // round-trip byte-exactly, or the baseline workflow is unsound.
    let js = manifest.to_json();
    match RunManifest::from_json(&js) {
        Ok(back) => assert_eq!(
            back.to_json(),
            js,
            "manifest does not round-trip byte-exactly"
        ),
        Err(e) => panic!("manifest does not parse back: {e}"),
    }

    write_artifact(&cli.out, &js).unwrap_or_else(|e| panic!("write {}: {e}", cli.out));
    let hash = manifest.fingerprint();
    eprintln!("wrote {} (manifest {hash})", cli.out);

    let baseline = match std::fs::read_to_string(&cli.baseline) {
        Ok(contents) => match RunManifest::from_json(&contents) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("{}: invalid baseline: {e}", cli.baseline);
                return ExitCode::FAILURE;
            }
        },
        Err(_) => None,
    };

    let report = baseline
        .as_ref()
        .map(|b| sentinel::diff(&manifest, b));

    if let Some(path) = &cli.history {
        match append_history(path, &history_line(&manifest, report.as_ref()), &hash) {
            Ok(true) => eprintln!("appended history entry to {path}"),
            Ok(false) => eprintln!("history already ends with {hash}; not appending"),
            Err(e) => {
                eprintln!("{path}: cannot update history: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if cli.update_baseline {
        write_artifact(&cli.baseline, &js)
            .unwrap_or_else(|e| panic!("write {}: {e}", cli.baseline));
        eprintln!("pinned {} as the new baseline", cli.baseline);
    }

    let Some(report) = report else {
        eprintln!(
            "no baseline at {}; run with --update-baseline to pin one",
            cli.baseline
        );
        return ExitCode::SUCCESS;
    };

    print!("{}", report.render());
    if let Some(path) = &cli.markdown_out {
        write_artifact(path, &report.to_markdown())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if report.has_regressions() && !cli.update_baseline {
        eprintln!("sentinel: PERFORMANCE REGRESSION detected (see attribution above)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::{append_history, parse_cli};

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn update_baseline_on_degraded_links_is_refused() {
        let err = parse_cli(args(&["--degrade-links", "0.5", "--update-baseline"]))
            .expect_err("degraded baseline pin must be refused");
        assert!(err.contains("refusing --update-baseline"), "{err}");
        assert!(err.contains("--force"), "the override must be named: {err}");
        // Flag order must not matter.
        assert!(parse_cli(args(&["--update-baseline", "--degrade-links", "0.5"])).is_err());
    }

    #[test]
    fn force_overrides_the_degraded_baseline_refusal() {
        let cli = parse_cli(args(&[
            "--degrade-links",
            "0.5",
            "--update-baseline",
            "--force",
        ]))
        .expect("--force must override the refusal");
        assert!(cli.update_baseline && cli.force);
        assert_eq!(cli.degrade_links, 0.5);
    }

    #[test]
    fn update_baseline_without_degradation_needs_no_force() {
        let cli = parse_cli(args(&["--update-baseline"])).unwrap();
        assert!(cli.update_baseline && !cli.force);
        // An explicit healthy factor is not a degradation.
        assert!(parse_cli(args(&["--degrade-links", "1.0", "--update-baseline"])).is_ok());
    }

    #[test]
    fn degrade_links_still_validates() {
        assert!(parse_cli(args(&["--degrade-links", "0"])).is_err());
        assert!(parse_cli(args(&["--degrade-links", "-1"])).is_err());
        assert!(parse_cli(args(&["--degrade-links", "NaN"])).is_err());
    }

    #[test]
    fn unreadable_history_is_an_error_and_left_untouched() {
        let dir = std::env::temp_dir().join(format!("sentinel-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let bytes = b"{\"hash\":\"old\"}\n\xff\xfe not utf-8\n".to_vec();
        std::fs::write(&path, &bytes).unwrap();
        let path_str = path.to_str().unwrap();
        let err = append_history(path_str, "{\"hash\":\"new\"}", "new")
            .expect_err("invalid UTF-8 must not read as an empty history");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "history clobbered");
        // A missing file is an empty history, not an error.
        std::fs::remove_file(&path).unwrap();
        assert!(append_history(path_str, "{\"hash\":\"new\"}", "new").unwrap());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"hash\":\"new\"}\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
