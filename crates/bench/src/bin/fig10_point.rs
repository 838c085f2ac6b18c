//! One weak-scaling point of Figure 10 or 11, printed as a single CSV
//! row — lets long sweeps run resumably / incrementally:
//!
//! ```text
//! fig10_point <cores> <uniform|pareto|hacc>
//! ```
//!
//! Uses the same seeds as the `fig10`/`fig11` figures of `reproduce`,
//! so rows compose into the same tables. A core count without a standard
//! partition, an unknown pattern, a missing or extra operand, or an
//! artifact flag (this binary writes no file) prints the usage and exits
//! with status 2.

use bgq_bench::experiments::fig10_seed;
use bgq_bench::{fig10_point_with, fig11_point_with, BenchArgs, Pattern, PlanCache};
use bgq_torus::shape_for_cores;

const USAGE: &str = "usage: fig10_point <cores> <uniform|pareto|hacc>";

/// The point's core count and pattern, checked before anything runs.
fn parse_point(args: &BenchArgs) -> Result<(u32, String), String> {
    args.only_artifacts(&[])?;
    let [cores, pattern] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let cores: u32 = cores
        .parse()
        .map_err(|_| format!("bad core count {cores:?}\n{USAGE}"))?;
    if shape_for_cores(cores).is_none() {
        return Err(format!("no standard partition for {cores} cores\n{USAGE}"));
    }
    if !["uniform", "pareto", "hacc"].contains(&pattern.as_str()) {
        return Err(format!("unknown pattern {pattern:?}\n{USAGE}"));
    }
    Ok((cores, pattern.clone()))
}

fn main() {
    let (cores, pattern) = parse_point(&BenchArgs::parse()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let cache = PlanCache::new();
    let p = match pattern.as_str() {
        "uniform" => fig10_point_with(&cache, cores, Pattern::Uniform, fig10_seed(cores)),
        "pareto" => fig10_point_with(&cache, cores, Pattern::Pareto, fig10_seed(cores)),
        _ => fig11_point_with(&cache, cores),
    };
    println!(
        "{},{},{:.1},{:.3},{:.3},{:.2}x",
        cores,
        pattern,
        p.total_bytes as f64 / 1e9,
        p.ours / 1e9,
        p.baseline / 1e9,
        p.ours / p.baseline
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<(u32, String), String> {
        parse_point(&BenchArgs::try_parse(line.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn a_standard_point_parses() {
        assert_eq!(parse(&["2048", "uniform"]), Ok((2048, "uniform".into())));
        assert_eq!(parse(&["8192", "hacc"]), Ok((8192, "hacc".into())));
    }

    #[test]
    fn core_counts_without_a_partition_are_usage_errors() {
        for (cores, pattern) in [("0", "uniform"), ("100", "pareto"), ("3000", "hacc")] {
            let err = parse(&[cores, pattern]).unwrap_err();
            assert!(err.contains("no standard partition"), "{err}");
            assert!(err.contains(USAGE), "{err}");
        }
        assert!(parse(&["lots", "uniform"])
            .unwrap_err()
            .contains("bad core count"));
    }

    #[test]
    fn operands_must_be_exactly_two() {
        assert_eq!(parse(&["2048", "uniform", "extra"]), Err(USAGE.into()));
        assert_eq!(parse(&["2048"]), Err(USAGE.into()));
        assert!(parse(&["2048", "zipf"])
            .unwrap_err()
            .contains("unknown pattern"));
    }

    #[test]
    fn artifact_flags_are_rejected() {
        for flag in [
            "--metrics-out",
            "--trace-out",
            "--profile-out",
            "--manifest-out",
        ] {
            let err = parse(&["2048", "uniform", flag, "x"]).unwrap_err();
            assert!(err.starts_with(flag), "{err}");
        }
        assert!(parse(&["2048", "uniform", "--observe"]).is_err());
    }
}
