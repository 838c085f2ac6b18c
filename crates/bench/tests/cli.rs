//! The binaries' command lines, run end to end: a flag a binary does
//! not act on is a usage error (exit 2) naming the flag and the flags
//! it does take, and an artifact it cannot write exits 1 naming the
//! path instead of panicking. Every case fails before any simulation
//! except the last, which runs the short `scale` sweep first.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {exe}: {e}"))
}

/// `exe args` exits with `code`; returns its stderr.
fn exits(code: i32, exe: &str, args: &[&str]) -> String {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "{exe} {args:?}\nstderr: {stderr}"
    );
    stderr
}

#[test]
fn an_unknown_flag_names_itself_and_the_supported_set() {
    for (exe, before, supported) in [
        (env!("CARGO_BIN_EXE_reproduce"), &[][..], "--max-cores N"),
        (
            env!("CARGO_BIN_EXE_profile"),
            &["fig5"][..],
            "--profile-out PATH",
        ),
        (
            env!("CARGO_BIN_EXE_fig10_point"),
            &["2048", "uniform"][..],
            "supported: none",
        ),
        (env!("CARGO_BIN_EXE_exchange"), &[][..], "--max-nodes N"),
        (env!("CARGO_BIN_EXE_scale"), &[][..], "--out PATH"),
        (env!("CARGO_BIN_EXE_sentinel"), &[][..], "--degrade-links F"),
        (env!("CARGO_BIN_EXE_sdm"), &["plan"][..], "--bytes SIZE"),
        (env!("CARGO_BIN_EXE_sdm"), &["write"][..], "--policy"),
        (env!("CARGO_BIN_EXE_sdm"), &["probe"][..], "--dst J"),
        (env!("CARGO_BIN_EXE_obs_report"), &["x.csv"][..], "--check"),
    ] {
        let args: Vec<&str> = before.iter().copied().chain(["--bogus"]).collect();
        let stderr = exits(2, exe, &args);
        assert!(
            stderr.contains("unknown flag --bogus") && stderr.contains(supported),
            "{exe} {args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: "), "{exe}: {stderr}");
    }
}

#[test]
fn flags_a_binary_would_ignore_are_usage_errors() {
    let stderr = exits(
        2,
        env!("CARGO_BIN_EXE_fig10_point"),
        &["2048", "uniform", "--seed", "7"],
    );
    assert!(stderr.contains("--seed"), "{stderr}");
    let stderr = exits(
        2,
        env!("CARGO_BIN_EXE_profile"),
        &["fig5", "--threads", "3"],
    );
    assert!(stderr.contains("--threads"), "{stderr}");
    let stderr = exits(
        2,
        env!("CARGO_BIN_EXE_obs_report"),
        &["--diff", "--cross", "a", "b", "c"],
    );
    assert!(
        stderr.contains("--diff") && stderr.contains("--cross"),
        "{stderr}"
    );
}

#[test]
fn an_oversized_byte_count_is_a_usage_error_not_a_wrap() {
    let stderr = exits(
        2,
        env!("CARGO_BIN_EXE_sdm"),
        &["plan", "--bytes", "99999999999G"],
    );
    assert!(stderr.contains("bad size \"99999999999G\""), "{stderr}");
}

#[test]
fn an_unwritable_output_exits_1_naming_the_path() {
    let dir = std::env::temp_dir().join(format!("bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let out = file.join("x.json");
    let out = out.to_str().unwrap();
    let stderr = exits(1, env!("CARGO_BIN_EXE_scale"), &["--out", out]);
    assert!(stderr.contains(out), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
