//! The experiment binaries read their flags through the shared parser
//! (`optspace::cli`), so they must reject present-but-invalid values
//! with the same wording as the front end, and reject flags they do not
//! read — a bench run that silently defaulted `--jobs 0` to sequential
//! once reported misleading utilization numbers, and a mistyped flag
//! used to be ignored.

use std::process::Command;

/// Run the binary at `exe` with `args`; assert a non-zero exit and that
/// stderr contains `expect`.
fn assert_fails(exe: &str, args: &[&str], expect: &str) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`{exe} {}` exited 0; stderr: {stderr}", args.join(" "));
    assert!(
        stderr.contains(expect),
        "`{exe} {}`: stderr {stderr:?} does not mention {expect:?}",
        args.join(" "),
    );
}

fn assert_zoo_fails(args: &[&str], expect: &str) {
    assert_fails(env!("CARGO_BIN_EXE_zoo"), args, expect);
}

#[test]
fn jobs_rejects_zero_and_garbage() {
    assert_zoo_fails(&["--jobs", "0"], "--jobs needs a number >= 1");
    assert_zoo_fails(&["--jobs", "lots"], "--jobs needs a number >= 1");
    assert_zoo_fails(&["--jobs"], "--jobs needs a number >= 1");
}

#[test]
fn engine_flags_reject_invalid_values() {
    assert_zoo_fails(&["--sim-fuel", "0"], "--sim-fuel needs a positive number of steps");
    assert_zoo_fails(&["--retries", "0"], "--retries needs a number >= 1");
    assert_zoo_fails(&["--retries", "x"], "--retries needs a number >= 1");
    assert_zoo_fails(&["--fault-seed", "9"], "--fault-seed requires --inject-faults");
}

#[test]
fn zoo_validates_its_own_flags() {
    assert_zoo_fails(&["--app", "teapot"], "unknown app `teapot` (matmul|cp|sad|mri)");
    assert_zoo_fails(&["--budget", "0"], "--budget needs a number >= 1");
    assert_zoo_fails(&["--seed", "x"], "--seed needs a number");
}

#[test]
fn zoo_has_no_writers_but_its_own() {
    // The manifest, branch-and-bound and convergence documents are what
    // `tune <app> --metrics-out` records; only the zoo study is written here.
    for flag in ["--bench-out", "--bnb-out", "--convergence-out"] {
        assert_zoo_fails(&[flag, "x"], &format!("unknown flag `{flag}`"));
    }
}

#[test]
fn table4_validates_its_selection() {
    let table4 = env!("CARGO_BIN_EXE_table4");
    assert_fails(table4, &["--sample", "x"], "--sample needs a number >= 1");
    assert_fails(table4, &["--sample-seed", "4"], "--sample-seed requires --sample");
}

#[test]
fn unread_flags_are_rejected() {
    assert_fails(env!("CARGO_BIN_EXE_table4"), &["--jbos", "2"], "unknown flag `--jbos`");
    // fig3 reads no flags at all.
    assert_fails(env!("CARGO_BIN_EXE_fig3"), &["--jobs", "2"], "unknown flag `--jobs`");
}
