//! CLI argument-validation audit: every bad-argument path in the
//! `gpu-autotune` front end must exit non-zero with a stable,
//! actionable message — not silently default, and never exit 0. The
//! experiment binaries read flags through the same parser
//! (`optspace::cli`); `crates/bench/tests/cli_errors.rs` audits them
//! with the same wording.

use std::process::Command;

/// Run the front end with `args`; assert a non-zero exit and that
/// stderr contains `expect`.
fn assert_fails(args: &[&str], expect: &str) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_gpu-autotune")).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`gpu-autotune {}` exited 0; stderr: {stderr}", args.join(" "),);
    assert!(
        stderr.contains(expect),
        "`gpu-autotune {}`: stderr {stderr:?} does not mention {expect:?}",
        args.join(" "),
    );
}

#[test]
fn unknown_strategy_lists_the_full_vocabulary() {
    assert_fails(
        &["tune", "cp", "--strategy", "nope"],
        "unknown strategy `nope` (exhaustive|pareto|random|bnb|hill|anneal|genetic|surrogate)",
    );
}

#[test]
fn unknown_app_and_flag_fail() {
    assert_fails(&["tune", "teapot"], "unknown app `teapot`");
    assert_fails(&["tune", "cp", "--frobnicate"], "unknown flag `--frobnicate`");
}

#[test]
fn budget_rejects_zero_and_garbage() {
    assert_fails(
        &["tune", "cp", "--strategy", "random", "--budget", "0"],
        "--budget needs a number >= 1",
    );
    assert_fails(
        &["tune", "cp", "--strategy", "random", "--budget", "many"],
        "--budget needs a number >= 1",
    );
    assert_fails(
        &["tune", "cp", "--strategy", "random", "--budget"],
        "--budget needs a number >= 1",
    );
}

#[test]
fn seed_needs_a_value() {
    assert_fails(&["tune", "cp", "--strategy", "hill", "--seed"], "--seed needs a number");
    assert_fails(&["tune", "cp", "--strategy", "hill", "--seed", "x"], "--seed needs a number");
}

#[test]
fn jobs_rejects_zero() {
    assert_fails(&["tune", "cp", "--jobs", "0"], "--jobs needs a number >= 1");
}

#[test]
fn sample_seed_requires_sample() {
    assert_fails(&["tune", "cp", "--sample-seed", "4"], "--sample-seed requires --sample");
}

#[test]
fn fault_seed_requires_inject_faults() {
    assert_fails(&["tune", "cp", "--fault-seed", "4"], "--fault-seed requires --inject-faults");
}

#[test]
fn iterative_strategies_reject_narrowing() {
    assert_fails(
        &["tune", "cp", "--strategy", "hill", "--filter", "block=64"],
        "searches the full space; drop --filter/--sample",
    );
    assert_fails(
        &["tune", "cp", "--strategy", "anneal", "--sample", "4"],
        "searches the full space; drop --filter/--sample",
    );
}

/// Run `tune` with `args`, stopping it deterministically after one
/// work unit so that only its checkpoint at `ck` remains.
fn interrupt(args: &[&str], ck: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpu-autotune"))
        .args(args)
        .args(["--checkpoint", ck, "--checkpoint-every", "1", "--stop-after-units", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(130),
        "`gpu-autotune {}` was not interrupted",
        args.join(" ")
    );
}

#[test]
fn resume_refuses_a_different_search() {
    let path =
        std::env::temp_dir().join(format!("gpu-autotune-cli-ck-{}.json", std::process::id()));
    let ck = path.to_str().expect("temp path is UTF-8");
    let refusal = "checkpoint belongs to a different run";
    interrupt(&["tune", "cp", "--strategy", "random", "--seed", "1"], ck);
    assert_fails(&["tune", "cp", "--strategy", "random", "--seed", "2", "--resume", ck], refusal);
    let anneal = ["tune", "cp", "--strategy", "anneal"];
    interrupt(&[&anneal[..], &["--budget", "12", "--seed", "1"]].concat(), ck);
    for other in [["--budget", "13", "--seed", "1"], ["--budget", "12", "--seed", "2"]] {
        assert_fails(&[&anneal[..], &other, &["--resume", ck]].concat(), refusal);
    }
    interrupt(&["tune", "cp", "--strategy", "pareto"], ck);
    assert_fails(&["tune", "cp", "--strategy", "pareto", "--no-screen", "--resume", ck], refusal);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_refuses_a_checkpoint_keyed_under_another_scheme() {
    let path = std::env::temp_dir()
        .join(format!("gpu-autotune-cli-ck-scheme-{}.json", std::process::id()));
    let ck = path.to_str().expect("temp path is UTF-8");
    let search = ["tune", "cp", "--strategy", "random", "--seed", "1"];
    interrupt(&search, ck);
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let scheme = gpu_autotune::optspace::engine::cache::KEY_SCHEME;
    let stamp = format!(r#""key_scheme":{scheme}"#);
    assert!(text.contains(&stamp), "{text}");
    std::fs::write(&path, text.replace(&stamp, r#""key_scheme":1"#)).expect("rewritable");
    assert_fails(
        &[&search[..], &["--resume", ck]].concat(),
        &format!("keyed under key scheme 1, this build keys under scheme {scheme}"),
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bnb_guards_still_hold() {
    assert_fails(
        &["tune", "cp", "--strategy", "bnb", "--filter", "block=64"],
        "searches the full space; drop --filter/--sample",
    );
    assert_fails(&["tune", "cp", "--strategy", "bnb", "--eager"], "unknown flag `--eager`");
}

#[test]
fn stop_after_units_requires_checkpointing() {
    assert_fails(
        &["tune", "cp", "--stop-after-units", "5"],
        "--stop-after-units requires --checkpoint or --resume",
    );
}
