//! CLI argument-validation audit: every bad-argument path in the
//! `gpu-autotune` front end must exit non-zero with a stable,
//! actionable message — not silently default, and never exit 0. The
//! experiment binaries read flags through the same parser
//! (`optspace::cli`); `crates/bench/tests/cli_errors.rs` audits them
//! with the same wording.

use std::fs;
use std::path::{Path, PathBuf};
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

/// A fresh checkpoint path under the temp dir, unique per test.
fn ck_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gpu-autotune-cli-ck-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&dir);
    dir
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("directory readable")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Run `tune` with `args` into a fresh checkpoint at `ck`, stopping it
/// deterministically after one work unit so that only the checkpoint
/// remains.
fn interrupt(args: &[&str], ck: &str) {
    let _ = fs::remove_dir_all(ck);
    let out = Command::new(env!("CARGO_BIN_EXE_gpu-autotune"))
        .args(args)
        .args(["--checkpoint", ck, "--stop-after-units", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(130),
        "`gpu-autotune {}` was not interrupted",
        args.join(" ")
    );
}

/// Run the front end with `args`; assert it succeeds.
fn assert_succeeds(args: &[&str]) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_gpu-autotune")).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "`gpu-autotune {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
}

const SEARCH: [&str; 6] = ["tune", "cp", "--strategy", "random", "--seed", "1"];

#[test]
fn resume_refuses_a_different_search() {
    let path = ck_dir("search");
    let ck = path.to_str().expect("temp path is UTF-8");
    let refusal = "checkpoint belongs to a different run";
    interrupt(&SEARCH, ck);
    assert_fails(&["tune", "cp", "--strategy", "random", "--seed", "2", "--resume", ck], refusal);
    let anneal = ["tune", "cp", "--strategy", "anneal"];
    interrupt(&[&anneal[..], &["--budget", "12", "--seed", "1"]].concat(), ck);
    for other in [["--budget", "13", "--seed", "1"], ["--budget", "12", "--seed", "2"]] {
        assert_fails(&[&anneal[..], &other, &["--resume", ck]].concat(), refusal);
    }
    interrupt(&["tune", "cp", "--strategy", "pareto"], ck);
    assert_fails(&["tune", "cp", "--strategy", "pareto", "--no-screen", "--resume", ck], refusal);
    let _ = fs::remove_dir_all(&path);
}

#[test]
fn resume_refuses_a_checkpoint_keyed_under_another_scheme() {
    let path = ck_dir("scheme");
    let ck = path.to_str().expect("temp path is UTF-8");
    interrupt(&SEARCH, ck);
    let run = path.join("run.json");
    let text = fs::read_to_string(&run).expect("run.json written");
    let scheme = gpu_autotune::optspace::engine::cache::KEY_SCHEME;
    let stamp = format!(r#""key_scheme":{scheme}"#);
    assert!(text.contains(&stamp), "{text}");
    fs::write(&run, text.replace(&stamp, r#""key_scheme":1"#)).expect("rewritable");
    assert_fails(
        &[&SEARCH[..], &["--resume", ck]].concat(),
        &format!("keyed under key scheme 1, this build keys under scheme {scheme}"),
    );
    let _ = fs::remove_dir_all(&path);
}

#[test]
fn resume_refuses_a_checkpoint_file_from_an_earlier_build() {
    let path = ck_dir("file");
    let ck = path.to_str().expect("temp path is UTF-8");
    fs::write(&path, r#"{"schema":2,"key_scheme":2,"meta":{},"units_done":1,"results":[]}"#)
        .expect("write an old-format checkpoint");
    assert_fails(&[&SEARCH[..], &["--resume", ck]].concat(), ck);
    assert_fails(&[&SEARCH[..], &["--resume", ck]].concat(), "checkpoints are now directories");
    let _ = fs::remove_file(&path);
}

#[test]
fn checkpoint_refuses_a_directory_holding_other_files_and_leaves_them() {
    let path = ck_dir("foreign");
    fs::create_dir_all(&path).expect("create");
    fs::write(path.join("notes.txt"), "keep me").expect("write");
    let ck = path.to_str().expect("temp path is UTF-8");
    assert_fails(
        &[&SEARCH[..], &["--checkpoint", ck]].concat(),
        "is not empty and holds no checkpoint",
    );
    assert_eq!(listing(&path), ["notes.txt"]);
    assert_eq!(fs::read_to_string(path.join("notes.txt")).expect("kept"), "keep me");
    let _ = fs::remove_dir_all(&path);
}

#[test]
fn checkpoint_refuses_an_existing_checkpoint_and_points_to_resume() {
    let path = ck_dir("exists");
    let ck = path.to_str().expect("temp path is UTF-8");
    interrupt(&SEARCH, ck);
    let before = listing(&path);
    assert_fails(&[&SEARCH[..], &["--checkpoint", ck]].concat(), &format!("--resume {ck}"));
    assert_eq!(listing(&path), before, "the refused run touched the checkpoint");
    let _ = fs::remove_dir_all(&path);
}

#[test]
fn a_checkpoint_is_never_redirected_or_shared_with_the_store() {
    let from = ck_dir("redirect-from");
    let to = ck_dir("redirect-to");
    let (a, b) = (from.to_str().expect("UTF-8"), to.to_str().expect("UTF-8"));
    interrupt(&SEARCH, a);
    assert_fails(
        &[&SEARCH[..], &["--resume", a, "--checkpoint", b]].concat(),
        "a resumed run keeps checkpointing into",
    );
    assert!(!to.exists(), "the refused redirect created its target");
    let _ = fs::remove_dir_all(&from);
    assert_fails(
        &[&SEARCH[..], &["--checkpoint", b, "--store-dir", b]].concat(),
        "must not be the --store-dir directory",
    );
    let _ = fs::remove_dir_all(&to);
}

#[test]
fn a_completed_run_removes_only_its_own_checkpoint() {
    let path = ck_dir("complete");
    let ck = path.to_str().expect("temp path is UTF-8");
    interrupt(&SEARCH, ck);
    assert!(listing(&path).iter().any(|f| f.ends_with(".seg")), "results were recorded");
    assert_succeeds(&[&SEARCH[..], &["--resume", ck]].concat());
    assert!(!path.exists(), "an emptied checkpoint directory is removed");

    interrupt(&SEARCH, ck);
    fs::write(path.join("notes.txt"), "keep me").expect("write");
    assert_succeeds(&[&SEARCH[..], &["--resume", ck]].concat());
    assert_eq!(listing(&path), ["notes.txt"], "only the checkpoint's own files are removed");
    let _ = fs::remove_dir_all(&path);
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

#[test]
fn checkpoint_every_is_not_a_flag() {
    // A checkpoint records every unit as it finishes: there is no flush
    // interval to set.
    let ck = ck_dir("every");
    let ck_s = ck.to_str().expect("utf-8 temp path");
    assert_fails(
        &["tune", "cp", "--checkpoint", ck_s, "--checkpoint-every", "1"],
        "unknown flag `--checkpoint-every`",
    );
    assert!(!ck.exists(), "a refused command creates no checkpoint");
}

#[test]
fn inspect_reads_the_grid_its_index_is_in() {
    // `tune matmul --grid fine` reports #69694 as its best.
    let out = Command::new(env!("CARGO_BIN_EXE_gpu-autotune"))
        .args(["inspect", "matmul", "69694", "--grid", "fine"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("configuration: 16x16/1x4/uC/o16/pf\n"), "{stdout}");
}

#[test]
fn inspect_and_trace_reject_unknown_flags() {
    assert_fails(&["inspect", "matmul", "3", "--bogus"], "unknown flag `--bogus`");
    assert_fails(&["trace", "matmul", "3", "5", "--bogus"], "unknown flag `--bogus`");
    assert_fails(&["trace", "matmul", "3", "--bogus"], "unknown flag `--bogus`");
    assert_fails(&["trace", "matmul", "3", "x"], "bad instruction count `x`");
    assert_fails(&["inspect", "cp", "1", "--grid", "fine"], "app `cp` declares no fine grid");
}
