//! CLI argument-validation audit: every bad-argument path in the
//! `gpu-autotune` front end must exit non-zero with a stable,
//! actionable message — not silently default, and never exit 0. The
//! experiment binaries read flags through the same parser
//! (`optspace::cli`); `crates/bench/tests/cli_errors.rs` audits them
//! with the same wording.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use gpu_autotune::optspace::obs::json::{parse, Json};

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
    assert_fails(
        &["tune", "cp", "--strategy", "random", "--seed", "2", "--checkpoint", ck],
        refusal,
    );
    let anneal = ["tune", "cp", "--strategy", "anneal"];
    interrupt(&[&anneal[..], &["--budget", "12", "--seed", "1"]].concat(), ck);
    for other in [["--budget", "13", "--seed", "1"], ["--budget", "12", "--seed", "2"]] {
        assert_fails(&[&anneal[..], &other, &["--checkpoint", ck]].concat(), refusal);
    }
    interrupt(&["tune", "cp", "--strategy", "pareto"], ck);
    assert_fails(
        &["tune", "cp", "--strategy", "pareto", "--no-screen", "--checkpoint", ck],
        refusal,
    );
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
        &[&SEARCH[..], &["--checkpoint", ck]].concat(),
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
    assert_fails(&[&SEARCH[..], &["--checkpoint", ck]].concat(), ck);
    assert_fails(&[&SEARCH[..], &["--checkpoint", ck]].concat(), "checkpoints are now directories");
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
fn checkpoint_refuses_another_runs_checkpoint_and_leaves_it() {
    let path = ck_dir("exists");
    let ck = path.to_str().expect("temp path is UTF-8");
    interrupt(&SEARCH, ck);
    let before = listing(&path);
    let other = ["tune", "cp", "--strategy", "random", "--seed", "2", "--checkpoint", ck];
    assert_fails(&other, &format!("{ck}: checkpoint belongs to a different run"));
    assert_eq!(listing(&path), before, "the refused run touched the checkpoint");
    let _ = fs::remove_dir_all(&path);
}

#[test]
fn a_checkpoint_is_never_shared_with_the_store() {
    let path = ck_dir("shared");
    let ck = path.to_str().expect("UTF-8");
    assert_fails(
        &[&SEARCH[..], &["--checkpoint", ck, "--store-dir", ck]].concat(),
        "must not be the --store-dir directory",
    );
    let _ = fs::remove_dir_all(&path);
}

#[test]
fn a_completed_run_removes_only_its_own_checkpoint() {
    let path = ck_dir("complete");
    let ck = path.to_str().expect("temp path is UTF-8");
    interrupt(&SEARCH, ck);
    assert!(listing(&path).iter().any(|f| f.ends_with(".seg")), "results were recorded");
    assert_succeeds(&[&SEARCH[..], &["--checkpoint", ck]].concat());
    assert!(!path.exists(), "an emptied checkpoint directory is removed");

    interrupt(&SEARCH, ck);
    fs::write(path.join("notes.txt"), "keep me").expect("write");
    assert_succeeds(&[&SEARCH[..], &["--checkpoint", ck]].concat());
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
        "--stop-after-units requires --checkpoint",
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

#[test]
fn trace_reaches_the_fine_grid() {
    // `tune matmul --grid fine` reports #69694 as its best.
    let out = Command::new(env!("CARGO_BIN_EXE_gpu-autotune"))
        .args(["trace", "matmul", "69694", "--grid", "fine"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with("configuration: 16x16/1x4/uC/o16/pf\n"), "{stdout}");
    // The trace runs the 64x64 functional-test problem, which 32x32
    // blocks of 1x16 outputs per thread cannot tile.
    assert_fails(
        &["trace", "matmul", "102399", "--grid", "fine"],
        "32x32/1x16 blocks do not tile the 64x64 trace problem",
    );
}

#[test]
fn trace_takes_its_count_before_or_after_the_grid() {
    for args in [["69694", "--grid", "fine", "5"], ["69694", "5", "--grid", "fine"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_gpu-autotune"))
            .args(["trace", "matmul"])
            .args(args)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines[0], "configuration: 16x16/1x4/uC/o16/pf", "{args:?}");
        for (n, line) in lines[1..6].iter().enumerate() {
            assert!(line.starts_with(&format!("#{} ", n + 1)), "{args:?}: {line:?}");
        }
        assert!(lines[6].starts_with("... ("), "{args:?}: five instructions, then {:?}", lines[6]);
    }
    assert_fails(&["trace", "matmul", "3", "5", "6"], "unknown flag `6`");
}

/// The trace and manifest of `tune cp --strategy exhaustive --jobs 2`
/// (with a result store when `store` is set), written into a fresh
/// directory named for `tag`.
fn artifacts(tag: &str, store: bool) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-artifacts-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create");
    let path = |name: &str| dir.join(name).to_str().expect("a UTF-8 path").to_string();
    let mut args: Vec<String> =
        ["tune", "cp", "--strategy", "exhaustive", "--jobs", "2"].map(String::from).to_vec();
    args.extend(["--trace-out".into(), path("trace.jsonl")]);
    args.extend(["--metrics-out".into(), path("manifest.json")]);
    if store {
        args.extend(["--store-dir".into(), path("store")]);
    }
    let out =
        Command::new(env!("CARGO_BIN_EXE_gpu-autotune")).args(&args).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    dir
}

/// `json` with the object key at the dotted `path` removed.
fn without(json: &Json, path: &str) -> Json {
    let mut json = json.clone();
    let mut node = &mut json;
    let mut keys: Vec<&str> = path.split('.').collect();
    let last = keys.pop().expect("a key");
    for key in keys {
        let Json::Obj(pairs) = node else { panic!("`{path}`: not an object") };
        node = &mut pairs.iter_mut().find(|(k, _)| k == key).expect("the section exists").1;
    }
    let Json::Obj(pairs) = node else { panic!("`{path}`: not an object") };
    let before = pairs.len();
    pairs.retain(|(k, _)| k != last);
    assert_eq!(pairs.len(), before - 1, "no `{path}` to remove");
    json
}

/// Write `text` next to the artifacts in `dir`; return its path.
fn write_broken(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    fs::write(&path, text).expect("writable");
    path.to_str().expect("a UTF-8 path").to_string()
}

#[test]
fn validate_names_the_key_a_trace_record_lacks() {
    let dir = artifacts("trace-keys", false);
    let manifest = dir.join("manifest.json");
    let manifest = manifest.to_str().expect("a UTF-8 path");
    let text = fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
    for key in ["schema", "seq"] {
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(n, line)| match n {
                2 => without(&parse(line).expect("a record"), key).to_string_compact(),
                _ => line.to_string(),
            })
            .collect();
        let broken = write_broken(&dir, &format!("no-{key}.jsonl"), &(lines.join("\n") + "\n"));
        assert_fails(&["validate", &broken, manifest], &format!("line 3: record: missing `{key}`"));
    }
}

#[test]
fn validate_names_the_key_a_manifest_lacks() {
    let dir = artifacts("manifest-keys", true);
    let trace = dir.join("trace.jsonl");
    let trace = trace.to_str().expect("a UTF-8 path");
    let manifest = parse(&fs::read_to_string(dir.join("manifest.json")).expect("manifest written"))
        .expect("the manifest parses");
    for (key, message) in [
        ("grid", "missing `grid`"),
        ("store", "missing `store`"),
        ("selection", "missing `selection`"),
        ("metrics.runtime.decode_hist", "runtime: missing `decode_hist`"),
        ("store.records_ignored", "store: missing `records_ignored`"),
    ] {
        let text = without(&manifest, key).to_string_pretty();
        let broken = write_broken(&dir, &format!("no-{key}.json"), &text);
        assert_fails(&["validate", trace, &broken], message);
    }
}

#[test]
fn trace_report_rejects_a_malformed_convergence_curve() {
    let dir = artifacts("convergence", false);
    let text = fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
    let curve = r#""convergence":[{"sims":"#;
    assert_eq!(text.matches(curve).count(), 1, "one engine.metrics curve");
    let broken =
        write_broken(&dir, "bad-curve.jsonl", &text.replace(curve, r#""convergence":[{"simz":"#));
    assert_fails(&["trace", "report", &broken], "convergence: missing `sims`");
}

#[test]
fn validate_rejects_deep_nesting_without_overflowing_the_stack() {
    let dir = artifacts("nesting", false);
    let trace = dir.join("trace.jsonl");
    let trace = trace.to_str().expect("a UTF-8 path");
    let manifest = dir.join("manifest.json");
    let manifest = manifest.to_str().expect("a UTF-8 path");
    let deep_trace = write_broken(&dir, "deep.jsonl", &("[".repeat(200_000) + "\n"));
    let deep_manifest = write_broken(&dir, "deep.json", &"{\"a\":".repeat(100_000));
    for (args, message) in [
        ([deep_trace.as_str(), manifest], "line 1: JSON parse error at byte 128"),
        ([trace, deep_manifest.as_str()], "JSON parse error at byte 640"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gpu-autotune"))
            .arg("validate")
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "validate {args:?}: {stderr}");
        assert!(stderr.contains(message), "{stderr:?} does not mention {message:?}");
        assert!(stderr.contains("nesting deeper than 128 levels"), "{stderr}");
    }
}
