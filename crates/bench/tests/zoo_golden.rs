//! The zoo study's committed document is a golden: `BENCH_pr9.json` is
//! what `zoo --jobs 2 --fine --zoo-out` writes, byte for byte. The CP
//! study is small enough to re-run here and must reproduce its entry.

use std::process::Command;

use optspace::obs::json::{parse, Json};

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn cp_study_reproduces_the_committed_zoo_document() {
    let out_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/zoo_cp.json");
    let out = Command::new(env!("CARGO_BIN_EXE_zoo"))
        .args(["--app", "cp", "--jobs", "2", "--zoo-out", out_path])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "zoo failed: {}", String::from_utf8_lossy(&out.stderr));

    let golden = read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json"));
    let golden_cp = &golden.get("apps").and_then(Json::as_arr).expect("golden apps")[1];
    assert_eq!(golden_cp.get("app").and_then(Json::as_str), Some("CP"));

    let run = read_json(out_path);
    let apps = run.get("apps").and_then(Json::as_arr).expect("apps");
    assert_eq!(apps.len(), 1, "--app cp studies one application");
    assert!(&apps[0] == golden_cp, "the CP zoo study no longer matches BENCH_pr9.json's apps[1]");
}
