//! The run artifacts are pinned byte for byte. One small search —
//! exhaustive over the CP space at 2 workers, with an event sink — must
//! write the committed manifest (less its wall-clock `metrics.runtime`
//! section) and the committed Search-scope canonical trace in
//! `tests/golden/`. A change to how a run's records are built or
//! serialized that moves a byte of either fails here.
//!
//! On a mismatch the actual text is left in the test target's
//! temporary directory for diffing.

use std::sync::Arc;

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::{by_name, SpaceSource};
use gpu_autotune::optspace::obs::{EventSink, Json, RunManifest};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use gpu_autotune::optspace::EvalEngine;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn assert_golden(name: &str, actual: &str) {
    let out = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&out, actual).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    assert!(golden(name) == actual, "{name} differs from tests/golden/{name}; actual: {out}");
}

#[test]
fn cp_exhaustive_artifacts_match_the_goldens() {
    let spec = MachineSpec::geforce_8800_gtx();
    let app = by_name("cp", "default").expect("a registered app");
    let sink = Arc::new(EventSink::new());
    let engine = EvalEngine::with_jobs(2).with_sink(Arc::clone(&sink));
    let report = ExhaustiveSearch.run_source(&engine, &SpaceSource::full(app.as_ref()), &spec);

    let mut manifest = RunManifest::from_search("cp", &report, &spec).to_json();
    let Json::Obj(top) = &mut manifest else { panic!("a manifest is an object") };
    let (_, metrics) = top.iter_mut().find(|(k, _)| k == "metrics").expect("a metrics section");
    let Json::Obj(metrics) = metrics else { panic!("metrics is an object") };
    let before = metrics.len();
    metrics.retain(|(k, _)| k != "runtime");
    assert_eq!(metrics.len(), before - 1, "the manifest carries a runtime section");
    assert_golden("cp_exhaustive.manifest.json", &manifest.to_string_pretty());

    assert_golden("cp_exhaustive.trace.txt", &sink.drain().canonical_text());
}
