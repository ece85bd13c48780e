//! The parsers that read run artifacts from disk never panic or abort:
//! on any damaged input they return `Ok` or a typed error that
//! `validate` and `trace report` can print.
//!
//! Real documents — a CP search's trace lines, its manifest — are
//! mutated the ways files get damaged: truncated at any byte, a byte
//! flipped or deleted, an object key dropped, or the whole document
//! wrapped in up to 10,000 levels of nesting. Each mutant goes through
//! `json::parse`, and the trace lines through `parse_jsonl` and the
//! manifest through `RunManifest::parse_str`. A panic or a stack
//! overflow fails the test.

use std::sync::{Arc, OnceLock};

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::{cp::Cp, App};
use gpu_autotune::optspace::obs::json::{self, Json, MAX_DEPTH};
use gpu_autotune::optspace::obs::{parse_jsonl, EventSink, RunManifest};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use gpu_autotune::optspace::EvalEngine;
use proptest::prelude::*;

/// One CP search's trace (JSONL) and pretty-printed manifest.
fn documents() -> &'static (Vec<String>, String) {
    static DOCS: OnceLock<(Vec<String>, String)> = OnceLock::new();
    DOCS.get_or_init(|| {
        let spec = MachineSpec::geforce_8800_gtx();
        let sink = Arc::new(EventSink::new());
        let engine = EvalEngine::with_jobs(2).with_sink(Arc::clone(&sink));
        let report = ExhaustiveSearch.run_with(&engine, &Cp::new(512, 64, 16).candidates(), &spec);
        let lines = sink.drain().to_jsonl().lines().map(str::to_string).collect();
        let manifest = RunManifest::from_search("cp", &report, &spec).to_json().to_string_pretty();
        (lines, manifest)
    })
}

/// Trace line `pick` (modulo the line count).
fn trace_line(pick: usize) -> &'static str {
    let lines = &documents().0;
    &lines[pick % lines.len()]
}

/// Run every parser the document reaches on `text`; any return is fine.
fn parse_all(text: &str, is_manifest: bool) {
    let _ = json::parse(text);
    if is_manifest {
        let _ = RunManifest::parse_str(text);
    } else {
        let _ = parse_jsonl(text);
    }
}

/// The document a case mutates: the manifest, or one trace line.
fn document(manifest: bool, pick: usize) -> &'static str {
    if manifest {
        &documents().1
    } else {
        trace_line(pick)
    }
}

/// Object keys in `j`, counted depth first.
fn key_count(j: &Json) -> usize {
    match j {
        Json::Arr(items) => items.iter().map(key_count).sum(),
        Json::Obj(pairs) => pairs.iter().map(|(_, v)| 1 + key_count(v)).sum(),
        _ => 0,
    }
}

/// Remove the `n`-th object key of `j`, counted depth first as
/// [`key_count`] counts; true once removed.
fn drop_key(j: &mut Json, n: &mut usize) -> bool {
    match j {
        Json::Arr(items) => items.iter_mut().any(|item| drop_key(item, n)),
        Json::Obj(pairs) => {
            for i in 0..pairs.len() {
                if *n == 0 {
                    pairs.remove(i);
                    return true;
                }
                *n -= 1;
                if drop_key(&mut pairs[i].1, n) {
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn truncated_documents_are_rejected_not_fatal(
        manifest in any::<bool>(),
        pick in 0usize..10_000,
        cut in 0usize..100_000,
    ) {
        let doc = document(manifest, pick);
        let cut = cut % (doc.len() + 1);
        prop_assume!(doc.is_char_boundary(cut));
        parse_all(&doc[..cut], manifest);
    }

    #[test]
    fn flipped_or_deleted_bytes_are_rejected_not_fatal(
        manifest in any::<bool>(),
        pick in 0usize..10_000,
        at in 0usize..100_000,
        flip in 1u8..=255,
        delete in any::<bool>(),
    ) {
        let mut bytes = document(manifest, pick).as_bytes().to_vec();
        let at = at % bytes.len();
        if delete {
            bytes.remove(at);
        } else {
            bytes[at] ^= flip;
        }
        parse_all(&String::from_utf8_lossy(&bytes), manifest);
    }

    #[test]
    fn documents_missing_a_key_are_rejected_not_fatal(
        manifest in any::<bool>(),
        pick in 0usize..10_000,
        key in 0usize..100_000,
    ) {
        let mut j = json::parse(document(manifest, pick)).expect("a real document parses");
        let keys = key_count(&j);
        let dropped = key % keys;
        prop_assert!(drop_key(&mut j, &mut dropped.clone()));
        let text = j.to_string_compact();
        parse_all(&text, manifest);
        // A trace record's eight envelope keys come first depth first
        // (`fields` is the last of them), and each is required.
        if !manifest && dropped < 8 {
            prop_assert!(parse_jsonl(&text).is_err(), "key {} dropped: {}", dropped, text);
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal(
        manifest in any::<bool>(),
        pick in 0usize..10_000,
        levels in 0usize..=10_000,
        objects in any::<bool>(),
    ) {
        let doc = document(manifest, pick);
        let (open, close) = if objects { ("{\"a\":", "}") } else { ("[", "]") };
        let text = format!("{}{doc}{}", open.repeat(levels), close.repeat(levels));
        parse_all(&text, manifest);
        if levels >= MAX_DEPTH {
            let err = json::parse(&text).expect_err("nesting past the bound");
            prop_assert!(err.message.contains("nesting deeper than"), "{}", err);
        }
    }
}

#[test]
fn the_unmutated_documents_parse() {
    let (lines, manifest) = documents();
    assert!(lines.len() > 8, "a real trace");
    assert_eq!(parse_jsonl(&lines.join("\n")).expect("the trace parses").len(), lines.len());
    RunManifest::parse_str(manifest).expect("the manifest parses");
}
