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
//!
//! The two parsers that read a run's durable state get the same
//! mutations, and stricter checks: a result-store segment holding the
//! search's timing results loses exactly the damaged records, the rest
//! coming back bit-exact, and a damaged checkpoint `run.json` is either
//! still the run's or refused with a message naming its path.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::{cp::Cp, App};
use gpu_autotune::optspace::engine::{CheckpointMeta, Checkpointer, ResultStore};
use gpu_autotune::optspace::obs::json::{self, Json, MAX_DEPTH};
use gpu_autotune::optspace::obs::{parse_jsonl, EventSink, RunManifest};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use gpu_autotune::optspace::EvalEngine;
use gpu_autotune::sim::TimingReport;
use proptest::prelude::*;

/// The documents one CP search leaves on disk.
struct Documents {
    /// The trace, one JSONL record per line.
    lines: Vec<String>,
    /// The pretty-printed manifest.
    manifest: String,
    /// `(key, report)` of each record of [`Documents::segment`].
    results: Vec<(u64, TimingReport)>,
    /// One result-store segment holding `results` in order.
    segment: Vec<u8>,
    /// The byte offset at which each record of `segment` ends.
    ends: Vec<usize>,
    /// The identity of the search, as a checkpoint records it.
    meta: CheckpointMeta,
    /// The `run.json` of a checkpoint of the search.
    run_json: String,
}

/// Results written to the segment.
const RECORDS: usize = 8;

/// A scratch directory for `tag`, unique to this process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optspace-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The one file with extension `ext` in `dir`.
fn only_file(dir: &PathBuf, ext: &str) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    files.pop().expect("one file")
}

fn documents() -> &'static Documents {
    static DOCS: OnceLock<Documents> = OnceLock::new();
    DOCS.get_or_init(|| {
        let spec = MachineSpec::geforce_8800_gtx();
        let app = Cp::new(512, 64, 16);
        let sink = Arc::new(EventSink::new());
        let engine = EvalEngine::with_jobs(2).with_sink(Arc::clone(&sink));
        let report = ExhaustiveSearch.run_with(&engine, &app.candidates(), &spec);
        let lines = sink.drain().to_jsonl().lines().map(str::to_string).collect();
        let manifest = RunManifest::from_search("cp", &report, &spec).to_json().to_string_pretty();

        // Distinct reports, so a record served under another's key shows;
        // keys that are multiples of the shard count share a segment.
        let mut distinct: Vec<&TimingReport> = Vec::new();
        for r in report.simulated.iter().flatten() {
            if distinct.len() < RECORDS && !distinct.contains(&r) {
                distinct.push(r);
            }
        }
        assert_eq!(distinct.len(), RECORDS, "CP times enough distinct configurations");
        let results: Vec<(u64, TimingReport)> =
            distinct.into_iter().enumerate().map(|(i, r)| (4 * i as u64, r.clone())).collect();
        let dir = scratch("segment");
        let store = ResultStore::open(&dir).expect("open a store");
        let mut ends = Vec::new();
        for (key, r) in &results {
            store.put(*key, r);
            store.flush().expect("flush");
            ends.push(fs::metadata(only_file(&dir, "seg")).expect("a segment").len() as usize);
        }
        let segment = fs::read(only_file(&dir, "seg")).expect("read the segment");

        let meta = CheckpointMeta::new("cp", "exhaustive", None, &app.space());
        let ck = scratch("checkpoint");
        drop(Checkpointer::open(&ck, meta.clone()).expect("create a checkpoint"));
        let run_json = fs::read_to_string(ck.join("run.json")).expect("run.json written");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&ck);
        Documents { lines, manifest, results, segment, ends, meta, run_json }
    })
}

/// Trace line `pick` (modulo the line count).
fn trace_line(pick: usize) -> &'static str {
    let lines = &documents().lines;
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
        &documents().manifest
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

/// `doc` cut at `at` (`kind` 0), or with the byte at `at` xor-ed with
/// `flip` (1) or deleted (2); `at` is taken modulo the length.
fn damage(doc: &[u8], kind: u8, at: usize, flip: u8) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    match kind {
        0 => bytes.truncate(at % (doc.len() + 1)),
        1 => bytes[at % doc.len()] ^= flip,
        _ => {
            bytes.remove(at % doc.len());
        }
    }
    bytes
}

/// FNV-1a 64, the checksum in a segment record's header.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Bytes of a segment record's header: magic, payload length (u32 LE)
/// and the payload's checksum (u64 LE).
const HEADER: usize = 4 + 4 + 8;

/// `record` with its payload replaced by `payload`, under a valid
/// header.
fn reframe(record: &[u8], payload: &str) -> Vec<u8> {
    let mut bytes = record[..4].to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(payload.as_bytes()).to_le_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A segment truncated, flipped, missing a byte, or holding a record
    /// whose payload lost a key (framed with a valid checksum, so the
    /// payload parser sees it) loses exactly the damaged records; every
    /// other record comes back bit-exact, and the store still opens.
    #[test]
    fn damaged_segments_lose_only_the_damaged_records(
        kind in 0u8..4,
        at in 0usize..100_000,
        bit in 0u32..8,
        key in 0usize..100_000,
    ) {
        let Documents { results, segment, ends, .. } = documents();
        let start = |i: usize| if i == 0 { 0 } else { ends[i - 1] };
        let (bytes, lost, counted): (Vec<u8>, Vec<bool>, usize) = match kind {
            0 => {
                let cut = at % (segment.len() + 1);
                let torn = cut != 0 && !ends.contains(&cut);
                let lost = ends.iter().map(|&end| end > cut).collect();
                (damage(segment, kind, at, 1 << bit), lost, usize::from(torn))
            }
            1 | 2 => {
                let at = at % segment.len();
                let lost = (0..RECORDS).map(|i| (start(i)..ends[i]).contains(&at)).collect();
                (damage(segment, kind, at, 1 << bit), lost, 1)
            }
            _ => {
                let victim = key % RECORDS;
                let record = &segment[start(victim)..ends[victim]];
                let mut payload =
                    json::parse(std::str::from_utf8(&record[HEADER..]).expect("UTF-8 payload"))
                        .expect("the payload parses");
                let mut n = (key / RECORDS) % key_count(&payload);
                prop_assert!(drop_key(&mut payload, &mut n));
                let mut bytes = segment[..start(victim)].to_vec();
                bytes.extend(reframe(record, &payload.to_string_compact()));
                bytes.extend_from_slice(&segment[ends[victim]..]);
                (bytes, (0..RECORDS).map(|i| i == victim).collect(), 1)
            }
        };
        let dir = scratch("segment-case");
        fs::write(dir.join("s0-0000.seg"), &bytes).expect("write the segment");
        let store = ResultStore::open(&dir).expect("a damaged store still opens");
        fs::remove_dir_all(&dir).expect("remove the case");
        for ((k, report), lost) in results.iter().zip(&lost) {
            let want = if *lost { None } else { Some(report.clone()) };
            prop_assert_eq!(store.get(*k), want, "record {} (lost: {})", k, lost);
        }
        // A record that lost its key-scheme stamp reads as an older
        // scheme's: ignored, not dropped. Either way it is counted once.
        prop_assert_eq!(store.records_dropped() + store.records_ignored(), counted);
    }

}

proptest! {
    // A `run.json` is short: enough cases to flip each bit of it.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A checkpoint's `run.json` truncated, with a bit flipped, or
    /// missing a byte or a key either still names the run, or the
    /// checkpoint is refused with a message naming its path; it never
    /// panics.
    #[test]
    fn damaged_run_files_are_refused_naming_the_path(
        kind in 0u8..4,
        at in 0usize..100_000,
        bit in 0u32..8,
        key in 0usize..100_000,
    ) {
        let Documents { meta, run_json, .. } = documents();
        let bytes = if kind == 3 {
            let mut doc = json::parse(run_json).expect("run.json parses");
            let mut n = key % key_count(&doc);
            prop_assert!(drop_key(&mut doc, &mut n));
            doc.to_string_compact().into_bytes()
        } else {
            damage(run_json.as_bytes(), kind, at, 1 << bit)
        };
        let dir = scratch("run-json-case");
        fs::write(dir.join("run.json"), &bytes).expect("write run.json");
        let opened = Checkpointer::open(&dir, meta.clone());
        fs::remove_dir_all(&dir).expect("remove the case");
        match opened {
            Ok(ck) => prop_assert_eq!(ck.meta(), meta),
            Err(e) => prop_assert!(e.contains(&dir.display().to_string()), "{}", e),
        }
    }
}

#[test]
fn the_unmutated_documents_parse() {
    let Documents { lines, manifest, segment, ends, .. } = documents();
    assert!(lines.len() > 8, "a real trace");
    assert_eq!(parse_jsonl(&lines.join("\n")).expect("the trace parses").len(), lines.len());
    RunManifest::parse_str(manifest).expect("the manifest parses");
    // The fuzz's framing is the store's: a record reframed with its own
    // payload is the record.
    let record = &segment[..ends[0]];
    let payload = std::str::from_utf8(&record[HEADER..]).expect("UTF-8 payload");
    assert_eq!(reframe(record, payload), record);
}
