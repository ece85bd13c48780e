//! Disk-backed, content-addressed result store.
//!
//! Timing simulations are the expensive half of every search, and their
//! results are pure functions of the content hash
//! ([`cache::exact_key`](super::cache::exact_key)) of (linearized
//! program, launch, resource usage, machine spec). This module persists
//! that mapping across processes so a killed or repeated run re-simulates
//! nothing it has already paid for.
//!
//! # On-disk format
//!
//! A store is a directory of append-only **segment files** named
//! `s{shard}-{index:04}.seg`, sharded by the low bits of the result key
//! so concurrent tuners on the same store dir mostly touch different
//! files. Each record is framed as
//!
//! ```text
//! magic (4 bytes) | payload_len: u32 LE | fnv1a64(payload): u64 LE | payload
//! ```
//!
//! where the payload is the compact hand-rolled-JSON encoding of
//! `{"key": <u64>, "scheme": <u64>, "report": {...}}` (no serde — the
//! workspace is offline). `scheme` is the [`KEY_SCHEME`] the key was
//! computed under; records without it predate the field and carry
//! scheme-1 keys. The magic starts with a NUL byte, which cannot occur
//! inside JSON text, so a forward scan can re-synchronize after damage.
//!
//! # Crash safety
//!
//! Writes are **write-behind**: [`ResultStore::put`] only updates the
//! in-memory index and a pending buffer; [`ResultStore::flush`] appends
//! the framed records and fsyncs a segment when it **rolls** (exceeds
//! the configured segment size). A torn final record — the expected
//! shape of a crash mid-append — is skipped by the loader, costing at
//! most the records of the unflushed tail, never the run.
//!
//! # Corruption tolerance
//!
//! [`ResultStore::open`] rebuilds the index by scanning every segment.
//! A record whose magic, length, checksum, or JSON payload does not
//! validate is *dropped*, counted in [`ResultStore::records_dropped`]
//! (surfaced as `store_records_dropped` in `EngineMetrics`), and the
//! scan resumes at the next magic marker. Loading never fails on
//! damaged content — only on an unreadable directory.
//!
//! An intact record keyed under another key scheme is not damage: it is
//! *ignored* (its key cannot match any key this build computes) and
//! counted separately in [`ResultStore::records_ignored`], so a scheme
//! bump visibly turns an older store cold instead of silently.

use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gpu_arch::{LimitingFactor, Occupancy};
use gpu_sim::timing::TimingReport;

use super::cache::KEY_SCHEME;
use crate::obs::{json, Json};

/// Record marker. The leading NUL byte cannot appear in JSON text, so
/// scanning for this sequence after damage cannot match inside a
/// payload.
const MAGIC: [u8; 4] = [0x00, b'R', b'S', 0x01];

/// Bytes of framing before the payload: magic + length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Upper bound on a sane payload; longer lengths are treated as damage.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Segment files per store, selected by the low bits of the key.
const SHARD_COUNT: usize = 4;

/// Default segment size before a roll (and its fsync).
const DEFAULT_SEGMENT_BYTES: u64 = 256 * 1024;

/// FNV-1a 64-bit hash of `bytes` (the record checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialize a timing report to the JSON shape stored on disk.
fn report_to_json(r: &TimingReport) -> Json {
    let occ = Json::obj([
        ("blocks_per_sm", Json::from(r.occupancy.blocks_per_sm)),
        ("warps_per_block", Json::from(r.occupancy.warps_per_block)),
        ("limited_by", Json::from(limiting_factor_name(r.occupancy.limited_by))),
        ("threads_per_sm", Json::from(r.occupancy.threads_per_sm)),
    ]);
    Json::obj([
        ("cycles_per_wave", Json::from(r.cycles_per_wave)),
        ("waves", Json::from(r.waves)),
        ("total_cycles", Json::from(r.total_cycles)),
        ("time_ms", Json::from(r.time_ms)),
        ("instructions_issued", Json::from(r.instructions_issued)),
        ("busy_cycles", Json::from(r.busy_cycles)),
        ("dram_bytes", Json::from(r.dram_bytes)),
        ("bandwidth_utilization", Json::from(r.bandwidth_utilization)),
        ("occupancy", occ),
        ("steps", Json::from(r.steps)),
        ("stall_mem_cycles", Json::from(r.stall_mem_cycles)),
        ("stall_sfu_cycles", Json::from(r.stall_sfu_cycles)),
        ("stall_arith_cycles", Json::from(r.stall_arith_cycles)),
        ("stall_other_cycles", Json::from(r.stall_other_cycles)),
    ])
}

/// Parse a timing report from its stored JSON shape. `None` when any
/// field is missing or mistyped (the caller treats that as damage).
fn report_from_json(j: &Json) -> Option<TimingReport> {
    let u = |key: &str| j.get(key).and_then(Json::as_u64);
    let f = |key: &str| j.get(key).and_then(Json::as_f64);
    let occ = j.get("occupancy")?;
    let occupancy = Occupancy {
        blocks_per_sm: u32::try_from(occ.get("blocks_per_sm")?.as_u64()?).ok()?,
        warps_per_block: u32::try_from(occ.get("warps_per_block")?.as_u64()?).ok()?,
        limited_by: limiting_factor_from_name(occ.get("limited_by")?.as_str()?)?,
        threads_per_sm: u32::try_from(occ.get("threads_per_sm")?.as_u64()?).ok()?,
    };
    Some(TimingReport {
        cycles_per_wave: u("cycles_per_wave")?,
        waves: f("waves")?,
        total_cycles: u("total_cycles")?,
        time_ms: f("time_ms")?,
        instructions_issued: u("instructions_issued")?,
        busy_cycles: u("busy_cycles")?,
        dram_bytes: u("dram_bytes")?,
        bandwidth_utilization: f("bandwidth_utilization")?,
        occupancy,
        steps: u("steps")?,
        stall_mem_cycles: u("stall_mem_cycles")?,
        stall_sfu_cycles: u("stall_sfu_cycles")?,
        stall_arith_cycles: u("stall_arith_cycles")?,
        stall_other_cycles: u("stall_other_cycles")?,
    })
}

fn limiting_factor_name(l: LimitingFactor) -> &'static str {
    match l {
        LimitingFactor::BlockSlots => "block-slots",
        LimitingFactor::Threads => "threads",
        LimitingFactor::Registers => "registers",
        LimitingFactor::SharedMemory => "shared-memory",
    }
}

fn limiting_factor_from_name(name: &str) -> Option<LimitingFactor> {
    match name {
        "block-slots" => Some(LimitingFactor::BlockSlots),
        "threads" => Some(LimitingFactor::Threads),
        "registers" => Some(LimitingFactor::Registers),
        "shared-memory" => Some(LimitingFactor::SharedMemory),
        _ => None,
    }
}

/// A report survives storage only if its floats are finite: JSON has no
/// NaN/∞ (they serialize as `null`), so a non-finite report could not
/// round-trip and is simply not persisted.
fn is_storable(r: &TimingReport) -> bool {
    r.waves.is_finite() && r.time_ms.is_finite() && r.bandwidth_utilization.is_finite()
}

/// Frame one `(key, report)` as an on-disk record.
fn encode_record(key: u64, report: &TimingReport) -> Vec<u8> {
    let payload = Json::obj([
        ("key", Json::from(key)),
        ("scheme", Json::from(KEY_SCHEME)),
        ("report", report_to_json(report)),
    ])
    .to_string_compact();
    frame(payload.as_bytes())
}

/// Wrap `payload` in the record header.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(HEADER_LEN + payload.len());
    rec.extend_from_slice(&MAGIC);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// One intact record.
enum Record {
    /// A result keyed under this build's [`KEY_SCHEME`].
    Current(u64, TimingReport),
    /// A record keyed under another scheme.
    Foreign,
}

/// Try to decode one record at the start of `buf`. `Ok((record,
/// consumed))` on success; any validation failure is `Err(())` and the
/// caller re-synchronizes.
#[allow(clippy::result_unit_err)]
fn decode_record(buf: &[u8]) -> Result<(Record, usize), ()> {
    if buf.len() < HEADER_LEN || buf[..4] != MAGIC {
        return Err(());
    }
    let len = u32::from_le_bytes(buf[4..8].try_into().map_err(|_| ())?);
    if len > MAX_PAYLOAD {
        return Err(());
    }
    let len = len as usize;
    let end = HEADER_LEN.checked_add(len).ok_or(())?;
    if buf.len() < end {
        return Err(()); // torn / truncated tail
    }
    let checksum = u64::from_le_bytes(buf[8..16].try_into().map_err(|_| ())?);
    let payload = &buf[HEADER_LEN..end];
    if fnv1a64(payload) != checksum {
        return Err(());
    }
    let text = std::str::from_utf8(payload).map_err(|_| ())?;
    let doc = json::parse(text).map_err(|_| ())?;
    let scheme = match doc.get("scheme") {
        None => 1,
        Some(s) => s.as_u64().ok_or(())?,
    };
    if scheme != KEY_SCHEME {
        return Ok((Record::Foreign, end));
    }
    let key = doc.get("key").and_then(Json::as_u64).ok_or(())?;
    let report = doc.get("report").and_then(report_from_json).ok_or(())?;
    Ok((Record::Current(key, report), end))
}

/// Find the next offset `>= from` where the magic marker starts.
fn find_magic(buf: &[u8], from: usize) -> Option<usize> {
    (from..buf.len().saturating_sub(MAGIC.len() - 1)).find(|&i| buf[i..i + MAGIC.len()] == MAGIC)
}

/// Decode every record in one segment's bytes into `index`, skipping
/// damage and foreign-scheme records. Returns `(records_loaded,
/// records_ignored, records_dropped)`.
fn scan_segment(buf: &[u8], index: &mut HashMap<u64, TimingReport>) -> (usize, usize, usize) {
    let (mut loaded, mut ignored, mut dropped) = (0, 0, 0);
    let mut pos = 0;
    while pos < buf.len() {
        match decode_record(&buf[pos..]) {
            Ok((Record::Current(key, report), consumed)) => {
                index.insert(key, report);
                loaded += 1;
                pos += consumed;
            }
            Ok((Record::Foreign, consumed)) => {
                ignored += 1;
                pos += consumed;
            }
            Err(()) => {
                dropped += 1;
                pos = find_magic(buf, pos + 1).unwrap_or(buf.len());
            }
        }
    }
    (loaded, ignored, dropped)
}

/// Append position of one shard's current segment.
#[derive(Debug, Clone, Copy, Default)]
struct ShardState {
    /// Index of the segment currently being appended to.
    segment: u32,
    /// Bytes already in that segment.
    bytes: u64,
}

/// Aggregate health of a store directory, as reported by
/// [`ResultStore::open`] (and the `store verify` subcommand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreAudit {
    /// Segment files scanned.
    pub segments: usize,
    /// Records loaded into the index (last write per key wins).
    pub records: usize,
    /// Distinct keys in the index (≤ `records`).
    pub keys: usize,
    /// Intact records keyed under another [`KEY_SCHEME`], skipped by
    /// the loader.
    pub ignored: usize,
    /// Damaged records skipped by the loader.
    pub dropped: usize,
    /// Total segment bytes scanned.
    pub bytes: u64,
}

/// The disk-backed result store. See the module docs for format and
/// durability semantics.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Roll (and fsync) a segment once it exceeds this many bytes.
    segment_bytes: u64,
    index: Mutex<HashMap<u64, TimingReport>>,
    pending: Mutex<Vec<(u64, TimingReport)>>,
    shards: Mutex<[ShardState; SHARD_COUNT]>,
    audit: StoreAudit,
    generation: u64,
}

impl ResultStore {
    /// Open (creating if needed) the store at `dir` and rebuild the
    /// index from every segment, skipping damaged records.
    ///
    /// # Errors
    ///
    /// Only directory-level I/O failures (cannot create or list `dir`,
    /// cannot read a listed segment). Damaged record *content* never
    /// fails an open — it is counted in [`Self::records_dropped`].
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Self::open`] with an explicit roll threshold (tests use tiny
    /// segments to exercise rolling).
    pub fn open_with_segment_bytes(dir: impl AsRef<Path>, segment_bytes: u64) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segments: Vec<(usize, u32, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some((shard, idx)) = parse_segment_name(&name.to_string_lossy()) {
                segments.push((shard, idx, entry.path()));
            }
        }
        segments.sort();

        let mut index = HashMap::new();
        let mut audit =
            StoreAudit { segments: 0, records: 0, keys: 0, ignored: 0, dropped: 0, bytes: 0 };
        let mut shards = [ShardState::default(); SHARD_COUNT];
        for &(shard, idx, ref path) in &segments {
            let buf = fs::read(path)?;
            let (loaded, ignored, dropped) = scan_segment(&buf, &mut index);
            audit.segments += 1;
            audit.records += loaded;
            audit.ignored += ignored;
            audit.dropped += dropped;
            audit.bytes += buf.len() as u64;
            if idx >= shards[shard].segment {
                shards[shard] = ShardState { segment: idx, bytes: buf.len() as u64 };
            }
        }
        audit.keys = index.len();
        let generation = audit.segments as u64;
        Ok(Self {
            dir,
            segment_bytes,
            index: Mutex::new(index),
            pending: Mutex::new(Vec::new()),
            shards: Mutex::new(shards),
            audit,
            generation,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Look up a result by exact content key.
    pub fn get(&self, key: u64) -> Option<TimingReport> {
        self.index.lock().expect("store index poisoned").get(&key).cloned()
    }

    /// Record a result (write-behind; durable after [`Self::flush`]).
    /// Duplicate keys and non-finite reports are ignored.
    pub fn put(&self, key: u64, report: &TimingReport) {
        if !is_storable(report) {
            return;
        }
        let mut index = self.index.lock().expect("store index poisoned");
        if index.contains_key(&key) {
            return;
        }
        index.insert(key, report.clone());
        self.pending.lock().expect("store pending poisoned").push((key, report.clone()));
    }

    /// Append all pending records to their shards' segment files,
    /// fsyncing each segment that rolls past the size threshold.
    ///
    /// # Errors
    ///
    /// I/O failures opening or appending segment files. Pending records
    /// are drained before writing, so a failed flush loses at most the
    /// drained batch (the in-memory index still serves them).
    pub fn flush(&self) -> io::Result<()> {
        let pending: Vec<(u64, TimingReport)> =
            self.pending.lock().expect("store pending poisoned").drain(..).collect();
        if pending.is_empty() {
            return Ok(());
        }
        let mut shards = self.shards.lock().expect("store shards poisoned");
        for (key, report) in &pending {
            let shard = (*key as usize) % SHARD_COUNT;
            let rec = encode_record(*key, report);
            let path = self.dir.join(segment_name(shard, shards[shard].segment));
            let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
            file.write_all(&rec)?;
            shards[shard].bytes += rec.len() as u64;
            if shards[shard].bytes >= self.segment_bytes {
                file.sync_all()?;
                shards[shard].segment += 1;
                shards[shard].bytes = 0;
            }
        }
        Ok(())
    }

    /// Flush, then fsync every shard's current segment, so every result
    /// put so far survives a crash of the machine (used before a run
    /// reports success or exits interrupted).
    ///
    /// # Errors
    ///
    /// I/O failures opening or syncing segment files.
    pub fn sync(&self) -> io::Result<()> {
        self.flush()?;
        let shards = *self.shards.lock().expect("store shards poisoned");
        for (shard, state) in shards.iter().enumerate() {
            let path = self.dir.join(segment_name(shard, state.segment));
            if path.exists() {
                OpenOptions::new().append(true).open(&path)?.sync_all()?;
            }
        }
        Ok(())
    }

    /// Number of distinct keys currently in the index.
    pub fn len(&self) -> usize {
        self.index.lock().expect("store index poisoned").len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Damaged records skipped when this store was opened.
    pub fn records_dropped(&self) -> usize {
        self.audit.dropped
    }

    /// Intact records keyed under another key scheme, skipped when this
    /// store was opened.
    pub fn records_ignored(&self) -> usize {
        self.audit.ignored
    }

    /// Records loaded when this store was opened (before new puts).
    pub fn records_loaded(&self) -> usize {
        self.audit.records
    }

    /// Store generation: the number of segment files present at open.
    /// It grows monotonically as runs accrue data, so manifests can
    /// tell which vintage of the store served a run.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The audit snapshot taken at open.
    pub fn audit(&self) -> StoreAudit {
        self.audit
    }
}

/// Open `dir` and report its health — the `store verify` fsck.
///
/// # Errors
///
/// Directory-level I/O failures only; damaged records are counted, not
/// errors.
pub fn verify(dir: impl AsRef<Path>) -> io::Result<StoreAudit> {
    Ok(ResultStore::open(dir)?.audit())
}

fn segment_name(shard: usize, index: u32) -> String {
    format!("s{shard}-{index:04}.seg")
}

/// `(shard, index)` of a segment file name, or `None` for any other
/// file (a checkpoint removes exactly the files this accepts).
pub(super) fn parse_segment_name(name: &str) -> Option<(usize, u32)> {
    let rest = name.strip_prefix('s')?.strip_suffix(".seg")?;
    let (shard, idx) = rest.split_once('-')?;
    let shard: usize = shard.parse().ok()?;
    if shard >= SHARD_COUNT {
        return None;
    }
    Some((shard, idx.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::{LimitingFactor, Occupancy};

    fn report(seed: u64) -> TimingReport {
        TimingReport {
            cycles_per_wave: 1000 + seed,
            waves: 1.5 + seed as f64 * 0.25,
            total_cycles: 2000 + seed * 3,
            time_ms: 0.125 + seed as f64 * 1e-3,
            instructions_issued: 300 + seed,
            busy_cycles: 700 + seed,
            dram_bytes: 4096 * (seed + 1),
            bandwidth_utilization: (seed % 10) as f64 / 10.0,
            occupancy: Occupancy {
                blocks_per_sm: 1 + (seed % 8) as u32,
                warps_per_block: 1 + (seed % 24) as u32,
                limited_by: match seed % 4 {
                    0 => LimitingFactor::BlockSlots,
                    1 => LimitingFactor::Threads,
                    2 => LimitingFactor::Registers,
                    _ => LimitingFactor::SharedMemory,
                },
                threads_per_sm: 32 * (1 + (seed % 24) as u32),
            },
            steps: 50 + seed,
            stall_mem_cycles: seed % 100,
            stall_sfu_cycles: seed % 7,
            stall_arith_cycles: seed % 13,
            stall_other_cycles: seed % 3,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("optspace-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn report_json_round_trips_exactly() {
        for seed in 0..40 {
            let r = report(seed);
            let j = report_to_json(&r);
            let back = report_from_json(&json::parse(&j.to_string_compact()).unwrap()).unwrap();
            assert_eq!(back, r, "seed {seed}");
        }
    }

    #[test]
    fn put_flush_reopen_round_trips() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        for seed in 0u64..32 {
            store.put(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), &report(seed));
        }
        store.flush().unwrap();
        drop(store);

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 32);
        assert_eq!(store.records_dropped(), 0);
        for seed in 0u64..32 {
            assert_eq!(store.get(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)), Some(report(seed)));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_puts_are_visible_in_memory_but_not_on_disk() {
        let dir = tmpdir("writebehind");
        let store = ResultStore::open(&dir).unwrap();
        store.put(7, &report(1));
        assert_eq!(store.get(7), Some(report(1)));
        drop(store); // never flushed

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(7), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_segments_roll_into_multiple_files_and_generation_grows() {
        let dir = tmpdir("roll");
        let store = ResultStore::open_with_segment_bytes(&dir, 256).unwrap();
        assert_eq!(store.generation(), 0);
        for seed in 0..24 {
            store.put(seed, &report(seed));
        }
        store.flush().unwrap();
        drop(store);

        let store = ResultStore::open_with_segment_bytes(&dir, 256).unwrap();
        assert!(store.audit().segments > SHARD_COUNT, "expected rolled segments");
        assert_eq!(store.generation(), store.audit().segments as u64);
        assert_eq!(store.len(), 24);
        assert_eq!(store.records_dropped(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_survivors_load() {
        let dir = tmpdir("torn");
        let store = ResultStore::open(&dir).unwrap();
        // All keys in one shard so the truncation hits a known file.
        for seed in 0..8 {
            store.put(seed * SHARD_COUNT as u64, &report(seed));
        }
        store.flush().unwrap();
        drop(store);

        let seg = dir.join(segment_name(0, 0));
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap(); // tear the tail

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.records_dropped(), 1);
        assert_eq!(store.len(), 7);
        for seed in 0..7 {
            assert_eq!(store.get(seed * SHARD_COUNT as u64), Some(report(seed)), "seed {seed}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_drops_only_the_damaged_record() {
        let dir = tmpdir("flip");
        let store = ResultStore::open(&dir).unwrap();
        for seed in 0..6 {
            store.put(seed * SHARD_COUNT as u64, &report(seed));
        }
        store.flush().unwrap();
        drop(store);

        let seg = dir.join(segment_name(0, 0));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();

        // A single flipped byte damages exactly one record; the drop
        // count may over-count by one if the flip forges a magic marker
        // inside the damaged region, but never eats a neighbour.
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.records_dropped() >= 1);
        assert_eq!(store.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_reports_are_not_persisted() {
        let dir = tmpdir("nonfinite");
        let store = ResultStore::open(&dir).unwrap();
        let mut r = report(0);
        r.time_ms = f64::NAN;
        store.put(1, &r);
        assert_eq!(store.len(), 0);
        store.flush().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_under_another_key_scheme_are_ignored_not_dropped() {
        let dir = tmpdir("scheme");
        let store = ResultStore::open(&dir).unwrap();
        store.put(4, &report(1));
        store.flush().unwrap();
        drop(store);

        // Append, to the same segment, an intact record from before the
        // scheme field existed (scheme 1) and one from a later scheme,
        // both for a key the current record does not use.
        let report_json = report_to_json(&report(2)).to_string_compact();
        let seg = dir.join(segment_name(0, 0));
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend(frame(format!(r#"{{"key":8,"report":{report_json}}}"#).as_bytes()));
        let later = KEY_SCHEME + 1;
        bytes.extend(frame(
            format!(r#"{{"key":12,"scheme":{later},"report":{report_json}}}"#).as_bytes(),
        ));
        fs::write(&seg, &bytes).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.records_ignored(), 2);
        assert_eq!(store.records_dropped(), 0, "a foreign scheme is not damage");
        assert_eq!(store.records_loaded(), 1);
        assert_eq!(store.get(4), Some(report(1)));
        assert_eq!(store.get(8), None);
        assert_eq!(store.get(12), None);
        let audit = verify(&dir).unwrap();
        assert_eq!((audit.records, audit.ignored, audit.dropped), (1, 2, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_segments_records_and_drops() {
        let dir = tmpdir("verify");
        let store = ResultStore::open(&dir).unwrap();
        for seed in 0..10 {
            store.put(seed, &report(seed));
        }
        store.flush().unwrap();
        drop(store);

        let audit = verify(&dir).unwrap();
        assert_eq!(audit.records, 10);
        assert_eq!(audit.keys, 10);
        assert_eq!(audit.ignored, 0);
        assert_eq!(audit.dropped, 0);
        assert!(audit.segments >= 1 && audit.bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
