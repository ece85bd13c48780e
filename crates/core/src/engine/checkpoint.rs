//! Crash-safe search checkpointing and deterministic resume.
//!
//! A checkpoint is a directory holding everything a search has *paid
//! for*: a `run.json` naming the run, and a [`ResultStore`] of the
//! successful timing results keyed by their exact content key. Because
//! candidate enumeration, every strategy's proposals, and memo-cache
//! discovery order are all deterministic, those results are sufficient
//! to resume: a resumed run **replays the search from the start**, and
//! the engine serves every unique the checkpoint holds in place of a
//! fresh simulation, accounted exactly as one. Every counter, event,
//! and report therefore comes out byte-identical to an uninterrupted run
//! at any `--jobs` — the replay changes *where results come from*, never
//! *what the engine does with them*.
//!
//! # Layout and write protocol
//!
//! `run.json` holds [`CHECKPOINT_SCHEMA`], the [`KEY_SCHEME`] of the
//! result keys, and the [`CheckpointMeta`]; it is written once, at
//! creation (temp file, fsync, rename, fsync the directory). Each work
//! unit [records](Checkpointer::record) its successes into the store on
//! the worker that ran it, as soon as the unit finishes, and flushes
//! them, so a checkpoint never holds a result that was still in flight
//! and its I/O grows linearly with the number of results. A crash tears
//! at most the tail of a segment: the store's loader drops the damaged
//! record, and the resumed run simulates it again.
//!
//! # Interruption
//!
//! SIGINT/SIGTERM set a process-global flag (see
//! [`install_signal_handler`] — a hand-rolled `signal(2)` binding; the
//! workspace is offline and vendors no libc crate). Every work unit asks
//! [`Checkpointer::admit`] before it runs, so once the flag is set no
//! further unit starts; the engine ends its retry rounds, the strategy
//! its search rounds, and the CLI syncs the checkpoint and exits with
//! status 130. SIGKILL needs no cooperation: every finished unit is
//! already on disk, and only the units in flight are lost.
//! [`Checkpointer::with_stop_after`] is the deterministic stand-in for
//! SIGKILL in tests.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use gpu_sim::timing::TimingReport;

use super::cache::KEY_SCHEME;
use super::store::{self, ResultStore};
use crate::obs::{json, Json};
use crate::space::Space;

/// Version stamp of the checkpoint layout. Schema 2 added the
/// `key_scheme` stamp ([`KEY_SCHEME`]) of the result keys; schema 3
/// made a checkpoint a directory: `run.json` plus result-store segments.
pub const CHECKPOINT_SCHEMA: u64 = 3;

/// The run-identity file inside a checkpoint directory.
const RUN_FILE: &str = "run.json";

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// The process-global interrupt flag set by [`install_signal_handler`].
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Route SIGINT and SIGTERM to the interrupt flag. Setting an atomic is
/// async-signal-safe; everything else (checkpoint write, store flush)
/// happens on the main thread once the engine observes the flag.
#[cfg(unix)]
pub fn install_signal_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" fn on_signal(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    #[allow(clippy::fn_to_numeric_cast, clippy::fn_to_numeric_cast_with_truncation)]
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// No-op off unix: interruption then relies on `--stop-after` style
/// cooperative stops.
#[cfg(not(unix))]
pub fn install_signal_handler() {}

/// Identity of the run a checkpoint belongs to. Resume refuses a
/// checkpoint whose meta does not match the current invocation — the
/// replay would silently diverge otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointMeta {
    /// Application name (`sad`, `matmul`, ...).
    pub app: String,
    /// The search's identity as its report names it, including every
    /// setting that changes what it proposes (`random-10-s1`,
    /// `hill-12-s1`, `bnb`, ...).
    pub strategy: String,
    /// Grid variant (`--grid fine`), if any.
    pub grid: Option<String>,
    /// Space signature: each axis as `name` plus its printed values.
    pub space: Vec<(String, Vec<String>)>,
}

impl CheckpointMeta {
    /// Meta for a run over `space`.
    pub fn new(app: &str, strategy: &str, grid: Option<&str>, space: &Space) -> Self {
        Self {
            app: app.to_string(),
            strategy: strategy.to_string(),
            grid: grid.map(str::to_string),
            space: space
                .axes()
                .iter()
                .map(|a| {
                    (a.name().to_string(), a.values().iter().map(ToString::to_string).collect())
                })
                .collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::from(self.app.as_str())),
            ("strategy", Json::from(self.strategy.as_str())),
            ("grid", self.grid.as_deref().map(Json::from).unwrap_or(Json::Null)),
            (
                "space",
                Json::Arr(
                    self.space
                        .iter()
                        .map(|(name, values)| {
                            Json::obj([
                                ("axis", Json::from(name.as_str())),
                                (
                                    "values",
                                    Json::Arr(
                                        values.iter().map(|v| Json::from(v.as_str())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        let grid = match j.get("grid") {
            None | Some(Json::Null) => None,
            Some(g) => Some(g.as_str()?.to_string()),
        };
        let mut space = Vec::new();
        for axis in j.get("space")?.as_arr()? {
            let name = axis.get("axis")?.as_str()?.to_string();
            let values = axis
                .get("values")?
                .as_arr()?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?;
            space.push((name, values));
        }
        Some(Self {
            app: j.get("app")?.as_str()?.to_string(),
            strategy: j.get("strategy")?.as_str()?.to_string(),
            grid,
            space,
        })
    }
}

/// Refuse a file where a checkpoint directory belongs, as checkpoints
/// written by earlier builds were.
fn not_a_file(dir: &Path) -> Result<(), String> {
    if !dir.is_file() {
        return Ok(());
    }
    Err(format!(
        "{}: is a file, but checkpoints are now directories (run.json plus result segments); \
         a checkpoint file from an earlier build cannot be resumed, so start a fresh run into \
         a new directory",
        dir.display()
    ))
}

/// Write `run.json` into `dir` atomically and durably.
fn write_run_file(dir: &Path, meta: &CheckpointMeta) -> io::Result<()> {
    let doc = Json::obj([
        ("schema", Json::from(CHECKPOINT_SCHEMA)),
        ("key_scheme", Json::from(KEY_SCHEME)),
        ("meta", meta.to_json()),
    ]);
    let tmp = dir.join(format!("{RUN_FILE}.tmp"));
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(doc.to_string_compact().as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()?;
    }
    fs::rename(&tmp, dir.join(RUN_FILE))?;
    fs::File::open(dir)?.sync_all()
}

/// Interior state of a [`Checkpointer`].
#[derive(Debug, Default)]
struct Progress {
    units_done: usize,
    stopped: bool,
    /// Set by the first failed flush, which alone is reported.
    flush_failed: bool,
}

/// A checkpoint directory opened for a search: the engine records each
/// finished work unit's results into its [`store`](Self::store) and
/// serves the results it already holds. Shared with the engine via
/// `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    meta: CheckpointMeta,
    store: ResultStore,
    stop_after: Option<usize>,
    progress: Mutex<Progress>,
}

impl Checkpointer {
    /// Open the checkpoint of the run `meta` in `dir`: continue it when
    /// `dir` holds one (its `run.json`), and create it there otherwise.
    /// A continued checkpoint's schema, key scheme and meta are checked
    /// before its results are loaded; damaged result records are dropped
    /// (and simulated again), as [`ResultStore::open`] drops them.
    ///
    /// # Errors
    ///
    /// A message naming the path when `dir` is a file (the layout of
    /// earlier builds); when `run.json` is unreadable or malformed, was
    /// written under another schema or key scheme (none of its results
    /// could be served), or belongs to another run; when `dir` holds
    /// other files but no checkpoint (they are left untouched); or when
    /// it cannot be created or written.
    pub fn open(dir: impl Into<PathBuf>, meta: CheckpointMeta) -> Result<Self, String> {
        let dir = dir.into();
        not_a_file(&dir)?;
        let store = if dir.join(RUN_FILE).exists() {
            Self::check_run_file(&dir, &meta)?;
            ResultStore::open(&dir)
                .map_err(|e| format!("cannot open checkpoint results in {}: {e}", dir.display()))?
        } else {
            if fs::read_dir(&dir).is_ok_and(|mut entries| entries.next().is_some()) {
                return Err(format!(
                    "{}: directory is not empty and holds no checkpoint ({RUN_FILE}); refusing \
                     to write a checkpoint into it",
                    dir.display()
                ));
            }
            let cannot = |e: io::Error| format!("cannot create checkpoint {}: {e}", dir.display());
            fs::create_dir_all(&dir).map_err(cannot)?;
            write_run_file(&dir, &meta).map_err(cannot)?;
            ResultStore::open(&dir).map_err(cannot)?
        };
        Ok(Self { dir, meta, store, stop_after: None, progress: Mutex::default() })
    }

    /// Check that the `run.json` in `dir` is this build's and names the
    /// run `meta`.
    fn check_run_file(dir: &Path, meta: &CheckpointMeta) -> Result<(), String> {
        let path = dir.join(RUN_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc =
            json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        let bad = |what: &str| format!("{}: malformed checkpoint ({what})", path.display());
        let schema = doc.get("schema").and_then(Json::as_u64).ok_or_else(|| bad("schema"))?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "{}: checkpoint schema {schema} (this build reads {CHECKPOINT_SCHEMA})",
                path.display()
            ));
        }
        let key_scheme =
            doc.get("key_scheme").and_then(Json::as_u64).ok_or_else(|| bad("key_scheme"))?;
        if key_scheme != KEY_SCHEME {
            return Err(format!(
                "{}: checkpoint results are keyed under key scheme {key_scheme}, this build keys \
                 under scheme {KEY_SCHEME}; none could be replayed, so start a fresh run",
                path.display()
            ));
        }
        let recorded =
            doc.get("meta").and_then(CheckpointMeta::from_json).ok_or_else(|| bad("meta"))?;
        if recorded != *meta {
            return Err(format!(
                "{}: checkpoint belongs to a different run (app/strategy/settings/grid/space \
                 mismatch); refusing to replay it",
                dir.display()
            ));
        }
        Ok(())
    }

    /// Deterministic SIGKILL stand-in: exactly `n` work units are
    /// admitted, and [`Self::should_stop`] turns true with the `n`th.
    pub fn with_stop_after(mut self, n: usize) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The run identity recorded in `run.json`.
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// The checkpoint's results: the engine [records](Self::record)
    /// finished units here, and its load counters describe what a resume
    /// restored.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Ask to run one work unit. Counts the unit and returns `true`,
    /// unless the process was interrupted or the stop threshold was
    /// already reached: then the unit must not run.
    pub fn admit(&self) -> bool {
        if interrupted() {
            return false;
        }
        let mut p = self.progress.lock().expect("checkpoint progress poisoned");
        if p.stopped {
            return false;
        }
        p.units_done += 1;
        p.stopped = self.stop_after.is_some_and(|cap| p.units_done >= cap);
        true
    }

    /// Record a finished unit's successful results, by exact content key,
    /// and flush them to the segments. A flush failure is reported on
    /// stderr once per checkpoint and the search goes on: a failed flush
    /// must not kill it, and the results stay served from memory.
    pub fn record<'a>(&self, results: impl IntoIterator<Item = (u64, &'a TimingReport)>) {
        for (key, report) in results {
            self.store.put(key, report);
        }
        if let Err(e) = self.store.flush() {
            let mut p = self.progress.lock().expect("checkpoint progress poisoned");
            if !std::mem::replace(&mut p.flush_failed, true) {
                eprintln!("checkpoint {}: flush failed: {e}", self.dir.display());
            }
        }
    }

    /// Whether the engine should stop scheduling new work: the process
    /// was interrupted, or the deterministic stop threshold was hit.
    pub fn should_stop(&self) -> bool {
        interrupted() || self.progress.lock().expect("checkpoint progress poisoned").stopped
    }

    /// Work units admitted so far; each has finished once the engine
    /// call that admitted it returns.
    pub fn units_done(&self) -> usize {
        self.progress.lock().expect("checkpoint progress poisoned").units_done
    }

    /// Delete the checkpoint of a completed run: its segments, then
    /// `run.json`, then the directory if nothing else is left in it.
    /// Nothing is deleted recursively.
    ///
    /// # Errors
    ///
    /// I/O failures listing or deleting those entries.
    pub fn remove(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if store::parse_segment_name(&entry.file_name().to_string_lossy()).is_some() {
                fs::remove_file(entry.path())?;
            }
        }
        fs::remove_file(self.dir.join(RUN_FILE))?;
        if fs::read_dir(&self.dir)?.next().is_none() {
            fs::remove_dir(&self.dir)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seed: u64) -> TimingReport {
        use gpu_arch::{LimitingFactor, Occupancy};
        TimingReport {
            cycles_per_wave: 100 + seed,
            waves: 2.0,
            total_cycles: 200 + seed,
            time_ms: 0.5 + seed as f64,
            instructions_issued: 10,
            busy_cycles: 50,
            dram_bytes: 1024,
            bandwidth_utilization: 0.25,
            occupancy: Occupancy {
                blocks_per_sm: 2,
                warps_per_block: 4,
                limited_by: LimitingFactor::Registers,
                threads_per_sm: 256,
            },
            steps: 9 + seed,
            stall_mem_cycles: 1,
            stall_sfu_cycles: 2,
            stall_arith_cycles: 3,
            stall_other_cycles: 4,
        }
    }

    fn meta() -> CheckpointMeta {
        CheckpointMeta {
            app: "sad".into(),
            strategy: "exhaustive".into(),
            grid: None,
            space: vec![("tile".into(), vec!["4".into(), "8".into()])],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("optspace-ck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_write_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let ck = Checkpointer::open(&dir, meta()).unwrap();
        assert!(ck.admit());
        ck.record([(42, &report(1))]);
        assert!(ck.admit());
        ck.record([(7, &report(2))]);
        assert_eq!(ck.units_done(), 2);
        drop(ck);

        let loaded = Checkpointer::open(&dir, meta()).unwrap();
        assert_eq!(loaded.meta(), &meta());
        assert_eq!(loaded.store().records_loaded(), 2);
        assert_eq!(loaded.store().get(42), Some(report(1)));
        assert_eq!(loaded.store().get(7), Some(report(2)));
        loaded.remove().unwrap();
        assert!(!dir.exists(), "an emptied checkpoint directory is removed");
    }

    #[test]
    fn a_checkpoint_keyed_under_another_scheme_is_refused_naming_both() {
        let dir = tmpdir("scheme");
        drop(Checkpointer::open(&dir, meta()).unwrap());
        let run = dir.join(RUN_FILE);
        let current = fs::read_to_string(&run).unwrap();
        let stamp = format!(r#""key_scheme":{KEY_SCHEME}"#);
        assert!(current.contains(&stamp), "{current}");
        let later = KEY_SCHEME + 1;
        fs::write(&run, current.replace(&stamp, &format!(r#""key_scheme":{later}"#))).unwrap();
        let err = Checkpointer::open(&dir, meta()).unwrap_err();
        assert!(err.contains(&format!("key scheme {later}")), "{err}");
        assert!(err.contains(&format!("scheme {KEY_SCHEME}")), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_recorded_unit_is_flushed_at_once() {
        let dir = tmpdir("flush");
        let ck = Checkpointer::open(&dir, meta()).unwrap();
        ck.record([(1, &report(1)), (2, &report(2))]);
        assert_eq!(store::verify(&dir).unwrap().records, 2, "the unit's results are on disk");
        ck.record([(3, &report(3))]);
        assert_eq!(store::verify(&dir).unwrap().records, 3, "so are the next unit's");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_after_admits_exactly_n_units() {
        let dir = tmpdir("stop");
        let ck = Checkpointer::open(&dir, meta()).unwrap().with_stop_after(5);
        for _ in 0..4 {
            assert!(ck.admit());
        }
        assert!(!ck.should_stop());
        assert!(ck.admit(), "the fifth unit runs");
        assert!(ck.should_stop());
        assert!(!ck.admit(), "the sixth does not");
        assert_eq!(ck.units_done(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_flush_is_noted_once_and_the_results_stay_served() {
        let dir = tmpdir("unflushable");
        let ck = Checkpointer::open(&dir, meta()).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        ck.record([(1, &report(1))]);
        assert!(ck.progress.lock().unwrap().flush_failed);
        ck.record([(2, &report(2))]);
        assert_eq!(ck.store().get(1), Some(report(1)));
        assert_eq!(ck.store().get(2), Some(report(2)));
    }

    #[test]
    fn resume_rejects_damage_with_the_path_in_the_message() {
        let dir = tmpdir("damaged");
        drop(Checkpointer::open(&dir, meta()).unwrap());
        let run = dir.join(RUN_FILE);
        fs::write(&run, "{ not json").unwrap();
        let err = Checkpointer::open(&dir, meta()).unwrap_err();
        assert!(err.contains(&run.display().to_string()), "message names the path: {err}");
        fs::remove_file(&run).unwrap();
        fs::create_dir(&run).unwrap();
        let unreadable = Checkpointer::open(&dir, meta()).unwrap_err();
        assert!(unreadable.starts_with(&format!("cannot read {}", run.display())), "{unreadable}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_result_is_dropped_and_the_rest_restored() {
        let dir = tmpdir("torn");
        let ck = Checkpointer::open(&dir, meta()).unwrap();
        // One shard, so the tear hits the last record written.
        for k in 0..4u64 {
            ck.store().put(k * 4, &report(k));
        }
        ck.store().sync().unwrap();
        drop(ck);
        let seg = dir.join("s0-0000.seg");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let ck = Checkpointer::open(&dir, meta()).unwrap();
        assert_eq!(ck.store().records_dropped(), 1);
        assert_eq!(ck.store().records_loaded(), 3);
        for k in 0..3u64 {
            assert_eq!(ck.store().get(k * 4), Some(report(k)));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
