//! Crash-safe search checkpointing and deterministic resume.
//!
//! A checkpoint is a snapshot of everything a search has *paid for*:
//! the run's identity, the work units completed, and the successful
//! timing results keyed by their exact content hash. Because candidate
//! enumeration, every strategy's proposals, and memo-cache discovery
//! order are all deterministic, that map is sufficient to resume: a
//! resumed run **replays the search from the start**, with
//! [`ReplayEval`] serving checkpointed results instantly in place of
//! fresh simulations. Every counter, event, and report therefore comes
//! out byte-identical to an uninterrupted run at any `--jobs` — the
//! replay changes *where results come from*, never *what the engine
//! does with them*.
//!
//! # Write protocol
//!
//! Checkpoints are published atomically: the snapshot is written to
//! `<path>.tmp`, fsynced, then renamed over `<path>`. A crash mid-write
//! leaves the previous checkpoint intact; a crash between checkpoints
//! loses at most the last `--checkpoint-every` work units. The engine
//! records results into the [`Checkpointer`] *after* each dispatch
//! chunk completes, so a checkpoint never references a result that was
//! still in flight.
//!
//! # Interruption
//!
//! SIGINT/SIGTERM set a process-global flag (see
//! [`install_signal_handler`] — a hand-rolled `signal(2)` binding; the
//! workspace is offline and vendors no libc crate). The engine polls it
//! between dispatch chunks and between search rounds, stops
//! scheduling new work, and the CLI writes a final checkpoint and exits
//! with status 130. SIGKILL needs no cooperation: the last published
//! checkpoint is already consistent. [`Checkpointer::with_stop_after`]
//! is the deterministic stand-in for SIGKILL in tests.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use gpu_arch::{MachineSpec, ResourceUsage};
use gpu_ir::Launch;
use gpu_sim::decode::DecodedProgram;
use gpu_sim::timing::TimingReport;

use super::cache::{self, KEY_SCHEME};
use super::error::EvalError;
use super::store::{report_from_json, report_to_json};
use super::TimingEval;
use crate::obs::{json, Json};
use crate::space::Space;

/// Version stamp of the checkpoint file layout. Schema 2 added the
/// `key_scheme` stamp ([`KEY_SCHEME`]) of the result keys.
pub const CHECKPOINT_SCHEMA: u64 = 2;

/// Default work units between periodic checkpoint writes.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 64;

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

/// A checkpoint file parsed back into memory.
#[derive(Debug, Clone, Default)]
pub struct LoadedCheckpoint {
    /// Run identity the checkpoint was taken under.
    pub meta: CheckpointMeta,
    /// Work units completed when it was written.
    pub units_done: usize,
    /// Successful timing results by exact content key.
    pub results: HashMap<u64, TimingReport>,
}

/// Parse a checkpoint file.
///
/// # Errors
///
/// A human-readable message naming the path for unreadable files,
/// unparseable JSON, a schema/shape mismatch, or results keyed under
/// another key scheme (none of them could be served). Unlike the result
/// store, a checkpoint is a single consistent snapshot — damage here is
/// an error, not something to silently skip (the previous run's results
/// may still be recoverable from its `--store-dir`).
pub fn load(path: impl AsRef<Path>) -> Result<LoadedCheckpoint, String> {
    let path = path.as_ref();
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: malformed checkpoint ({what})", path.display());
    let schema = doc.get("schema").and_then(Json::as_u64).ok_or_else(|| bad("schema"))?;
    let key_scheme = match schema {
        // Schema 1 predates the stamp; its results carry scheme-1 keys.
        1 => 1,
        CHECKPOINT_SCHEMA => {
            doc.get("key_scheme").and_then(Json::as_u64).ok_or_else(|| bad("key_scheme"))?
        }
        _ => {
            return Err(format!(
                "{}: checkpoint schema {schema} (this build reads {CHECKPOINT_SCHEMA})",
                path.display()
            ))
        }
    };
    if key_scheme != KEY_SCHEME {
        return Err(format!(
            "{}: checkpoint results are keyed under key scheme {key_scheme}, this build keys \
             under scheme {KEY_SCHEME}; none could be replayed, so start a fresh run",
            path.display()
        ));
    }
    let meta = doc.get("meta").and_then(CheckpointMeta::from_json).ok_or_else(|| bad("meta"))?;
    let units_done =
        doc.get("units_done").and_then(Json::as_u64).ok_or_else(|| bad("units_done"))? as usize;
    let mut results = HashMap::new();
    for entry in doc.get("results").and_then(Json::as_arr).ok_or_else(|| bad("results"))? {
        let key = entry.get("key").and_then(Json::as_u64).ok_or_else(|| bad("result key"))?;
        let report =
            entry.get("report").and_then(report_from_json).ok_or_else(|| bad("result report"))?;
        results.insert(key, report);
    }
    Ok(LoadedCheckpoint { meta, units_done, results })
}

/// Interior state of a [`Checkpointer`].
#[derive(Debug, Default)]
struct Progress {
    results: HashMap<u64, TimingReport>,
    units_done: usize,
    units_since_write: usize,
    stopped: bool,
}

/// Accumulates completed results during a search and publishes atomic
/// checkpoint snapshots every N work units, on interruption, and on
/// demand. Shared with the engine via `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    every: usize,
    meta: CheckpointMeta,
    stop_after: Option<usize>,
    progress: Mutex<Progress>,
}

impl Checkpointer {
    /// Checkpointer writing snapshots to `path` every `every` completed
    /// work units (clamped to ≥ 1).
    pub fn new(path: impl Into<PathBuf>, every: usize, meta: CheckpointMeta) -> Self {
        Self {
            path: path.into(),
            every: every.max(1),
            meta,
            stop_after: None,
            progress: Mutex::new(Progress::default()),
        }
    }

    /// Deterministic SIGKILL stand-in: [`Self::should_stop`] turns true
    /// once `n` work units have completed.
    pub fn with_stop_after(mut self, n: usize) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Seed previously checkpointed results (resume path) so snapshots
    /// taken by the resumed run stay cumulative.
    pub fn seed(&self, results: &HashMap<u64, TimingReport>) {
        let mut p = self.progress.lock().expect("checkpoint progress poisoned");
        for (k, v) in results {
            p.results.entry(*k).or_insert_with(|| v.clone());
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The periodic write threshold (also the engine's dispatch chunk
    /// size, so interruption latency is bounded by it).
    pub fn every(&self) -> usize {
        self.every
    }

    /// The run identity stamped into every snapshot.
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// Record one successful result (engine calls this after the unit's
    /// dispatch chunk completes — never for in-flight work).
    pub fn record(&self, key: u64, report: &TimingReport) {
        let mut p = self.progress.lock().expect("checkpoint progress poisoned");
        p.results.entry(key).or_insert_with(|| report.clone());
    }

    /// Count `n` completed work units, publishing a snapshot when the
    /// periodic threshold is crossed.
    ///
    /// # Errors
    ///
    /// I/O failures writing the snapshot (the engine reports and keeps
    /// running — a failed periodic checkpoint must not kill the search).
    pub fn units_finished(&self, n: usize) -> io::Result<()> {
        let due = {
            let mut p = self.progress.lock().expect("checkpoint progress poisoned");
            p.units_done += n;
            p.units_since_write += n;
            if let Some(cap) = self.stop_after {
                if p.units_done >= cap {
                    p.stopped = true;
                }
            }
            p.units_since_write >= self.every
        };
        if due {
            self.write_now()?;
        }
        Ok(())
    }

    /// Whether the engine should stop scheduling new work: the process
    /// was interrupted, or the deterministic stop threshold was hit.
    pub fn should_stop(&self) -> bool {
        interrupted() || self.progress.lock().expect("checkpoint progress poisoned").stopped
    }

    /// Work units completed so far.
    pub fn units_done(&self) -> usize {
        self.progress.lock().expect("checkpoint progress poisoned").units_done
    }

    /// Publish a snapshot now: serialize, write `<path>.tmp`, fsync,
    /// rename over `<path>`.
    ///
    /// # Errors
    ///
    /// I/O failures creating, writing, syncing, or renaming the file.
    pub fn write_now(&self) -> io::Result<()> {
        let doc = {
            let mut p = self.progress.lock().expect("checkpoint progress poisoned");
            p.units_since_write = 0;
            let mut keys: Vec<u64> = p.results.keys().copied().collect();
            keys.sort_unstable();
            let results: Vec<Json> = keys
                .iter()
                .map(|k| {
                    Json::obj([("key", Json::from(*k)), ("report", report_to_json(&p.results[k]))])
                })
                .collect();
            Json::obj([
                ("schema", Json::from(CHECKPOINT_SCHEMA)),
                ("key_scheme", Json::from(KEY_SCHEME)),
                ("meta", self.meta.to_json()),
                ("units_done", Json::from(p.units_done)),
                ("results", Json::Arr(results)),
            ])
        };
        let tmp = self.path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(doc.to_string_compact().as_bytes())?;
            file.write_all(b"\n")?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &self.path)
    }
}

/// A [`TimingEval`] that serves checkpointed results by exact content
/// key and delegates everything else to the wrapped evaluator. The
/// engine still runs its full dispatch/retry/accounting machinery — a
/// served result is indistinguishable from a fresh simulation, which is
/// exactly what makes resumed reports byte-identical.
pub struct ReplayEval<'a> {
    inner: &'a dyn TimingEval,
    results: Arc<HashMap<u64, TimingReport>>,
}

impl<'a> ReplayEval<'a> {
    /// Wrap `inner`, serving from `results` first.
    pub fn new(inner: &'a dyn TimingEval, results: Arc<HashMap<u64, TimingReport>>) -> Self {
        Self { inner, results }
    }
}

impl TimingEval for ReplayEval<'_> {
    fn simulate(
        &self,
        prog: &DecodedProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<TimingReport, EvalError> {
        match self.results.get(&cache::exact_key(&prog.source, launch, usage, spec)) {
            Some(rep) => Ok(rep.clone()),
            None => self.inner.simulate(prog, launch, usage, spec),
        }
    }

    fn simulate_family(
        &self,
        progs: &[&DecodedProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Option<Vec<TimingReport>> {
        // Units are checkpointed atomically, so a family is either fully
        // present (serve it as one "forked run", matching the original
        // accounting) or fully absent. A partial hit — possible only
        // with a checkpoint from some other search shape — falls through
        // to a real family run, which returns the same reports anyway.
        let served: Option<Vec<TimingReport>> = progs
            .iter()
            .map(|p| self.results.get(&cache::exact_key(&p.source, launch, usage, spec)).cloned())
            .collect();
        match served {
            Some(reports) => Some(reports),
            None => self.inner.simulate_family(progs, launch, usage, spec),
        }
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

    #[test]
    fn checkpoint_write_load_round_trips() {
        let path =
            std::env::temp_dir().join(format!("optspace-ck-roundtrip-{}.json", std::process::id()));
        let ck = Checkpointer::new(&path, 8, meta());
        ck.record(42, &report(1));
        ck.record(7, &report(2));
        ck.units_finished(2).unwrap();
        ck.write_now().unwrap();

        let loaded = load(&path).unwrap();
        assert_eq!(loaded.meta, meta());
        assert_eq!(loaded.units_done, 2);
        assert_eq!(loaded.results.len(), 2);
        assert_eq!(loaded.results[&42], report(1));
        assert_eq!(loaded.results[&7], report(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_checkpoint_with_a_search_state_section_still_loads() {
        // Earlier builds wrote a `state` section (a bnb frontier
        // snapshot) into every checkpoint; resume never needed it.
        let path =
            std::env::temp_dir().join(format!("optspace-ck-state-{}.json", std::process::id()));
        let ck = Checkpointer::new(&path, 8, meta());
        ck.record(42, &report(1));
        ck.write_now().unwrap();
        let mut doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Obj(fields) = &mut doc else { panic!("a checkpoint is an object") };
        fields.push((
            "state".into(),
            json::parse(
                r#"{"incumbent_rank":3,"incumbent_ms":1.5,"frontier":[],"completed_ranks":[0]}"#,
            )
            .unwrap(),
        ));
        std::fs::write(&path, doc.to_string_compact()).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.meta, meta());
        assert_eq!(loaded.results[&42], report(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_checkpoint_keyed_under_another_scheme_is_refused_naming_both() {
        let path =
            std::env::temp_dir().join(format!("optspace-ck-scheme-{}.json", std::process::id()));
        let ck = Checkpointer::new(&path, 8, meta());
        ck.record(42, &report(1));
        ck.write_now().unwrap();
        let current = std::fs::read_to_string(&path).unwrap();
        let stamp = format!(r#""key_scheme":{KEY_SCHEME}"#);
        assert!(current.contains(&stamp), "{current}");
        let later = KEY_SCHEME + 1;

        for (text, written) in [
            (current.replace(&stamp, &format!(r#""key_scheme":{later}"#)), later),
            // A schema-1 file has no stamp: its keys are scheme 1.
            (
                current
                    .replace(&format!("{stamp},"), "")
                    .replace(&format!(r#""schema":{CHECKPOINT_SCHEMA}"#), r#""schema":1"#),
                1,
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = load(&path).unwrap_err();
            assert!(err.contains(&format!("key scheme {written}")), "{err}");
            assert!(err.contains(&format!("scheme {KEY_SCHEME}")), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn periodic_write_fires_on_the_unit_threshold() {
        let path =
            std::env::temp_dir().join(format!("optspace-ck-periodic-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = Checkpointer::new(&path, 4, meta());
        ck.record(1, &report(1));
        ck.units_finished(3).unwrap();
        assert!(!path.exists(), "below threshold: no snapshot yet");
        ck.units_finished(1).unwrap();
        assert!(path.exists(), "threshold crossed: snapshot published");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stop_after_trips_should_stop_deterministically() {
        let path =
            std::env::temp_dir().join(format!("optspace-ck-stop-{}.json", std::process::id()));
        let ck = Checkpointer::new(&path, 1000, meta()).with_stop_after(5);
        assert!(!ck.should_stop());
        ck.units_finished(4).unwrap();
        assert!(!ck.should_stop());
        ck.units_finished(1).unwrap();
        assert!(ck.should_stop());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_damage_with_the_path_in_the_message() {
        let path =
            std::env::temp_dir().join(format!("optspace-ck-damaged-{}.json", std::process::id()));
        std::fs::write(&path, "{ not json").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "message names the path: {err}");
        let missing = load(path.with_extension("missing")).unwrap_err();
        assert!(missing.contains("cannot read"), "{missing}");
        std::fs::remove_file(&path).unwrap();
    }
}
