//! The machine-readable run manifest: everything needed to explain one
//! search run — machine spec, space shape, budgets, engine metrics, and
//! the result summary — as one JSON document stable enough to commit as
//! a `BENCH_*.json` trajectory point.

use gpu_arch::MachineSpec;

use crate::space::SelectionRecord;
use crate::tuner::SearchReport;

use super::json::{parse, Json, ParseError};
use super::metrics::EngineMetrics;

/// Manifest schema version; bump on breaking layout changes.
///
/// History: 1 — initial layout; 2 — `metrics` gained the embedded
/// `convergence` curve and runtime latency histograms. `from_json`
/// accepts schema 2 only.
pub const MANIFEST_SCHEMA: u64 = 2;

/// The simulated machine, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSummary {
    /// Streaming multiprocessors.
    pub num_sms: u64,
    /// Streaming processors per SM.
    pub sps_per_sm: u64,
    /// Shader clock, Hz.
    pub clock_hz: f64,
    /// Threads per warp.
    pub warp_size: u64,
    /// Off-chip bandwidth, bytes/s.
    pub global_bandwidth_bytes_per_sec: f64,
}

impl MachineSummary {
    /// Summarize a machine spec.
    pub fn from_spec(spec: &MachineSpec) -> Self {
        Self {
            num_sms: u64::from(spec.num_sms),
            sps_per_sm: u64::from(spec.sps_per_sm),
            clock_hz: spec.clock_hz,
            warp_size: u64::from(spec.warp_size),
            global_bandwidth_bytes_per_sec: spec.global_bandwidth_bytes_per_sec,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("num_sms", Json::from(self.num_sms)),
            ("sps_per_sm", Json::from(self.sps_per_sm)),
            ("clock_hz", Json::from(self.clock_hz)),
            ("warp_size", Json::from(self.warp_size)),
            ("global_bandwidth_bytes_per_sec", Json::from(self.global_bandwidth_bytes_per_sec)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let u = |k: &str| {
            j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("machine: missing `{k}`"))
        };
        let f = |k: &str| {
            j.get(k).and_then(Json::as_f64).ok_or_else(|| format!("machine: missing `{k}`"))
        };
        Ok(Self {
            num_sms: u("num_sms")?,
            sps_per_sm: u("sps_per_sm")?,
            clock_hz: f("clock_hz")?,
            warp_size: u("warp_size")?,
            global_bandwidth_bytes_per_sec: f("global_bandwidth_bytes_per_sec")?,
        })
    }
}

/// The winning configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BestSummary {
    /// Candidate index in the space.
    pub candidate: u64,
    /// Candidate label.
    pub label: String,
    /// Simulated kernel time, ms.
    pub time_ms: f64,
}

/// The persistent result store a run was attached to.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSummary {
    /// Store directory path as given on the command line.
    pub path: String,
    /// Store generation (segment count) when it was opened.
    pub generation: u64,
    /// Records loaded into the index at open.
    pub records_loaded: u64,
    /// Intact records keyed under another key scheme, skipped at open.
    pub records_ignored: u64,
    /// Damaged records the corruption-tolerant loader skipped at open.
    pub records_dropped: u64,
    /// Unique simulations this run served from the store.
    pub hits: u64,
}

impl StoreSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("path", Json::from(self.path.as_str())),
            ("generation", Json::from(self.generation)),
            ("records_loaded", Json::from(self.records_loaded)),
            ("records_ignored", Json::from(self.records_ignored)),
            ("records_dropped", Json::from(self.records_dropped)),
            ("hits", Json::from(self.hits)),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        Some(Self {
            path: j.get("path")?.as_str()?.to_string(),
            generation: u("generation")?,
            records_loaded: u("records_loaded")?,
            // Written before key schemes were versioned, when a store
            // could hold no foreign records.
            records_ignored: u("records_ignored").unwrap_or(0),
            records_dropped: u("records_dropped")?,
            hits: u("hits")?,
        })
    }
}

/// One complete run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_SCHEMA`]).
    pub schema: u64,
    /// Application / kernel name (e.g. `"sad"`).
    pub app: String,
    /// Search strategy name.
    pub strategy: String,
    /// The simulated machine.
    pub machine: MachineSummary,
    /// Total configurations in the space.
    pub space_size: u64,
    /// Valid (launchable) configurations.
    pub valid: u64,
    /// Configurations that received a timing result.
    pub simulated: u64,
    /// Configurations quarantined by evaluation failures.
    pub quarantined: u64,
    /// Fraction of the valid space not timed (Table 4's "Space
    /// Reduction").
    pub space_reduction: f64,
    /// Summed simulated time over timed configurations, ms (Table 4's
    /// "Evaluation Time").
    pub evaluation_time_ms: f64,
    /// The winner, if any configuration was timed.
    pub best: Option<BestSummary>,
    /// `max_sims` budget, if set.
    pub budget_max_sims: Option<u64>,
    /// `deadline_ms` budget, if set.
    pub budget_deadline_ms: Option<f64>,
    /// Aggregated engine metrics.
    pub metrics: EngineMetrics,
    /// Quarantine counts per error kind, sorted by kind name.
    pub quarantine_by_kind: Vec<(String, u64)>,
    /// The declarative selection (`--filter`/`--sample`) the search ran
    /// under, if any. Absent/`null` means none.
    pub selection: Option<SelectionRecord>,
    /// Which declared grid the app built its space from (`--grid`),
    /// when the app offers more than one (e.g. matmul's `coarse` /
    /// `fine`). Absent/`null` means the app's single default grid;
    /// serialized tolerantly so earlier manifests still parse.
    pub grid: Option<String>,
    /// The persistent result store the run consulted (`--store-dir`),
    /// if any: path, generation, and hit/drop counters. Absent/`null`
    /// means no store; serialized tolerantly so earlier manifests still
    /// parse.
    pub store: Option<StoreSummary>,
}

impl RunManifest {
    /// Build a manifest from a finished search. The winner's label is
    /// read from its static evaluation, so no candidate slice is needed
    /// — lazily instantiated searches produce the same manifest.
    pub fn from_search(app: impl Into<String>, report: &SearchReport, spec: &MachineSpec) -> Self {
        let best = report.best.and_then(|i| {
            let time_ms = report.simulated.get(i)?.as_ref()?.time_ms;
            Some(BestSummary {
                candidate: i as u64,
                label: report
                    .statics
                    .get(i)
                    .and_then(|s| s.as_ref())
                    .map(|e| e.label.clone())
                    .unwrap_or_default(),
                time_ms,
            })
        });
        let mut by_kind: Vec<(String, u64)> = Vec::new();
        for q in &report.quarantined {
            let kind = q.error.kind().to_string();
            match by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => by_kind.push((kind, 1)),
            }
        }
        by_kind.sort();
        Self {
            schema: MANIFEST_SCHEMA,
            app: app.into(),
            strategy: report.strategy.clone(),
            machine: MachineSummary::from_spec(spec),
            space_size: report.space_size as u64,
            valid: report.valid_count() as u64,
            simulated: report.evaluated_count() as u64,
            quarantined: report.quarantined.len() as u64,
            space_reduction: report.space_reduction(),
            evaluation_time_ms: report.evaluation_time_ms(),
            best,
            budget_max_sims: report.stats.budget.max_sims.map(|n| n as u64),
            budget_deadline_ms: report.stats.budget.deadline_ms,
            metrics: report.metrics.clone(),
            quarantine_by_kind: by_kind,
            selection: report.selection.clone(),
            grid: None,
            store: None,
        }
    }

    /// Record which declared grid the space came from.
    pub fn with_grid(mut self, grid: impl Into<String>) -> Self {
        self.grid = Some(grid.into());
        self
    }

    /// Record the persistent result store the run was attached to.
    pub fn with_store(mut self, store: StoreSummary) -> Self {
        self.store = Some(store);
        self
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(self.schema)),
            ("app", Json::from(self.app.as_str())),
            ("strategy", Json::from(self.strategy.as_str())),
            ("machine", self.machine.to_json()),
            ("space_size", Json::from(self.space_size)),
            ("valid", Json::from(self.valid)),
            ("simulated", Json::from(self.simulated)),
            ("quarantined", Json::from(self.quarantined)),
            ("space_reduction", Json::from(self.space_reduction)),
            ("evaluation_time_ms", Json::from(self.evaluation_time_ms)),
            (
                "best",
                match &self.best {
                    None => Json::Null,
                    Some(b) => Json::obj([
                        ("candidate", Json::from(b.candidate)),
                        ("label", Json::from(b.label.as_str())),
                        ("time_ms", Json::from(b.time_ms)),
                    ]),
                },
            ),
            ("budget_max_sims", Json::from(self.budget_max_sims)),
            ("budget_deadline_ms", Json::from(self.budget_deadline_ms)),
            ("metrics", self.metrics.to_json()),
            (
                "quarantine_by_kind",
                Json::Obj(
                    self.quarantine_by_kind
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::from(*n)))
                        .collect(),
                ),
            ),
            (
                "selection",
                match &self.selection {
                    None => Json::Null,
                    Some(sel) => sel.to_json(),
                },
            ),
            (
                "grid",
                match &self.grid {
                    None => Json::Null,
                    Some(g) => Json::from(g.as_str()),
                },
            ),
            (
                "store",
                match &self.store {
                    None => Json::Null,
                    Some(st) => st.to_json(),
                },
            ),
        ])
    }

    /// Parse a manifest back from a JSON value.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let u = |k: &str| j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("missing `{k}`"));
        let f = |k: &str| j.get(k).and_then(Json::as_f64).ok_or_else(|| format!("missing `{k}`"));
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing `{k}`"))
        };
        let schema = u("schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!("unsupported manifest schema {schema}"));
        }
        let best = match j.get("best") {
            None | Some(Json::Null) => None,
            Some(b) => Some(BestSummary {
                candidate: b.get("candidate").and_then(Json::as_u64).ok_or("best: candidate")?,
                label: b.get("label").and_then(Json::as_str).ok_or("best: label")?.to_string(),
                time_ms: b.get("time_ms").and_then(Json::as_f64).ok_or("best: time_ms")?,
            }),
        };
        let by_kind = match j.get("quarantine_by_kind") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("quarantine_by_kind: `{k}` not a count"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `quarantine_by_kind`".into()),
        };
        Ok(Self {
            schema,
            app: s("app")?,
            strategy: s("strategy")?,
            machine: MachineSummary::from_json(j.get("machine").ok_or("missing `machine`")?)?,
            space_size: u("space_size")?,
            valid: u("valid")?,
            simulated: u("simulated")?,
            quarantined: u("quarantined")?,
            space_reduction: f("space_reduction")?,
            evaluation_time_ms: f("evaluation_time_ms")?,
            best,
            budget_max_sims: match j.get("budget_max_sims") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("budget_max_sims not a count")?),
            },
            budget_deadline_ms: match j.get("budget_deadline_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_f64().ok_or("budget_deadline_ms not a number")?),
            },
            metrics: EngineMetrics::from_json(j.get("metrics").ok_or("missing `metrics`")?)?,
            quarantine_by_kind: by_kind,
            selection: match j.get("selection") {
                None | Some(Json::Null) => None,
                Some(sel) => Some(SelectionRecord::from_json(sel).ok_or("selection: malformed")?),
            },
            grid: match j.get("grid") {
                None | Some(Json::Null) => None,
                Some(g) => Some(g.as_str().ok_or("grid not a string")?.to_string()),
            },
            store: match j.get("store") {
                None | Some(Json::Null) => None,
                Some(st) => Some(StoreSummary::from_json(st).ok_or("store: malformed")?),
            },
        })
    }

    /// Parse a manifest from JSON text.
    pub fn parse_str(text: &str) -> Result<Self, String> {
        let j = parse(text).map_err(|e: ParseError| e.to_string())?;
        Self::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Candidate;
    use crate::tuner::{ExhaustiveSearch, SearchStrategy};
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Launch};

    fn tiny_space() -> Vec<Candidate> {
        (1u32..=3)
            .map(|t| {
                let mut b = KernelBuilder::new("k");
                let p = b.param(0);
                let acc = b.mov(0.0f32);
                b.repeat(8 * t, |b| {
                    let x = b.ld_global(p, 0);
                    b.fmad_acc(x, 1.0f32, acc);
                });
                b.st_global(p, 0, acc);
                Candidate::new(
                    format!("t{t}"),
                    b.finish(),
                    Launch::new(Dim::new_1d(64), Dim::new_1d(128)),
                )
            })
            .collect()
    }

    #[test]
    fn manifest_round_trips_and_reconciles_with_the_report() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = tiny_space();
        let report = ExhaustiveSearch.run(&space, &spec);
        let manifest = RunManifest::from_search("tiny", &report, &spec);

        assert_eq!(manifest.simulated, report.evaluated_count() as u64);
        assert_eq!(manifest.metrics.sims_executed, report.stats.unique_sims as u64);
        assert_eq!(manifest.metrics.sims_memoized, report.stats.cache_hits as u64);
        assert_eq!(manifest.quarantined, report.quarantined.len() as u64);
        let best = manifest.best.as_ref().expect("a best exists");
        assert_eq!(best.label, space[report.best.unwrap()].label);

        let text = manifest.to_json().to_string_compact();
        let back = RunManifest::parse_str(&text).expect("round trip parses");
        assert_eq!(back, manifest);
    }

    #[test]
    fn selection_round_trips_and_absent_selection_parses() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = tiny_space();
        let mut report = ExhaustiveSearch.run(&space, &spec);
        report.selection = Some(SelectionRecord {
            filters: vec![("tile".into(), "16".into())],
            sample: Some((10, 7)),
            matched: 3,
        });
        let manifest = RunManifest::from_search("tiny", &report, &spec);
        let text = manifest.to_json().to_string_compact();
        let back = RunManifest::parse_str(&text).expect("round trip parses");
        assert_eq!(back.selection, manifest.selection);

        // A manifest without a `selection` key parses as no selection.
        let mut j = manifest.to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "selection");
        }
        assert_eq!(RunManifest::from_json(&j).expect("tolerant parse").selection, None);
    }

    #[test]
    fn grid_round_trips_and_absent_grid_parses() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = tiny_space();
        let report = ExhaustiveSearch.run(&space, &spec);
        let manifest = RunManifest::from_search("tiny", &report, &spec).with_grid("fine");
        let text = manifest.to_json().to_string_compact();
        let back = RunManifest::parse_str(&text).expect("round trip parses");
        assert_eq!(back.grid.as_deref(), Some("fine"));

        // A pre-grid manifest (no `grid` key at all) still parses.
        let mut j = manifest.to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "grid");
        }
        assert_eq!(RunManifest::from_json(&j).expect("tolerant parse").grid, None);
    }

    #[test]
    fn store_round_trips_and_absent_store_parses() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = tiny_space();
        let report = ExhaustiveSearch.run(&space, &spec);
        let manifest = RunManifest::from_search("tiny", &report, &spec).with_store(StoreSummary {
            path: "/tmp/store".into(),
            generation: 3,
            records_loaded: 12,
            records_ignored: 4,
            records_dropped: 1,
            hits: 12,
        });
        let text = manifest.to_json().to_string_compact();
        let back = RunManifest::parse_str(&text).expect("round trip parses");
        assert_eq!(back.store, manifest.store);

        // A pre-store manifest (no `store` key at all) still parses.
        let mut j = manifest.to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "store");
        }
        assert_eq!(RunManifest::from_json(&j).expect("tolerant parse").store, None);
    }

    #[test]
    fn schema_one_manifests_are_rejected() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = tiny_space();
        let report = ExhaustiveSearch.run(&space, &spec);
        let mut j = RunManifest::from_search("tiny", &report, &spec).to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::from(1u64);
        }
        let err = RunManifest::from_json(&j).unwrap_err();
        assert_eq!(err, "unsupported manifest schema 1");
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = tiny_space();
        let report = ExhaustiveSearch.run(&space, &spec);
        let mut j = RunManifest::from_search("tiny", &report, &spec).to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::from(99u64);
        }
        assert!(RunManifest::from_json(&j).unwrap_err().contains("schema"));
    }
}
