//! Offline trace analysis: parse a `--trace-out` JSONL file back into
//! records, reconstruct the run's timeline (phase wall spans, per-worker
//! busy/idle), and render the human-readable summary behind
//! `gpu-autotune trace report`.
//!
//! Everything here works on [`Rec`] — an owned mirror of [`Event`]
//! (whose `name` is a `&'static str` and so cannot be rebuilt from a
//! parsed file). A live [`Trace`] converts losslessly via
//! [`Rec::from_event`], so the same analysis runs in-process in tests
//! and offline on exported files.
//!
//! [`Trace`]: super::sink::Trace

use super::event::{Event, TRACE_SCHEMA};
use super::json::{self, Json};
use super::metrics::EngineMetrics;

/// One parsed trace record: an owned [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub struct Rec {
    /// Global emission order.
    pub seq: u64,
    /// Microseconds since the sink's origin.
    pub ts_us: u64,
    /// Small per-thread tag.
    pub thread: u64,
    /// `"search"` or `"runtime"`.
    pub scope: String,
    /// `"begin"`, `"end"`, `"point"`, or `"counter"`.
    pub kind: String,
    /// Dotted event name.
    pub name: String,
    /// Structured payload.
    pub fields: Json,
}

impl Rec {
    /// Mirror a live event.
    pub fn from_event(e: &Event) -> Self {
        Self {
            seq: e.seq,
            ts_us: e.ts_us,
            thread: e.thread,
            scope: e.scope.as_str().to_string(),
            kind: e.kind.as_str().to_string(),
            name: e.name.to_string(),
            fields: Json::Obj(
                e.fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
            ),
        }
    }

    /// Parse one JSONL record object: every key [`Event::to_json`]
    /// writes is required, and `schema` must be [`TRACE_SCHEMA`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let key = |k: &str| j.get(k).ok_or_else(|| format!("record: missing `{k}`"));
        let count =
            |k: &str| key(k)?.as_u64().ok_or_else(|| format!("record: `{k}` is not a count"));
        let text = |k: &str| {
            key(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("record: `{k}` is not a string"))
        };
        let schema = count("schema")?;
        if schema != TRACE_SCHEMA {
            return Err(format!(
                "unsupported trace schema {schema} (this build reads schema {TRACE_SCHEMA})"
            ));
        }
        Ok(Self {
            seq: count("seq")?,
            ts_us: count("ts_us")?,
            thread: count("thread")?,
            scope: text("scope")?,
            kind: text("kind")?,
            name: text("name")?,
            fields: match key("fields")? {
                fields @ Json::Obj(_) => fields.clone(),
                _ => return Err("record: `fields` is not an object".into()),
            },
        })
    }

    /// A `u64` payload field.
    pub fn field_u64(&self, k: &str) -> Option<u64> {
        self.fields.get(k).and_then(Json::as_u64)
    }

    /// An `f64` payload field.
    pub fn field_f64(&self, k: &str) -> Option<f64> {
        self.fields.get(k).and_then(Json::as_f64)
    }

    /// A string payload field.
    pub fn field_str(&self, k: &str) -> Option<&str> {
        self.fields.get(k).and_then(Json::as_str)
    }
}

/// Parse a JSONL trace, one [`Rec::from_json`] record per non-blank
/// line; the first malformed line fails the whole file.
pub fn parse_jsonl(text: &str) -> Result<Vec<Rec>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| {
            json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|j| Rec::from_json(&j))
                .map_err(|e| format!("line {}: {e}", n + 1))
        })
        .collect()
}

/// Aggregated wall time of one span name (e.g. `phase.timing`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Span name.
    pub name: String,
    /// Completed begin/end pairs.
    pub spans: u64,
    /// Summed wall time, µs.
    pub wall_us: u64,
}

/// One worker thread's busy accounting, from `pool.item` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLane {
    /// Thread tag.
    pub thread: u64,
    /// Items executed.
    pub items: u64,
    /// Summed item wall time, µs.
    pub busy_us: u64,
}

/// The run's reconstructed timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Wall span of the whole trace (first to last timestamp), µs.
    pub span_us: u64,
    /// Aggregated spans in first-begin order (outermost first).
    pub phases: Vec<PhaseSpan>,
    /// Worker lanes ordered by thread tag.
    pub workers: Vec<WorkerLane>,
}

impl Timeline {
    /// Reconstruct phase spans and worker lanes from parsed records.
    /// `begin`/`end` records pair up per name (nested re-entry folds
    /// into one aggregate); `pool.item` records, stamped at item end
    /// with their wall time, populate the worker lanes.
    pub fn from_records(recs: &[Rec]) -> Self {
        let lo = recs.iter().map(|r| r.ts_us).min().unwrap_or(0);
        let hi = recs.iter().map(|r| r.ts_us).max().unwrap_or(0);
        let mut phases: Vec<(String, Vec<u64>, u64, u64)> = Vec::new(); // name, open stack, spans, wall
        let mut workers: Vec<WorkerLane> = Vec::new();
        for r in recs {
            match r.kind.as_str() {
                "begin" => {
                    match phases.iter_mut().find(|(n, ..)| *n == r.name) {
                        Some((_, open, ..)) => open.push(r.ts_us),
                        None => phases.push((r.name.clone(), vec![r.ts_us], 0, 0)),
                    };
                }
                "end" => {
                    if let Some((_, open, spans, wall)) =
                        phases.iter_mut().find(|(n, ..)| *n == r.name)
                    {
                        if let Some(begin) = open.pop() {
                            *spans += 1;
                            *wall += r.ts_us.saturating_sub(begin);
                        }
                    }
                }
                _ if r.name == "pool.item" => {
                    let wall = r.field_u64("wall_us").unwrap_or(0);
                    match workers.iter_mut().find(|w| w.thread == r.thread) {
                        Some(w) => {
                            w.items += 1;
                            w.busy_us += wall;
                        }
                        None => {
                            workers.push(WorkerLane { thread: r.thread, items: 1, busy_us: wall })
                        }
                    }
                }
                _ => {}
            }
        }
        workers.sort_by_key(|w| w.thread);
        Self {
            span_us: hi - lo,
            phases: phases
                .into_iter()
                .map(|(name, _, spans, wall_us)| PhaseSpan { name, spans, wall_us })
                .collect(),
            workers,
        }
    }

    /// Fraction of `workers × span` spent busy, clamped to `[0, 1]`.
    /// Zero without workers or span.
    pub fn utilization(&self) -> f64 {
        if self.workers.is_empty() || self.span_us == 0 {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_us).sum();
        (busy as f64 / (self.span_us * self.workers.len() as u64) as f64).min(1.0)
    }
}

/// Everything `trace report` prints, as data. The run's counters and
/// convergence curve are its own `engine.metrics` record; the rest are
/// facts only the trace holds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total records.
    pub events: u64,
    /// Strategy named by the `search` begin record.
    pub strategy: Option<String>,
    /// Space size named by the `search` begin record.
    pub space: Option<u64>,
    /// Best time from the last `search` end record.
    pub best_time_ms: Option<f64>,
    /// The last `engine.metrics` counter record, parsed; its runtime
    /// section is empty.
    pub metrics: Option<EngineMetrics>,
    /// Reconstructed timeline.
    pub timeline: Timeline,
    /// Top-k slowest timed candidates, `(candidate, time_ms)`, slowest
    /// first.
    pub slowest: Vec<(u64, f64)>,
    /// Quarantine counts by error kind, most frequent first.
    pub quarantine_by_kind: Vec<(String, u64)>,
    /// Retry rounds observed.
    pub retry_rounds: u64,
    /// Fresh program decodes (`decode.done` records).
    pub decodes: u64,
    /// Decoded ops across those decodes.
    pub decode_ops: u64,
    /// Flat arena bytes across those decodes.
    pub decode_arena_bytes: u64,
}

/// Digest a parsed trace into a [`TraceSummary`] keeping the `top_k`
/// slowest candidates.
///
/// # Errors
///
/// The last `engine.metrics` counter record is not a complete
/// deterministic metrics section ([`EngineMetrics::from_deterministic_json`]).
pub fn summarize(recs: &[Rec], top_k: usize) -> Result<TraceSummary, String> {
    let mut s = TraceSummary {
        events: recs.len() as u64,
        timeline: Timeline::from_records(recs),
        ..Default::default()
    };
    let mut timed: Vec<(u64, f64)> = Vec::new();
    let mut metrics: Option<&Rec> = None;
    for r in recs {
        match (r.kind.as_str(), r.name.as_str()) {
            ("begin", "search") => {
                s.strategy = r.field_str("strategy").map(str::to_string);
                s.space = r.field_u64("space");
            }
            ("end", "search") => s.best_time_ms = r.field_f64("best_time_ms"),
            ("point", "sim.done") => {
                if let (Some(c), Some(t)) = (r.field_u64("candidate"), r.field_f64("time_ms")) {
                    timed.push((c, t));
                }
            }
            ("point", "quarantine") => {
                let kind = r.field_str("kind").unwrap_or("unknown").to_string();
                match s.quarantine_by_kind.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => s.quarantine_by_kind.push((kind, 1)),
                }
            }
            ("point", "retry.round") => s.retry_rounds += 1,
            ("point", "decode.done") => {
                s.decodes += 1;
                s.decode_ops += r.field_u64("ops").unwrap_or(0);
                s.decode_arena_bytes += r.field_u64("arena_bytes").unwrap_or(0);
            }
            ("counter", "engine.metrics") => metrics = Some(r),
            _ => {}
        }
    }
    if let Some(r) = metrics {
        s.metrics = Some(
            EngineMetrics::from_deterministic_json(&r.fields)
                .map_err(|e| format!("engine.metrics (seq {}): {e}", r.seq))?,
        );
    }
    // Slowest first; candidate index breaks ties deterministically.
    timed.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    timed.truncate(top_k);
    s.slowest = timed;
    s.quarantine_by_kind.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(s)
}

/// Render a [`TraceSummary`] as the `trace report` text. The counters
/// are the `--profile` table of the run's `engine.metrics` record.
pub fn format_summary(s: &TraceSummary) -> String {
    use crate::report::{fmt_ms, fmt_us, profile_table, table_aligned};
    let header = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    let mut out = String::new();
    let strategy = s.strategy.as_deref().unwrap_or("unknown");
    out.push_str(&format!(
        "search: {strategy}, space {}, best {}\n",
        s.space.map(|n| n.to_string()).unwrap_or_else(|| "?".into()),
        s.best_time_ms.map(fmt_ms).unwrap_or_else(|| "-".into()),
    ));
    out.push_str(&format!("trace: {} events spanning {}\n", s.events, fmt_us(s.timeline.span_us)));

    if let Some(m) = &s.metrics {
        out.push_str("\ncounters\n");
        out.push_str(&profile_table(m));
        if !m.convergence.is_empty() {
            out.push_str("\nconvergence\n");
            let mut rows = vec![header(&["sims", "unique", "best", "pruned"])];
            for p in &m.convergence.samples {
                rows.push(vec![
                    p.sims.to_string(),
                    p.unique_sims.to_string(),
                    fmt_ms(p.best_time_ms),
                    p.bound_pruned_points.to_string(),
                ]);
            }
            out.push_str(&table_aligned(&rows, &[true, true, true, true]));
        }
    }

    if !s.timeline.phases.is_empty() {
        out.push_str("\nphases\n");
        let mut rows = vec![header(&["phase", "spans", "wall", "share"])];
        for p in &s.timeline.phases {
            let share = if s.timeline.span_us == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * p.wall_us as f64 / s.timeline.span_us as f64)
            };
            rows.push(vec![p.name.clone(), p.spans.to_string(), fmt_us(p.wall_us), share]);
        }
        out.push_str(&table_aligned(&rows, &[false, true, true, true]));
    }

    if !s.timeline.workers.is_empty() {
        out.push_str("\nworkers\n");
        let mut rows = vec![header(&["thread", "items", "busy", "utilization"])];
        for w in &s.timeline.workers {
            let util = if s.timeline.span_us == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * (w.busy_us as f64 / s.timeline.span_us as f64).min(1.0))
            };
            rows.push(vec![w.thread.to_string(), w.items.to_string(), fmt_us(w.busy_us), util]);
        }
        out.push_str(&table_aligned(&rows, &[true, true, true, true]));
        out.push_str(&format!(
            "overall: {} worker threads, {:.1}% utilized over the trace span\n",
            s.timeline.workers.len(),
            100.0 * s.timeline.utilization()
        ));
    }

    if !s.slowest.is_empty() {
        out.push_str("\nslowest candidates\n");
        let mut rows = vec![header(&["candidate", "time"])];
        for (c, t) in &s.slowest {
            rows.push(vec![c.to_string(), fmt_ms(*t)]);
        }
        out.push_str(&table_aligned(&rows, &[true, true]));
    }

    out.push_str("\nfailures and decodes\n");
    if s.quarantine_by_kind.is_empty() {
        out.push_str("quarantine kinds: none\n");
    } else {
        let kinds: Vec<String> =
            s.quarantine_by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
        out.push_str(&format!("quarantine kinds: {}\n", kinds.join(", ")));
    }
    out.push_str(&format!("retry rounds: {}\n", s.retry_rounds));
    if s.decodes > 0 {
        out.push_str(&format!(
            "decode: {} arenas ({} ops, {} flat bytes)\n",
            s.decodes, s.decode_ops, s.decode_arena_bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{EventKind, EventSink};

    #[test]
    fn records_mirror_live_events_and_survive_jsonl() {
        let sink = EventSink::new();
        sink.search(EventKind::Begin, "search", vec![("strategy", Json::from("exhaustive"))]);
        sink.runtime(EventKind::Point, "pool.item", vec![("wall_us", Json::from(5u64))]);
        let trace = sink.drain();
        let live: Vec<Rec> = trace.events.iter().map(Rec::from_event).collect();
        let parsed = parse_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(live, parsed);
        assert_eq!(parsed[0].field_str("strategy"), Some("exhaustive"));
    }

    #[test]
    fn records_missing_a_key_or_of_another_schema_are_rejected() {
        let good = r#"{"schema":1,"seq":0,"ts_us":1,"thread":0,"scope":"search","kind":"point","name":"x","fields":{}}"#;
        assert_eq!(parse_jsonl(good).unwrap().len(), 1);
        for key in ["schema", "seq", "ts_us", "thread", "scope", "kind", "name", "fields"] {
            let mut j = json::parse(good).unwrap();
            let Json::Obj(pairs) = &mut j else { panic!("an object") };
            pairs.retain(|(k, _)| k != key);
            let err = parse_jsonl(&j.to_string_compact()).unwrap_err();
            assert_eq!(err, format!("line 1: record: missing `{key}`"));
        }
        let bad = good.replace(r#""schema":1"#, r#""schema":99"#);
        let err = parse_jsonl(&bad).unwrap_err();
        assert!(err.contains("unsupported trace schema 99"), "{err}");
        let err = parse_jsonl(&good.replace(r#""fields":{}"#, r#""fields":[]"#)).unwrap_err();
        assert!(err.contains("`fields` is not an object"), "{err}");
        // The line number counts blank lines.
        let err = parse_jsonl(&format!("{good}\n\n{bad}")).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
    }

    #[test]
    fn summaries_reject_an_incomplete_metrics_record() {
        let sink = EventSink::new();
        let mut fields = EngineMetrics::default().deterministic_fields();
        let curve = Json::Arr(vec![Json::obj([("sims", Json::from(1u64))])]);
        fields.retain(|(k, _)| *k != "convergence");
        fields.push(("convergence", curve));
        sink.search(EventKind::Counter, "engine.metrics", fields);
        let recs = parse_jsonl(&sink.drain().to_jsonl()).unwrap();
        let err = summarize(&recs, 5).unwrap_err();
        assert_eq!(err, "engine.metrics (seq 0): convergence: missing `unique_sims`");

        sink.search(EventKind::Counter, "engine.metrics", vec![("timed", Json::from(1u64))]);
        let recs = parse_jsonl(&sink.drain().to_jsonl()).unwrap();
        let err = summarize(&recs, 5).unwrap_err();
        assert_eq!(err, "engine.metrics (seq 1): metrics: missing `static_evals`");
    }

    #[test]
    fn timeline_pairs_spans_and_lanes_workers() {
        let rec = |ts, thread, kind: &str, name: &str, fields: Json| Rec {
            seq: ts,
            ts_us: ts,
            thread,
            scope: "search".into(),
            kind: kind.into(),
            name: name.into(),
            fields,
        };
        let recs = vec![
            rec(0, 0, "begin", "search", Json::Obj(Vec::new())),
            rec(10, 0, "begin", "phase.timing", Json::Obj(Vec::new())),
            rec(40, 1, "point", "pool.item", Json::obj([("wall_us", Json::from(25u64))])),
            rec(50, 2, "point", "pool.item", Json::obj([("wall_us", Json::from(30u64))])),
            rec(60, 1, "point", "pool.item", Json::obj([("wall_us", Json::from(10u64))])),
            rec(90, 0, "end", "phase.timing", Json::Obj(Vec::new())),
            rec(100, 0, "end", "search", Json::Obj(Vec::new())),
        ];
        let t = Timeline::from_records(&recs);
        assert_eq!(t.span_us, 100);
        assert_eq!(
            t.phases,
            vec![
                PhaseSpan { name: "search".into(), spans: 1, wall_us: 100 },
                PhaseSpan { name: "phase.timing".into(), spans: 1, wall_us: 80 },
            ]
        );
        assert_eq!(
            t.workers,
            vec![
                WorkerLane { thread: 1, items: 2, busy_us: 35 },
                WorkerLane { thread: 2, items: 1, busy_us: 30 },
            ]
        );
        // 65 busy µs over 2 workers × 100 µs.
        assert!((t.utilization() - 0.325).abs() < 1e-12);
        assert_eq!(Timeline::from_records(&[]).utilization(), 0.0);
    }
}
