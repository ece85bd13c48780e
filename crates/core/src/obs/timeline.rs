//! Offline trace analysis: parse a `--trace-out` JSONL file back into
//! records and render the human-readable summary behind
//! `gpu-autotune trace report`. The run's counters and runtime figures
//! are its own `engine.metrics` and `engine.runtime` records, printed
//! as the `--profile` table; nothing here recomputes them.
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
use super::metrics::{EngineMetrics, RuntimeMetrics};

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

/// Everything `trace report` prints, as data. The run's counters,
/// convergence curve and runtime figures are its own `engine.metrics`
/// and `engine.runtime` records; the rest are facts only the trace
/// holds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total records.
    pub events: u64,
    /// Wall span of the whole trace (first to last timestamp), µs.
    pub span_us: u64,
    /// `search.round` records: one per proposal batch.
    pub rounds: u64,
    /// Strategy named by the `search` begin record.
    pub strategy: Option<String>,
    /// Space size named by the `search` begin record.
    pub space: Option<u64>,
    /// Best time from the last `search` end record.
    pub best_time_ms: Option<f64>,
    /// The last `engine.metrics` counter record, parsed, with the last
    /// `engine.runtime` record as its runtime section (empty when the
    /// trace holds no such record, as traces of earlier builds do not).
    pub metrics: Option<EngineMetrics>,
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
/// deterministic metrics section ([`EngineMetrics::from_deterministic_json`]),
/// or the last `engine.runtime` record is not a complete runtime section.
pub fn summarize(recs: &[Rec], top_k: usize) -> Result<TraceSummary, String> {
    let lo = recs.iter().map(|r| r.ts_us).min().unwrap_or(0);
    let hi = recs.iter().map(|r| r.ts_us).max().unwrap_or(0);
    let mut s = TraceSummary { events: recs.len() as u64, span_us: hi - lo, ..Default::default() };
    let mut timed: Vec<(u64, f64)> = Vec::new();
    let (mut metrics, mut runtime): (Option<&Rec>, Option<&Rec>) = (None, None);
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
            ("point", "search.round") => s.rounds += 1,
            ("point", "retry.round") => s.retry_rounds += 1,
            ("point", "decode.done") => {
                s.decodes += 1;
                s.decode_ops += r.field_u64("ops").unwrap_or(0);
                s.decode_arena_bytes += r.field_u64("arena_bytes").unwrap_or(0);
            }
            ("counter", "engine.metrics") => metrics = Some(r),
            ("counter", "engine.runtime") => runtime = Some(r),
            _ => {}
        }
    }
    let runtime = runtime
        .map(|r| {
            RuntimeMetrics::from_json(&r.fields)
                .map_err(|e| format!("engine.runtime (seq {}): {e}", r.seq))
        })
        .transpose()?
        .unwrap_or_default();
    if let Some(r) = metrics {
        let m = EngineMetrics::from_deterministic_json(&r.fields)
            .map_err(|e| format!("engine.metrics (seq {}): {e}", r.seq))?;
        s.metrics = Some(EngineMetrics { runtime, ..m });
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

/// Render a [`TraceSummary`] as the `trace report` text. Its profile
/// section is the run's `--profile` table, from the run's own records.
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
    out.push_str(&format!(
        "trace: {} events spanning {}, {} search rounds\n",
        s.events,
        fmt_us(s.span_us),
        s.rounds
    ));

    if let Some(m) = &s.metrics {
        out.push_str("\nprofile\n");
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
    fn summaries_reject_an_incomplete_runtime_record() {
        let sink = EventSink::new();
        let metrics = EngineMetrics::default().deterministic_fields();
        let runtime = RuntimeMetrics { jobs: 2, timing_wall_us: 90, ..Default::default() };
        sink.search(EventKind::Counter, "engine.metrics", metrics.clone());
        let recs = parse_jsonl(&sink.drain().to_jsonl()).unwrap();
        let s = summarize(&recs, 5).unwrap();
        assert_eq!(s.metrics.unwrap().runtime, RuntimeMetrics::default(), "no record, no rows");

        sink.runtime(EventKind::Counter, "engine.runtime", runtime.fields());
        sink.search(EventKind::Counter, "engine.metrics", metrics.clone());
        let recs = parse_jsonl(&sink.drain().to_jsonl()).unwrap();
        assert_eq!(summarize(&recs, 5).unwrap().metrics.unwrap().runtime, runtime);

        let mut fields = runtime.fields();
        fields.retain(|(k, _)| *k != "worker_busy_us");
        sink.runtime(EventKind::Counter, "engine.runtime", fields);
        sink.search(EventKind::Counter, "engine.metrics", metrics.clone());
        let recs = parse_jsonl(&sink.drain().to_jsonl()).unwrap();
        let err = summarize(&recs, 5).unwrap_err();
        assert_eq!(err, "engine.runtime (seq 3): runtime: missing `worker_busy_us`");

        let mut fields = runtime.fields();
        fields.retain(|(k, _)| *k != "decode_hist");
        fields.push(("decode_hist", Json::Arr(vec![Json::from(1u64)])));
        sink.runtime(EventKind::Counter, "engine.runtime", fields);
        let recs = parse_jsonl(&sink.drain().to_jsonl()).unwrap();
        let err = summarize(&recs, 5).unwrap_err();
        assert_eq!(err, "engine.runtime (seq 5): runtime: decode_hist: expected 24 buckets, got 1");
    }
}
