//! Observability guarantees of the search stack:
//!
//! * **Trace determinism** — the canonical (search-scope) projection of
//!   the event trace and the deterministic section of the metrics
//!   snapshot are byte-identical at `--jobs` 1 and 8 on a real
//!   application space.
//! * **Exporter validity** — every JSONL trace line parses as a
//!   self-contained JSON event record, and the run manifest reconciles
//!   field-for-field with the search report it was built from and
//!   survives a serialize → parse round trip.
//! * **Time-resolved telemetry** — convergence curves are byte-identical
//!   at any worker count (with and without fault injection), the Chrome
//!   trace export is well-formed, and `trace report` renders a known
//!   trace exactly.
//! * **One count per fact** — the curve's `unique_sims` counts what
//!   `sims_executed` counts, and `trace report` prints the counters of
//!   the run's own `engine.metrics` record.

use std::sync::Arc;

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::{
    cp::Cp, matmul::MatMul, mri_fhd::MriFhd, sad::Sad, App, AppInstantiator, SpaceSource,
};
use gpu_autotune::optspace::engine::{EngineConfig, FaultPlan};
use gpu_autotune::optspace::obs::{
    chrome_trace, format_summary, json, parse_jsonl, summarize, EngineMetrics, EventSink,
    RunManifest, RuntimeMetrics, Scope, Trace, TRACE_SCHEMA,
};
use gpu_autotune::optspace::report::profile_table;
use gpu_autotune::optspace::tuner::{
    BranchAndBound, ExhaustiveSearch, PrunedSearch, SearchReport, SearchStrategy,
};
use gpu_autotune::optspace::EvalEngine;

fn traced_run(
    strategy: &dyn SearchStrategy,
    jobs: usize,
) -> (SearchReport, Trace, Vec<gpu_autotune::optspace::candidate::Candidate>) {
    let spec = MachineSpec::geforce_8800_gtx();
    let cands = Sad::test_problem().candidates();
    let sink = Arc::new(EventSink::new());
    let engine = EvalEngine::with_jobs(jobs).with_sink(Arc::clone(&sink));
    let report = strategy.run_with(&engine, &cands, &spec);
    (report, sink.drain(), cands)
}

#[test]
fn canonical_trace_and_metrics_are_identical_across_worker_counts() {
    let (one, trace_one, _) = traced_run(&ExhaustiveSearch, 1);
    let (eight, trace_eight, _) = traced_run(&ExhaustiveSearch, 8);
    assert!(!trace_one.canonical_lines().is_empty());
    assert_eq!(trace_one.canonical_text(), trace_eight.canonical_text());
    assert_eq!(
        one.metrics.deterministic_json().to_string_compact(),
        eight.metrics.deterministic_json().to_string_compact()
    );
    // The runtime section is genuinely populated (wall time passed).
    assert!(eight.metrics.runtime.static_wall_us + eight.metrics.runtime.timing_wall_us > 0);
    assert_eq!(eight.metrics.runtime.jobs, 8);
}

#[test]
fn trace_spans_bracket_both_phases_in_order() {
    let (_, trace, _) = traced_run(&PrunedSearch::default(), 2);
    let lines = trace.canonical_lines();
    let pos = |needle: &str| {
        lines
            .iter()
            .position(|l| l.starts_with(needle))
            .unwrap_or_else(|| panic!("no `{needle}` line in canonical trace"))
    };
    assert!(pos("begin search") < pos("begin phase.static"));
    assert!(pos("begin phase.static") < pos("end phase.static"));
    assert!(pos("end phase.static") < pos("begin phase.timing"));
    assert!(pos("begin phase.timing") < pos("end phase.timing"));
    assert!(pos("end phase.timing") < pos("counter engine.metrics"));
    assert!(pos("counter engine.metrics") < pos("end search"));
}

#[test]
fn jsonl_lines_are_self_contained_event_records() {
    let (_, trace, _) = traced_run(&ExhaustiveSearch, 4);
    let text = trace.to_jsonl();
    assert_eq!(text.lines().count(), trace.events.len());
    for line in text.lines() {
        let j = json::parse(line).expect("trace line parses");
        for key in ["schema", "seq", "ts_us", "thread", "scope", "kind", "name", "fields"] {
            assert!(j.get(key).is_some(), "event missing `{key}`: {line}");
        }
        assert_eq!(j.get("schema").and_then(json::Json::as_u64), Some(TRACE_SCHEMA));
    }
    // Runtime events exist (pool items) but never enter the canonical
    // projection.
    assert!(trace.events.iter().any(|e| e.scope == Scope::Runtime));
    assert!(trace.canonical_lines().iter().all(|l| !l.contains("pool.item")));
}

#[test]
fn manifest_reconciles_with_the_report_and_round_trips() {
    let spec = MachineSpec::geforce_8800_gtx();
    let (report, _, cands) = traced_run(&ExhaustiveSearch, 4);
    let manifest = RunManifest::from_search("sad", &report, &spec);

    assert_eq!(manifest.space_size, report.space_size as u64);
    assert_eq!(manifest.valid, report.valid_count() as u64);
    assert_eq!(manifest.simulated, report.evaluated_count() as u64);
    assert_eq!(manifest.quarantined, report.quarantined.len() as u64);
    assert_eq!(manifest.metrics.stats, report.stats);
    assert!((manifest.evaluation_time_ms - report.evaluation_time_ms()).abs() < 1e-12);
    assert!((manifest.space_reduction - report.space_reduction()).abs() < 1e-12);
    let best = manifest.best.as_ref().expect("SAD times at least one configuration");
    assert_eq!(best.candidate, report.best.unwrap() as u64);
    assert_eq!(best.label, cands[report.best.unwrap()].label);

    let pretty = manifest.to_json().to_string_pretty();
    let back = RunManifest::parse_str(&pretty).expect("pretty manifest parses");
    assert_eq!(back, manifest);
}

#[test]
fn every_timed_candidate_appears_in_the_trace_exactly_once() {
    let (report, trace, _) = traced_run(&ExhaustiveSearch, 2);
    let done = trace.named("sim.done");
    assert_eq!(done.len(), report.evaluated_count());
    let mut seen: Vec<u64> = done
        .iter()
        .map(|e| {
            e.fields
                .iter()
                .find(|(k, _)| *k == "candidate")
                .and_then(|(_, v)| v.as_u64())
                .expect("sim.done carries a candidate index")
        })
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(done.len(), seen.len(), "duplicate sim.done events");
}

fn curve_json(report: &SearchReport) -> String {
    report.metrics.convergence.to_json().to_string_compact()
}

#[test]
fn convergence_curves_are_byte_identical_across_worker_counts() {
    let (one, ..) = traced_run(&ExhaustiveSearch, 1);
    let (two, ..) = traced_run(&ExhaustiveSearch, 2);
    let (eight, ..) = traced_run(&ExhaustiveSearch, 8);
    assert!(!one.metrics.convergence.is_empty());
    assert_eq!(curve_json(&one), curve_json(&two));
    assert_eq!(curve_json(&one), curve_json(&eight));
    // The curve is internally coherent: sims strictly advance, the best
    // time never regresses, and the final sample matches the report.
    let samples = &one.metrics.convergence.samples;
    assert!(samples.windows(2).all(|w| w[0].sims < w[1].sims));
    assert!(samples.windows(2).all(|w| w[1].best_time_ms <= w[0].best_time_ms));
    assert_eq!(samples.last().unwrap().sims, one.stats.timed as u64);
    assert_eq!(one.metrics.convergence.final_best_ms(), one.best_time_ms());
}

fn fault_run(jobs: usize) -> SearchReport {
    let spec = MachineSpec::geforce_8800_gtx();
    let cands = Sad::test_problem().candidates();
    let engine = EvalEngine::new(EngineConfig {
        jobs,
        fault_plan: Some(FaultPlan::default()),
        ..EngineConfig::default()
    });
    ExhaustiveSearch.run_with(&engine, &cands, &spec)
}

#[test]
fn convergence_curves_survive_fault_injection_at_any_worker_count() {
    let one = fault_run(1);
    let two = fault_run(2);
    let eight = fault_run(8);
    assert!(!one.metrics.convergence.is_empty());
    assert_eq!(curve_json(&one), curve_json(&two));
    assert_eq!(curve_json(&one), curve_json(&eight));
    // The plan actually perturbed the run — determinism held under
    // faults, not in their absence.
    assert!(one.stats.retries > 0 || !one.quarantined.is_empty(), "fault plan never fired");
}

#[test]
fn bnb_curves_record_pruning_and_match_across_worker_counts() {
    let spec = MachineSpec::geforce_8800_gtx();
    let run = |jobs: usize| {
        let app = Sad::test_problem();
        let engine = EvalEngine::with_jobs(jobs);
        BranchAndBound.run_space(&engine, &app.space(), &AppInstantiator(&app), &spec)
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(curve_json(&one), curve_json(&eight));
    let curve = &one.metrics.convergence;
    assert!(!curve.is_empty());
    // The terminal sample carries the final pruning tally, so a curve
    // plotted straight from the manifest shows what the bound saved.
    assert!(one.stats.bound_pruned_points > 0);
    assert_eq!(
        curve.samples.last().unwrap().bound_pruned_points,
        one.stats.bound_pruned_points as u64
    );
    assert!(curve.sims_to_optimum().unwrap() <= one.stats.timed as u64);
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let (_, trace, _) = traced_run(&ExhaustiveSearch, 2);
    let doc = chrome_trace(&trace);
    // The document survives the in-tree JSON support round trip.
    let back = json::parse(&doc.to_string_pretty()).expect("chrome document parses");
    let events = back.get("traceEvents").and_then(json::Json::as_arr).expect("traceEvents");
    let ph = |e: &json::Json| e.get("ph").and_then(json::Json::as_str).map(str::to_string);
    // Every record has a phase and a name, and non-metadata records are
    // fully addressed (pid/tid/ts).
    for e in events {
        assert!(ph(e).is_some() && e.get("name").is_some(), "bare record: {e:?}");
        if ph(e).as_deref() != Some("M") {
            assert!(e.get("pid").is_some() && e.get("tid").is_some() && e.get("ts").is_some());
        }
    }
    // Span begins and ends balance per name, so Perfetto nests them.
    let named = |p: &str| -> Vec<String> {
        events
            .iter()
            .filter(|e| ph(e).as_deref() == Some(p))
            .filter_map(|e| e.get("name").and_then(json::Json::as_str).map(str::to_string))
            .collect()
    };
    let (mut begins, mut ends) = (named("B"), named("E"));
    begins.sort();
    ends.sort();
    assert!(!begins.is_empty());
    assert_eq!(begins, ends);
    // Pool items became complete events with real durations.
    let xs: Vec<_> = events.iter().filter(|e| ph(e).as_deref() == Some("X")).collect();
    assert!(!xs.is_empty());
    for x in &xs {
        assert!(x.get("dur").and_then(json::Json::as_u64).is_some());
    }
    // Counter args are numeric-only: the convergence array is filtered
    // out of the engine.metrics counter, scalars survive.
    let counter = events
        .iter()
        .find(|e| {
            ph(e).as_deref() == Some("C")
                && e.get("name").and_then(json::Json::as_str) == Some("engine.metrics")
        })
        .expect("engine.metrics counter");
    let args = counter.get("args").expect("counter args");
    assert!(args.get("timed").and_then(json::Json::as_u64).is_some());
    assert!(args.get("convergence").is_none());
}

#[test]
fn trace_report_renders_a_known_trace_exactly() {
    let jsonl = r#"
{"schema":1,"seq":0,"ts_us":0,"thread":0,"scope":"search","kind":"begin","name":"search","fields":{"strategy":"exhaustive","space":4}}
{"schema":1,"seq":1,"ts_us":100,"thread":0,"scope":"search","kind":"begin","name":"phase.timing","fields":{}}
{"schema":1,"seq":2,"ts_us":200,"thread":0,"scope":"search","kind":"point","name":"sim.done","fields":{"candidate":0,"unique":0,"time_ms":4.0}}
{"schema":1,"seq":3,"ts_us":300,"thread":0,"scope":"search","kind":"point","name":"sim.done","fields":{"candidate":1,"unique":1,"time_ms":2.0}}
{"schema":1,"seq":4,"ts_us":350,"thread":1,"scope":"runtime","kind":"point","name":"pool.item","fields":{"phase":"timing","index":0,"wall_us":200}}
{"schema":1,"seq":5,"ts_us":360,"thread":0,"scope":"search","kind":"point","name":"cache.hit","fields":{"candidate":2,"unique":0}}
{"schema":1,"seq":6,"ts_us":370,"thread":0,"scope":"search","kind":"point","name":"quarantine","fields":{"kind":"sim-fuel-exhausted"}}
{"schema":1,"seq":7,"ts_us":400,"thread":0,"scope":"search","kind":"counter","name":"engine.metrics","fields":{"static_evals":4,"timed":3,"sims_executed":2,"sims_memoized":1,"cache_hit_rate":0.3333333333333333,"family_forks":0,"family_members":0,"retries":0,"quarantined":1,"injected_faults":0,"budget_truncated":false,"fuel_consumed":900,"sim_cycles":1200,"stall_mem_cycles":300,"stall_sfu_cycles":0,"stall_arith_cycles":100,"stall_other_cycles":0,"bound_pruned_subspaces":0,"bound_pruned_points":0,"store_hits":0,"store_records_dropped":0,"convergence":[{"sims":1,"unique_sims":1,"best_time_ms":4.0,"bound_pruned_points":0},{"sims":2,"unique_sims":2,"best_time_ms":2.0,"bound_pruned_points":0}]}}
{"schema":1,"seq":8,"ts_us":450,"thread":0,"scope":"search","kind":"end","name":"phase.timing","fields":{}}
{"schema":1,"seq":9,"ts_us":500,"thread":0,"scope":"search","kind":"end","name":"search","fields":{"best":1,"best_time_ms":2.0,"timed":2}}
"#;
    let recs = parse_jsonl(jsonl).expect("hand-built trace parses");
    let got = format_summary(&summarize(&recs, 5).expect("the convergence curve parses"));
    let want = "\
search: exhaustive, space 4, best 2.00 ms
trace: 10 events spanning 500.0 us

counters
metric                  value   share
-------------------------------------
static evals                4
timed candidates            3
sims executed               2   66.7%
sims memoized               1   33.3%
cache hit rate          33.3%
family forks                0
family members              0
retries                     0
quarantined                 1
fuel consumed             900
sim cycles               1200
stall cycles              400   33.3%
  memory                  300   75.0%
  sfu                       0    0.0%
  arithmetic              100   25.0%
  other                     0    0.0%
convergence samples         2
sims to optimum             2   66.7%
unique sims to optimum      2  100.0%

convergence
sims  unique     best  pruned
-----------------------------
   1       1  4.00 ms       0
   2       2  2.00 ms       0

phases
phase         spans      wall   share
-------------------------------------
search            1  500.0 us  100.0%
phase.timing      1  350.0 us   70.0%

workers
thread  items      busy  utilization
------------------------------------
     1      1  200.0 us        40.0%
overall: 1 worker threads, 40.0% utilized over the trace span

slowest candidates
candidate     time
------------------
        0  4.00 ms
        1  2.00 ms

failures and decodes
quarantine kinds: sim-fuel-exhausted 1
retry rounds: 0
";
    assert_eq!(got, want);
}

/// The convergence curve counts simulations the way `sims_executed`
/// does — one per execution, so a forked family counts once — on every
/// paper app under the three one-shot strategies, at one and two
/// workers.
#[test]
fn the_curve_counts_the_simulations_sims_executed_counts() {
    let spec = MachineSpec::geforce_8800_gtx();
    let apps: [Box<dyn App>; 4] = [
        Box::new(MatMul::new(256)),
        Box::new(Cp::new(512, 64, 16)),
        Box::new(Sad::test_problem()),
        Box::new(MriFhd::new(8192, 1024)),
    ];
    for app in &apps {
        let (app, space) = (app.as_ref(), app.space());
        for jobs in [1, 2] {
            let engine = || EvalEngine::with_jobs(jobs);
            let source = SpaceSource::full(app);
            let runs = [
                ExhaustiveSearch.run_source(&engine(), &source, &spec),
                PrunedSearch::default().run_source(&engine(), &source, &spec),
                BranchAndBound.run_space(&engine(), &space, &AppInstantiator(app), &spec),
            ];
            for r in runs {
                let at = format!("{} {} at jobs {jobs}", app.name(), r.strategy);
                let curve = &r.metrics.convergence;
                let last = curve.samples.last().unwrap_or_else(|| panic!("{at}: no curve"));
                assert_eq!(last.unique_sims, r.stats.unique_sims as u64, "{at}");
                let to_optimum = curve.unique_to_optimum().expect("a best time");
                assert!(to_optimum <= last.unique_sims, "{at}: {to_optimum} to the optimum");
            }
        }
    }
}

/// `trace report` prints the run's counters as the deterministic rows
/// of the `--profile` table, read back from the trace's own
/// `engine.metrics` record.
#[test]
fn trace_report_counters_are_the_profile_table_of_the_run() {
    let spec = MachineSpec::geforce_8800_gtx();
    let cands = MriFhd::new(8192, 1024).candidates();
    let sink = Arc::new(EventSink::new());
    let engine = EvalEngine::with_jobs(2).with_sink(Arc::clone(&sink));
    let report = ExhaustiveSearch.run_with(&engine, &cands, &spec);
    assert!(report.stats.family_forks > 0, "the MRI space forks families");
    let recs = parse_jsonl(&sink.drain().to_jsonl()).expect("the trace parses");
    let text = format_summary(&summarize(&recs, 5).expect("the metrics record parses"));
    let counters = text
        .split("\n\n")
        .find_map(|section| section.strip_prefix("counters\n"))
        .expect("a counters section");
    let deterministic =
        EngineMetrics { runtime: RuntimeMetrics::default(), ..report.metrics.clone() };
    assert_eq!(format!("{counters}\n"), profile_table(&deterministic));
    // Those are the leading rows of the full `--profile` table, cell
    // for cell (padding aside).
    let cells = |t: &str| -> Vec<Vec<String>> {
        t.lines().map(|l| l.split_whitespace().map(str::to_string).collect()).collect()
    };
    let full = cells(&profile_table(&report.metrics));
    let rows = cells(counters);
    assert!(full.len() > rows.len(), "the live run carries runtime rows");
    assert_eq!(rows[2..], full[2..rows.len()]);
}
