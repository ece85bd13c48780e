//! `gpu-autotune` — command-line front end.
//!
//! ```text
//! gpu-autotune spaces                       list the apps and their spaces
//! gpu-autotune devices                      list the machine models
//! gpu-autotune inspect <app> <index>        static profile of one config
//!     --grid default|fine                   which declared grid the index is in
//! gpu-autotune tune <app> [opts]            search a configuration space
//!     --strategy exhaustive|pareto|random|bnb
//!               |hill|anneal|genetic|surrogate  (default pareto)
//!     --grid default|fine                   which declared grid to tune over
//!     --budget N                            timing budget for budgeted
//!                                           strategies (default 10, must be >= 1)
//!     --seed S                              seed for seeded strategies
//!                                           (random/hill/anneal/genetic; default 0)
//!     --device g80|gt200                    (default g80)
//!     --no-screen                           disable the bandwidth screen
//!     --jobs N                              evaluation worker threads (default 1)
//!     --max-sims N                          cap unique timing simulations
//!     --deadline-ms X                       cap accumulated simulated time
//!     --sim-fuel N                          per-simulation step budget (watchdog)
//!     --check-races                         quarantine statically racy kernels
//!     --retries N                           attempts per candidate (default 3)
//!     --inject-faults                       deterministic fault injection (dev)
//!     --fault-seed N                        seed for --inject-faults
//!     --filter axis=value                   keep only matching points (repeatable)
//!     --sample N                            seeded random subset of the survivors
//!     --sample-seed S                       seed for --sample (default 0)
//!     --trace-out <path>                    write the event trace
//!     --trace-format jsonl|chrome           trace format (default jsonl);
//!                                           chrome loads in Perfetto
//!     --metrics-out <path>                  write the run manifest as JSON
//!     --profile                             print the profile summary table
//!     --store-dir <dir>                     persistent result store (crash-safe)
//!     --checkpoint <dir>                    checkpoint into <dir> (any strategy); an
//!                                           interrupted run's checkpoint is resumed
//!     --stop-after-units N                  deterministic stop for testing resume
//! gpu-autotune store verify <dir>           audit a result store's segments
//! gpu-autotune parse <file.gik>             analyse a textual kernel
//! gpu-autotune validate <t.jsonl> <m.json>  check trace/manifest files parse
//! gpu-autotune trace <app> <index> [N]      trace one thread of one config
//!     --grid default|fine                   which declared grid the index is in
//! gpu-autotune trace report <t.jsonl>       analyse a recorded trace: the
//!                                           run's --profile table, convergence
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::ir::{Kernel, Launch};
use gpu_autotune::kernels::matmul::{MatMul, MatMulFine};
use gpu_autotune::kernels::{by_name, cp::Cp, mri_fhd::MriFhd, sad::Sad};
use gpu_autotune::kernels::{AppInstantiator, SpaceSource, NAMES};
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::optspace::cli::{writable_parent, Args, EngineFlags};
use gpu_autotune::optspace::engine::{
    cache::KEY_SCHEME, install_signal_handler, store, CheckpointMeta, Checkpointer, EvalBudget,
};
use gpu_autotune::optspace::obs::StoreSummary;
use gpu_autotune::optspace::obs::{
    chrome_trace, format_summary, parse_jsonl, summarize, EventSink, Rec, RunManifest,
};
use gpu_autotune::optspace::report::{fmt_ms, profile_table, table};
use gpu_autotune::optspace::space::Point;
use gpu_autotune::optspace::tuner::{
    run_iterative, BranchAndBound, ExhaustiveSearch, PrunedSearch, RandomSearch, SearchReport,
    SearchStrategy,
};
use gpu_autotune::optspace::zoo;
use gpu_autotune::optspace::Selection;
use gpu_autotune::sim::interp::DeviceMemory;

const USAGE: &str = "\
usage: gpu-autotune <command> [args]

commands:
  spaces                      list applications and configuration-space sizes
  devices                     list machine models
  inspect <app> <index> [--grid default|fine]
                              static profile + PTX view of one configuration
  tune <app> [--strategy exhaustive|pareto|random|bnb|hill|anneal|genetic|surrogate]
             [--budget N] [--seed S]
             [--grid default|fine] [--device g80|gt200] [--no-screen] [--jobs N]
             [--max-sims N] [--deadline-ms X] [--sim-fuel N] [--check-races]
             [--retries N] [--inject-faults] [--fault-seed N]
             [--filter axis=value]... [--sample N] [--sample-seed S]
             [--trace-out <path>] [--trace-format jsonl|chrome]
             [--metrics-out <path>] [--profile]
             [--store-dir <dir>] [--checkpoint <dir>] [--stop-after-units N]
  store verify <dir>          audit a persistent result store: segments,
                              records, and corrupt records dropped
  parse <file>                parse a textual kernel and print its analyses
  validate <trace> <manifest> check every record of a --trace-out JSONL file
                              and a --metrics-out manifest against this
                              build's schemas, and that the manifest round-trips
  trace <app> <index> [N] [--grid default|fine]
                              trace the first N instructions (default 20) of
                              one thread of a configuration, on real data
  trace report <file.jsonl>   analyse a recorded --trace-out trace: the run's
                              --profile table, convergence table, slowest
                              candidates, failures
  occupancy <regs> <smem>     the occupancy-calculator table for a kernel
                              using <regs> registers/thread and <smem> B/block

apps: matmul | cp | sad | mri";

fn device_by_name(name: &str) -> Option<MachineSpec> {
    match name {
        "g80" => Some(MachineSpec::geforce_8800_gtx()),
        "gt200" => Some(MachineSpec::gtx_280_like()),
        _ => None,
    }
}

fn cmd_spaces() -> ExitCode {
    let spec = MachineSpec::geforce_8800_gtx();
    let mut rows = vec![vec![
        "app".to_string(),
        "name".to_string(),
        "configs".to_string(),
        "valid".to_string(),
    ]];
    for key in NAMES {
        let app = by_name(key, "default").expect("a registered app");
        let cands = app.candidates();
        let valid = cands.iter().filter(|c| c.evaluate(&spec).is_ok()).count();
        rows.push(vec![
            key.to_string(),
            app.name().to_string(),
            cands.len().to_string(),
            valid.to_string(),
        ]);
    }
    println!("{}", table(&rows));
    ExitCode::SUCCESS
}

fn cmd_devices() -> ExitCode {
    let mut rows = vec![vec![
        "device".to_string(),
        "SMs".to_string(),
        "regs/SM".to_string(),
        "threads/SM".to_string(),
        "bandwidth".to_string(),
        "peak GFLOPS".to_string(),
    ]];
    for (key, spec) in
        [("g80", MachineSpec::geforce_8800_gtx()), ("gt200", MachineSpec::gtx_280_like())]
    {
        rows.push(vec![
            key.to_string(),
            spec.num_sms.to_string(),
            spec.registers_per_sm.to_string(),
            spec.max_threads_per_sm.to_string(),
            format!("{:.1} GB/s", spec.global_bandwidth_bytes_per_sec / 1e9),
            format!("{:.1}", spec.peak_gflops()),
        ]);
    }
    println!("{}", table(&rows));
    ExitCode::SUCCESS
}

fn print_candidate(c: &Candidate, spec: &MachineSpec) {
    println!("configuration: {}", c.label);
    match c.evaluate(spec) {
        Ok(e) => {
            let p = &e.kernel_profile;
            println!("  dynamic instructions: {}", p.profile.instr);
            println!("  blocking regions:     {}", p.profile.regions);
            println!("  registers/thread:     {}", p.usage.regs_per_thread);
            println!("  shared mem/block:     {} B", p.usage.smem_per_block);
            println!("  blocks per SM:        {}", p.occupancy.blocks_per_sm);
            println!("  Efficiency:           {:.3e}", e.metrics.efficiency);
            println!("  Utilization:          {:.1}", e.metrics.utilization);
            println!(
                "  bandwidth pressure:   {:.2}{}",
                e.bandwidth.pressure(),
                if e.bandwidth.is_bandwidth_bound() { " (BOUND)" } else { "" }
            );
        }
        Err(err) => println!("  INVALID EXECUTABLE: {err}"),
    }
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let (Some(app_name), Some(index)) = (args.first(), args.get(1)) else {
        eprintln!("inspect needs: <app> <index> [--grid default|fine]");
        return ExitCode::FAILURE;
    };
    let mut rest = Args::new(args[2..].to_vec());
    let read = rest
        .text("--grid", "a value (default|fine)")
        .and_then(|grid| rest.finish().map(|()| grid))
        .and_then(|grid| by_name(app_name, grid.as_deref().unwrap_or("default")));
    let app = match read {
        Ok(app) => app,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let space = app.space();
    let Ok(i) = index.parse::<usize>() else {
        eprintln!("bad index `{index}`");
        return ExitCode::FAILURE;
    };
    // Instantiate only the requested point — no reason to generate the
    // other few hundred kernels of the space.
    let Some(point) = space.points().nth(i) else {
        eprintln!("index {i} out of range (space has {} configurations)", space.len());
        return ExitCode::FAILURE;
    };
    let c = app.instantiate(&point);
    let spec = MachineSpec::geforce_8800_gtx();
    print_candidate(&c, &spec);
    println!("\n--- PTX view (head) ---");
    for line in gpu_autotune::ir::print::to_ptx(&c.kernel).lines().take(30) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

fn print_search(labels: &[String], r: &SearchReport) {
    println!(
        "strategy {}: {} of {} valid configurations timed ({:.0}% reduction), \
         simulated evaluation time {}",
        r.strategy,
        r.evaluated_count(),
        r.valid_count(),
        r.space_reduction() * 100.0,
        fmt_ms(r.evaluation_time_ms()),
    );
    println!(
        "engine: {} worker{}, {} unique simulations, {} cache hits{}{}",
        r.jobs,
        if r.jobs == 1 { "" } else { "s" },
        r.stats.unique_sims,
        r.stats.cache_hits,
        if r.stats.store_hits > 0 {
            format!(", {} store hits", r.stats.store_hits)
        } else {
            String::new()
        },
        if r.stats.budget_truncated { " (budget exhausted)" } else { "" },
    );
    if !r.quarantined.is_empty() {
        println!(
            "DEGRADED: {} of {} configurations quarantined ({:.1}% of the space evaluated, \
             {} retr{})",
            r.quarantined_count(),
            labels.len(),
            r.coverage() * 100.0,
            r.stats.retries,
            if r.stats.retries == 1 { "y" } else { "ies" },
        );
        const LISTED: usize = 8;
        for q in r.quarantined.iter().take(LISTED) {
            println!("  {q}");
        }
        if r.quarantined.len() > LISTED {
            println!("  ... and {} more", r.quarantined.len() - LISTED);
        }
    }
    match (r.best, r.best_time_ms()) {
        (Some(best), Some(time)) => {
            println!("best configuration: #{best} {} ({})", labels[best], fmt_ms(time));
        }
        _ => println!("no configuration could be timed"),
    }
}

/// Everything `tune` reads from its flags.
struct TuneFlags {
    strategy: String,
    grid: String,
    budget: usize,
    seed: u64,
    device: MachineSpec,
    screen: bool,
    engine: EngineFlags,
    selection: Selection,
    trace_out: Option<String>,
    trace_format: String,
    metrics_out: Option<String>,
    profile: bool,
    checkpoint: Option<String>,
    stop_after: Option<usize>,
}

impl TuneFlags {
    fn read(args: &mut Args) -> Result<Self, String> {
        let budget = EvalBudget {
            max_sims: args.number("--max-sims", "a number")?,
            deadline_ms: args.positive("--deadline-ms", "a positive number")?,
        };
        let checkpoint = args.text("--checkpoint", "a directory")?;
        if let Some(dir) = &checkpoint {
            writable_parent(dir)?;
        }
        let stop_after = args.positive("--stop-after-units", "a number >= 1")?;
        if stop_after.is_some() && checkpoint.is_none() {
            return Err("--stop-after-units requires --checkpoint".to_string());
        }
        let mut flags = TuneFlags {
            strategy: args.text("--strategy", "a value")?.unwrap_or_else(|| "pareto".into()),
            grid: args
                .text("--grid", "a value (default|fine)")?
                .unwrap_or_else(|| "default".into()),
            budget: args.positive("--budget", "a number >= 1")?.unwrap_or(10),
            seed: args.number("--seed", "a number")?.unwrap_or(0),
            device: args
                .value_with("--device", "g80|gt200", device_by_name)?
                .unwrap_or_else(MachineSpec::geforce_8800_gtx),
            screen: !args.switch("--no-screen"),
            selection: args.selection()?,
            trace_out: args.output("--trace-out")?,
            trace_format: args
                .value_with("--trace-format", "jsonl|chrome", |f| {
                    matches!(f, "jsonl" | "chrome").then(|| f.to_string())
                })?
                .unwrap_or_else(|| "jsonl".into()),
            metrics_out: args.output("--metrics-out")?,
            profile: args.switch("--profile"),
            checkpoint,
            stop_after,
            // Last, so the store is opened only after every other flag is read.
            engine: args.engine_flags()?,
        };
        flags.engine.config.budget = budget;
        // A completed run deletes its checkpoint's segments, which must
        // not be the store's.
        if let (Some(dir), Some(st)) = (&flags.checkpoint, &flags.engine.store) {
            if Path::new(dir) == st.dir() {
                return Err(format!("--checkpoint {dir} must not be the --store-dir directory"));
            }
        }
        Ok(flags)
    }
}

fn cmd_tune(args: &[String]) -> ExitCode {
    let Some(app_name) = args.first() else {
        eprintln!("tune needs an app (matmul|cp|sad|mri)");
        return ExitCode::FAILURE;
    };
    let mut rest = Args::new(args[1..].to_vec());
    let read = TuneFlags::read(&mut rest)
        .and_then(|flags| rest.finish().map(|()| flags))
        .and_then(|flags| Ok((by_name(app_name, &flags.grid)?, flags)));
    let (app, flags) = match read {
        Ok(read) => read,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let TuneFlags { strategy, grid, device, selection, .. } = &flags;
    let space = app.space();
    let one_shot: Option<Box<dyn SearchStrategy>> = match strategy.as_str() {
        "exhaustive" => Some(Box::new(ExhaustiveSearch)),
        "pareto" => {
            Some(Box::new(PrunedSearch { screen_bandwidth: flags.screen, ..Default::default() }))
        }
        "random" => Some(Box::new(RandomSearch::new(flags.budget, flags.seed))),
        _ => None,
    };
    let iterative = zoo::by_name(strategy, &space, flags.budget, flags.seed);
    // What a checkpoint must match to be resumed: the name the report
    // prints (it carries budget and seed), plus pareto's screening
    // choice, which that name does not show.
    let identity = match (&one_shot, &iterative) {
        (Some(s), _) if strategy == "pareto" && !flags.screen => format!("{}-noscreen", s.name()),
        (Some(s), _) => s.name(),
        (None, Some(s)) => s.name(),
        (None, None) if strategy == "bnb" => strategy.clone(),
        (None, None) => {
            eprintln!(
                "unknown strategy `{strategy}` \
                 (exhaustive|pareto|random|bnb|hill|anneal|genetic|surrogate)"
            );
            return ExitCode::FAILURE;
        }
    };
    // Branch-and-bound and the iterative strategies walk the declared
    // space itself — bnb decides which subspaces ever reach
    // instantiation, and the zoo's dense candidate indices must line
    // up with the full space — so up-front narrowing contradicts them.
    if one_shot.is_none() && !selection.is_noop() {
        eprintln!("--strategy {strategy} searches the full space; drop --filter/--sample");
        return ExitCode::FAILURE;
    }
    let mut engine = flags.engine.engine();
    // Observation is opt-in: the sink only exists when some exporter
    // will consume it.
    let sink = if flags.trace_out.is_some() || flags.metrics_out.is_some() || flags.profile {
        let sink = Arc::new(EventSink::new());
        engine = engine.with_sink(Arc::clone(&sink));
        Some(sink)
    } else {
        None
    };

    // Durable-tuning plumbing. All status chatter goes to stderr so a
    // resumed run's stdout stays byte-identical to an uninterrupted
    // one.
    let result_store = flags.engine.store.as_ref();
    if let Some(st) = result_store {
        eprintln!(
            "result store {}: {} records loaded, {} ignored (other key scheme), {} dropped \
             (generation {})",
            st.dir().display(),
            st.records_loaded(),
            st.records_ignored(),
            st.records_dropped(),
            st.generation(),
        );
    }
    let points = match selection.apply(&space) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if !selection.is_noop() {
        println!("selection: {selection} -> {} of {} configurations", points.len(), space.len());
        if points.is_empty() {
            println!("selection matched no configurations; the report will be empty");
        }
    }
    let meta = CheckpointMeta::new(
        app_name,
        &identity,
        (grid != "default").then_some(grid.as_str()),
        &space,
    );
    let checkpointer = match &flags.checkpoint {
        Some(dir) => {
            let mut ck = match Checkpointer::open(dir, meta) {
                Ok(ck) => ck,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let st = ck.store();
            eprintln!(
                "checkpoint {dir}: {} results restored, {} ignored (other key scheme), {} dropped",
                st.records_loaded(),
                st.records_ignored(),
                st.records_dropped(),
            );
            if let Some(n) = flags.stop_after {
                ck = ck.with_stop_after(n);
            }
            let ck = Arc::new(ck);
            engine = engine.with_checkpoint(Arc::clone(&ck));
            install_signal_handler();
            Some(ck)
        }
        None => None,
    };

    let source = SpaceSource::new(app.as_ref(), points);
    let labels = source.labels();
    let report = if let Some(mut searcher) = iterative {
        run_iterative(searcher.as_mut(), &engine, &source, device)
    } else if let Some(searcher) = one_shot {
        let mut report = searcher.run_source(&engine, &source, device);
        if !selection.is_noop() {
            report.selection = Some(selection.record(labels.len()));
        }
        report
    } else {
        BranchAndBound.run_space(&engine, &space, &AppInstantiator(app.as_ref()), device)
    };
    // An interrupted (or stop-after-tripped) run syncs its checkpoint
    // and exits 130 without printing a report: the partial results live
    // in the checkpoint, not on stdout.
    if let Some(ck) = &checkpointer {
        if ck.should_stop() {
            if let Some(st) = result_store {
                if let Err(e) = st.sync() {
                    eprintln!("result store {}: sync failed: {e}", st.dir().display());
                }
            }
            return match ck.store().sync() {
                Ok(()) => {
                    eprintln!(
                        "interrupted after {} units: checkpoint -> {}; continue with \
                         --checkpoint {1}",
                        ck.units_done(),
                        ck.dir().display(),
                    );
                    ExitCode::from(130)
                }
                Err(e) => {
                    eprintln!("cannot sync checkpoint {}: {e}", ck.dir().display());
                    ExitCode::FAILURE
                }
            };
        }
    }
    print_search(&labels, &report);
    if let Some(st) = result_store {
        if let Err(e) = st.sync() {
            eprintln!("result store {}: sync failed: {e}", st.dir().display());
        }
    }
    if let Some(ck) = &checkpointer {
        // The run completed: the checkpoint has served its purpose and
        // a later unrelated run must not accidentally resume from it.
        match ck.remove() {
            Ok(()) => eprintln!("run complete: checkpoint {} removed", ck.dir().display()),
            Err(e) => eprintln!("cannot remove checkpoint {}: {e}", ck.dir().display()),
        }
    }
    if let Some(sink) = sink {
        let trace = sink.drain();
        if let Some(path) = &flags.trace_out {
            let text = match flags.trace_format.as_str() {
                "chrome" => chrome_trace(&trace).to_string_pretty(),
                _ => trace.to_jsonl(),
            };
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("trace: {} events ({}) -> {path}", trace.events.len(), flags.trace_format);
        }
        if let Some(path) = &flags.metrics_out {
            let mut manifest = RunManifest::from_search(app_name.as_str(), &report, device);
            if grid != "default" {
                manifest = manifest.with_grid(grid.clone());
            }
            if let Some(st) = result_store {
                manifest = manifest.with_store(StoreSummary {
                    path: st.dir().display().to_string(),
                    generation: st.generation(),
                    records_loaded: st.records_loaded() as u64,
                    records_ignored: st.records_ignored() as u64,
                    records_dropped: st.records_dropped() as u64,
                    hits: report.stats.store_hits as u64,
                });
            }
            if let Err(e) = std::fs::write(path, manifest.to_json().to_string_pretty()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("manifest -> {path}");
        }
        if flags.profile {
            println!("\nprofile:\n{}", profile_table(&report.metrics));
        }
    }
    ExitCode::SUCCESS
}

/// `store verify <dir>`: audit a persistent result store without
/// loading it into an engine. Exit code is nonzero when the store
/// directory cannot be read at all; corrupt *records* are tolerated
/// (the loader's whole point) and only reported.
fn cmd_store(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("verify") => {
            let Some(dir) = args.get(1) else {
                eprintln!("store verify needs a directory");
                return ExitCode::FAILURE;
            };
            match store::verify(dir) {
                Ok(audit) => {
                    println!(
                        "store {dir}: {} segment{}, {} record{} ({} distinct key{}), \
                         {} ignored (key scheme other than {}), {} dropped, {} bytes",
                        audit.segments,
                        if audit.segments == 1 { "" } else { "s" },
                        audit.records,
                        if audit.records == 1 { "" } else { "s" },
                        audit.keys,
                        if audit.keys == 1 { "" } else { "s" },
                        audit.ignored,
                        KEY_SCHEME,
                        audit.dropped,
                        audit.bytes,
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("store {dir}: cannot verify: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("store needs a subcommand: verify <dir>");
            ExitCode::FAILURE
        }
    }
}

/// Read and parse a `--trace-out` JSONL file with the one strict trace
/// reader, [`parse_jsonl`].
fn read_trace(path: &str) -> Result<Vec<Rec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Check that every record of a `--trace-out` JSONL file is one this
/// build writes, and that a `--metrics-out` manifest parses and
/// survives a serialize → parse round trip. This is the in-process JSON
/// validator the check script uses (the container has no jq).
fn cmd_validate(args: &[String]) -> ExitCode {
    let (Some(trace_path), Some(manifest_path)) = (args.first(), args.get(1)) else {
        eprintln!("validate needs: <trace.jsonl> <manifest.json>");
        return ExitCode::FAILURE;
    };
    let events = match read_trace(trace_path) {
        Ok(recs) => recs.len(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest_text = match std::fs::read_to_string(manifest_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {manifest_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match RunManifest::parse_str(&manifest_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{manifest_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match RunManifest::parse_str(&manifest.to_json().to_string_pretty()) {
        Ok(back) if back == manifest => {}
        Ok(_) => {
            eprintln!("{manifest_path}: manifest does not round-trip losslessly");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("{manifest_path}: re-serialized manifest fails to parse: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "ok: {events} trace events, manifest `{}`/{} round-trips",
        manifest.app, manifest.strategy
    );
    ExitCode::SUCCESS
}

fn cmd_parse(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("parse needs a file path");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match gpu_autotune::ir::text::parse(&text) {
        Ok(kernel) => {
            let counts = gpu_autotune::ir::analysis::dynamic_counts(&kernel);
            let pressure = gpu_autotune::ir::analysis::register_pressure(&kernel);
            println!("kernel `{}` parsed:", kernel.name);
            println!("  static instructions:  {}", kernel.static_instr_count());
            println!("  dynamic instructions: {}", counts.instrs);
            println!("  blocking regions:     {}", counts.regions());
            println!("  registers/thread:     {}", pressure.regs_per_thread);
            println!("  shared mem/block:     {} B", kernel.smem_bytes);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `trace report <file.jsonl>`: the run's `--profile` table (its
/// `engine.metrics` and `engine.runtime` records), convergence table,
/// slowest candidates, and the quarantine/retry digest — entirely from
/// the trace file.
fn cmd_trace_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("trace report needs: <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let recs = match read_trace(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if recs.is_empty() {
        eprintln!("{path}: no trace events");
        return ExitCode::FAILURE;
    }
    match summarize(&recs, 5) {
        Ok(summary) => {
            print!("{}", format_summary(&summary));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One point of `app`'s `grid`, generated for the app's functional-test
/// problem so the trace is fast and real data flows through the kernel:
/// the kernel, its launch, initialized memory and parameters.
fn trace_input(
    app: &str,
    grid: &str,
    point: &Point,
) -> Result<(Kernel, Launch, DeviceMemory, Vec<i32>), String> {
    Ok(match (app, grid) {
        ("matmul", "fine") => {
            let a = MatMulFine { base: MatMul::test_problem() };
            let cfg = MatMulFine::config_of(point);
            let n = a.base.n;
            if !n.is_multiple_of(cfg.tile * cfg.rect) {
                return Err(format!(
                    "{cfg}: {t}x{t}/1x{r} blocks do not tile the {n}x{n} trace problem",
                    t = cfg.tile,
                    r = cfg.rect,
                ));
            }
            let (mem, params) = a.base.setup(1);
            (a.generate(&cfg), a.launch(&cfg), mem, params)
        }
        ("matmul", _) => {
            let (a, cfg) = (MatMul::test_problem(), MatMul::config_of(point));
            let (mem, params) = a.setup(1);
            (a.generate(&cfg), a.launch(&cfg), mem, params)
        }
        ("cp", _) => {
            let (a, cfg) = (Cp::test_problem(), Cp::config_of(point));
            let (mem, params) = a.setup(1);
            (a.generate(&cfg), a.launch(&cfg), mem, params)
        }
        ("sad", _) => {
            let (a, cfg) = (Sad::test_problem(), Sad::config_of(point));
            let trips = a.pos_trips(cfg.tpb);
            if !trips.is_multiple_of(cfg.pos_unroll) {
                return Err(format!(
                    "{cfg}: position unroll {} does not divide the trace problem's {trips} \
                     position trips",
                    cfg.pos_unroll
                ));
            }
            let (mem, params) = a.setup(1);
            (a.generate(&cfg), a.launch(&cfg), mem, params)
        }
        _ => {
            let (a, cfg) = (MriFhd::test_problem(), MriFhd::config_of(point));
            let (mem, mut params) = a.setup(1);
            params.push(0); // first invocation's constant offset
            (a.generate(&cfg), a.launch(&cfg), mem, params)
        }
    })
}

fn cmd_trace(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("report") {
        return cmd_trace_report(&args[1..]);
    }
    let (Some(app_name), Some(index)) = (args.first(), args.get(1)) else {
        eprintln!("trace needs: <app> <index> [N] [--grid default|fine]");
        return ExitCode::FAILURE;
    };
    // The optional count is the one argument `--grid` leaves unclaimed,
    // before or after the flag.
    let mut rest = Args::new(args[2..].to_vec());
    let read = rest.text("--grid", "a value (default|fine)").and_then(|grid| {
        let count = rest.positional().map_or(Ok(20), |n| {
            n.parse::<usize>().map_err(|_| format!("bad instruction count `{n}`"))
        });
        rest.finish()?;
        let grid = grid.unwrap_or_else(|| "default".into());
        Ok(((by_name(app_name, &grid)?, grid), count?))
    });
    let ((app, grid), limit) = match read {
        Ok(read) => read,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Ok(i) = index.parse::<usize>() else {
        eprintln!("bad index `{index}`");
        return ExitCode::FAILURE;
    };
    // The index is into the space `tune` and `inspect` use.
    let space = app.space();
    let Some(point) = space.points().nth(i) else {
        eprintln!("index {i} out of range (space has {} configurations)", space.len());
        return ExitCode::FAILURE;
    };
    let (kernel, launch, mut mem, params) = match trace_input(app_name, &grid, &point) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = gpu_autotune::ir::linear::linearize(&kernel);
    match gpu_autotune::sim::trace::trace_kernel(&prog, &launch, &params, &mut mem, limit) {
        Ok(t) => {
            println!("configuration: {point}");
            println!("{}", t.head(limit));
            if t.truncated {
                println!("... ({} instructions total)", t.summary.retired);
            }
            let s = &t.summary;
            println!(
                "
retired {} instrs, {} barriers, loads g/s/c/t/l = {:?}, stores = {:?}",
                s.retired, s.barriers, s.loads, s.stores
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_occupancy(args: &[String]) -> ExitCode {
    let (Some(regs), Some(smem)) = (
        args.first().and_then(|s| s.parse::<u32>().ok()),
        args.get(1).and_then(|s| s.parse::<u32>().ok()),
    ) else {
        eprintln!("occupancy needs: <regs-per-thread> <smem-bytes-per-block>");
        return ExitCode::FAILURE;
    };
    let spec = MachineSpec::geforce_8800_gtx();
    let mut rows = vec![vec![
        "threads/block".to_string(),
        "blocks/SM".to_string(),
        "warps/SM".to_string(),
        "occupancy".to_string(),
        "limited by".to_string(),
    ]];
    for r in gpu_autotune::arch::occupancy_table(&spec, regs, smem) {
        rows.push(vec![
            r.threads_per_block.to_string(),
            r.blocks_per_sm.to_string(),
            r.warps_per_sm.to_string(),
            format!("{:.0}%", r.occupancy * 100.0),
            match r.limited_by {
                Some(f) => format!("{f:?}"),
                None => "INVALID".to_string(),
            },
        ]);
    }
    println!("{}", table(&rows));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spaces") => cmd_spaces(),
        Some("devices") => cmd_devices(),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("parse") => cmd_parse(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("occupancy") => cmd_occupancy(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
