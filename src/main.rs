//! `gpu-autotune` — command-line front end.
//!
//! ```text
//! gpu-autotune spaces                       list the apps and their spaces
//! gpu-autotune devices                      list the machine models
//! gpu-autotune inspect <app> <index>        static profile of one config
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
//!     --eager                               materialize all candidates up front
//!     --trace-out <path>                    write the event trace
//!     --trace-format jsonl|chrome           trace format (default jsonl);
//!                                           chrome loads in Perfetto
//!     --metrics-out <path>                  write the run manifest as JSON
//!     --profile                             print the profile summary table
//!     --store-dir <dir>                     persistent result store (crash-safe)
//!     --checkpoint <path>                   write resumable checkpoints (any strategy)
//!     --checkpoint-every N                  units between checkpoints (default 64)
//!     --resume <path>                       resume an interrupted checkpointed run
//!     --stop-after-units N                  deterministic stop for testing resume
//! gpu-autotune store verify <dir>           audit a result store's segments
//! gpu-autotune parse <file.gik>             analyse a textual kernel
//! gpu-autotune validate <t.jsonl> <m.json>  check trace/manifest files parse
//! gpu-autotune trace report <t.jsonl>       analyse a recorded trace:
//!                                           convergence, phases, utilization
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::kernels::{
    cp::Cp,
    matmul::{MatMul, MatMulFine},
    mri_fhd::MriFhd,
    sad::Sad,
    App, AppInstantiator, SpaceSource,
};
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::optspace::engine::{
    checkpoint, install_signal_handler, store, CheckpointMeta, Checkpointer, EngineConfig,
    EvalBudget, EvalEngine, FaultPlan, ResultStore, RetryPolicy, DEFAULT_CHECKPOINT_EVERY,
};
use gpu_autotune::optspace::obs::StoreSummary;
use gpu_autotune::optspace::obs::{
    chrome_trace, format_summary, json, parse_jsonl, summarize, EventSink, RunManifest,
    TRACE_SCHEMA,
};
use gpu_autotune::optspace::report::{fmt_ms, profile_table, table};
use gpu_autotune::optspace::tuner::{
    run_iterative, BranchAndBound, ExhaustiveSearch, PrunedSearch, RandomSearch, SearchReport,
    SearchStrategy,
};
use gpu_autotune::optspace::zoo;
use gpu_autotune::optspace::{Filter, Sample, Selection};

const USAGE: &str = "\
usage: gpu-autotune <command> [args]

commands:
  spaces                      list applications and configuration-space sizes
  devices                     list machine models
  inspect <app> <index>       static profile + PTX view of one configuration
  tune <app> [--strategy exhaustive|pareto|random|bnb|hill|anneal|genetic|surrogate]
             [--budget N] [--seed S]
             [--grid default|fine] [--device g80|gt200] [--no-screen] [--jobs N]
             [--max-sims N] [--deadline-ms X] [--sim-fuel N] [--check-races]
             [--retries N] [--inject-faults] [--fault-seed N]
             [--filter axis=value]... [--sample N] [--sample-seed S] [--eager]
             [--trace-out <path>] [--trace-format jsonl|chrome]
             [--metrics-out <path>] [--profile]
             [--store-dir <dir>] [--checkpoint <path>] [--checkpoint-every N]
             [--resume <path>] [--stop-after-units N]
  store verify <dir>          audit a persistent result store: segments,
                              records, and corrupt records dropped
  parse <file>                parse a textual kernel and print its analyses
  validate <trace> <manifest> check a --trace-out JSONL file parses and a
                              --metrics-out manifest round-trips
  trace <app> <index> [N]     trace the first N instructions (default 20) of
                              one thread of a configuration, on real data
  trace report <file.jsonl>   analyse a recorded --trace-out trace: convergence
                              table, phase breakdown, worker utilization,
                              slowest candidates, quarantine/retry digest
  occupancy <regs> <smem>     the occupancy-calculator table for a kernel
                              using <regs> registers/thread and <smem> B/block

apps: matmul | cp | sad | mri";

fn app_by_name(name: &str) -> Option<Box<dyn App>> {
    match name {
        "matmul" => Some(Box::new(MatMul::reduced_problem())),
        "cp" => Some(Box::new(Cp::paper_problem())),
        "sad" => Some(Box::new(Sad::paper_problem())),
        "mri" => Some(Box::new(MriFhd::paper_problem())),
        _ => None,
    }
}

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
    for key in ["matmul", "cp", "sad", "mri"] {
        let app = app_by_name(key).expect("known key");
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
        eprintln!("inspect needs: <app> <index>");
        return ExitCode::FAILURE;
    };
    let Some(app) = app_by_name(app_name) else {
        eprintln!("unknown app `{app_name}` (matmul|cp|sad|mri)");
        return ExitCode::FAILURE;
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
        r.stats.jobs,
        if r.stats.jobs == 1 { "" } else { "s" },
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

/// Check that `path` could plausibly be created: its parent directory
/// must already exist. Catches `--trace-out /no/such/dir/t.jsonl`
/// before a long search runs, not after.
fn writable_parent(path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        None => Ok(()),
        Some(parent) if parent.as_os_str().is_empty() || parent.is_dir() => Ok(()),
        Some(parent) => Err(format!(
            "cannot write {path}: parent directory `{}` does not exist",
            parent.display()
        )),
    }
}

fn cmd_tune(args: &[String]) -> ExitCode {
    let Some(app_name) = args.first() else {
        eprintln!("tune needs an app (matmul|cp|sad|mri)");
        return ExitCode::FAILURE;
    };
    if app_by_name(app_name).is_none() {
        eprintln!("unknown app `{app_name}` (matmul|cp|sad|mri)");
        return ExitCode::FAILURE;
    }
    let mut strategy = "pareto".to_string();
    let mut grid = "default".to_string();
    let mut budget = 10usize;
    let mut seed = 0u64;
    let mut device = MachineSpec::geforce_8800_gtx();
    let mut screen = true;
    let mut jobs = 1usize;
    let mut eval_budget = EvalBudget::UNLIMITED;
    let mut sim_fuel: Option<u64> = None;
    let mut check_races = false;
    let mut retry = RetryPolicy::default();
    let mut inject = false;
    let mut fault_seed: Option<u64> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_format = "jsonl".to_string();
    let mut metrics_out: Option<String> = None;
    let mut profile = false;
    let mut filters: Vec<Filter> = Vec::new();
    let mut sample: Option<usize> = None;
    let mut sample_seed: Option<u64> = None;
    let mut eager = false;
    let mut store_dir: Option<String> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut checkpoint_every = DEFAULT_CHECKPOINT_EVERY;
    let mut resume_path: Option<String> = None;
    let mut stop_after: Option<usize> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strategy" => match it.next() {
                Some(s) => strategy = s.clone(),
                None => {
                    eprintln!("--strategy needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--grid" => match it.next() {
                Some(g) => grid = g.clone(),
                None => {
                    eprintln!("--grid needs a value (default|fine)");
                    return ExitCode::FAILURE;
                }
            },
            "--budget" => match it.next().and_then(|s| s.parse().ok()) {
                Some(b) if b >= 1 => budget = b,
                _ => {
                    eprintln!("--budget needs a number >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--device" => match it.next().and_then(|s| device_by_name(s)) {
                Some(d) => device = d,
                None => {
                    eprintln!("--device needs g80|gt200");
                    return ExitCode::FAILURE;
                }
            },
            "--no-screen" => screen = false,
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(j) if j >= 1 => jobs = j,
                _ => {
                    eprintln!("--jobs needs a number >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--max-sims" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => eval_budget.max_sims = Some(n),
                None => {
                    eprintln!("--max-sims needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(ms) if ms > 0.0 => eval_budget.deadline_ms = Some(ms),
                _ => {
                    eprintln!("--deadline-ms needs a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--sim-fuel" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) if f > 0 => sim_fuel = Some(f),
                _ => {
                    eprintln!("--sim-fuel needs a positive number of steps");
                    return ExitCode::FAILURE;
                }
            },
            "--check-races" => check_races = true,
            "--retries" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => retry.max_attempts = n,
                _ => {
                    eprintln!("--retries needs a number >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--inject-faults" => inject = true,
            "--fault-seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => fault_seed = Some(s),
                None => {
                    eprintln!("--fault-seed needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => {
                    eprintln!("--trace-out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-format" => match it.next().map(String::as_str) {
                Some(f @ ("jsonl" | "chrome")) => trace_format = f.to_string(),
                _ => {
                    eprintln!("--trace-format needs jsonl|chrome");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p.clone()),
                None => {
                    eprintln!("--metrics-out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => profile = true,
            "--filter" => match it.next().map(|s| Filter::parse(s)) {
                Some(Ok(f)) => filters.push(f),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--filter needs axis=value");
                    return ExitCode::FAILURE;
                }
            },
            "--sample" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => sample = Some(n),
                _ => {
                    eprintln!("--sample needs a number >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--sample-seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => sample_seed = Some(s),
                None => {
                    eprintln!("--sample-seed needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--eager" => eager = true,
            "--store-dir" => match it.next() {
                Some(d) => store_dir = Some(d.clone()),
                None => {
                    eprintln!("--store-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint" => match it.next() {
                Some(p) => checkpoint_path = Some(p.clone()),
                None => {
                    eprintln!("--checkpoint needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-every" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => checkpoint_every = n,
                _ => {
                    eprintln!("--checkpoint-every needs a number >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match it.next() {
                Some(p) => resume_path = Some(p.clone()),
                None => {
                    eprintln!("--resume needs a checkpoint path");
                    return ExitCode::FAILURE;
                }
            },
            "--stop-after-units" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => stop_after = Some(n),
                _ => {
                    eprintln!("--stop-after-units needs a number >= 1");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if sample_seed.is_some() && sample.is_none() {
        eprintln!("--sample-seed requires --sample");
        return ExitCode::FAILURE;
    }
    if stop_after.is_some() && checkpoint_path.is_none() && resume_path.is_none() {
        eprintln!("--stop-after-units requires --checkpoint or --resume");
        return ExitCode::FAILURE;
    }
    // A resumed run keeps checkpointing to the file it resumed from
    // unless an explicit --checkpoint redirects it.
    if checkpoint_path.is_none() {
        checkpoint_path = resume_path.clone();
    }
    // Fail on unusable export destinations *before* the search spends
    // minutes computing results those paths were meant to receive.
    for path in [&trace_out, &metrics_out, &checkpoint_path].into_iter().flatten() {
        if let Err(e) = writable_parent(path) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let app: Box<dyn App> = match (app_name.as_str(), grid.as_str()) {
        (_, "default") => app_by_name(app_name).expect("validated above"),
        ("matmul", "fine") => Box::new(MatMulFine::reduced_problem()),
        (other, "fine") => {
            eprintln!("app `{other}` declares no fine grid (only matmul does)");
            return ExitCode::FAILURE;
        }
        (_, other) => {
            eprintln!("unknown grid `{other}` (default|fine)");
            return ExitCode::FAILURE;
        }
    };
    let space = app.space();
    let one_shot: Option<Box<dyn SearchStrategy>> = match strategy.as_str() {
        "exhaustive" => Some(Box::new(ExhaustiveSearch)),
        "pareto" => Some(Box::new(PrunedSearch { screen_bandwidth: screen, ..Default::default() })),
        "random" => Some(Box::new(RandomSearch::new(budget, seed))),
        _ => None,
    };
    let iterative = zoo::by_name(&strategy, &space, budget, seed);
    // What a checkpoint must match to be resumed: the name the report
    // prints (it carries budget and seed), plus pareto's screening
    // choice, which that name does not show.
    let identity = match (&one_shot, &iterative) {
        (Some(s), _) if strategy == "pareto" && !screen => format!("{}-noscreen", s.name()),
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
    let selection = Selection {
        filters,
        sample: sample.map(|count| Sample { count, seed: sample_seed.unwrap_or(0) }),
    };
    let fault_plan = match (inject, fault_seed) {
        (false, None) => None,
        (false, Some(_)) => {
            eprintln!("--fault-seed requires --inject-faults");
            return ExitCode::FAILURE;
        }
        (true, None) => Some(FaultPlan::default()),
        (true, Some(seed)) => Some(FaultPlan::with_seed(seed)),
    };
    let mut engine = EvalEngine::new(EngineConfig {
        jobs,
        budget: eval_budget,
        retry,
        sim_fuel,
        fault_plan,
        check_races,
    });
    // Observation is opt-in: the sink only exists when some exporter
    // will consume it.
    let sink = if trace_out.is_some() || metrics_out.is_some() || profile {
        let sink = Arc::new(EventSink::new());
        engine = engine.with_sink(Arc::clone(&sink));
        Some(sink)
    } else {
        None
    };

    // Durable-tuning plumbing. All status chatter goes to stderr so a
    // resumed run's stdout stays byte-identical to an uninterrupted
    // one.
    let result_store = match &store_dir {
        Some(dir) => match ResultStore::open(dir) {
            Ok(st) => {
                let st = Arc::new(st);
                eprintln!(
                    "result store {dir}: {} records loaded, {} dropped (generation {})",
                    st.records_loaded(),
                    st.records_dropped(),
                    st.generation(),
                );
                engine = engine.with_store(Arc::clone(&st));
                Some(st)
            }
            Err(e) => {
                eprintln!("cannot open result store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let meta = CheckpointMeta::new(
        app_name,
        &identity,
        (grid != "default").then_some(grid.as_str()),
        &space,
    );
    let checkpointer = match &checkpoint_path {
        Some(path) => {
            let mut ck = Checkpointer::new(path.clone(), checkpoint_every, meta.clone());
            if let Some(n) = stop_after {
                ck = ck.with_stop_after(n);
            }
            if let Some(resume) = &resume_path {
                let loaded = match checkpoint::load(resume) {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("--resume: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if loaded.meta != meta {
                    eprintln!(
                        "--resume {resume}: checkpoint belongs to a different run \
                         (app/strategy/settings/grid/space mismatch); refusing to replay it"
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "resume {resume}: {} units done, {} results restored",
                    loaded.units_done,
                    loaded.results.len(),
                );
                ck.seed(&loaded.results);
                engine = engine.with_replay(Arc::new(loaded.results));
            }
            let ck = Arc::new(ck);
            engine = engine.with_checkpoint(Arc::clone(&ck));
            install_signal_handler();
            Some(ck)
        }
        None => None,
    };

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
    let source = SpaceSource::new(app.as_ref(), points);
    let labels = source.labels();
    let report = if strategy == "bnb" {
        // Branch-and-bound searches the *space*, not a point list: it
        // decides which subspaces ever reach instantiation, so eager
        // materialization and up-front narrowing contradict it.
        if !selection.is_noop() {
            eprintln!("--strategy bnb searches the full space; drop --filter/--sample");
            return ExitCode::FAILURE;
        }
        if eager {
            eprintln!("--strategy bnb instantiates lazily by design; drop --eager");
            return ExitCode::FAILURE;
        }
        BranchAndBound.run_space(&engine, &space, &AppInstantiator(app.as_ref()), &device)
    } else if let Some(mut searcher) = iterative {
        // Iterative zoo strategies walk the declared axis grid, so the
        // dense candidate indices they propose must line up with the
        // full space — no up-front narrowing.
        if !selection.is_noop() {
            eprintln!("--strategy {strategy} searches the full space; drop --filter/--sample");
            return ExitCode::FAILURE;
        }
        if eager {
            let cands: Vec<Candidate> =
                source.points().iter().map(|p| app.instantiate(p)).collect();
            run_iterative(searcher.as_mut(), &engine, &cands, &device)
        } else {
            run_iterative(searcher.as_mut(), &engine, &source, &device)
        }
    } else {
        let searcher = one_shot.expect("strategy resolved above");
        let mut report = if eager {
            // Materialize every candidate up front — the reference path
            // the lazy default is pinned against.
            let cands: Vec<Candidate> =
                source.points().iter().map(|p| app.instantiate(p)).collect();
            searcher.run_source(&engine, &cands, &device)
        } else {
            searcher.run_source(&engine, &source, &device)
        };
        if !selection.is_noop() {
            report.selection = Some(selection.record(labels.len()));
        }
        report
    };
    // An interrupted (or stop-after-tripped) run publishes its final
    // checkpoint and exits 130 without printing a report: the partial
    // results live in the checkpoint, not on stdout.
    if let Some(ck) = &checkpointer {
        if ck.should_stop() {
            if let Some(st) = &result_store {
                if let Err(e) = st.sync() {
                    eprintln!("result store {}: sync failed: {e}", st.dir().display());
                }
            }
            return match ck.write_now() {
                Ok(()) => {
                    eprintln!(
                        "interrupted after {} units: checkpoint -> {}; continue with \
                         --resume {1}",
                        ck.units_done(),
                        ck.path().display(),
                    );
                    ExitCode::from(130)
                }
                Err(e) => {
                    eprintln!("cannot write checkpoint {}: {e}", ck.path().display());
                    ExitCode::FAILURE
                }
            };
        }
    }
    print_search(&labels, &report);
    if let Some(st) = &result_store {
        if let Err(e) = st.sync() {
            eprintln!("result store {}: sync failed: {e}", st.dir().display());
        }
    }
    if let Some(ck) = &checkpointer {
        // The run completed: the checkpoint has served its purpose and
        // a later unrelated run must not accidentally resume from it.
        match std::fs::remove_file(ck.path()) {
            Ok(()) => eprintln!("run complete: checkpoint {} removed", ck.path().display()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!("cannot remove checkpoint {}: {e}", ck.path().display()),
        }
    }
    if let Some(sink) = sink {
        let trace = sink.drain();
        if let Some(path) = trace_out {
            let text = match trace_format.as_str() {
                "chrome" => chrome_trace(&trace).to_string_pretty(),
                _ => trace.to_jsonl(),
            };
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("trace: {} events ({trace_format}) -> {path}", trace.events.len());
        }
        if let Some(path) = metrics_out {
            let mut manifest = RunManifest::from_search(app_name.as_str(), &report, &device);
            if grid != "default" {
                manifest = manifest.with_grid(grid.clone());
            }
            if let Some(st) = &result_store {
                manifest = manifest.with_store(StoreSummary {
                    path: st.dir().display().to_string(),
                    generation: st.generation(),
                    records_loaded: st.records_loaded() as u64,
                    records_dropped: st.records_dropped() as u64,
                    hits: report.stats.store_hits as u64,
                });
            }
            if let Err(e) = std::fs::write(&path, manifest.to_json().to_string_pretty()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("manifest -> {path}");
        }
        if profile {
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
                         {} dropped, {} bytes",
                        audit.segments,
                        if audit.segments == 1 { "" } else { "s" },
                        audit.records,
                        if audit.records == 1 { "" } else { "s" },
                        audit.keys,
                        if audit.keys == 1 { "" } else { "s" },
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

/// Check that a `--trace-out` JSONL file parses line by line and that a
/// `--metrics-out` manifest parses and survives a serialize → parse
/// round trip. This is the in-process JSON validator the check script
/// uses (the container has no jq).
fn cmd_validate(args: &[String]) -> ExitCode {
    let (Some(trace_path), Some(manifest_path)) = (args.first(), args.get(1)) else {
        eprintln!("validate needs: <trace.jsonl> <manifest.json>");
        return ExitCode::FAILURE;
    };
    let trace_text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut events = 0usize;
    for (n, line) in trace_text.lines().enumerate() {
        let j = match json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("{trace_path}:{}: {e}", n + 1);
                return ExitCode::FAILURE;
            }
        };
        for key in ["schema", "seq", "ts_us", "thread", "scope", "kind", "name", "fields"] {
            if j.get(key).is_none() {
                eprintln!("{trace_path}:{}: event missing `{key}`", n + 1);
                return ExitCode::FAILURE;
            }
        }
        match j.get("schema").and_then(json::Json::as_u64) {
            Some(TRACE_SCHEMA) => {}
            Some(s) => {
                eprintln!(
                    "{trace_path}:{}: unsupported trace schema {s} (this build writes \
                     schema {TRACE_SCHEMA})",
                    n + 1
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("{trace_path}:{}: `schema` is not a number", n + 1);
                return ExitCode::FAILURE;
            }
        }
        events += 1;
    }
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

/// `trace report <file.jsonl>`: reconstruct the time-resolved story of
/// a recorded `--trace-out` run — convergence table, per-phase wall
/// breakdown, worker utilization, slowest candidates, and the
/// quarantine/retry digest — entirely from the trace file.
fn cmd_trace_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("trace report needs: <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recs = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if recs.is_empty() {
        eprintln!("{path}: no trace events");
        return ExitCode::FAILURE;
    }
    print!("{}", format_summary(&summarize(&recs, 5)));
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("report") {
        return cmd_trace_report(&args[1..]);
    }
    let (Some(app_name), Some(index)) = (args.first(), args.get(1)) else {
        eprintln!("trace needs: <app> <index> [N]");
        return ExitCode::FAILURE;
    };
    let limit: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);
    // Trace on the functional-test problem sizes so the run is fast and
    // real data flows through the kernel.
    enum Traced {
        M(gpu_autotune::kernels::matmul::MatMul),
        C(gpu_autotune::kernels::cp::Cp),
        S(gpu_autotune::kernels::sad::Sad),
        R(gpu_autotune::kernels::mri_fhd::MriFhd),
    }
    let app = match app_name.as_str() {
        "matmul" => Traced::M(gpu_autotune::kernels::matmul::MatMul::test_problem()),
        "cp" => Traced::C(gpu_autotune::kernels::cp::Cp::test_problem()),
        "sad" => Traced::S(gpu_autotune::kernels::sad::Sad::test_problem()),
        "mri" => Traced::R(gpu_autotune::kernels::mri_fhd::MriFhd::test_problem()),
        other => {
            eprintln!("unknown app `{other}` (matmul|cp|sad|mri)");
            return ExitCode::FAILURE;
        }
    };
    let Ok(i) = index.parse::<usize>() else {
        eprintln!("bad index `{index}`");
        return ExitCode::FAILURE;
    };
    let (kernel, launch, mut mem, params) = match &app {
        Traced::M(a) => {
            let space = a.configs();
            let Some(cfg) = space.get(i) else {
                eprintln!("index {i} out of range ({} configs)", space.len());
                return ExitCode::FAILURE;
            };
            let (mem, params) = a.setup(1);
            (a.generate(cfg), a.launch(cfg), mem, params)
        }
        Traced::C(a) => {
            let space = a.configs();
            let Some(cfg) = space.get(i) else {
                eprintln!("index {i} out of range ({} configs)", space.len());
                return ExitCode::FAILURE;
            };
            let (mem, params) = a.setup(1);
            (a.generate(cfg), a.launch(cfg), mem, params)
        }
        Traced::S(a) => {
            let space = a.configs();
            let Some(cfg) = space.get(i) else {
                eprintln!("index {i} out of range ({} configs)", space.len());
                return ExitCode::FAILURE;
            };
            let (mem, params) = a.setup(1);
            (a.generate(cfg), a.launch(cfg), mem, params)
        }
        Traced::R(a) => {
            let space = a.configs();
            let Some(cfg) = space.get(i) else {
                eprintln!("index {i} out of range ({} configs)", space.len());
                return ExitCode::FAILURE;
            };
            let (mem, mut params) = a.setup(1);
            params.push(0); // first invocation's constant offset
            (a.generate(cfg), a.launch(cfg), mem, params)
        }
    };
    let prog = gpu_autotune::ir::linear::linearize(&kernel);
    match gpu_autotune::sim::trace::trace_kernel(
        &prog,
        &launch,
        &params,
        &mut mem,
        (0, 0),
        (0, 0),
        limit,
    ) {
        Ok(t) => {
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
