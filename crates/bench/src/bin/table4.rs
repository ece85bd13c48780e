//! Table 4: parameter-search properties per application — space size,
//! exhaustive evaluation time, Pareto-selected configuration count,
//! space reduction, and selected evaluation time.
//!
//! Paper shape to check: the pruned search times a small fraction of
//! each space (74–98 % reduction in the paper) and still finds the
//! configuration exhaustive search finds.
//!
//! `--verbose` attaches an event sink and prints each quarantined
//! candidate's error kind as recorded in the trace.

use std::sync::Arc;

use gpu_arch::MachineSpec;
use optspace::cli;
use optspace::obs::{EventSink, Json};
use optspace::report::{fmt_ms, table};
use optspace_bench::{compare_selected, suite};

/// Look up one field of a trace event.
fn field<'a>(fields: &'a [(&'static str, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn main() {
    let (verbose, selection, engines) = cli::parse_env(|args| {
        Ok((args.switch("--verbose"), args.selection()?, args.engine_flags()?))
    });
    if !selection.is_noop() {
        println!("selection: {selection} (applied per app; unknown axes ignored)");
    }
    let spec = MachineSpec::geforce_8800_gtx();
    let mut rows = vec![vec![
        "Kernel".to_string(),
        "Configs".to_string(),
        "Valid".to_string(),
        "Eval Time".to_string(),
        "Selected".to_string(),
        "Reduction".to_string(),
        "Sel. Eval Time".to_string(),
        "Optimum found".to_string(),
    ]];
    let mut quarantined = 0usize;
    let mut kind_lines: Vec<String> = Vec::new();
    for app in suite() {
        let mut engine = engines.engine();
        let sink = if verbose {
            let sink = Arc::new(EventSink::new());
            engine = engine.with_sink(Arc::clone(&sink));
            Some(sink)
        } else {
            None
        };
        let c = compare_selected(app.as_ref(), &spec, &engine, &selection);
        quarantined += c.exhaustive.quarantined_count() + c.pruned.quarantined_count();
        if let Some(sink) = sink {
            // Per-candidate error kinds, straight from the trace the
            // engine emitted (not re-derived from the reports).
            let trace = sink.drain();
            for event in trace.named("quarantine") {
                let s = |k: &str| {
                    field(&event.fields, k).and_then(Json::as_str).unwrap_or("?").to_string()
                };
                let n =
                    |k: &str| field(&event.fields, k).and_then(Json::as_u64).unwrap_or_default();
                kind_lines.push(format!(
                    "  {} #{} {}: {} ({} phase, attempt {})",
                    c.name,
                    n("candidate"),
                    s("label"),
                    s("kind"),
                    s("phase"),
                    n("attempts"),
                ));
            }
        }
        rows.push(vec![
            c.name.to_string(),
            c.exhaustive.space_size.to_string(),
            c.exhaustive.valid_count().to_string(),
            fmt_ms(c.exhaustive.evaluation_time_ms()),
            c.pruned.evaluated_count().to_string(),
            format!("{:.0}%", c.pruned.space_reduction() * 100.0),
            fmt_ms(c.pruned.evaluation_time_ms()),
            if c.found_optimum() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table(&rows));
    if verbose && !kind_lines.is_empty() {
        println!("quarantined error kinds (from trace):");
        for line in &kind_lines {
            println!("{line}");
        }
    }
    println!("quarantined configurations: {quarantined}");
}
