//! A fixed-size worker pool over scoped `std::thread`s.
//!
//! The engine's workloads are embarrassingly parallel maps over an index
//! range, so the pool is exactly that: `jobs` scoped threads claim
//! indices from a shared atomic counter, run the closure on each, and
//! send `(index, result)` back over an `mpsc` channel. Results are put
//! back **by index**, so the output order — and therefore every report
//! built from it — is independent of worker scheduling.
//!
//! Unlike a plain map, the pool never lets one bad index take the
//! process down: each call runs under `catch_unwind`, so a panic costs
//! its index (an [`PoolError::Panicked`] in its slot) and never the
//! worker. A worker thread that dies anyway leaves the index it held as
//! [`PoolError::WorkerLost`]; the other workers claim the rest, so the
//! map always completes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use crate::obs::{EventKind, EventSink, Json};

/// Why an index has no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The closure panicked on this index; the payload message.
    Panicked(String),
    /// The worker holding this index died without reporting a result.
    WorkerLost,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            Self::WorkerLost => write!(f, "worker lost before reporting a result"),
        }
    }
}

/// Render a `catch_unwind` payload as the panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f(i)` under `catch_unwind`, reporting its wall time to the sink
/// as a runtime `pool.item` event and busy-time accounting.
fn run_item<T, F>(f: &F, i: usize, sink: Option<&EventSink>, phase: &str) -> Result<T, PoolError>
where
    F: Fn(usize) -> T + Sync,
{
    let started = Instant::now();
    let item =
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| PoolError::Panicked(panic_message(p)));
    if let Some(sink) = sink {
        let wall_us = started.elapsed().as_micros() as u64;
        sink.add_busy_us(wall_us);
        sink.runtime(
            EventKind::Point,
            "pool.item",
            vec![
                ("phase", Json::from(phase)),
                ("index", Json::from(i)),
                ("wall_us", Json::from(wall_us)),
            ],
        );
    }
    item
}

/// Evaluate `f(0..n)` on `jobs` worker threads and return the results in
/// index order. `jobs <= 1` runs inline on the calling thread with no
/// thread overhead — the strictly sequential reference path.
///
/// A panicking index yields `Err(PoolError::Panicked)` in its slot; all
/// other indices are unaffected. With a `sink`, per-item wall times,
/// worker busy time and worker spawns flow into it as runtime-scope
/// records tagged with `phase`; observation never changes the results.
pub fn run_indexed<T, F>(
    jobs: usize,
    n: usize,
    f: F,
    sink: Option<&EventSink>,
    phase: &'static str,
) -> Vec<Result<T, PoolError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(|i| run_item(&f, i, sink, phase)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let mut out: Vec<Option<Result<T, PoolError>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|worker| {
                if let Some(sink) = sink {
                    sink.note_spawn();
                    sink.runtime(
                        EventKind::Point,
                        "pool.spawn",
                        vec![("phase", Json::from(phase)), ("worker", Json::from(worker))],
                    );
                }
                let (tx, next, f) = (tx.clone(), &next, &f);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let _ = tx.send((i, run_item(f, i, sink, phase)));
                })
            })
            .collect();
        drop(tx);
        // Ends once every worker has exited, however it exited.
        for (i, item) in rx {
            out[i] = Some(item);
        }
        // Joined by hand, so a worker that died does not take the pool
        // down with it.
        for worker in workers {
            let _ = worker.join();
        }
    });
    out.into_iter().map(|v| v.unwrap_or(Err(PoolError::WorkerLost))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oks<T>(v: Vec<Result<T, PoolError>>) -> Vec<T> {
        v.into_iter().map(|r| r.expect("no faults induced")).collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 8] {
            let got = oks(run_indexed(jobs, 100, |i| i * i, None, "test"));
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(oks(run_indexed(4, 0, |i| i, None, "test")), Vec::<usize>::new());
        assert_eq!(oks(run_indexed(4, 1, |i| i + 10, None, "test")), vec![10]);
    }

    #[test]
    fn every_index_is_evaluated_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let calls: Vec<AtomicU32> = (0..57).map(|_| AtomicU32::new(0)).collect();
        run_indexed(3, 57, |i| calls[i].fetch_add(1, Ordering::Relaxed), None, "test");
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_panicking_index_is_isolated_and_costs_no_worker() {
        for jobs in [1usize, 2, 4] {
            let sink = EventSink::new();
            let got = run_indexed(
                jobs,
                10,
                |i| {
                    if i == 3 {
                        panic!("boom at {i}");
                    }
                    i * 2
                },
                Some(&sink),
                "test",
            );
            for (i, r) in got.iter().enumerate() {
                if i == 3 {
                    assert_eq!(r, &Err(PoolError::Panicked("boom at 3".into())), "jobs={jobs}");
                } else {
                    assert_eq!(r, &Ok(i * 2), "jobs={jobs}");
                }
            }
            // The panic is caught inside the worker, which goes on to
            // claim further indices: no worker beyond the first `jobs`
            // (none at all inline).
            let spawned = if jobs > 1 { jobs as u64 } else { 0 };
            assert_eq!(sink.runtime_counters().workers_spawned, spawned, "jobs={jobs}");
        }
    }

    #[test]
    fn observation_reports_items_and_spawns_without_changing_results() {
        for jobs in [1usize, 4] {
            let sink = EventSink::new();
            let got = oks(run_indexed(jobs, 20, |i| i * 3, Some(&sink), "timing"));
            assert_eq!(got, (0..20).map(|i| i * 3).collect::<Vec<_>>(), "jobs = {jobs}");
            let trace = sink.drain();
            assert_eq!(trace.named("pool.item").len(), 20, "jobs = {jobs}");
            let counters = sink.runtime_counters();
            if jobs > 1 {
                assert_eq!(trace.named("pool.spawn").len(), jobs);
                assert_eq!(counters.workers_spawned, jobs as u64);
            } else {
                // The inline path spawns nothing.
                assert!(trace.named("pool.spawn").is_empty());
            }
            // Every item event is runtime-scope: the canonical trace
            // stays empty.
            assert!(trace.canonical_lines().is_empty(), "jobs = {jobs}");
        }
    }
}
