//! The event sink: a lock-cheap, thread-safe collector of trace events
//! plus a handful of atomic runtime counters.
//!
//! Workers append to one of a fixed set of mutex-protected shards chosen
//! by thread tag, so concurrent emitters almost never contend on one
//! lock; the single-threaded orchestrator pays one uncontended lock per
//! event. [`EventSink::drain`] merges the shards back into global
//! `seq` order as a [`Trace`].
//!
//! Runtime aggregates that would be wasteful as individual events —
//! worker busy time, per-phase wall time, spawn counts — accumulate in
//! plain atomics and surface through [`RuntimeCounters`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use super::event::{Event, EventKind, Scope};
use super::json::Json;
use super::metrics::{Histogram, HIST_BUCKETS};

const SHARDS: usize = 16;

/// Process-global small-integer thread tags: the first thread to emit
/// gets 0, the next 1, and so on.
fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// Which engine phase a wall-time or busy-time sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Static evaluation (metrics + occupancy).
    Static,
    /// Timing simulation.
    Timing,
}

impl Phase {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Static => "static",
            Self::Timing => "timing",
        }
    }
}

/// A latency histogram lane in the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyLane {
    /// Wall time of one executed simulation unit.
    Sim,
    /// Wall time of one memo-cache key computation (the exact and class
    /// keys in one walk), recorded on the pool worker that linearizes
    /// the candidate. The sequential dedup lookup itself is not timed.
    CacheLookup,
    /// Wall time of one persistent-store read or flush.
    StoreIo,
    /// Wall time of one program decode (arena build or cached-arena
    /// rebind) in the dedup pass.
    Decode,
}

const LANES: usize = 4;

/// Snapshot of the sink's atomic runtime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeCounters {
    /// Wall time spent in static evaluation (orchestrator clock), µs.
    pub static_wall_us: u64,
    /// Wall time spent in timing simulation (orchestrator clock), µs.
    pub timing_wall_us: u64,
    /// Summed per-item worker busy time across both phases, µs.
    pub worker_busy_us: u64,
    /// Worker threads spawned.
    pub workers_spawned: u64,
    /// Latency histogram of [`LatencyLane::Sim`].
    pub sim_duration_hist: Histogram,
    /// Latency histogram of [`LatencyLane::CacheLookup`].
    pub cache_lookup_hist: Histogram,
    /// Latency histogram of [`LatencyLane::StoreIo`].
    pub store_io_hist: Histogram,
    /// Latency histogram of [`LatencyLane::Decode`].
    pub decode_hist: Histogram,
}

/// The shared event sink. Cheap to clone behind an `Arc`; all methods
/// take `&self`.
#[derive(Debug)]
pub struct EventSink {
    origin: Instant,
    seq: AtomicU64,
    shards: [Mutex<Vec<Event>>; SHARDS],
    static_wall_us: AtomicU64,
    timing_wall_us: AtomicU64,
    worker_busy_us: AtomicU64,
    workers_spawned: AtomicU64,
    latency: [[AtomicU64; HIST_BUCKETS]; LANES],
}

impl Default for EventSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink {
    /// A fresh, empty sink; timestamps are relative to this moment.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            seq: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            static_wall_us: AtomicU64::new(0),
            timing_wall_us: AtomicU64::new(0),
            worker_busy_us: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
            latency: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Record one event.
    pub fn emit(
        &self,
        scope: Scope,
        kind: EventKind,
        name: &'static str,
        fields: Vec<(&'static str, Json)>,
    ) {
        let thread = thread_tag();
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.origin.elapsed().as_micros() as u64,
            thread,
            scope,
            kind,
            name,
            fields,
        };
        let shard = (thread as usize) % SHARDS;
        self.shards[shard].lock().expect("sink shard poisoned").push(event);
    }

    /// Record a deterministic search-scope event.
    pub fn search(&self, kind: EventKind, name: &'static str, fields: Vec<(&'static str, Json)>) {
        self.emit(Scope::Search, kind, name, fields);
    }

    /// Record a nondeterministic runtime-scope event.
    pub fn runtime(&self, kind: EventKind, name: &'static str, fields: Vec<(&'static str, Json)>) {
        self.emit(Scope::Runtime, kind, name, fields);
    }

    /// Add orchestrator wall time to a phase.
    pub fn add_phase_wall_us(&self, phase: Phase, us: u64) {
        match phase {
            Phase::Static => &self.static_wall_us,
            Phase::Timing => &self.timing_wall_us,
        }
        .fetch_add(us, Ordering::Relaxed);
    }

    /// Add per-item worker busy time.
    pub fn add_busy_us(&self, us: u64) {
        self.worker_busy_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Count one worker spawn.
    pub fn note_spawn(&self) {
        self.workers_spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one latency sample (lock-free; workers call this from the
    /// hot simulation path).
    pub fn record_latency(&self, lane: LatencyLane, us: u64) {
        self.latency[lane as usize][Histogram::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn latency_hist(&self, lane: LatencyLane) -> Histogram {
        let mut h = Histogram::default();
        for (slot, counter) in h.buckets.iter_mut().zip(self.latency[lane as usize].iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        h
    }

    /// Snapshot the runtime counters.
    pub fn runtime_counters(&self) -> RuntimeCounters {
        RuntimeCounters {
            static_wall_us: self.static_wall_us.load(Ordering::Relaxed),
            timing_wall_us: self.timing_wall_us.load(Ordering::Relaxed),
            worker_busy_us: self.worker_busy_us.load(Ordering::Relaxed),
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
            sim_duration_hist: self.latency_hist(LatencyLane::Sim),
            cache_lookup_hist: self.latency_hist(LatencyLane::CacheLookup),
            store_io_hist: self.latency_hist(LatencyLane::StoreIo),
            decode_hist: self.latency_hist(LatencyLane::Decode),
        }
    }

    /// Take every event recorded so far, merged into global emission
    /// (`seq`) order. The sink stays usable; runtime counters are left
    /// untouched.
    pub fn drain(&self) -> Trace {
        let mut events: Vec<Event> = Vec::new();
        for shard in &self.shards {
            events.append(&mut shard.lock().expect("sink shard poisoned"));
        }
        events.sort_by_key(|e| e.seq);
        Trace { events }
    }
}

/// A drained, seq-ordered sequence of events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Events in global emission order.
    pub events: Vec<Event>,
}

impl Trace {
    /// One JSON record per line, trailing newline included (empty string
    /// for an empty trace).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }

    /// The deterministic projection: canonical lines of the
    /// [`Scope::Search`] events, in emission order. Byte-identical at
    /// any worker count.
    pub fn canonical_lines(&self) -> Vec<String> {
        self.events.iter().filter(|e| e.scope == Scope::Search).map(Event::canonical_line).collect()
    }

    /// [`Trace::canonical_lines`] joined with newlines.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for line in self.canonical_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Events with the given name, in order.
    pub fn named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_drain_in_emission_order() {
        let sink = EventSink::new();
        for i in 0..10u64 {
            sink.search(EventKind::Point, "tick", vec![("i", Json::from(i))]);
        }
        let trace = sink.drain();
        assert_eq!(trace.events.len(), 10);
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.fields[0].1, Json::from(i as u64));
        }
        // Drain empties the sink.
        assert!(sink.drain().events.is_empty());
    }

    #[test]
    fn concurrent_emission_loses_nothing() {
        let sink = EventSink::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..100u64 {
                        sink.runtime(EventKind::Point, "work", vec![("i", Json::from(i))]);
                    }
                });
            }
        });
        let trace = sink.drain();
        assert_eq!(trace.events.len(), 800);
        // Sequence numbers are unique and the drain is sorted.
        for w in trace.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn canonical_lines_exclude_runtime_events() {
        let sink = EventSink::new();
        sink.search(EventKind::Begin, "phase.static", vec![("candidates", Json::from(4u64))]);
        sink.runtime(EventKind::Point, "pool.spawn", vec![("worker", Json::from(0u64))]);
        sink.search(EventKind::End, "phase.static", vec![("valid", Json::from(4u64))]);
        let trace = sink.drain();
        let lines = trace.canonical_lines();
        assert_eq!(
            lines,
            vec![
                "begin phase.static {\"candidates\":4}".to_string(),
                "end phase.static {\"valid\":4}".to_string(),
            ]
        );
        assert_eq!(trace.canonical_text(), lines.join("\n") + "\n");
    }

    #[test]
    fn runtime_counters_accumulate() {
        let sink = EventSink::new();
        sink.add_phase_wall_us(Phase::Static, 100);
        sink.add_phase_wall_us(Phase::Timing, 250);
        sink.add_phase_wall_us(Phase::Timing, 50);
        sink.add_busy_us(70);
        sink.note_spawn();
        sink.note_spawn();
        let c = sink.runtime_counters();
        assert_eq!(c.static_wall_us, 100);
        assert_eq!(c.timing_wall_us, 300);
        assert_eq!(c.worker_busy_us, 70);
        assert_eq!(c.workers_spawned, 2);
    }

    #[test]
    fn latency_lanes_accumulate_independently() {
        let sink = EventSink::new();
        sink.record_latency(LatencyLane::Sim, 0);
        sink.record_latency(LatencyLane::Sim, 1000);
        sink.record_latency(LatencyLane::CacheLookup, 3);
        sink.record_latency(LatencyLane::StoreIo, u64::MAX);
        sink.record_latency(LatencyLane::Decode, 12);
        let c = sink.runtime_counters();
        assert_eq!(c.sim_duration_hist.count(), 2);
        assert_eq!(c.sim_duration_hist.buckets[0], 1);
        assert_eq!(c.sim_duration_hist.buckets[Histogram::bucket_of(1000)], 1);
        assert_eq!(c.cache_lookup_hist.count(), 1);
        assert_eq!(c.store_io_hist.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(c.decode_hist.count(), 1);
        assert_eq!(c.decode_hist.buckets[Histogram::bucket_of(12)], 1);
    }

    #[test]
    fn jsonl_parses_line_by_line() {
        let sink = EventSink::new();
        sink.search(EventKind::Counter, "engine.metrics", vec![("timed", Json::from(12u64))]);
        sink.runtime(EventKind::Point, "pool.item", vec![("wall_us", Json::from(3u64))]);
        let text = sink.drain().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            super::super::json::parse(line).expect("each JSONL line parses");
        }
    }
}
