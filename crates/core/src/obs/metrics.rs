//! Aggregated engine metrics: one snapshot per search, split into a
//! **deterministic** section — the engine's [`EngineStats`] counters and
//! the convergence curve, identical at any worker count — and a
//! **runtime** section of wall-clock measurements that naturally vary
//! run to run. Each counter is declared once, in [`EngineStats`]; this
//! module only gives it its wire name.

use crate::engine::EngineStats;

use super::convergence::ConvergenceCurve;
use super::json::Json;

/// Bucket count of the hand-rolled latency histograms. Bucket `i`
/// covers `[2^i, 2^(i+1))` µs (bucket 0 also absorbs 0 µs; the top
/// bucket is open-ended), so 24 buckets span sub-µs to beyond 8 s.
pub const HIST_BUCKETS: usize = 24;

/// A log-bucketed latency histogram: fixed size, no allocation, no
/// dependencies. Counts are exact; reported values are bucket upper
/// bounds, so a percentile is accurate to within 2×.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Sample counts per power-of-two bucket.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Histogram {
    /// The bucket index a microsecond value lands in.
    pub fn bucket_of(us: u64) -> usize {
        if us <= 1 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The exclusive upper bound of bucket `i`, µs (nominal for the
    /// open-ended top bucket).
    pub fn bucket_ceiling_us(i: usize) -> u64 {
        1u64 << (i + 1).min(HIST_BUCKETS)
    }

    /// Record one sample.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The upper bound of the bucket holding the `p`-quantile sample
    /// (`p` in `[0, 1]`), µs. Zero when the histogram is empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_ceiling_us(i);
            }
        }
        Self::bucket_ceiling_us(HIST_BUCKETS - 1)
    }

    /// Fold another histogram's counts into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The bucket counts as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.buckets.iter().map(|&n| Json::from(n)).collect())
    }

    /// Parse [`Histogram::to_json`] output.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let arr = j.as_arr().ok_or("histogram: expected an array")?;
        if arr.len() != HIST_BUCKETS {
            return Err(format!("histogram: expected {HIST_BUCKETS} buckets, got {}", arr.len()));
        }
        let mut h = Self::default();
        for (slot, j) in h.buckets.iter_mut().zip(arr.iter()) {
            *slot = j.as_u64().ok_or("histogram: non-integer bucket count")?;
        }
        Ok(h)
    }
}

/// Nondeterministic wall-clock measurements for one search, as
/// [`EventSink::runtime_metrics`] snapshots them.
///
/// [`EventSink::runtime_metrics`]: super::sink::EventSink::runtime_metrics
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeMetrics {
    /// Worker threads configured.
    pub jobs: u64,
    /// Wall time of the static-evaluation phase, µs.
    pub static_wall_us: u64,
    /// Wall time of the timing-simulation phase, µs.
    pub timing_wall_us: u64,
    /// Summed per-item worker busy time across both phases, µs.
    pub worker_busy_us: u64,
    /// Worker threads spawned.
    pub workers_spawned: u64,
    /// Wall time per executed simulation unit.
    pub sim_duration_hist: Histogram,
    /// Wall time per memo-cache key computation + lookup.
    pub cache_lookup_hist: Histogram,
    /// Wall time per persistent-store read or flush.
    pub store_io_hist: Histogram,
    /// Wall time per program decode (arena build or cached rebind).
    pub decode_hist: Histogram,
}

impl RuntimeMetrics {
    /// Fraction of the worker pool's capacity spent busy:
    /// `busy / (jobs × phase wall)`, clamped to `[0, 1]`. Zero when no
    /// wall time was recorded.
    pub fn worker_utilization(&self) -> f64 {
        let wall = self.static_wall_us + self.timing_wall_us;
        if wall == 0 || self.jobs == 0 {
            return 0.0;
        }
        (self.worker_busy_us as f64 / (wall * self.jobs) as f64).min(1.0)
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("jobs", Json::from(self.jobs)),
            ("static_wall_us", Json::from(self.static_wall_us)),
            ("timing_wall_us", Json::from(self.timing_wall_us)),
            ("worker_busy_us", Json::from(self.worker_busy_us)),
            ("workers_spawned", Json::from(self.workers_spawned)),
            ("worker_utilization", Json::from(self.worker_utilization())),
            ("sim_duration_hist", self.sim_duration_hist.to_json()),
            ("cache_lookup_hist", self.cache_lookup_hist.to_json()),
            ("store_io_hist", self.store_io_hist.to_json()),
            ("decode_hist", self.decode_hist.to_json()),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let u = |k: &str| {
            j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("runtime: missing `{k}`"))
        };
        let hist = |k: &str| {
            Histogram::from_json(j.get(k).ok_or_else(|| format!("runtime: missing `{k}`"))?)
        };
        Ok(Self {
            jobs: u("jobs")?,
            static_wall_us: u("static_wall_us")?,
            timing_wall_us: u("timing_wall_us")?,
            worker_busy_us: u("worker_busy_us")?,
            // Manifests of earlier builds also carry a
            // `workers_respawned` count; it is ignored.
            workers_spawned: u("workers_spawned")?,
            sim_duration_hist: hist("sim_duration_hist")?,
            cache_lookup_hist: hist("cache_lookup_hist")?,
            store_io_hist: hist("store_io_hist")?,
            decode_hist: hist("decode_hist")?,
        })
    }
}

/// One search's aggregated engine metrics.
///
/// Everything outside `runtime` is deterministic — the engine's
/// counters, byte-identical at any `--jobs`, and the convergence curve —
/// and is what [`EngineMetrics::deterministic_json`] serializes for
/// trace-determinism tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineMetrics {
    /// What the engine did: evaluations, simulations, reuse, failures,
    /// simulated cycles and stalls, pruning, store traffic.
    pub stats: EngineStats,
    /// Time-resolved convergence curve (deterministic; see
    /// [`ConvergenceCurve`]).
    pub convergence: ConvergenceCurve,
    /// Wall-clock measurements (nondeterministic).
    pub runtime: RuntimeMetrics,
}

impl EngineMetrics {
    /// Snapshot the engine's counters; the curve and the runtime
    /// section start empty.
    pub fn from_stats(stats: &EngineStats) -> Self {
        Self { stats: *stats, ..Default::default() }
    }

    /// Attach the convergence curve.
    pub fn with_convergence(mut self, convergence: ConvergenceCurve) -> Self {
        self.convergence = convergence;
        self
    }

    /// Fraction of timed candidates served without a fresh simulation:
    /// `cache_hits / timed` (zero when nothing was timed).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.stats.timed == 0 {
            0.0
        } else {
            self.stats.cache_hits as f64 / self.stats.timed as f64
        }
    }

    /// Total attributed stall cycles.
    pub fn stall_total_cycles(&self) -> u64 {
        let s = &self.stats;
        s.stall_mem_cycles + s.stall_sfu_cycles + s.stall_arith_cycles + s.stall_other_cycles
    }

    /// The deterministic section as event fields, for the search-scope
    /// `engine.metrics` counter event. The wire names `sims_executed`
    /// and `sims_memoized` are [`EngineStats::unique_sims`] and
    /// [`EngineStats::cache_hits`].
    pub fn deterministic_fields(&self) -> Vec<(&'static str, Json)> {
        let s = &self.stats;
        vec![
            ("static_evals", Json::from(s.static_evals)),
            ("timed", Json::from(s.timed)),
            ("sims_executed", Json::from(s.unique_sims)),
            ("sims_memoized", Json::from(s.cache_hits)),
            ("cache_hit_rate", Json::from(self.cache_hit_rate())),
            ("family_forks", Json::from(s.family_forks)),
            ("family_members", Json::from(s.family_members)),
            ("retries", Json::from(s.retries)),
            ("quarantined", Json::from(s.quarantined)),
            ("injected_faults", Json::from(s.injected_faults)),
            ("budget_truncated", Json::from(s.budget_truncated)),
            ("fuel_consumed", Json::from(s.fuel_consumed)),
            ("sim_cycles", Json::from(s.sim_cycles)),
            ("stall_mem_cycles", Json::from(s.stall_mem_cycles)),
            ("stall_sfu_cycles", Json::from(s.stall_sfu_cycles)),
            ("stall_arith_cycles", Json::from(s.stall_arith_cycles)),
            ("stall_other_cycles", Json::from(s.stall_other_cycles)),
            ("bound_pruned_subspaces", Json::from(s.bound_pruned_subspaces)),
            ("bound_pruned_points", Json::from(s.bound_pruned_points)),
            ("store_hits", Json::from(s.store_hits)),
            ("store_records_dropped", Json::from(s.store_records_dropped)),
            ("convergence", self.convergence.to_json()),
        ]
    }

    /// The deterministic section only — byte-identical at any `--jobs`.
    pub fn deterministic_json(&self) -> Json {
        Json::Obj(
            self.deterministic_fields().into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        )
    }

    /// The full snapshot, runtime section nested under `"runtime"`.
    pub fn to_json(&self) -> Json {
        let mut pairs = self.deterministic_fields();
        pairs.push(("runtime", self.runtime.to_json()));
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a snapshot produced by [`EngineMetrics::to_json`]: the
    /// deterministic section plus `runtime`.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let deterministic = Self::from_deterministic_json(j)?;
        let runtime = j.get("runtime").ok_or("metrics: missing `runtime`")?;
        Ok(Self { runtime: RuntimeMetrics::from_json(runtime)?, ..deterministic })
    }

    /// Parse the deterministic section (an `engine.metrics` trace record's
    /// fields) into a snapshot with an empty runtime section. The derived
    /// `cache_hit_rate` is recomputed, not read.
    pub fn from_deterministic_json(j: &Json) -> Result<Self, String> {
        let u = |k: &str| {
            j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("metrics: missing `{k}`"))
        };
        let n =
            |k: &str| usize::try_from(u(k)?).map_err(|_| format!("metrics: `{k}` out of range"));
        let stats = EngineStats {
            static_evals: n("static_evals")?,
            timed: n("timed")?,
            unique_sims: n("sims_executed")?,
            cache_hits: n("sims_memoized")?,
            family_forks: n("family_forks")?,
            family_members: n("family_members")?,
            retries: n("retries")?,
            quarantined: n("quarantined")?,
            injected_faults: n("injected_faults")?,
            budget_truncated: j
                .get("budget_truncated")
                .and_then(Json::as_bool)
                .ok_or("metrics: missing `budget_truncated`")?,
            fuel_consumed: u("fuel_consumed")?,
            sim_cycles: u("sim_cycles")?,
            stall_mem_cycles: u("stall_mem_cycles")?,
            stall_sfu_cycles: u("stall_sfu_cycles")?,
            stall_arith_cycles: u("stall_arith_cycles")?,
            stall_other_cycles: u("stall_other_cycles")?,
            bound_pruned_subspaces: n("bound_pruned_subspaces")?,
            bound_pruned_points: n("bound_pruned_points")?,
            store_hits: n("store_hits")?,
            store_records_dropped: n("store_records_dropped")?,
        };
        let convergence = j.get("convergence").ok_or("metrics: missing `convergence`")?;
        Ok(Self {
            stats,
            convergence: ConvergenceCurve::from_json(convergence)?,
            runtime: RuntimeMetrics::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of [`sample_stats`] carrying `runtime`.
    fn with_runtime(runtime: RuntimeMetrics) -> EngineMetrics {
        EngineMetrics { runtime, ..EngineMetrics::from_stats(&sample_stats()) }
    }

    fn sample_stats() -> EngineStats {
        EngineStats {
            static_evals: 13,
            timed: 12,
            unique_sims: 3,
            cache_hits: 9,
            retries: 2,
            quarantined: 1,
            injected_faults: 2,
            family_forks: 1,
            family_members: 4,
            fuel_consumed: 5_000,
            sim_cycles: 80_000,
            stall_mem_cycles: 1_200,
            stall_sfu_cycles: 30,
            stall_arith_cycles: 400,
            stall_other_cycles: 90,
            bound_pruned_subspaces: 5,
            bound_pruned_points: 70,
            ..Default::default()
        }
    }

    /// Parse `m`'s snapshot with the key `drop` removed; return the
    /// error.
    fn parse_without(m: &EngineMetrics, drop: &str) -> String {
        let mut j = m.to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != drop);
        }
        assert!(!j.to_string_compact().contains(drop));
        EngineMetrics::from_json(&j).expect_err("a snapshot without the key is rejected")
    }

    #[test]
    fn snapshots_without_bound_counters_are_rejected() {
        // Every manifest schema-2 writer wrote the bound_pruned_* keys.
        let m = EngineMetrics::from_stats(&sample_stats());
        for key in ["bound_pruned_subspaces", "bound_pruned_points"] {
            let err = parse_without(&m, key);
            assert!(err.contains(key), "{err:?} does not name `{key}`");
        }
    }

    #[test]
    fn snapshots_without_store_counters_are_rejected() {
        // Every manifest schema-2 writer wrote the store_* keys.
        let m = EngineMetrics::from_stats(&sample_stats());
        for key in ["store_hits", "store_records_dropped"] {
            let err = parse_without(&m, key);
            assert!(err.contains(key), "{err:?} does not name `{key}`");
        }
    }

    #[test]
    fn derived_rates_are_correct() {
        let m = EngineMetrics::from_stats(&sample_stats());
        let det = m.deterministic_json();
        assert_eq!(det.get("sims_executed").and_then(Json::as_u64), Some(3));
        assert_eq!(det.get("sims_memoized").and_then(Json::as_u64), Some(9));
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(m.stall_total_cycles(), 1_720);
        assert_eq!(EngineMetrics::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn deterministic_json_excludes_runtime() {
        let m = with_runtime(RuntimeMetrics {
            jobs: 8,
            static_wall_us: 123,
            timing_wall_us: 456,
            worker_busy_us: 400,
            workers_spawned: 8,
            sim_duration_hist: Histogram::default(),
            cache_lookup_hist: Histogram::default(),
            store_io_hist: Histogram::default(),
            decode_hist: Histogram::default(),
        });
        let det = m.deterministic_json().to_string_compact();
        assert!(!det.contains("wall_us"), "runtime leaked into the deterministic form: {det}");
        // Two snapshots with different runtimes share a deterministic
        // form.
        let other = EngineMetrics::from_stats(&sample_stats());
        assert_eq!(det, other.deterministic_json().to_string_compact());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = with_runtime(RuntimeMetrics {
            jobs: 2,
            static_wall_us: 10,
            timing_wall_us: 90,
            worker_busy_us: 150,
            workers_spawned: 2,
            sim_duration_hist: {
                let mut h = Histogram::default();
                h.record(5);
                h.record(700);
                h
            },
            cache_lookup_hist: Histogram::default(),
            store_io_hist: Histogram::default(),
            decode_hist: {
                let mut h = Histogram::default();
                h.record(3);
                h
            },
        });
        let text = m.to_json().to_string_compact();
        let back = EngineMetrics::from_json(&super::super::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn snapshots_with_a_workers_respawned_count_still_parse() {
        // Earlier builds counted worker respawns; their manifests must
        // still read back, with the count ignored.
        let m = with_runtime(RuntimeMetrics { jobs: 2, workers_spawned: 2, ..Default::default() });
        let text = m
            .to_json()
            .to_string_compact()
            .replace("\"workers_spawned\":2,", "\"workers_spawned\":2,\"workers_respawned\":1,");
        assert!(text.contains("workers_respawned"));
        let back = EngineMetrics::from_json(&super::super::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn histogram_buckets_are_log2_with_saturating_ends() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of((1 << 23) - 1), 22);
        assert_eq!(Histogram::bucket_of(1 << 23), HIST_BUCKETS - 1);
        // Values beyond the top bucket's span saturate instead of
        // indexing out of bounds.
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_report_bucket_ceilings() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile_us(0.5), 0);
        for us in [1, 1, 1, 10, 100] {
            h.record(us);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile_us(0.0), 2); // rank clamps to the first sample
        assert_eq!(h.percentile_us(0.5), 2); // 3 of 5 samples in bucket 0
        assert_eq!(h.percentile_us(0.8), 16); // 10 µs -> bucket [8, 16)
        assert_eq!(h.percentile_us(1.0), 128); // 100 µs -> bucket [64, 128)
        let mut other = Histogram::default();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.percentile_us(1.0), Histogram::bucket_ceiling_us(HIST_BUCKETS - 1));
    }

    #[test]
    fn histogram_round_trips_and_absent_decode_hist_is_rejected() {
        let mut h = Histogram::default();
        for us in [0, 5, 5_000, u64::MAX] {
            h.record(us);
        }
        let text = h.to_json().to_string_compact();
        let back = Histogram::from_json(&super::super::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_json(&Json::Arr(vec![Json::from(1u64)])).is_err());

        // Every runtime section this build writes carries `decode_hist`.
        let mut j = EngineMetrics::from_stats(&sample_stats()).to_json();
        let Json::Obj(pairs) = &mut j else { panic!("an object") };
        let Some((_, Json::Obj(runtime))) = pairs.iter_mut().find(|(k, _)| k == "runtime") else {
            panic!("a runtime object")
        };
        runtime.retain(|(k, _)| k != "decode_hist");
        let err = EngineMetrics::from_json(&j).expect_err("no decode_hist");
        assert!(err.contains("`decode_hist`"), "{err}");
    }

    #[test]
    fn the_deterministic_section_parses_without_runtime() {
        let m = with_runtime(RuntimeMetrics { jobs: 2, timing_wall_us: 9, ..Default::default() });
        let back = EngineMetrics::from_deterministic_json(&m.deterministic_json()).unwrap();
        let err = EngineMetrics::from_json(&m.deterministic_json()).unwrap_err();
        assert_eq!(err, "metrics: missing `runtime`");
        assert_eq!(back, EngineMetrics { runtime: RuntimeMetrics::default(), ..m });
    }

    #[test]
    fn metrics_convergence_round_trips_and_stays_deterministic() {
        let mut m = EngineMetrics::from_stats(&sample_stats());
        m.convergence.samples.push(super::super::convergence::ConvergenceSample {
            sims: 1,
            unique_sims: 1,
            best_time_ms: 4.5,
            bound_pruned_points: 70,
        });
        let det = m.deterministic_json().to_string_compact();
        assert!(det.contains("\"convergence\":[{\"sims\":1"));
        let text = m.to_json().to_string_compact();
        let back = EngineMetrics::from_json(&super::super::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn worker_utilization_is_clamped_and_guarded() {
        let rt = RuntimeMetrics {
            jobs: 2,
            static_wall_us: 50,
            timing_wall_us: 50,
            worker_busy_us: 150,
            ..Default::default()
        };
        assert!((rt.worker_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(RuntimeMetrics::default().worker_utilization(), 0.0);
        let over = RuntimeMetrics { worker_busy_us: 10_000, ..rt };
        assert_eq!(over.worker_utilization(), 1.0);
    }
}
