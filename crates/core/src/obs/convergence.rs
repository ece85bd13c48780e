//! Time-resolved convergence telemetry.
//!
//! A search's end-of-run totals say *what* it found; a
//! [`ConvergenceCurve`] says *how fast*. The engine's
//! [`ConvergenceRecorder`] samples `(sims_completed, unique_sims,
//! best_time_ms, bound_pruned_points)` at every incumbent improvement
//! and at a fixed simulation interval, from the single-threaded result
//! reassembly loop — candidates are observed in candidate-index order
//! regardless of worker scheduling, so the curve is **deterministic**:
//! byte-identical at `--jobs 1` and `--jobs 8`, with or without fault
//! injection.
//!
//! The curve travels inside [`EngineMetrics`]'s deterministic section,
//! which puts it in the `engine.metrics` trace counter, the run
//! manifest, and `--profile` for free — and makes every existing
//! trace-determinism test also a convergence-determinism test.
//!
//! [`EngineMetrics`]: super::metrics::EngineMetrics

use std::sync::Mutex;

use super::json::Json;

/// Sample the curve every this many completed (timed) simulations, in
/// addition to every incumbent improvement.
pub const SAMPLE_INTERVAL: u64 = 32;

/// One point on a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSample {
    /// Candidates with a timing result so far (memoized included).
    pub sims: u64,
    /// Unique simulations executed so far (store hits and memo reuse
    /// excluded).
    pub unique_sims: u64,
    /// Best simulated time seen so far, ms.
    pub best_time_ms: f64,
    /// Configurations eliminated by bound pruning so far.
    pub bound_pruned_points: u64,
}

impl ConvergenceSample {
    fn to_json(self) -> Json {
        Json::obj([
            ("sims", Json::from(self.sims)),
            ("unique_sims", Json::from(self.unique_sims)),
            ("best_time_ms", Json::from(self.best_time_ms)),
            ("bound_pruned_points", Json::from(self.bound_pruned_points)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let u = |k: &str| {
            j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("convergence: missing `{k}`"))
        };
        Ok(Self {
            sims: u("sims")?,
            unique_sims: u("unique_sims")?,
            best_time_ms: j
                .get("best_time_ms")
                .and_then(Json::as_f64)
                .ok_or("convergence: missing `best_time_ms`")?,
            bound_pruned_points: u("bound_pruned_points")?,
        })
    }
}

/// A search's convergence curve: samples in simulation order, best time
/// monotonically non-increasing, final sample reflecting the end of the
/// run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceCurve {
    /// Samples in simulation order.
    pub samples: Vec<ConvergenceSample>,
}

impl ConvergenceCurve {
    /// True when the search produced no timing results.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The final best time, ms.
    pub fn final_best_ms(&self) -> Option<f64> {
        self.samples.last().map(|s| s.best_time_ms)
    }

    /// Timed candidates needed before the search first held its final
    /// best time — the sims-to-optimum measure of the strategy
    /// benchmark.
    pub fn sims_to_optimum(&self) -> Option<u64> {
        let best = self.final_best_ms()?;
        self.samples.iter().find(|s| s.best_time_ms == best).map(|s| s.sims)
    }

    /// Unique simulations executed before the search first held its
    /// final best time.
    pub fn unique_to_optimum(&self) -> Option<u64> {
        let best = self.final_best_ms()?;
        self.samples.iter().find(|s| s.best_time_ms == best).map(|s| s.unique_sims)
    }

    /// Timed candidates needed before the search first held a best time
    /// at or below `threshold_ms`; `None` if it never got there. Exact,
    /// not interval-quantized: every improvement forces a sample, and
    /// the first best at or below any threshold is an improvement.
    pub fn sims_to_within(&self, threshold_ms: f64) -> Option<u64> {
        self.samples.iter().find(|s| s.best_time_ms <= threshold_ms).map(|s| s.sims)
    }

    /// The curve as a JSON array of sample objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.samples.iter().map(|s| s.to_json()).collect())
    }

    /// Parse [`ConvergenceCurve::to_json`] output.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let arr = j.as_arr().ok_or("convergence: expected an array")?;
        let samples = arr.iter().map(ConvergenceSample::from_json).collect::<Result<_, _>>()?;
        Ok(Self { samples })
    }
}

#[derive(Debug, Default)]
struct RecorderState {
    /// Timed candidates observed so far.
    sims: u64,
    /// Unique simulations observed so far.
    unique: u64,
    /// Best time so far (`None` until the first observation).
    best: Option<f64>,
    /// High-water mark of bound-pruned configurations.
    pruned: u64,
    /// True when state advanced past the last recorded sample.
    dirty: bool,
    samples: Vec<ConvergenceSample>,
}

impl RecorderState {
    fn push_sample(&mut self) {
        if let Some(best) = self.best {
            self.samples.push(ConvergenceSample {
                sims: self.sims,
                unique_sims: self.unique,
                best_time_ms: best,
                bound_pruned_points: self.pruned,
            });
            self.dirty = false;
        }
    }
}

/// Deterministic convergence recorder, shared by an engine and its
/// clones (a batched branch-and-bound search accumulates one curve
/// across batches). The engine calls [`ConvergenceRecorder::observe`]
/// from its single-threaded result-reassembly loop; the search strategy
/// brackets a run with [`ConvergenceRecorder::reset`] and
/// [`ConvergenceRecorder::finish`].
#[derive(Debug, Default)]
pub struct ConvergenceRecorder {
    state: Mutex<RecorderState>,
}

impl ConvergenceRecorder {
    /// Fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop everything recorded so far; called at the start of a search
    /// so one engine can serve several runs.
    pub fn reset(&self) {
        *self.state.lock().unwrap() = RecorderState::default();
    }

    /// Record one timed candidate. `sims_completed` is the cumulative
    /// timed-candidate count, `fresh_unique` marks the first accepted
    /// result backed by a fresh simulation of its unique, and
    /// `bound_pruned_points` is the current pruning high-water mark.
    /// Samples are taken on incumbent improvement and every
    /// [`SAMPLE_INTERVAL`] sims.
    pub fn observe(
        &self,
        sims_completed: u64,
        fresh_unique: bool,
        time_ms: f64,
        bound_pruned_points: u64,
    ) {
        let mut s = self.state.lock().unwrap();
        s.sims = sims_completed;
        if fresh_unique {
            s.unique += 1;
        }
        s.pruned = s.pruned.max(bound_pruned_points);
        s.dirty = true;
        let improved = s.best.is_none_or(|b| time_ms < b);
        if improved {
            s.best = Some(time_ms);
        }
        if improved || sims_completed.is_multiple_of(SAMPLE_INTERVAL) {
            s.push_sample();
        }
    }

    /// Close the curve: fold in the final pruning count and append a
    /// terminal sample if anything advanced since the last one.
    pub fn finish(&self, bound_pruned_points: u64) {
        let mut s = self.state.lock().unwrap();
        if bound_pruned_points > s.pruned {
            s.pruned = bound_pruned_points;
            s.dirty = true;
        }
        if s.dirty {
            s.push_sample();
        }
    }

    /// Snapshot the recorded curve.
    pub fn curve(&self) -> ConvergenceCurve {
        ConvergenceCurve { samples: self.state.lock().unwrap().samples.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(times: &[f64]) -> ConvergenceCurve {
        let r = ConvergenceRecorder::new();
        for (i, &t) in times.iter().enumerate() {
            r.observe(i as u64 + 1, true, t, 0);
        }
        r.finish(0);
        r.curve()
    }

    #[test]
    fn samples_on_improvement_and_at_the_end() {
        let c = record(&[9.0, 7.0, 8.0, 6.5, 7.7]);
        // Improvements at sims 1, 2, 4; terminal sample at 5.
        let sims: Vec<u64> = c.samples.iter().map(|s| s.sims).collect();
        assert_eq!(sims, vec![1, 2, 4, 5]);
        let best: Vec<f64> = c.samples.iter().map(|s| s.best_time_ms).collect();
        assert_eq!(best, vec![9.0, 7.0, 6.5, 6.5]);
        assert_eq!(c.samples.last().unwrap().unique_sims, 5);
        assert_eq!(c.sims_to_optimum(), Some(4));
        assert_eq!(c.unique_to_optimum(), Some(4));
    }

    #[test]
    fn sims_to_within_finds_the_exact_crossing() {
        let c = record(&[9.0, 7.0, 8.0, 6.5, 7.7]);
        assert_eq!(c.sims_to_within(9.5), Some(1));
        assert_eq!(c.sims_to_within(7.0), Some(2));
        // 6.9 is only reached by the 6.5 improvement at sims 4.
        assert_eq!(c.sims_to_within(6.9), Some(4));
        assert_eq!(c.sims_to_within(6.0), None);
        assert_eq!(ConvergenceCurve::default().sims_to_within(1.0), None);
    }

    #[test]
    fn interval_sampling_catches_flat_stretches() {
        let r = ConvergenceRecorder::new();
        r.observe(1, true, 5.0, 0);
        for sims in 2..=(SAMPLE_INTERVAL * 2 + 1) {
            r.observe(sims, true, 5.0 + sims as f64, 0);
        }
        r.finish(0);
        let sims: Vec<u64> = r.curve().samples.iter().map(|s| s.sims).collect();
        assert_eq!(sims, vec![1, SAMPLE_INTERVAL, SAMPLE_INTERVAL * 2, SAMPLE_INTERVAL * 2 + 1]);
    }

    #[test]
    fn memoized_results_do_not_advance_unique_sims() {
        let r = ConvergenceRecorder::new();
        r.observe(1, true, 4.0, 0);
        r.observe(2, false, 4.0, 0);
        r.observe(3, false, 3.0, 0);
        r.finish(0);
        let c = r.curve();
        assert_eq!(c.samples.last().unwrap().unique_sims, 1);
        assert_eq!(c.sims_to_optimum(), Some(3));
        assert_eq!(c.unique_to_optimum(), Some(1));
    }

    #[test]
    fn finish_records_late_pruning_without_double_sampling() {
        let r = ConvergenceRecorder::new();
        r.observe(1, true, 2.0, 10);
        r.finish(90);
        r.finish(90); // idempotent
        let c = r.curve();
        assert_eq!(c.samples.len(), 2);
        assert_eq!(c.samples[0].bound_pruned_points, 10);
        assert_eq!(c.samples[1].bound_pruned_points, 90);
        assert_eq!(c.samples[1].sims, 1);
    }

    #[test]
    fn empty_search_yields_an_empty_curve() {
        let r = ConvergenceRecorder::new();
        r.finish(7);
        assert!(r.curve().is_empty());
        assert_eq!(r.curve().sims_to_optimum(), None);
    }

    #[test]
    fn reset_clears_a_previous_run() {
        let r = ConvergenceRecorder::new();
        r.observe(1, true, 2.0, 0);
        r.finish(0);
        r.reset();
        r.observe(1, true, 9.0, 0);
        r.finish(0);
        let c = r.curve();
        assert_eq!(c.samples.len(), 1);
        assert_eq!(c.final_best_ms(), Some(9.0));
    }

    #[test]
    fn curve_round_trips_through_json_and_rejects_malformed_curves() {
        let c = record(&[3.0, 2.5, 2.5]);
        let text = c.to_json().to_string_compact();
        let back = ConvergenceCurve::from_json(&super::super::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
        assert!(ConvergenceCurve::from_json(&Json::Null).is_err());
        let partial = super::super::json::parse(r#"[{"sims":1,"unique_sims":1}]"#).unwrap();
        let err = ConvergenceCurve::from_json(&partial).unwrap_err();
        assert!(err.contains("`best_time_ms`"), "{err}");
    }
}
