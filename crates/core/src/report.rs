//! Formatting helpers for the experiment harness: fixed-width tables and
//! ASCII scatter plots of the metric plane (the Figure 6 views), plus
//! the human-readable profile summary of an engine-metrics snapshot.

use crate::obs::{EngineMetrics, Histogram};
use crate::pareto::Point;

/// Render a fixed-width table. The first row is the header; every
/// column is left-aligned.
///
/// # Examples
///
/// ```
/// let t = optspace::report::table(&[
///     vec!["kernel".into(), "time".into()],
///     vec!["mm".into(), "4.2".into()],
/// ]);
/// assert!(t.contains("kernel"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn table(rows: &[Vec<String>]) -> String {
    table_aligned(rows, &[])
}

/// [`table`] with per-column alignment: columns flagged `true` in
/// `right_align` pad on the left, so numeric columns keep a straight
/// right edge no matter how wide an individual value grows. Columns
/// beyond the slice are left-aligned.
pub fn table_aligned(rows: &[Vec<String>], right_align: &[bool]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        let mut line = String::new();
        for (c, width) in widths.iter().enumerate() {
            let cell = row.get(c).map(String::as_str).unwrap_or("");
            if right_align.get(c).copied().unwrap_or(false) {
                line.push_str(&format!("{cell:>width$}"));
            } else {
                line.push_str(&format!("{cell:<width$}"));
            }
            if c + 1 < cols {
                line.push_str("  ");
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if r == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Normalise points so the maximum of each axis is 1 (the Figure 6
/// presentation). Zero-maximum axes stay at zero.
pub fn normalize(points: &[Point]) -> Vec<Point> {
    let mx = points.iter().map(|p| p.x).fold(0.0f64, f64::max);
    let my = points.iter().map(|p| p.y).fold(0.0f64, f64::max);
    points
        .iter()
        .map(|p| Point {
            x: if mx > 0.0 { p.x / mx } else { 0.0 },
            y: if my > 0.0 { p.y / my } else { 0.0 },
        })
        .collect()
}

/// Render an ASCII scatter of normalised metric points, `width`×`height`
/// characters (each clamped to at least 1). Points in `highlight` render
/// as `*`, the rest as `·`; a point in both renders as `*`. Marks the
/// optimum with `O` if given. Out-of-range `highlight`/`optimum` indices
/// are ignored rather than panicking — callers assemble them from search
/// reports whose shape this function cannot assume.
pub fn ascii_scatter(
    points: &[Point],
    highlight: &[usize],
    optimum: Option<usize>,
    width: usize,
    height: usize,
) -> String {
    let width = width.max(1);
    let height = height.max(1);
    let pts = normalize(points);
    let mut grid = vec![vec![' '; width]; height];
    let place = |p: &Point| -> (usize, usize) {
        let col = (p.x * (width - 1) as f64).round() as usize;
        let row = (p.y * (height - 1) as f64).round() as usize;
        (height - 1 - row.min(height - 1), col.min(width - 1))
    };
    for p in &pts {
        let (r, c) = place(p);
        if grid[r][c] == ' ' {
            grid[r][c] = '.';
        }
    }
    for p in highlight.iter().filter_map(|&i| pts.get(i)) {
        let (r, c) = place(p);
        grid[r][c] = '*';
    }
    if let Some(p) = optimum.and_then(|i| pts.get(i)) {
        let (r, c) = place(p);
        grid[r][c] = 'O';
    }
    let mut out = String::new();
    out.push_str("utilization\n");
    for row in grid {
        out.push('|');
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str("> efficiency\n");
    out
}

/// Percentage of `part` in `whole`, `-` when the whole is zero.
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Render the human-readable profile summary of one search's
/// [`EngineMetrics`]: evaluation counts and cache behaviour, the
/// simulated stall breakdown, and — when wall-clock data was collected —
/// per-phase wall time and worker utilization.
pub fn profile_table(m: &EngineMetrics) -> String {
    let mut rows: Vec<Vec<String>> = vec![vec!["metric".into(), "value".into(), "share".into()]];
    let mut row = |k: &str, v: String, s: String| rows.push(vec![k.into(), v, s]);
    let s = &m.stats;
    let timed = s.timed as u64;
    row("static evals", s.static_evals.to_string(), String::new());
    row("timed candidates", s.timed.to_string(), String::new());
    row("sims executed", s.unique_sims.to_string(), pct(s.unique_sims as u64, timed));
    row("sims memoized", s.cache_hits.to_string(), pct(s.cache_hits as u64, timed));
    row("cache hit rate", format!("{:.1}%", 100.0 * m.cache_hit_rate()), String::new());
    row("family forks", s.family_forks.to_string(), String::new());
    row("family members", s.family_members.to_string(), String::new());
    row("retries", s.retries.to_string(), String::new());
    row("quarantined", s.quarantined.to_string(), String::new());
    if s.bound_pruned_subspaces > 0 || s.bound_pruned_points > 0 {
        row("bound-pruned subspaces", s.bound_pruned_subspaces.to_string(), String::new());
        row(
            "bound-pruned points",
            s.bound_pruned_points.to_string(),
            pct(s.bound_pruned_points as u64, (s.bound_pruned_points + s.static_evals) as u64),
        );
    }
    if s.store_hits > 0 || s.store_records_dropped > 0 {
        row("store hits", s.store_hits.to_string(), pct(s.store_hits as u64, timed));
        row("store dropped records", s.store_records_dropped.to_string(), String::new());
    }
    row("fuel consumed", s.fuel_consumed.to_string(), String::new());
    row("sim cycles", s.sim_cycles.to_string(), String::new());
    let stalls = m.stall_total_cycles();
    row("stall cycles", stalls.to_string(), pct(stalls, s.sim_cycles));
    row("  memory", s.stall_mem_cycles.to_string(), pct(s.stall_mem_cycles, stalls.max(1)));
    row("  sfu", s.stall_sfu_cycles.to_string(), pct(s.stall_sfu_cycles, stalls.max(1)));
    row("  arithmetic", s.stall_arith_cycles.to_string(), pct(s.stall_arith_cycles, stalls.max(1)));
    row("  other", s.stall_other_cycles.to_string(), pct(s.stall_other_cycles, stalls.max(1)));
    if !m.convergence.is_empty() {
        row("convergence samples", m.convergence.samples.len().to_string(), String::new());
        if let Some(n) = m.convergence.sims_to_optimum() {
            row("sims to optimum", n.to_string(), pct(n, timed));
        }
        if let Some(u) = m.convergence.unique_to_optimum() {
            row("unique sims to optimum", u.to_string(), pct(u, s.unique_sims as u64));
        }
    }
    let rt = &m.runtime;
    if rt.static_wall_us + rt.timing_wall_us > 0 {
        let wall = rt.static_wall_us + rt.timing_wall_us;
        row("jobs", rt.jobs.to_string(), String::new());
        row("static wall", fmt_ms(rt.static_wall_us as f64 / 1e3), pct(rt.static_wall_us, wall));
        row("timing wall", fmt_ms(rt.timing_wall_us as f64 / 1e3), pct(rt.timing_wall_us, wall));
        row("worker busy", fmt_ms(rt.worker_busy_us as f64 / 1e3), String::new());
        row(
            "worker utilization",
            format!("{:.1}%", 100.0 * rt.worker_utilization()),
            String::new(),
        );
        row("workers spawned", rt.workers_spawned.to_string(), String::new());
    }
    let lat = |h: &Histogram| {
        format!("p50 {} / p95 {}", fmt_us(h.percentile_us(0.5)), fmt_us(h.percentile_us(0.95)))
    };
    if rt.sim_duration_hist.count() > 0 {
        row("sim latency", lat(&rt.sim_duration_hist), String::new());
    }
    if rt.cache_lookup_hist.count() > 0 {
        row("cache lookup latency", lat(&rt.cache_lookup_hist), String::new());
    }
    if rt.store_io_hist.count() > 0 {
        row("store io latency", lat(&rt.store_io_hist), String::new());
    }
    if rt.decode_hist.count() > 0 {
        row("decode latency", lat(&rt.decode_hist), String::new());
    }
    // Numeric value and share columns keep a straight right edge even
    // when a fine-grid count outgrows the header width.
    table_aligned(&rows, &[false, true, true])
}

/// Format milliseconds with adaptive precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0} ms")
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} us", ms * 1e3)
    }
}

/// Format a microsecond value with adaptive precision.
pub fn fmt_us(us: u64) -> String {
    fmt_ms(us as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineStats;

    #[test]
    fn table_alignment() {
        let t =
            table(&[vec!["a".into(), "long-header".into()], vec!["wide-cell".into(), "x".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("---"));
        // Columns aligned: both data rows start the 2nd column at the
        // same offset.
        let col = lines[0].find("long-header").unwrap();
        assert_eq!(lines[2].chars().nth(col), Some('x'));
    }

    #[test]
    fn empty_table() {
        assert_eq!(table(&[]), "");
    }

    #[test]
    fn right_aligned_columns_keep_a_straight_right_edge() {
        let t = table_aligned(
            &[
                vec!["metric".into(), "value".into()],
                vec!["short".into(), "7".into()],
                vec!["long".into(), "123456789012".into()],
            ],
            &[false, true],
        );
        assert_eq!(
            t,
            "metric         value\n\
             --------------------\n\
             short              7\n\
             long    123456789012\n"
        );
    }

    #[test]
    fn profile_values_stay_aligned_when_a_count_outgrows_its_column() {
        // A fine-grid-scale count must not shift the value column: the
        // value cells of share-less rows end at the same offset.
        let m = EngineMetrics::from_stats(&EngineStats {
            static_evals: 10,
            timed: 8,
            unique_sims: 2,
            cache_hits: 6,
            fuel_consumed: 123_456_789_012_345,
            sim_cycles: 7,
            ..Default::default()
        });
        let t = profile_table(&m);
        let end =
            |key: &str| t.lines().find(|l| l.starts_with(key)).map(|l| l.trim_end().len()).unwrap();
        assert_eq!(end("fuel consumed"), end("family forks"));
    }

    #[test]
    fn normalize_scales_max_to_one() {
        let pts = vec![Point::new(2.0, 10.0), Point::new(1.0, 5.0)];
        let n = normalize(&pts);
        assert_eq!(n[0].x, 1.0);
        assert_eq!(n[0].y, 1.0);
        assert_eq!(n[1].x, 0.5);
        assert_eq!(n[1].y, 0.5);
    }

    #[test]
    fn normalize_handles_zero_axis() {
        let pts = vec![Point::new(0.0, 0.0)];
        let n = normalize(&pts);
        assert_eq!(n[0].x, 0.0);
    }

    #[test]
    fn scatter_marks_pareto_and_optimum() {
        let pts = vec![Point::new(1.0, 0.2), Point::new(0.2, 1.0), Point::new(0.5, 0.5)];
        let s = ascii_scatter(&pts, &[0, 1], Some(2), 20, 10);
        assert!(s.contains('*'));
        assert!(s.contains('O'));
        assert!(s.contains("efficiency"));
    }

    #[test]
    fn degenerate_tables_and_scatters_do_not_panic() {
        // All-empty rows: zero columns.
        assert!(table(&[vec![], vec![]]).contains('\n'));
        // Zero-sized canvas and out-of-range indices are tolerated.
        let pts = vec![Point::new(1.0, 0.5)];
        let s = ascii_scatter(&pts, &[0, 99], Some(42), 0, 0);
        assert!(s.contains("efficiency"));
        // Empty point set.
        assert!(ascii_scatter(&[], &[], None, 10, 5).contains("efficiency"));
    }

    #[test]
    fn profile_table_renders_and_hides_empty_runtime() {
        let mut m = EngineMetrics::from_stats(&EngineStats {
            static_evals: 10,
            timed: 8,
            unique_sims: 2,
            cache_hits: 6,
            sim_cycles: 1_000,
            stall_mem_cycles: 100,
            stall_arith_cycles: 50,
            ..Default::default()
        });
        let t = profile_table(&m);
        assert!(t.contains("cache hit rate"));
        assert!(t.contains("75.0%"));
        assert!(!t.contains("worker utilization"), "no runtime data yet:\n{t}");
        assert!(!t.contains("bound-pruned"), "no bound pruning happened:\n{t}");
        m.stats.bound_pruned_subspaces = 3;
        m.stats.bound_pruned_points = 90;
        let t = profile_table(&m);
        assert!(t.contains("bound-pruned subspaces"));
        assert!(t.contains("90.0%"), "90 pruned of 100 considered:\n{t}");
        m.stats.bound_pruned_subspaces = 0;
        m.stats.bound_pruned_points = 0;
        m.runtime.jobs = 4;
        m.runtime.static_wall_us = 500;
        m.runtime.timing_wall_us = 1_500;
        m.runtime.worker_busy_us = 4_000;
        let t = profile_table(&m);
        assert!(t.contains("worker utilization"));
        assert!(t.contains("50.0%"), "busy 4ms over 4×2ms capacity:\n{t}");
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(250.0), "250 ms");
        assert_eq!(fmt_ms(4.25), "4.25 ms");
        assert_eq!(fmt_ms(0.5), "500.0 us");
    }
}
