//! The perf-trajectory report over `BENCH_history.jsonl`, behind
//! `speedscale bench report`.
//!
//! Where `bench-diff` compares exactly two artifacts under one global
//! threshold, this module reads the *whole* accumulated trajectory and
//! renders, per cell and per `*_ms` metric, a unicode sparkline across
//! revisions together with best/latest/delta columns — and judges the
//! latest point against the cell's own **history-calibrated noise band**
//! (`ssp_probe::calib`, robust dispersion over a trailing window) instead
//! of a one-size-fits-all percentage. A 6 µs cell and a 1.3 s cell each
//! get the band their own run-to-run noise earns.
//!
//! Flagged rows are linked to root causes when the bench harness attached
//! a probe trace (see [`crate::trajectory`]): the report looks for
//! `<trace_dir>/<bench>__<key>.jsonl`, diffs it against
//! `<trace_dir>/baseline/<same>.jsonl` when a baseline exists, and folds
//! the hottest spans otherwise — so "got slower" comes annotated with
//! "which span / which counter".

use crate::history::BenchRun;
use crate::trajectory::sanitize_key;
use std::fmt::Write as _;

/// Trailing history runs a cell's noise band is calibrated over, here and
/// in the in-run check of [`crate::trajectory`].
pub const DEFAULT_WINDOW: usize = 8;

/// Noise floor in milliseconds: a latest point below it never flags (the
/// same default `bench-diff` applies).
pub const DEFAULT_MIN_MS: f64 = 0.05;

/// Sparkline width cap: only the trailing this-many points are drawn.
pub const SPARK_POINTS: usize = 24;

/// One (bench, cell, metric) trajectory with its calibrated verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Bench id the cell belongs to.
    pub bench: String,
    /// Cell key (`family=...,n=...`).
    pub key: String,
    /// Metric name (`fast_ms`, ...).
    pub metric: String,
    /// Finite samples in run order (runs missing the metric are skipped).
    pub series: Vec<f64>,
    /// Fastest point ever seen.
    pub best: f64,
    /// The most recent point.
    pub latest: f64,
    /// Median of the trailing window *before* the latest point; `None`
    /// when the trajectory has a single point (nothing to compare).
    pub baseline: Option<f64>,
    /// Calibrated relative band over that window.
    pub band: f64,
    /// `latest/baseline - 1`, when a baseline exists.
    pub delta: Option<f64>,
    /// Latest point crossed the calibrated band (above the noise floor).
    pub flagged: bool,
}

/// Fold parsed history runs into per-cell metric trajectories, verdicting
/// each latest point against the median and [`ssp_probe::calib`] band of
/// the `window` points preceding it. Rows appear in first-seen order
/// (bench, then cell, then metric).
pub fn trajectory_rows(runs: &[BenchRun], window: usize, min_ms: f64) -> Vec<MetricRow> {
    let mut rows: Vec<MetricRow> = Vec::new();
    for run in runs {
        for cell in &run.cells {
            for &(ref metric, value) in &cell.metrics {
                if !value.is_finite() {
                    continue;
                }
                let found = rows
                    .iter_mut()
                    .find(|r| r.bench == run.bench && r.key == cell.key && &r.metric == metric);
                match found {
                    Some(row) => row.series.push(value),
                    None => rows.push(MetricRow {
                        bench: run.bench.clone(),
                        key: cell.key.clone(),
                        metric: metric.clone(),
                        series: vec![value],
                        best: 0.0,
                        latest: 0.0,
                        baseline: None,
                        band: 0.0,
                        delta: None,
                        flagged: false,
                    }),
                }
            }
        }
    }
    for row in &mut rows {
        let n = row.series.len();
        row.latest = row.series[n - 1];
        row.best = row.series.iter().copied().fold(f64::INFINITY, f64::min);
        let prior = &row.series[..n - 1];
        let start = prior.len().saturating_sub(window.max(1));
        let trailing = &prior[start..];
        row.baseline = ssp_probe::calib::median(trailing);
        row.band = ssp_probe::calib::noise_band(trailing);
        if let Some(baseline) = row.baseline {
            row.delta = Some(row.latest / baseline - 1.0);
            row.flagged = ssp_probe::calib::crosses(row.latest, baseline, row.band, min_ms);
        }
    }
    rows
}

/// Render a series as a unicode sparkline (trailing `SPARK_POINTS`
/// points, min-max normalized; a flat series draws mid-height blocks).
pub fn sparkline(series: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let start = series.len().saturating_sub(SPARK_POINTS);
    let tail = &series[start..];
    let lo = tail.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    tail.iter()
        .map(|v| {
            if hi <= lo {
                BLOCKS[3]
            } else {
                let t = (v - lo) / (hi - lo);
                BLOCKS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Number of flagged rows.
pub fn flagged(rows: &[MetricRow]) -> usize {
    rows.iter().filter(|r| r.flagged).count()
}

/// Render the trajectory table, either as aligned text or as a
/// GitHub-flavored markdown table (one table per bench in both cases).
pub fn render(rows: &[MetricRow], markdown: bool) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("no bench_run lines in the trajectory\n");
        return out;
    }
    let mut benches: Vec<&str> = Vec::new();
    for row in rows {
        if !benches.contains(&row.bench.as_str()) {
            benches.push(&row.bench);
        }
    }
    for bench in benches {
        let bench_rows: Vec<&MetricRow> = rows.iter().filter(|r| r.bench == bench).collect();
        if markdown {
            let _ = writeln!(out, "### {bench}\n");
            let _ = writeln!(
                out,
                "| cell | metric | runs | trend | best | latest | delta | band | |"
            );
            let _ = writeln!(out, "|---|---|---:|---|---:|---:|---:|---:|---|");
            for r in bench_rows {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {:.4} | {:.4} | {} | {} | {} |",
                    r.key,
                    r.metric,
                    r.series.len(),
                    sparkline(&r.series),
                    r.best,
                    r.latest,
                    delta_cell(r),
                    band_cell(r),
                    if r.flagged { "**regressed**" } else { "" }
                );
            }
            out.push('\n');
        } else {
            let _ = writeln!(out, "bench {bench}");
            let _ = writeln!(
                out,
                "  {:<34} {:<16} {:>4} {:<24} {:>10} {:>10} {:>8} {:>6}",
                "cell", "metric", "runs", "trend", "best", "latest", "delta", "band"
            );
            for r in bench_rows {
                let _ = writeln!(
                    out,
                    "  {:<34} {:<16} {:>4} {:<24} {:>10.4} {:>10.4} {:>8} {:>6}{}",
                    r.key,
                    r.metric,
                    r.series.len(),
                    sparkline(&r.series),
                    r.best,
                    r.latest,
                    delta_cell(r),
                    band_cell(r),
                    if r.flagged { " !" } else { "" }
                );
            }
        }
    }
    let n = flagged(rows);
    let _ = writeln!(
        out,
        "{n} regression(s) past the history-calibrated band{}",
        if markdown { "" } else { " (flagged with !)" }
    );
    out
}

fn delta_cell(r: &MetricRow) -> String {
    match r.delta {
        Some(d) => format!("{:+.1}%", d * 100.0),
        None => "-".to_string(),
    }
}

fn band_cell(r: &MetricRow) -> String {
    if r.baseline.is_some() {
        format!("{:.0}%", r.band * 100.0)
    } else {
        "-".to_string()
    }
}

/// Render the root-cause section for flagged rows: for every flagged cell
/// with an attached trace under `dir`, either a span/counter/histogram
/// diff against `dir/baseline/<same file>` (when a baseline trace exists)
/// or the hottest folded stacks of the attached trace alone. Cells
/// without an attachment are listed so the absence is visible.
pub fn render_attachments(rows: &[MetricRow], dir: &str) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    for row in rows.iter().filter(|r| r.flagged) {
        let stem = format!("{}__{}.jsonl", row.bench, sanitize_key(&row.key));
        if seen.contains(&stem) {
            continue;
        }
        seen.push(stem.clone());
        if out.is_empty() {
            out.push_str("attached traces:\n");
        }
        let path = std::path::Path::new(dir).join(&stem);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                let _ = writeln!(
                    out,
                    "  {} {}: no attached trace ({} not found)",
                    row.bench,
                    row.key,
                    path.display()
                );
                continue;
            }
        };
        let trace = match ssp_probe::Trace::parse(&text) {
            Ok(trace) => trace,
            Err(e) => {
                let _ = writeln!(out, "  {} {}: unreadable trace: {e}", row.bench, row.key);
                continue;
            }
        };
        let base_path = std::path::Path::new(dir).join("baseline").join(&stem);
        let base = std::fs::read_to_string(&base_path)
            .ok()
            .and_then(|t| ssp_probe::Trace::parse(&t).ok());
        match base {
            Some(base) => {
                let _ = writeln!(
                    out,
                    "  {} {}: trace diff vs baseline (threshold = calibrated band {:.0}%)",
                    row.bench,
                    row.key,
                    row.band * 100.0
                );
                for line in ssp_probe::diff(&base, &trace, row.band).lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {} {}: hottest spans of the attached trace (no baseline at {})",
                    row.bench,
                    row.key,
                    base_path.display()
                );
                for line in hottest_folded(&trace, 10) {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
    }
    out
}

/// The `fold` output of a trace, sorted by self time, truncated to `top`
/// stacks.
fn hottest_folded(trace: &ssp_probe::Trace, top: usize) -> Vec<String> {
    let self_ns = |line: &str| -> u64 {
        line.rsplit(' ')
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let mut lines: Vec<String> = trace.folded().lines().map(str::to_string).collect();
    lines.sort_by_key(|l| std::cmp::Reverse(self_ns(l)));
    lines.truncate(top);
    lines
}
