//! Bench artifact reading and the `bench-diff` regression gate: the
//! reader side of [`crate::artifact`].
//!
//! The bench harness writes two kinds of artifacts (see
//! `docs/OBSERVABILITY.md`):
//!
//! * **Snapshots** — one pretty-printed JSON object per file
//!   (`BENCH_yds.json`): `{"bench":..., "unit":..., "cells":[{...}, ...]}`.
//! * **Trajectories** — `BENCH_history.jsonl`, one flat-written JSON object
//!   per line with `"type":"bench_run"`, the git `rev`, and the same cells;
//!   appended by every measured bench run.
//!
//! Both are parsed with the workspace codec ([`ssp_probe::json`]). Cells
//! are keyed by [`cell_from`], the one cell-key rule writer and readers
//! share: string fields plus `n` (e.g. `family=agreeable,n=200`) identify
//! a cell and its `*_ms` fields are the gated metrics; other numeric fields
//! (speedups, counters, energies) ride along as context but are not gated.

use ssp_probe::json::{self, Json};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Bench artifacts
// ---------------------------------------------------------------------------

/// One measured cell: a stable key (string fields + `n`) and its timing
/// metrics (every `*_ms` field).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Stable identity, e.g. `family=agreeable,n=200`.
    pub key: String,
    /// `(name, milliseconds)` for every `*_ms` field, in artifact order.
    pub metrics: Vec<(String, f64)>,
}

/// A parsed bench artifact: either one snapshot object or the last run of a
/// `BENCH_history.jsonl` trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Bench id (`"yds_kernel"`); empty if the artifact does not carry one.
    pub bench: String,
    /// Git revision for history lines; `None` for snapshot files.
    pub rev: Option<String>,
    /// The measured cells.
    pub cells: Vec<BenchCell>,
}

/// Parse a bench artifact from file text. A single JSON object is read as a
/// snapshot; multi-line text is treated as a history trajectory and the
/// *last* line carrying a `cells` array wins (the most recent run).
pub fn parse_artifact(text: &str) -> Result<BenchArtifact, String> {
    // Snapshots are one (possibly pretty-printed) document; history files
    // are strict JSONL. Try the whole text first, then fall back to the
    // last history line carrying cells (the most recent run).
    let doc = match json::parse(text.trim()) {
        Ok(doc) => doc,
        Err(whole_err) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .rev()
            .find_map(|l| json::parse(l).ok().filter(|j| j.get("cells").is_some()))
            .ok_or_else(|| {
                format!(
                    "neither a JSON snapshot ({whole_err}) nor a JSONL history with a 'cells' line"
                )
            })?,
    };
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "artifact has no 'cells' array".to_string())?;
    Ok(BenchArtifact {
        bench: doc
            .get("bench")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        rev: doc.get("rev").and_then(Json::as_str).map(str::to_string),
        cells: cells.iter().map(cell_from).collect(),
    })
}

/// One `bench_run` line of a `BENCH_history.jsonl` trajectory, with the
/// run-level environment metadata newer writers append (`None` on v1
/// lines, which carried none).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Bench id (`"yds_kernel"`).
    pub bench: String,
    /// Short git revision the run was taken at.
    pub rev: String,
    /// Unix timestamp of the HEAD commit at run time.
    pub ts: Option<f64>,
    /// Effective worker thread count of the run.
    pub threads: Option<u64>,
    /// Host fingerprint (hex hash); cross-host comparisons are noise.
    pub host: Option<String>,
    /// The measured cells, deduplicated by key (first occurrence wins).
    pub cells: Vec<BenchCell>,
}

/// Parse a whole history trajectory: every `bench_run` line, in file
/// order, with per-line resilience. Malformed lines (e.g. a run killed
/// mid-append leaving a truncated tail), duplicate cell keys within one
/// run, and non-finite `*_ms` metrics are *skipped with a warning* rather
/// than failing the parse — one bad append must not take down the whole
/// trajectory report. Lines that parse but are not `bench_run` records
/// are ignored silently (the file format admits other record types).
pub fn parse_history(text: &str) -> (Vec<BenchRun>, Vec<String>) {
    let mut runs = Vec::new();
    let mut warnings = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let doc = match json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                warnings.push(format!("line {lineno}: skipped unparseable line ({e})"));
                continue;
            }
        };
        if doc.get("type").and_then(Json::as_str) != Some("bench_run") {
            continue;
        }
        let Some(cells) = doc.get("cells").and_then(Json::as_arr) else {
            warnings.push(format!("line {lineno}: bench_run without a 'cells' array"));
            continue;
        };
        let mut run = BenchRun {
            bench: doc
                .get("bench")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            rev: doc
                .get("rev")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            ts: doc.get("ts").and_then(Json::as_f64),
            threads: doc
                .get("threads")
                .and_then(Json::as_f64)
                .filter(|t| t.is_finite() && *t >= 0.0)
                .map(|t| t as u64),
            host: doc.get("host").and_then(Json::as_str).map(str::to_string),
            cells: Vec::new(),
        };
        for cell in cells {
            let mut parsed = cell_from(cell);
            parsed.metrics.retain(|(name, v)| {
                if v.is_finite() {
                    true
                } else {
                    warnings.push(format!(
                        "line {lineno}: dropped non-finite metric {name} of cell {}",
                        parsed.key
                    ));
                    false
                }
            });
            if run.cells.iter().any(|c| c.key == parsed.key) {
                warnings.push(format!(
                    "line {lineno}: duplicate cell {} (kept the first)",
                    parsed.key
                ));
                continue;
            }
            run.cells.push(parsed);
        }
        runs.push(run);
    }
    (runs, warnings)
}

/// The cell-key rule: string fields plus `n` (in member order) form the
/// key, `*_ms` fields are the metrics. A `null` metric is how writers spell
/// a non-finite one; it reads as `NaN` so [`parse_history`] can drop it
/// with a warning.
pub fn cell_from(obj: &Json) -> BenchCell {
    let mut key = String::new();
    let mut metrics = Vec::new();
    if let Json::Obj(members) = obj {
        for (name, value) in members {
            let part = match (value, value.as_f64()) {
                (Json::Str(s), _) => format!("{name}={s}"),
                (_, Some(n)) if name == "n" => format!("n={n}"),
                (_, Some(ms)) if name.ends_with("_ms") => {
                    metrics.push((name.clone(), ms));
                    continue;
                }
                (Json::Null, _) if name.ends_with("_ms") => {
                    metrics.push((name.clone(), f64::NAN));
                    continue;
                }
                _ => continue,
            };
            if !key.is_empty() {
                key.push(',');
            }
            key.push_str(&part);
        }
    }
    BenchCell { key, metrics }
}

// ---------------------------------------------------------------------------
// The regression gate
// ---------------------------------------------------------------------------

/// One compared metric in [`BenchDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Cell key (`family=...,n=...`).
    pub key: String,
    /// Metric name (`fast_ms`, `ref_ms`, ...).
    pub metric: String,
    /// Old (baseline) milliseconds.
    pub old_ms: f64,
    /// New milliseconds.
    pub new_ms: f64,
    /// Relative change, `new/old - 1`.
    pub delta: f64,
    /// Past the threshold *and* above the noise floor.
    pub regressed: bool,
}

/// The result of comparing two bench artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Every metric present in both artifacts, in new-artifact order.
    pub rows: Vec<DiffRow>,
    /// Cell keys present in the baseline but gone from the new artifact.
    pub missing: Vec<String>,
    /// Cell keys new in this run (no baseline to compare).
    pub added: Vec<String>,
    /// The relative regression threshold used (fraction, e.g. `0.10`).
    pub threshold: f64,
    /// The noise floor used: cells whose new median is below this many
    /// milliseconds are reported but never gate (tiny-n cells are
    /// dominated by fixed kernel overhead and timer noise).
    pub min_ms: f64,
}

impl BenchDiff {
    /// Number of gating regressions.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Human-readable comparison table; regressions are flagged with `!`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:<10} {:>10} {:>10} {:>9}",
            "cell", "metric", "old", "new", "delta"
        );
        for r in &self.rows {
            let flag = if r.regressed {
                " !"
            } else if r.delta.abs() >= self.threshold {
                // Crossed the threshold but under the noise floor (or an
                // improvement): visible, not gating.
                " ~"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<36} {:<10} {:>10.4} {:>10.4} {:>+8.1}%{flag}",
                r.key,
                r.metric,
                r.old_ms,
                r.new_ms,
                r.delta * 100.0
            );
        }
        for key in &self.missing {
            let _ = writeln!(out, "{key:<36} missing from new artifact");
        }
        for key in &self.added {
            let _ = writeln!(out, "{key:<36} new cell (no baseline)");
        }
        let n = self.regressions();
        let _ = writeln!(
            out,
            "{n} regression(s) past {:.0}% (noise floor {} ms)",
            self.threshold * 100.0,
            self.min_ms
        );
        out
    }
}

/// Compare `new` against the `old` baseline. A row gates (`regressed`)
/// when its relative slowdown reaches `threshold` and the new median is at
/// least `min_ms` (sub-floor cells — e.g. the n=50 YDS cells, which sit in
/// fixed-overhead territory — never gate).
pub fn diff_artifacts(
    old: &BenchArtifact,
    new: &BenchArtifact,
    threshold: f64,
    min_ms: f64,
) -> BenchDiff {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    let mut added = Vec::new();
    for cell in &new.cells {
        let Some(base) = old.cells.iter().find(|c| c.key == cell.key) else {
            added.push(cell.key.clone());
            continue;
        };
        for (metric, new_ms) in &cell.metrics {
            let Some(&(_, old_ms)) = base.metrics.iter().find(|(m, _)| m == metric) else {
                continue;
            };
            let delta = if old_ms > 0.0 {
                new_ms / old_ms - 1.0
            } else {
                0.0
            };
            rows.push(DiffRow {
                key: cell.key.clone(),
                metric: metric.clone(),
                old_ms,
                new_ms: *new_ms,
                delta,
                regressed: delta >= threshold && *new_ms >= min_ms && old_ms > 0.0,
            });
        }
    }
    for cell in &old.cells {
        if !new.cells.iter().any(|c| c.key == cell.key) {
            missing.push(cell.key.clone());
        }
    }
    BenchDiff {
        rows,
        missing,
        added,
        threshold,
        min_ms,
    }
}
