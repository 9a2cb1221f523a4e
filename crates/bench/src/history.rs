//! Bench history reading: the reader side of [`crate::artifact`].
//!
//! Every measured bench run appends one line to the trajectory,
//! `BENCH_history.jsonl` — a flat JSON object with `"type":"bench_run"`,
//! the git `rev`, run provenance and the measured cells (see
//! `docs/OBSERVABILITY.md`). It is the only bench store: the report and
//! its `--gate` ([`crate::report`]) and the in-run check
//! ([`crate::trajectory`]) all read it through [`parse_history`].
//!
//! Lines are parsed with the workspace codec ([`ssp_probe::json`]). Cells
//! are keyed by [`cell_from`], the one cell-key rule writer and readers
//! share: string fields plus `n` (e.g. `family=agreeable,n=200`) identify
//! a cell and its `*_ms` fields are the gated metrics; other numeric fields
//! (speedups, counters, energies) ride along as context but are not gated.

use ssp_probe::json::{self, Json};

/// One measured cell: a stable key (string fields + `n`) and its timing
/// metrics (every `*_ms` field).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Stable identity, e.g. `family=agreeable,n=200`.
    pub key: String,
    /// `(name, milliseconds)` for every `*_ms` field, in artifact order.
    pub metrics: Vec<(String, f64)>,
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
