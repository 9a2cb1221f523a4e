//! Bench-side trajectory analysis: history-calibrated regression checks
//! and auto-attached probe traces.
//!
//! A measured bench run knows two things the offline report does not: it
//! holds the freshly measured cells *before* they are appended to
//! `BENCH_history.jsonl`, and it can still re-run any cell. This module
//! closes that loop. [`detect_regressions`] compares the new cells against
//! each cell's own trailing history window using the shared
//! `ssp_probe::calib` noise bands, and [`write_attachment`] stores a probe
//! trace of a regressed cell next to the artifact (under
//! [`TRACE_DIR_ENV`]), so `ssp bench report` can later link "got slower"
//! to "which span / which counter" via `trace diff` without a manual
//! repro.
//!
//! The check is the offline report run one step early: the history is
//! read by [`crate::history::parse_history`] and judged by
//! [`crate::report::trajectory_rows`], with the fresh run appended as the
//! latest point.

use crate::artifact::resolve_artifact_path;
use crate::history::{parse_history, BenchCell, BenchRun};
use crate::report::{trajectory_rows, MetricRow, DEFAULT_MIN_MS, DEFAULT_WINDOW};
use std::path::PathBuf;

/// Environment variable enabling auto-attached traces: the directory
/// (resolved like artifact paths) regressed-cell traces are written to.
pub const TRACE_DIR_ENV: &str = "SSP_BENCH_TRACE_DIR";

/// One calibrated crossing: a freshly measured metric outside its cell's
/// historical noise band.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Cell key (`family=...,n=...`).
    pub key: String,
    /// Metric name (`fast_ms`, `ladder_ms`, ...).
    pub metric: String,
    /// Freshly measured milliseconds.
    pub latest: f64,
    /// Baseline: median of the trailing history window.
    pub baseline: f64,
    /// The calibrated relative band the latest value crossed.
    pub band: f64,
    /// Relative slowdown, `latest/baseline - 1`.
    pub delta: f64,
}

/// Compare freshly measured `cells` of `bench` against `history_text`
/// (the accumulated `BENCH_history.jsonl`, read *before* appending this
/// run): the report's [`trajectory_rows`] over the history with the fresh
/// run appended, so every `*_ms` metric with at least one historical sample
/// is judged against the median and calibrated band of its trailing
/// `window` samples. Crossings above the [`DEFAULT_MIN_MS`] floor are
/// returned in cell order; unreadable history lines are skipped.
pub fn detect_regressions(
    bench: &str,
    cells: &[BenchCell],
    history_text: &str,
    window: usize,
) -> Vec<Regression> {
    let (mut runs, _) = parse_history(history_text);
    runs.retain(|run| run.bench == bench);
    runs.push(BenchRun {
        bench: bench.to_string(),
        rev: String::new(),
        ts: None,
        threads: None,
        host: None,
        cells: cells.to_vec(),
    });
    let rows = trajectory_rows(&runs, window, DEFAULT_MIN_MS);
    let mut out = Vec::new();
    for cell in cells {
        // A non-finite fresh value is not a point, so its row's latest
        // would be an old one.
        for (metric, latest) in cell.metrics.iter().filter(|(_, v)| v.is_finite()) {
            let flagged = rows
                .iter()
                .find(|r| r.flagged && r.key == cell.key && &r.metric == metric);
            if let Some(MetricRow {
                baseline: Some(baseline),
                delta: Some(delta),
                band,
                ..
            }) = flagged
            {
                out.push(Regression {
                    key: cell.key.clone(),
                    metric: metric.clone(),
                    latest: *latest,
                    baseline: *baseline,
                    band: *band,
                    delta: *delta,
                });
            }
        }
    }
    out
}

/// The auto-attach trace directory, if enabled via [`TRACE_DIR_ENV`].
pub fn trace_dir() -> Option<String> {
    std::env::var(TRACE_DIR_ENV).ok().filter(|d| !d.is_empty())
}

/// A cell key as a filesystem-safe file stem: every character outside
/// `[A-Za-z0-9._-]` becomes `_`. The report looks attachments up by the
/// same stem.
pub fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Where a cell's attached trace lives: `<dir>/<bench>__<key>.jsonl`,
/// with `dir` resolved like artifact paths (relative → workspace root).
pub fn attachment_path(dir: &str, bench: &str, key: &str) -> PathBuf {
    resolve_artifact_path(dir).join(format!("{bench}__{}.jsonl", sanitize_key(key)))
}

/// Write a regressed cell's probe trace to [`attachment_path`], creating
/// the directory if needed. Returns the written path.
pub fn write_attachment(
    dir: &str,
    bench: &str,
    key: &str,
    trace: &ssp_probe::Trace,
) -> std::io::Result<PathBuf> {
    let path = attachment_path(dir, bench, key);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, trace.to_jsonl())?;
    Ok(path)
}

/// Re-run one untimed iteration of a regressed cell under a probe session
/// and write the trace. Returns the path, or `None` when the probe is
/// busy elsewhere or the write failed (attachment is best-effort — it
/// must never fail the bench run itself).
pub fn attach_probe_rerun<O>(
    dir: &str,
    bench: &str,
    key: &str,
    mut rerun: impl FnMut() -> O,
) -> Option<PathBuf> {
    let session = ssp_probe::Session::begin()?;
    std::hint::black_box(rerun());
    let trace = session.end();
    match write_attachment(dir, bench, key, &trace) {
        Ok(path) => {
            eprintln!(
                "attached probe trace for regressed cell {key}: {}",
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write trace attachment for {key}: {e}");
            None
        }
    }
}

/// Parse a `family=...,n=...` cell key back into its parts, so a bench
/// main can rebuild the regressed instance for a probe re-run.
pub fn parse_family_n(key: &str) -> Option<(String, usize)> {
    let mut family = None;
    let mut n = None;
    for part in key.split(',') {
        let (k, v) = part.split_once('=')?;
        match k {
            "family" => family = Some(v.to_string()),
            "n" => n = v.parse().ok(),
            _ => {}
        }
    }
    Some((family?, n?))
}

/// The full in-run gate for a structured kernel bench: compare fresh
/// cells against the history at `history_path` (as it stands, i.e.
/// *before* this run is appended), report every calibrated crossing on
/// stderr, and — when [`TRACE_DIR_ENV`] is set — re-run each regressed
/// cell once under a probe session via `rerun(family, n)` and attach the
/// trace. Returns the regressions so the caller can surface them further.
pub fn check_and_attach(
    bench: &str,
    metas: &[BenchCell],
    history_path: &str,
    mut rerun: impl FnMut(&str, usize),
) -> Vec<Regression> {
    let prior = std::fs::read_to_string(resolve_artifact_path(history_path)).unwrap_or_default();
    let regs = detect_regressions(bench, metas, &prior, DEFAULT_WINDOW);
    let mut attached: Vec<String> = Vec::new();
    for reg in &regs {
        eprintln!(
            "regressed {bench} {} {}: {:.4} ms vs baseline {:.4} ms (+{:.1}% > band {:.1}%)",
            reg.key,
            reg.metric,
            reg.latest,
            reg.baseline,
            reg.delta * 100.0,
            reg.band * 100.0
        );
        if attached.contains(&reg.key) {
            continue;
        }
        attached.push(reg.key.clone());
        if let Some(dir) = trace_dir() {
            if let Some((family, n)) = parse_family_n(&reg.key) {
                attach_probe_rerun(&dir, bench, &reg.key, || rerun(&family, n));
            }
        }
    }
    regs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, CellBuilder, RunMeta};

    fn run_line(rev: &str, fast_ms: f64) -> String {
        Artifact {
            bench: "yds_kernel".into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![CellBuilder::new("agreeable", 200)
                .metric_ms("fast_ms", fast_ms)
                .int("peels", 40)
                .render()],
        }
        .history_line_with(
            rev,
            &RunMeta {
                commit_ts: Some(1754000000),
                threads: 4,
                host: "aabbccdd".into(),
            },
        )
    }

    fn history(values: &[f64]) -> String {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| run_line(&format!("rev{i}"), *v))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    }

    fn fresh(fast_ms: f64) -> Vec<BenchCell> {
        vec![CellBuilder::new("agreeable", 200)
            .metric_ms("fast_ms", fast_ms)
            .meta()]
    }

    #[test]
    fn calibrated_step_is_caught_and_noise_passes() {
        let hist = history(&[0.100, 0.102, 0.098, 0.101, 0.099]);
        // In-noise fresh value: clean.
        assert!(detect_regressions("yds_kernel", &fresh(0.101), &hist, 8).is_empty());
        // A 20% step crosses the calibrated band.
        let hits = detect_regressions("yds_kernel", &fresh(0.120), &hist, 8);
        assert_eq!(hits.len(), 1);
        let r = &hits[0];
        assert_eq!(r.key, "family=agreeable,n=200");
        assert_eq!(r.metric, "fast_ms");
        assert!((r.baseline - 0.100).abs() < 1e-12);
        assert!(r.delta > 0.15 && r.band < r.delta, "{r:?}");
        // Another bench's history is invisible.
        assert!(detect_regressions("bal_kernel", &fresh(0.120), &hist, 8).is_empty());
    }

    #[test]
    fn sub_floor_cells_and_unknown_cells_never_regress() {
        let hist = history(&[0.010, 0.010, 0.010, 0.010]);
        // 3x slowdown but under the 0.05 ms floor: not a regression.
        assert!(detect_regressions("yds_kernel", &fresh(0.030), &hist, 8).is_empty());
        // A cell with no history at all: nothing to calibrate against.
        let unknown = vec![CellBuilder::new("crossing", 800)
            .metric_ms("fast_ms", 9.9)
            .meta()];
        assert!(detect_regressions("yds_kernel", &unknown, &hist, 8).is_empty());
    }

    #[test]
    fn window_limits_the_calibration_to_trailing_runs() {
        // Ancient slow epoch followed by a fast quiet one: with a window
        // of 3 the baseline is the fast epoch, so a return to the old
        // speed IS a regression.
        let hist = history(&[0.200, 0.210, 0.190, 0.205, 0.100, 0.101, 0.099]);
        let hits = detect_regressions("yds_kernel", &fresh(0.200), &hist, 3);
        assert_eq!(hits.len(), 1);
        assert!((hits[0].baseline - 0.1).abs() < 0.01, "{:?}", hits[0]);
        // The full window is dominated by the slow epoch: baseline sits
        // high and the bimodal dispersion widens the band past the step.
        assert!(detect_regressions("yds_kernel", &fresh(0.200), &hist, 100).is_empty());
    }

    #[test]
    fn malformed_and_foreign_lines_are_skipped() {
        let hist = format!(
            "{}\nnot json at all\n{}\n{{\"type\": \"bench_run\", \"bench\": \"yds_kernel\", \"cells\": [{{\"family\": \"agreeable\", \"n\": 200, \"fast_ms\": NaN}}]}}\n{}",
            run_line("a", 0.100),
            r#"{"type": "other_record", "bench": "yds_kernel"}"#,
            run_line("b", 0.101)
        );
        // Two usable samples (NaN dropped) → too few for a tight band but
        // the scan itself must not choke.
        let hits = detect_regressions("yds_kernel", &fresh(0.2), &hist, 8);
        assert_eq!(hits.len(), 1, "median of 2 samples still baselines");
    }

    #[test]
    fn parse_family_n_round_trips() {
        assert_eq!(
            parse_family_n("family=agreeable,n=200"),
            Some(("agreeable".to_string(), 200))
        );
        assert_eq!(parse_family_n("family=crossing"), None, "missing n");
        assert_eq!(parse_family_n("no_equals_here"), None);
    }

    #[test]
    fn attachment_paths_are_sanitized_and_written() {
        assert_eq!(
            sanitize_key("family=agreeable,n=200"),
            "family_agreeable_n_200"
        );
        let dir = std::env::temp_dir().join(format!("ssp_traj_{}", std::process::id()));
        let dir_s = dir.to_string_lossy().into_owned();
        let path = attachment_path(&dir_s, "yds_kernel", "family=agreeable,n=200");
        assert!(path
            .to_string_lossy()
            .ends_with("yds_kernel__family_agreeable_n_200.jsonl"));
        let trace = ssp_probe::Trace {
            spans: Vec::new(),
            counters: vec![("demo.events".into(), 3)],
            hists: Vec::new(),
            error: None,
        };
        let written = write_attachment(&dir_s, "yds_kernel", "family=agreeable,n=200", &trace)
            .expect("attachment writes");
        let back = ssp_probe::Trace::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(back.counter("demo.events"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
