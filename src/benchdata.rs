//! Tests of the bench-history reader in [`ssp_bench::history`] and of the
//! gate verdicts it feeds. They live in the root package, beside the CLI
//! that calls that module, so that `cargo test` at the repository root
//! (which runs only this package) covers the writer↔reader contract.

mod tests {
    use ssp_bench::history::*;
    use ssp_bench::report::{trajectory_rows, DEFAULT_MIN_MS, DEFAULT_WINDOW};

    fn run_line(rev: &str, fast_50: f64, fast_200: f64) -> String {
        format!(
            r#"{{"type":"bench_run","bench":"yds_kernel","rev":"{rev}","alpha":2.0,"unit":"ms_median","cells":[{{"family":"agreeable","n":50,"fast_ms":{fast_50},"ref_ms":0.006,"speedup":0.89}},{{"family":"agreeable","n":200,"fast_ms":{fast_200},"ref_ms":0.350,"speedup":3.1}}]}}"#
        )
    }

    /// Gate verdicts of a two-run history: a committed run, then a re-run.
    fn gate(fast_50: f64, fast_200: f64) -> Vec<ssp_bench::report::MetricRow> {
        let text = run_line("aaa111", 0.007, 0.113) + "\n" + &run_line("bbb222", fast_50, fast_200);
        let (runs, warnings) = parse_history(&text);
        assert!(warnings.is_empty(), "{warnings:?}");
        trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS)
    }

    #[test]
    fn artifact_cells_key_on_family_and_n() {
        let (runs, _) = parse_history(&run_line("aaa111", 0.007, 0.113));
        assert_eq!(runs[0].bench, "yds_kernel");
        assert_eq!(runs[0].cells.len(), 2);
        assert_eq!(runs[0].cells[1].key, "family=agreeable,n=200");
        assert_eq!(
            runs[0].cells[1].metrics,
            vec![("fast_ms".to_string(), 0.113), ("ref_ms".to_string(), 0.35)]
        );
    }

    #[test]
    fn history_takes_the_last_run() {
        let rows = gate(0.007, 0.120);
        let row = rows
            .iter()
            .find(|r| r.key == "family=agreeable,n=200" && r.metric == "fast_ms")
            .unwrap();
        assert_eq!(row.series, vec![0.113, 0.120]);
        assert_eq!(row.latest, 0.120, "the last line is the latest point");
        assert_eq!(row.baseline, Some(0.113));
    }

    #[test]
    fn unchanged_artifact_passes_and_regression_gates() {
        let same = gate(0.007, 0.113);
        assert_eq!(ssp_bench::report::flagged(&same), 0);
        // 10% injected regression on the n=200 cell: gates.
        let slow = gate(0.007, 0.113 * 1.101);
        assert_eq!(ssp_bench::report::flagged(&slow), 1);
        let row = slow.iter().find(|r| r.flagged).unwrap();
        assert_eq!(row.key, "family=agreeable,n=200");
        assert_eq!(row.metric, "fast_ms");
        assert!(ssp_bench::report::render(&slow, false).contains(" !"));
    }

    #[test]
    fn noise_floor_shields_tiny_cells() {
        // Double the n=50 cell (0.007 → 0.014 ms): far past the band, but
        // the new value is below the 0.05 ms floor, so it must not gate.
        let rows = gate(0.014, 0.113);
        assert_eq!(ssp_bench::report::flagged(&rows), 0);
        let row = rows
            .iter()
            .find(|r| r.key == "family=agreeable,n=50" && r.metric == "fast_ms")
            .unwrap();
        assert!(row.delta.unwrap() > 0.9, "visible but not gating: {row:?}");
    }

    /// Writer/reader contract: every history line `ssp_bench::artifact`
    /// emits must parse back here with the same keys and gated metrics.
    #[test]
    fn bench_writer_output_round_trips() {
        use ssp_bench::artifact::{Artifact, CellBuilder};
        let artifact = Artifact {
            bench: "yds_kernel".into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![CellBuilder::new("crossing", 800)
                .metric_ms("fast_ms", 1.25)
                .metric_ms("ref_ms", 14.5)
                .num("speedup", 11.6, 2)
                .int("peels", 220)
                .render()],
        };
        let (runs, warnings) = parse_history(&(artifact.history_line("abc1234") + "\n"));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].bench, "yds_kernel");
        assert_eq!(runs[0].rev, "abc1234");
        assert_eq!(runs[0].cells.len(), 1);
        assert_eq!(runs[0].cells[0].key, "family=crossing,n=800");
        assert_eq!(
            runs[0].cells[0].metrics,
            vec![("fast_ms".to_string(), 1.25), ("ref_ms".to_string(), 14.5)]
        );
    }

    #[test]
    fn history_parses_all_runs_with_metadata() {
        let text = format!(
            "{}\n{}\n",
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"aaa111","cells":[{"family":"agreeable","n":200,"fast_ms":0.100}]}"#,
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"bbb222","alpha":2,"unit":"ms_median","ts":1754500000,"threads":4,"host":"ab12cd34","cells":[{"family":"agreeable","n":200,"fast_ms":0.120}]}"#
        );
        let (runs, warnings) = parse_history(&text);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(runs.len(), 2);
        // v1 line: no metadata.
        assert_eq!(runs[0].rev, "aaa111");
        assert_eq!(runs[0].ts, None);
        assert_eq!(runs[0].threads, None);
        assert_eq!(runs[0].host, None);
        // v2 line: all three fields.
        assert_eq!(runs[1].ts, Some(1754500000.0));
        assert_eq!(runs[1].threads, Some(4));
        assert_eq!(runs[1].host.as_deref(), Some("ab12cd34"));
        assert_eq!(runs[1].cells[0].metrics[0].1, 0.120);
    }

    #[test]
    fn truncated_trailing_line_is_skipped_with_warning() {
        let text = format!(
            "{}\n{}",
            r#"{"type":"bench_run","bench":"b","rev":"aaa","cells":[{"family":"x","n":5,"t_ms":1.0}]}"#,
            r#"{"type":"bench_run","bench":"b","rev":"bbb","cells":[{"family":"x","#
        );
        let (runs, warnings) = parse_history(&text);
        assert_eq!(runs.len(), 1, "the complete run survives");
        assert_eq!(runs[0].rev, "aaa");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 2"), "{warnings:?}");
        // Other record types pass without a warning; bench_run without
        // cells warns.
        let (runs, warnings) =
            parse_history("{\"type\":\"note\"}\n{\"type\":\"bench_run\",\"rev\":\"c\"}\n");
        assert!(runs.is_empty());
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("'cells'"), "{warnings:?}");
    }

    #[test]
    fn duplicate_cells_keep_the_first_with_warning() {
        let text = r#"{"type":"bench_run","bench":"b","rev":"aaa","cells":[{"family":"x","n":5,"t_ms":1.0},{"family":"x","n":5,"t_ms":9.0},{"family":"y","n":5,"t_ms":2.0}]}"#;
        let (runs, warnings) = parse_history(text);
        assert_eq!(runs[0].cells.len(), 2);
        assert_eq!(runs[0].cells[0].metrics[0].1, 1.0, "first wins");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("duplicate cell family=x,n=5"));
    }

    #[test]
    fn nan_metrics_are_dropped_with_warning() {
        // The writer spells a poisoned f64 as `null`; the line must survive
        // with that one metric dropped.
        use ssp_bench::artifact::{Artifact, CellBuilder, RunMeta};
        let text = Artifact {
            bench: "b".into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![CellBuilder::new("x", 5)
                .metric_ms("bad_ms", f64::NAN)
                .metric_ms("good_ms", 1.5)
                .render()],
        }
        .history_line_with(
            "aaa",
            &RunMeta {
                commit_ts: None,
                threads: 1,
                host: "ab12cd34".into(),
            },
        );
        assert!(!text.contains("NaN"), "{text}");
        let (runs, warnings) = parse_history(&text);
        assert_eq!(runs[0].cells[0].metrics, vec![("good_ms".to_string(), 1.5)]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("bad_ms"), "{warnings:?}");
        // A bare `NaN` token is not JSON: the whole line is skipped with a
        // line-level warning, not a panic.
        let bare = r#"{"type":"bench_run","bench":"b","rev":"aaa","cells":[{"family":"x","n":5,"bad_ms":NaN,"good_ms":1.5}]}"#;
        let (runs, warnings) = parse_history(bare);
        assert!(runs.is_empty());
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("line 1: skipped unparseable line"),
            "{warnings:?}"
        );
    }

    /// Writer/reader contract over the run metadata: `history_line_with`
    /// emits `ts`/`threads`/`host` and [`parse_history`] reads them back.
    #[test]
    fn history_metadata_round_trips_from_writer() {
        use ssp_bench::artifact::{Artifact, CellBuilder, RunMeta};
        let artifact = Artifact {
            bench: "yds_kernel".into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![CellBuilder::new("crossing", 800)
                .metric_ms("fast_ms", 1.25)
                .render()],
        };
        let line = artifact.history_line_with(
            "abc1234",
            &RunMeta {
                commit_ts: Some(1754500000),
                threads: 8,
                host: "ab12cd34".into(),
            },
        );
        let (runs, warnings) = parse_history(&line);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(runs[0].bench, "yds_kernel");
        assert_eq!(runs[0].rev, "abc1234");
        assert_eq!(runs[0].ts, Some(1754500000.0));
        assert_eq!(runs[0].threads, Some(8));
        assert_eq!(runs[0].host.as_deref(), Some("ab12cd34"));
        assert_eq!(runs[0].cells[0].key, "family=crossing,n=800");
        // Without a commit timestamp the field is absent, not null.
        let bare = artifact.history_line_with(
            "abc1234",
            &RunMeta {
                commit_ts: None,
                threads: 8,
                host: "ab12cd34".into(),
            },
        );
        assert!(!bare.contains("\"ts\""));
        assert_eq!(parse_history(&bare).0[0].ts, None);
    }
}
