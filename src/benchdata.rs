//! Tests of the bench-artifact reader and gate in [`ssp_bench::history`].
//! They live in the root package, beside the CLI that calls that module,
//! so that `cargo test` at the repository root (which runs only this
//! package) covers the writer↔reader contract.

mod tests {
    use ssp_bench::history::*;

    fn snapshot(fast_200: f64) -> String {
        format!(
            r#"{{"bench":"yds_kernel","alpha":2.0,"unit":"ms_median","cells":[
  {{"family":"agreeable","n":50,"fast_ms":0.007,"ref_ms":0.006,"speedup":0.89}},
  {{"family":"agreeable","n":200,"fast_ms":{fast_200},"ref_ms":0.350,"speedup":3.1}}
]}}"#
        )
    }

    #[test]
    fn artifact_cells_key_on_family_and_n() {
        let art = parse_artifact(&snapshot(0.113)).unwrap();
        assert_eq!(art.bench, "yds_kernel");
        assert_eq!(art.cells.len(), 2);
        assert_eq!(art.cells[1].key, "family=agreeable,n=200");
        assert_eq!(
            art.cells[1].metrics,
            vec![("fast_ms".to_string(), 0.113), ("ref_ms".to_string(), 0.35)]
        );
    }

    #[test]
    fn history_takes_the_last_run() {
        let history = format!(
            "{}\n{}\n",
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"aaa111","cells":[{"family":"agreeable","n":200,"fast_ms":0.100}]}"#,
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"bbb222","cells":[{"family":"agreeable","n":200,"fast_ms":0.120}]}"#
        );
        let art = parse_artifact(&history).unwrap();
        assert_eq!(art.rev.as_deref(), Some("bbb222"));
        assert_eq!(art.cells[0].metrics[0].1, 0.120);
    }

    #[test]
    fn unchanged_artifact_passes_and_regression_gates() {
        let old = parse_artifact(&snapshot(0.113)).unwrap();
        let same = diff_artifacts(&old, &old, 0.10, 0.05);
        assert_eq!(same.regressions(), 0);
        // 10% injected regression on the n=200 cell: gates.
        let slow = parse_artifact(&snapshot(0.113 * 1.101)).unwrap();
        let diff = diff_artifacts(&old, &slow, 0.10, 0.05);
        assert_eq!(diff.regressions(), 1);
        let row = diff.rows.iter().find(|r| r.regressed).unwrap();
        assert_eq!(row.key, "family=agreeable,n=200");
        assert_eq!(row.metric, "fast_ms");
        assert!(diff.render().contains('!'));
    }

    #[test]
    fn noise_floor_shields_tiny_cells() {
        // Double the n=50 cell (0.007 → 0.014 ms): far past 10%, but the
        // new value is below the 0.05 ms floor, so it must not gate.
        let old = parse_artifact(&snapshot(0.113)).unwrap();
        let mut slow = old.clone();
        slow.cells[0].metrics[0].1 = 0.014;
        let diff = diff_artifacts(&old, &slow, 0.10, 0.05);
        assert_eq!(diff.regressions(), 0);
        assert!(diff.render().contains('~'), "visible but not gating");
    }

    /// Writer/reader contract: everything `ssp_bench::artifact` emits —
    /// snapshot and history line alike — must parse back here with the
    /// same keys and gated metrics.
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
        for text in [
            artifact.snapshot_json(),
            artifact.history_line("abc1234") + "\n",
        ] {
            let parsed = parse_artifact(&text).unwrap();
            assert_eq!(parsed.bench, "yds_kernel");
            assert_eq!(parsed.cells.len(), 1);
            assert_eq!(parsed.cells[0].key, "family=crossing,n=800");
            assert_eq!(
                parsed.cells[0].metrics,
                vec![("fast_ms".to_string(), 1.25), ("ref_ms".to_string(), 14.5)]
            );
        }
        assert_eq!(
            parse_artifact(&artifact.history_line("abc1234"))
                .unwrap()
                .rev
                .as_deref(),
            Some("abc1234")
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

    #[test]
    fn missing_and_added_cells_are_reported() {
        let old = parse_artifact(&snapshot(0.113)).unwrap();
        let mut new = old.clone();
        new.cells[0].key = "family=crossing,n=50".to_string();
        let diff = diff_artifacts(&old, &new, 0.10, 0.05);
        assert_eq!(diff.missing, vec!["family=agreeable,n=50".to_string()]);
        assert_eq!(diff.added, vec!["family=crossing,n=50".to_string()]);
    }
}
