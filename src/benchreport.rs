//! Tests of the perf-trajectory report in [`ssp_bench::report`], kept in
//! the root package beside the `bench report` command that renders it, so
//! that `cargo test` at the repository root covers them.

mod tests {
    use ssp_bench::history::parse_history;
    use ssp_bench::report::*;

    fn history(bench: &str, values: &[f64]) -> String {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                format!(
                    "{{\"type\":\"bench_run\",\"bench\":\"{bench}\",\"rev\":\"r{i}\",\"cells\":[{{\"family\":\"agreeable\",\"n\":200,\"fast_ms\":{v}}}]}}"
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn calibrated_band_flags_step_but_not_noise() {
        // ±2% noise then a 20% step: flagged.
        let step = history("yds_kernel", &[0.100, 0.102, 0.098, 0.101, 0.099, 0.120]);
        let (runs, _) = parse_history(&step);
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.key, "family=agreeable,n=200");
        assert_eq!(r.series.len(), 6);
        assert!((r.latest - 0.120).abs() < 1e-12);
        assert!((r.best - 0.098).abs() < 1e-12);
        assert!(r.flagged, "20% step must cross the band: {r:?}");
        assert!(render(&rows, false).contains(" !"));
        // The same history ending inside the noise: clean.
        let quiet = history("yds_kernel", &[0.100, 0.102, 0.098, 0.101, 0.099, 0.101]);
        let (runs, _) = parse_history(&quiet);
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert!(!rows[0].flagged, "{:?}", rows[0]);
        assert!(render(&rows, false).contains("0 regression(s)"));
    }

    #[test]
    fn single_point_and_sub_floor_rows_never_flag() {
        let (runs, _) = parse_history(&history("b", &[0.5]));
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert_eq!(rows[0].baseline, None);
        assert!(!rows[0].flagged);
        assert!(render(&rows, false).contains('-'), "dash for no baseline");
        // 3x slowdown under the floor: visible delta, no flag.
        let (runs, _) = parse_history(&history("b", &[0.010, 0.010, 0.010, 0.030]));
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert!(!rows[0].flagged);
        assert_eq!(rows[0].delta.map(|d| d > 1.9), Some(true));
    }

    #[test]
    fn sparkline_normalizes_and_caps() {
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▄▄▄");
        let line = sparkline(&[0.0, 1.0]);
        assert_eq!(line.chars().count(), 2);
        assert!(line.starts_with('▁') && line.ends_with('█'));
        let long: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long).chars().count(), SPARK_POINTS);
    }

    #[test]
    fn markdown_renders_github_table() {
        let (runs, _) = parse_history(&history("yds_kernel", &[0.1, 0.1, 0.1, 0.2]));
        let md = render(&trajectory_rows(&runs, 8, 0.05), true);
        assert!(md.contains("### yds_kernel"));
        assert!(md.contains("| cell | metric | runs | trend | best | latest | delta | band | |"));
        assert!(md.contains("**regressed**"));
    }

    #[test]
    fn attachments_fold_without_baseline_and_diff_with_one() {
        let dir = std::env::temp_dir().join(format!("ssp_report_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("baseline")).unwrap();
        let (runs, _) = parse_history(&history("yds_kernel", &[0.1, 0.1, 0.1, 0.2]));
        let rows = trajectory_rows(&runs, 8, 0.05);
        assert_eq!(flagged(&rows), 1);
        let dir_s = dir.to_string_lossy().into_owned();

        // No attachment at all: the absence is reported.
        let out = render_attachments(&rows, &dir_s);
        assert!(out.contains("no attached trace"), "{out}");

        // Attachment without baseline: hottest folded stacks.
        let stem = "yds_kernel__family_agreeable_n_200.jsonl";
        let trace_text = "{\"type\":\"meta\",\"version\":2,\"spans\":2,\"counters\":1,\"hists\":0}\n\
             {\"type\":\"span\",\"id\":1,\"parent\":0,\"thread\":1,\"name\":\"yds\",\"start_ns\":0,\"end_ns\":9000}\n\
             {\"type\":\"span\",\"id\":2,\"parent\":1,\"thread\":1,\"name\":\"yds.peel\",\"start_ns\":100,\"end_ns\":8100}\n\
             {\"type\":\"counter\",\"name\":\"yds.peels\",\"value\":40}\n";
        std::fs::write(dir.join(stem), trace_text).unwrap();
        let out = render_attachments(&rows, &dir_s);
        assert!(out.contains("hottest spans"), "{out}");
        assert!(out.contains("yds;yds.peel"), "folded stack present: {out}");

        // With a (faster) baseline: an in-process trace diff names the span.
        let base_text = trace_text
            .replace("\"end_ns\":9000", "\"end_ns\":4000")
            .replace("\"end_ns\":8100", "\"end_ns\":3100")
            .replace("\"value\":40", "\"value\":20");
        std::fs::write(dir.join("baseline").join(stem), base_text).unwrap();
        let out = render_attachments(&rows, &dir_s);
        assert!(out.contains("trace diff vs baseline"), "{out}");
        assert!(out.contains("yds.peel"), "{out}");
        assert!(out.contains('!'), "slowdown flagged in the diff: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The gate is no looser than a fixed 10% threshold against the
    /// previous run: replaying the committed trajectory with a fresh run
    /// at 1.10x every latest `*_ms` value must flag every row whose new
    /// value is at least 0.1 ms, for both kernel benches.
    #[test]
    fn committed_history_replay_flags_every_ten_percent_step() {
        use ssp_bench::history::BenchRun;
        let text = include_str!("../BENCH_history.jsonl");
        let (all, warnings) = parse_history(text);
        assert!(warnings.is_empty(), "{warnings:?}");
        for bench in ["yds_kernel", "bal_kernel"] {
            let mut runs: Vec<BenchRun> =
                all.iter().filter(|r| r.bench == bench).cloned().collect();
            let mut fresh = runs.last().expect("committed runs of the bench").clone();
            for cell in &mut fresh.cells {
                for (_, v) in &mut cell.metrics {
                    *v *= 1.10;
                }
            }
            runs.push(fresh.clone());
            let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
            let mut gated = 0;
            let mut missed = Vec::new();
            for cell in &fresh.cells {
                for (metric, v) in cell.metrics.iter().filter(|(_, v)| *v >= 0.1) {
                    let row = rows
                        .iter()
                        .find(|r| r.key == cell.key && &r.metric == metric)
                        .expect("a row per fresh metric");
                    assert_eq!(row.latest, *v);
                    gated += 1;
                    if !row.flagged {
                        missed.push(format!("{} {metric}: {row:?}", cell.key));
                    }
                }
            }
            assert!(gated > 0, "{bench}: no row at or above 0.1 ms");
            assert!(
                missed.is_empty(),
                "{bench}: {} of {gated} rows missed:\n{}",
                missed.len(),
                missed.join("\n")
            );
        }
    }
}
