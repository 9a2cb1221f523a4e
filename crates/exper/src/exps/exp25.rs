//! EXP-25 — the perf-trajectory service: history-calibrated noise bands
//! and auto-attached trace diffs, validated on synthetic trajectories.
//!
//! `ssp bench report` replaced the single global regression threshold
//! with a **per-cell calibrated band**: robust dispersion (median/MAD,
//! `ssp_probe::calib`) over the cell's own trailing history window. This
//! runner builds deterministic synthetic trajectories — no timing, no
//! machine noise — and re-states the service's contracts as assertions:
//!
//! 1. **Separation.** On a trajectory with ±2% deterministic run-to-run
//!    noise, the calibrated band passes every in-noise point but flags a
//!    true 20% step; a quiet (flat) trajectory falls back to the 5% floor
//!    band and still passes; a single historical outlier must not widen
//!    the band (MAD robustness); and a sub-floor cell never flags no
//!    matter how large its relative step.
//! 2. **Attachment round-trip.** A flagged cell's auto-attached probe
//!    trace, written under the `<bench>__<sanitized key>.jsonl` naming
//!    convention the harness and `bench report` share, parses back and
//!    its `trace diff` against the baseline trace names the regressed
//!    span (flagged `!`) — the "got slower" → "which span" link the
//!    report renders.
//!
//! Everything is derived from `ssp_workloads::subseed` bit-mixing, so the
//! run is reproducible for any `--seed`.

use crate::table::{Cell, Table};
use crate::RunCfg;
use ssp_probe::calib;
use ssp_workloads::subseed;

/// Deterministic multiplicative noise in `1 ± amp` derived from the mixed
/// seed (uniform over ~401 steps).
fn noise(seed: u64, i: u64, amp: f64) -> f64 {
    let s = subseed(seed, i);
    1.0 + amp * (((s % 401) as f64 - 200.0) / 200.0)
}

/// The attachment file stem convention of `ssp_bench::trajectory`, which
/// both its writer and `ssp_bench::report` use (this crate cannot depend
/// on `ssp-bench`, which depends on it): every character outside
/// `[A-Za-z0-9._-]` becomes `_`.
fn sanitize_key(key: &str) -> String {
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

/// A deterministic two-span probe trace in wire format: a `yds` root of
/// `total_ns` with a `yds.peel` child of `peel_ns`, plus a peel counter.
fn trace_jsonl(total_ns: u64, peel_ns: u64, peels: u64) -> String {
    format!(
        "{{\"type\":\"meta\",\"version\":2,\"spans\":2,\"counters\":1,\"hists\":0}}\n\
         {{\"type\":\"span\",\"id\":1,\"parent\":0,\"thread\":1,\"name\":\"yds\",\"start_ns\":0,\"end_ns\":{total_ns}}}\n\
         {{\"type\":\"span\",\"id\":2,\"parent\":1,\"thread\":1,\"name\":\"yds.peel\",\"start_ns\":10,\"end_ns\":{}}}\n\
         {{\"type\":\"counter\",\"name\":\"yds.peels\",\"value\":{peels}}}\n",
        10 + peel_ns
    )
}

/// One synthetic trajectory scenario: history samples plus the fresh
/// latest point, and whether the calibrated gate must flag it.
struct Scenario {
    name: &'static str,
    history: Vec<f64>,
    latest: f64,
    must_flag: bool,
}

/// Noise floor in milliseconds (the `bench report` default).
const MIN_MS: f64 = 0.05;

/// Run EXP-25.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let points = cfg.pick(24usize, 8);
    let base_ms = 0.100;
    let series = |amp: f64, salt: u64| -> Vec<f64> {
        (0..points as u64)
            .map(|i| base_ms * noise(cfg.seed ^ 0x25 ^ salt, i, amp))
            .collect()
    };

    let mut outlier_history = series(0.02, 3);
    outlier_history[points / 2] = base_ms * 40.0; // one wild rep

    let scenarios = vec![
        Scenario {
            name: "quiet_flat",
            history: vec![base_ms; points],
            latest: base_ms * 1.02,
            must_flag: false,
        },
        Scenario {
            name: "pm2pct_noise",
            history: series(0.02, 1),
            latest: base_ms * noise(cfg.seed ^ 0x25C, 7, 0.02),
            must_flag: false,
        },
        Scenario {
            name: "pm2pct_step20",
            history: series(0.02, 2),
            latest: base_ms * 1.20,
            must_flag: true,
        },
        Scenario {
            name: "outlier_robust",
            history: outlier_history,
            latest: base_ms * noise(cfg.seed ^ 0x25D, 3, 0.02),
            must_flag: false,
        },
        Scenario {
            name: "sub_floor_step",
            history: vec![0.010; points],
            latest: 0.030, // 3x, but under the 0.05 ms floor
            must_flag: false,
        },
    ];

    let mut table = Table::new(
        "EXP-25 — history-calibrated regression bands on synthetic trajectories",
        &[
            "scenario",
            "points",
            "baseline ms",
            "band %",
            "latest ms",
            "delta %",
            "flagged",
        ],
    );

    for sc in &scenarios {
        let baseline = calib::median(&sc.history).expect("non-empty history");
        let band = calib::noise_band(&sc.history);
        let flagged = calib::crosses(sc.latest, baseline, band, MIN_MS);
        assert_eq!(
            flagged,
            sc.must_flag,
            "{}: calibrated gate disagrees (baseline={baseline:.4}, band={:.1}%, latest={:.4})",
            sc.name,
            band * 100.0,
            sc.latest
        );
        // The calibration itself must stay tight under benign noise: ±2%
        // run-to-run noise may not earn a band wider than 15%, and MAD
        // must shrug off the single wild outlier.
        if matches!(sc.name, "pm2pct_noise" | "pm2pct_step20" | "outlier_robust") {
            assert!(
                band < 0.15,
                "{}: ±2% noise calibrated a {:.1}% band",
                sc.name,
                band * 100.0
            );
        }
        if sc.name == "quiet_flat" {
            assert_eq!(band, calib::MIN_BAND, "flat history gets the floor band");
        }
        table.push(vec![
            Cell::Text(sc.name.to_string()),
            Cell::Int(sc.history.len() as i64),
            Cell::Num(baseline, 4),
            Cell::Num(band * 100.0, 1),
            Cell::Num(sc.latest, 4),
            Cell::Num((sc.latest / baseline - 1.0) * 100.0, 1),
            Cell::Text(if flagged { "yes" } else { "no" }.to_string()),
        ]);
    }

    // -- Contract 2: the attachment round-trip -----------------------------
    let key = "family=agreeable,n=200";
    let stem = format!("yds_kernel__{}.jsonl", sanitize_key(key));
    assert_eq!(
        stem, "yds_kernel__family_agreeable_n_200.jsonl",
        "attachment naming convention drifted"
    );
    let dir = std::env::temp_dir().join(format!("ssp_exp25_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(&stem);
    // Baseline: 4 µs solve, 3 µs of it peeling, 20 peels. Regressed run:
    // 9 µs / 8 µs / 40 peels — double the work, not slower work.
    let baseline_trace =
        ssp_probe::Trace::parse(&trace_jsonl(4_000, 3_000, 20)).expect("baseline trace parses");
    std::fs::write(&path, trace_jsonl(9_000, 8_000, 40)).expect("write attachment");

    let attached_text = std::fs::read_to_string(&path).expect("read attachment back");
    let attached = ssp_probe::Trace::parse(&attached_text).expect("attachment parses");
    attached.validate().expect("attachment is well-formed");
    let diff = ssp_probe::diff(&baseline_trace, &attached, 0.10);
    let peel_flagged = diff
        .lines()
        .any(|l| l.contains("yds.peel") && l.contains('!'));
    assert!(
        peel_flagged,
        "trace diff must name the regressed span with '!':\n{diff}"
    );
    assert!(
        diff.contains("yds.peels"),
        "counter delta (more work) must be visible:\n{diff}"
    );

    let mut attach_table = Table::new(
        "EXP-25 — attached trace diff round-trip (baseline vs regressed cell)",
        &["cell", "span", "base ns", "new ns", "flagged in diff"],
    );
    for span in ["yds", "yds.peel"] {
        attach_table.push(vec![
            Cell::Text(key.to_string()),
            Cell::Text(span.to_string()),
            Cell::Int(baseline_trace.span_total_ns(span) as i64),
            Cell::Int(attached.span_total_ns(span) as i64),
            Cell::Text(
                if diff.lines().any(|l| l.contains(span) && l.contains('!')) {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();

    vec![table, attach_table]
}
