//! What was measured, on what: recorded with every run.

use ssp_serve::json::Json;
use std::process::Command;

/// Cores the process may use.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Peak resident memory of this process so far (Linux `VmHWM`), in MB;
/// `NaN` where `/proc` is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether the working tree differs from HEAD. `git_rev` names HEAD only,
/// so a measurement of uncommitted code would otherwise pass as HEAD's.
fn dirty() -> Json {
    Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Str("unknown".into()), |o| {
            Json::Bool(!o.stdout.is_empty())
        })
}

/// Provenance fields for the detail line.
pub(crate) fn describe() -> Vec<(&'static str, Json)> {
    vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("git_rev", Json::Str(ssp_bench::artifact::git_rev())),
        ("git_dirty", dirty()),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ]
}
