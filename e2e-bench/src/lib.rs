//! # ssp-e2e-bench — the end-to-end benchmark
//!
//! Four workloads drive the solver stack the way its users do: sequential
//! certified solves dominated by the lower bound (`solve-bound`), sequential
//! local-search solves (`solve-search`), an open-loop request mix into an
//! in-process `ssp_serve::Server` (`serve-mixed`), and one long arrival
//! stream through `ssp_online::StreamEngine` (`stream-arrivals`).
//!
//! An untraced run ([`Config::trace`] off) reports the end-to-end metrics
//! listed in [`E2E`]. A traced run reports the per-layer metrics in
//! [`PER_LAYER`]: it times calls into each crate's public functions from
//! outside and reads the program's existing `ssp_probe` counters; it adds
//! no spans or counters to the program. Every run checks the program's
//! outputs and counts failures instead of hiding them. `README.md` records
//! why each workload exists and what each metric reads.

mod report;
mod stats;

mod layers;
mod provenance;
mod serve;
mod solve;
mod stream;

pub use report::{Metric, Report};

use ssp_serve::json::Json;
use std::time::Duration;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop `rr` solves at n=800 whose cost is the certified bound.
    SolveBound,
    /// Closed-loop `local` solves at n=200..400 whose cost is the search.
    SolveSearch,
    /// Open-loop mixed requests into an in-process server.
    ServeMixed,
    /// One thread pushing a bursty arrival stream through the engine.
    StreamArrivals,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SolveBound,
        Workload::SolveSearch,
        Workload::ServeMixed,
        Workload::StreamArrivals,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveBound => "solve-bound",
            Workload::SolveSearch => "solve-search",
            Workload::ServeMixed => "serve-mixed",
            Workload::StreamArrivals => "stream-arrivals",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement length.
    pub duration: Duration,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
}

/// End-to-end metrics: name, unit. Every untraced run reports all of them.
pub const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("full_fidelity_frac", "ratio"),
    ("lb_ratio", "ratio"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit. Every traced run reports all of them; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("harness.lower_bound_ms", "ms"),
    ("harness.algorithm_ms", "ms"),
    ("model.validate_ms", "ms"),
    ("migratory.bal_ms", "ms"),
    ("migratory.kkt_ms", "ms"),
    ("migratory.rounds", "count/op"),
    ("migratory.probes", "count/op"),
    ("migratory.sweep_hit_frac", "ratio"),
    ("migratory.sweep_solves", "count/op"),
    ("maxflow.augmentations", "count/op"),
    ("maxflow.rebuilds", "count/op"),
    ("maxflow.warm_reuse_frac", "ratio"),
    ("single.yds_ms", "ms"),
    ("single.candidates_per_peel", "count"),
    ("core.assign_ms", "ms"),
    ("core.local_search_ms", "ms"),
    ("core.evaluations", "count/op"),
    ("core.depleted_builds", "count/op"),
    ("core.reject_frac", "ratio"),
    ("core.eval_cache_hit_frac", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("serve.queue_depth_p50", "count"),
    ("serve.queue_depth_p99", "count"),
    ("serve.wall_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("online.split_push_us", "us"),
    ("online.plain_push_us", "us"),
    ("online.recompute_frac", "ratio"),
    ("online.compactions", "count"),
    ("online.density_fallback_frac", "ratio"),
    ("online.peak_live", "count"),
    ("workloads.gen_s", "s"),
    ("probe.trace_overhead_frac", "ratio"),
    ("probe.traced_ops", "count"),
    ("probe.op_wall_ms", "ms"),
];

/// Run one workload and report on it.
pub fn run(cfg: &Config) -> Report {
    let mut report = match cfg.workload {
        Workload::SolveBound | Workload::SolveSearch => solve::run(cfg),
        Workload::ServeMixed => serve::run(cfg),
        Workload::StreamArrivals => stream::run(cfg),
    };
    report
        .detail
        .insert(0, ("workload", Json::Str(cfg.workload.name().into())));
    report
        .detail
        .insert(1, ("seed", Json::Str(cfg.seed.to_string())));
    report.detail.extend(provenance::describe());
    report
}
