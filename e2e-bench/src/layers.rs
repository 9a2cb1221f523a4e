//! Per-layer attribution for traced runs: wall time of calls into each
//! crate's public functions, timed from outside, plus the program's own
//! `ssp_probe` counters read from a probe session.

use crate::report::Metric;
use crate::stats::frac;
use crate::PER_LAYER;
use ssp_probe::Trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Probe counters the per-layer metrics are derived from.
const COUNTERS: [&str; 17] = [
    "bal.rounds",
    "bal.bisect_steps",
    "wap.fast_path",
    "wap.fast_fallback",
    "wap.sweep_skip",
    "maxflow.dinic.augmentations",
    "maxflow.rebuild",
    "maxflow.warm_reuse",
    "yds.candidates",
    "yds.peels",
    "local_search.evaluations",
    "eval.depleted_build",
    "eval.reject_bound",
    "eval.reject_depleted",
    "eval.reject_partial",
    "eval.cache_hit",
    "eval.cache_miss",
];

/// Accumulates one traced run's per-layer numbers.
#[derive(Default)]
pub(crate) struct Layers {
    /// Summed ms per timed layer.
    times: BTreeMap<&'static str, f64>,
    /// Summed counter totals over every absorbed session.
    counters: BTreeMap<&'static str, u64>,
    /// Operations whose counters were absorbed (base of `count/op`).
    pub(crate) counter_ops: u64,
    /// Attribution operations timed (base of the per-layer times).
    ops: u64,
    /// Summed wall time of those operations, ms.
    op_wall_ms: f64,
    /// Metrics the workload sets directly.
    values: BTreeMap<&'static str, f64>,
    /// Enclosure pairs the workload records directly.
    enclosed: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Run `f`, charging its wall time to `layer`.
    pub(crate) fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.times.entry(layer).or_default() += t.elapsed().as_secs_f64() * 1e3;
        out
    }

    /// Close one attribution operation that took `wall_ms` end to end and
    /// enclosed every [`Layers::time`] call since the previous one.
    pub(crate) fn end_op(&mut self, wall_ms: f64) {
        self.ops += 1;
        self.op_wall_ms += wall_ms;
    }

    /// Add a finished session's counters, covering `ops` operations.
    pub(crate) fn absorb(&mut self, trace: &Trace, ops: u64) {
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += trace.counter(name);
        }
        self.counter_ops += ops;
    }

    /// Set a metric the workload measures itself.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record that the time metric `layer` sits inside an operation of
    /// per-op wall time `op_ms`.
    pub(crate) fn enclose(&mut self, layer: &'static str, op_ms: f64) {
        self.enclosed.push((layer, op_ms));
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Every per-layer metric in [`PER_LAYER`] order (0 where the workload
    /// does not exercise the layer), plus the enclosure pairs.
    pub(crate) fn finish(mut self) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
        let ops = self.ops as f64;
        let per_op = |sum: f64| frac(sum, ops);
        let op_wall = per_op(self.op_wall_ms);
        for (&layer, &sum_ms) in &self.times {
            let unit = PER_LAYER
                .iter()
                .find(|(name, _)| *name == layer)
                .map(|(_, unit)| *unit)
                .expect("timed layers are listed in PER_LAYER");
            let scale = if unit == "us" { 1e3 } else { 1.0 };
            self.values.insert(layer, per_op(sum_ms) * scale);
            self.enclosed.push((layer, op_wall));
        }
        let c = |name| self.counter(name);
        let counter_ops = self.counter_ops as f64;
        let sweep_base = c("wap.fast_path") + c("wap.fast_fallback") + c("wap.sweep_skip");
        let derived = [
            ("migratory.rounds", frac(c("bal.rounds"), counter_ops)),
            ("migratory.probes", frac(c("bal.bisect_steps"), counter_ops)),
            (
                "migratory.sweep_hit_frac",
                frac(c("wap.fast_path"), sweep_base),
            ),
            ("migratory.sweep_solves", frac(sweep_base, counter_ops)),
            (
                "maxflow.augmentations",
                frac(c("maxflow.dinic.augmentations"), counter_ops),
            ),
            ("maxflow.rebuilds", frac(c("maxflow.rebuild"), counter_ops)),
            (
                "maxflow.warm_reuse_frac",
                frac(
                    c("maxflow.warm_reuse"),
                    c("maxflow.warm_reuse") + c("maxflow.rebuild"),
                ),
            ),
            (
                "single.candidates_per_peel",
                frac(c("yds.candidates"), c("yds.peels")),
            ),
            (
                "core.evaluations",
                frac(c("local_search.evaluations"), counter_ops),
            ),
            (
                "core.depleted_builds",
                frac(c("eval.depleted_build"), counter_ops),
            ),
            (
                "core.reject_frac",
                frac(
                    c("eval.reject_bound") + c("eval.reject_depleted") + c("eval.reject_partial"),
                    c("local_search.evaluations"),
                ),
            ),
            (
                "core.eval_cache_hit_frac",
                frac(
                    c("eval.cache_hit"),
                    c("eval.cache_hit") + c("eval.cache_miss"),
                ),
            ),
            ("probe.traced_ops", ops),
            ("probe.op_wall_ms", op_wall),
        ];
        for (name, value) in derived {
            self.values.entry(name).or_insert(value);
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        (metrics, self.enclosed)
    }
}
