//! What a run prints: one detail line, then, as the last line of standard
//! output, the result line (`correct`, `attempted`, `failed`, `metrics`).

use ssp_serve::json::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output check passed and the run is valid.
    pub correct: bool,
    /// Operations attempted (solves, requests or arrivals).
    pub attempted: u64,
    /// Operations whose output failed a check, or that failed outright.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Everything else a reader needs beside the metrics: inputs, error and
    /// degraded fractions, the tail percentile, the energy checksum and the
    /// provenance of the measured build.
    pub detail: Vec<(&'static str, Json)>,
    /// Traced runs: `(layer time metric, per-op wall time in ms of the
    /// operation that encloses it)`. A reported layer time above its
    /// operation's wall time means the attribution or its unit is broken.
    pub enclosed: Vec<(&'static str, f64)>,
}

impl Report {
    /// The detail line: a JSON object under the key `detail`.
    pub fn detail_line(&self) -> String {
        let fields = self
            .detail
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        Json::Obj(vec![("detail".into(), Json::Obj(fields))]).to_string_compact()
    }

    /// The result line. A metric that is not a finite number makes the run
    /// incorrect rather than printing `null`.
    pub fn result_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct && finite)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}
