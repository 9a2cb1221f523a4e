//! Smoke mode: every workload once at tiny size, untraced and traced.

use ssp_e2e_bench::{run, Config, Report, Workload};
use ssp_serve::json::{self, Json};
use std::time::Duration;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Report {
    run(&Config {
        workload,
        seed: 7,
        duration: Duration::from_millis(50),
        trace,
        smoke: true,
    })
}

fn checksum(report: &Report) -> Json {
    report
        .detail
        .iter()
        .find(|(k, _)| *k == "energy_checksum")
        .map(|(_, v)| v.clone())
        .expect("untraced runs print a checksum")
}

// One test: the probes and the thread override are process-global.
#[test]
fn every_workload_prints_the_declared_metrics() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = smoke(workload, trace);
            let what = format!("{} trace={trace}", workload.name());
            assert!(report.correct, "{what}: {}", report.detail_line());
            assert!(report.attempted >= 1 && report.failed == 0, "{what}");

            let section = if trace { "per_layer" } else { "end_to_end" };
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(&spec, section), "{what}");

            let line = json::parse(&report.result_line()).expect("result line parses");
            let Json::Obj(fields) = &line else {
                panic!("{what}: result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );

            if trace {
                assert!(!report.enclosed.is_empty(), "{what}: no layer was timed");
                for (layer, op_ms) in &report.enclosed {
                    let m = report
                        .metrics
                        .iter()
                        .find(|m| m.name == *layer)
                        .expect("printed");
                    let layer_ms = match m.unit {
                        "us" => m.value / 1e3,
                        "ms" => m.value,
                        unit => panic!("{what}: {layer} is not a time ({unit})"),
                    };
                    assert!(
                        layer_ms > 0.0 && layer_ms <= *op_ms,
                        "{what}: {layer} {layer_ms} ms vs its operation's {op_ms} ms"
                    );
                }
            } else {
                assert_eq!(
                    checksum(&report),
                    checksum(&smoke(workload, false)),
                    "{what}: energy checksum must repeat"
                );
            }
        }
    }
}
