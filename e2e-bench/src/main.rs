//! `ssp-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the end-to-end benchmark and prints a detail line
//! (inputs, checks, provenance) followed by the result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Exits 0 once the
//! result is printed, whether or not the checks passed; 2 on bad arguments.

use ssp_e2e_bench::{run, Config, Workload};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: ssp-e2e-bench --workload <solve-bound|solve-search|serve-mixed|stream-arrivals> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        duration: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: trace.ok_or("missing --trace")?,
        smoke: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
