//! EXP-12 — "Table 10": bounded maximum speed (extension).
//!
//! Real processors cap at `s_max`. Below the workload's min-peak speed some
//! jobs must be dropped; this experiment sweeps the cap as a fraction of
//! that peak and measures admitted-job fractions for the greedy admission
//! policy against the exact optimum (subset search), plus how often greedy
//! is exactly optimal.
//!
//! Expected shape: throughput monotone in the cap, 100 % at the peak
//! (that's the definition of the peak), greedy within a few percent of the
//! exact optimum throughout.

use crate::table::{mean, min, Cell, Table};
use crate::RunCfg;
use ssp_core::throughput::{max_throughput_exact, max_throughput_greedy};
use ssp_migratory::bounded::min_peak_speed;
use ssp_model::par::par_map;
use ssp_workloads::{families, subseed};

/// Run EXP-12.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 10 — speed cap vs throughput (unit arbitrary, m=2, n=14)",
        &[
            "cap / min-peak",
            "greedy mean frac",
            "exact mean frac",
            "greedy/exact min",
            "greedy optimal in",
        ],
    );
    let n = 14usize; // exact subset search stays comfortable
    let seeds = cfg.pick(10usize, 2);
    let factors: Vec<f64> = cfg.pick(vec![0.4, 0.6, 0.8, 0.95, 1.0], vec![0.5, 1.0]);
    let mut prev_exact = 0.0f64;
    for &factor in &factors {
        let items: Vec<u64> = (0..seeds as u64).collect();
        let rows = par_map(items, |&s| {
            let inst = families::unit_arbitrary(n, 2, 2.0).gen(subseed(cfg.seed ^ 0x122, s));
            let cap = min_peak_speed(&inst) * factor * (1.0 + 1e-9);
            let g = max_throughput_greedy(&inst, cap).throughput();
            let e = max_throughput_exact(&inst, cap).throughput();
            assert!(g <= e, "greedy {g} above exact {e}?!");
            (g as f64 / n as f64, e as f64 / n as f64)
        });
        let greedy: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let exact: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let ratio: Vec<f64> = rows
            .iter()
            .map(|r| if r.1 > 0.0 { r.0 / r.1 } else { 1.0 })
            .collect();
        let optimal = rows.iter().filter(|r| r.0 == r.1).count();
        if (factor - 1.0).abs() < 1e-12 {
            assert!(
                exact.iter().all(|&f| (f - 1.0).abs() < 1e-12),
                "everything must fit at the min-peak cap"
            );
        }
        let e_mean = mean(&exact);
        assert!(
            e_mean >= prev_exact - 1e-12,
            "exact throughput decreased as the cap rose"
        );
        prev_exact = e_mean;
        t.push(vec![
            Cell::Num(factor, 2),
            mean(&greedy).into(),
            e_mean.into(),
            min(&ratio).into(),
            format!("{optimal}/{seeds}").into(),
        ]);
    }
    vec![t]
}
