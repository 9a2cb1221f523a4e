//! EXP-8 — "Table 6": online baselines on `m` machines.
//!
//! AVR-m (density water-filling), OA-m (replan the migratory optimum at
//! every release) and Dispatch-OA (the *non-migratory* online policy:
//! irrevocable assignment on release + per-machine Optimal Available)
//! against the offline optimum. Expected shape: OA-m below `α^α`, AVR-m
//! below `α^α 2^(α-1)`, OA-m ≤ AVR-m on bursty inputs (OA reacts, AVR
//! commits), Dispatch-OA close behind OA-m (the price of never migrating,
//! online), and all → 1 as inputs become predictable.

use crate::table::{max, mean, Table};
use crate::RunCfg;
use ssp_core::online::{avr_m_energy, dispatch_oa_nonmigratory, oa_m};
use ssp_migratory::bal::bal;
use ssp_model::par::par_map;
use ssp_workloads::{families, subseed};

/// Run EXP-8.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 6 — online vs offline optimum (migratory, m machines)",
        &[
            "family",
            "m",
            "alpha",
            "AVR-m mean",
            "AVR-m max",
            "bound a^a 2^(a-1)",
            "OA-m mean",
            "OA-m max",
            "bound a^a",
            "Dispatch-OA mean",
        ],
    );
    let n = cfg.pick(48usize, 14);
    let seeds = cfg.pick(8usize, 2);
    let grid: Vec<(usize, f64)> = cfg.pick(
        vec![(2usize, 2.0f64), (2, 3.0), (4, 2.0), (4, 3.0)],
        vec![(2, 2.0)],
    );
    for family in ["bursty", "general"] {
        for &(m, alpha) in &grid {
            let items: Vec<u64> = (0..seeds as u64).collect();
            let rows = par_map(items, |&s| {
                let spec = match family {
                    "bursty" => families::bursty(n, m, alpha),
                    _ => families::general(n, m, alpha),
                };
                let inst = spec.gen(subseed(cfg.seed ^ 0x88, s * 13 + m as u64));
                let opt = bal(&inst).energy;
                let avr = avr_m_energy(&inst) / opt;
                let oa = oa_m(&inst).energy(alpha) / opt;
                let dispatch = dispatch_oa_nonmigratory(&inst).energy(alpha) / opt;
                (avr, oa, dispatch)
            });
            let avr: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let oa: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let dispatch: Vec<f64> = rows.iter().map(|r| r.2).collect();
            let avr_bound = alpha.powf(alpha) * 2.0f64.powf(alpha - 1.0);
            let oa_bound = alpha.powf(alpha);
            assert!(avr.iter().all(|&r| r >= 1.0 - 1e-6));
            assert!(oa.iter().all(|&r| r >= 1.0 - 1e-6));
            assert!(dispatch.iter().all(|&r| r >= 1.0 - 1e-6));
            assert!(
                max(&oa) <= oa_bound * (1.0 + 1e-6),
                "OA-m above alpha^alpha: {} > {oa_bound}",
                max(&oa)
            );
            t.push(vec![
                family.into(),
                m.into(),
                alpha.into(),
                mean(&avr).into(),
                max(&avr).into(),
                avr_bound.into(),
                mean(&oa).into(),
                max(&oa).into(),
                oa_bound.into(),
                mean(&dispatch).into(),
            ]);
        }
    }
    vec![t]
}
