//! EXP-15 — "Table 12": maintenance windows (extension).
//!
//! Drain one machine of `m` for a growing fraction of the busiest stretch
//! of the horizon and measure the energy premium of the downtime-aware
//! optimum over the fully-available optimum. Expected shape: premium ≥ 0,
//! monotone in the drain length, growing steeply as the drained fraction
//! approaches the point where the remaining capacity binds, and larger for
//! smaller `m` (losing 1 of 2 machines hurts more than 1 of 8).

use crate::table::{max, mean, Cell, Table};
use crate::RunCfg;
use ssp_migratory::bal::bal;
use ssp_migratory::downtime::{bal_with_downtime, violates_downtime, Downtime};
use ssp_model::par::par_map;
use ssp_workloads::{families, subseed};

/// Run EXP-15.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 12 — maintenance windows: energy premium vs drain fraction",
        &[
            "m",
            "drain frac of horizon",
            "mean premium %",
            "max premium %",
        ],
    );
    let n = cfg.pick(24usize, 10);
    let seeds = cfg.pick(10usize, 2);
    let ms: Vec<usize> = cfg.pick(vec![2, 4, 8], vec![2, 4]);
    let fracs: Vec<f64> = cfg.pick(vec![0.1, 0.25, 0.5, 0.75], vec![0.25, 0.5]);
    for &m in &ms {
        let mut prev_mean = 0.0f64;
        for &frac in &fracs {
            let items: Vec<u64> = (0..seeds as u64).collect();
            let premiums = par_map(items, |&s| {
                let inst = families::general(n, m, 2.0).gen(subseed(cfg.seed ^ 0x155, s));
                let (lo, hi) = inst.horizon().unwrap();
                let span = hi - lo;
                let d = Downtime {
                    machine: 0,
                    start: lo + 0.5 * (1.0 - frac) * span,
                    end: lo + 0.5 * (1.0 + frac) * span,
                };
                let plain = bal(&inst).energy;
                let (sol, schedule) =
                    bal_with_downtime(&inst, &[d]).expect("m >= 2 keeps everything feasible");
                assert!(!violates_downtime(&schedule, &[d]));
                (sol.energy / plain - 1.0) * 100.0
            });
            assert!(
                premiums.iter().all(|&p| p >= -1e-6),
                "downtime reduced energy?!"
            );
            let mp = mean(&premiums);
            assert!(
                mp >= prev_mean - 1e-6,
                "longer drains must cost at least as much: {mp}% after {prev_mean}%"
            );
            prev_mean = mp;
            t.push(vec![
                m.into(),
                Cell::Num(frac, 2),
                Cell::Num(mp, 3),
                Cell::Num(max(&premiums), 3),
            ]);
        }
    }
    vec![t]
}
