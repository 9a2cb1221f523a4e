//! EXP-4 — "Table 4 / Figure 2": approximation quality in the agreeable
//! arbitrary-work regime against the paper's `α^α · 2^{4α}` factor (R3).
//!
//! Same methodology as EXP-3 (ratios against the certified migratory lower
//! bound). The analytic factor here is enormous (`α=3` gives `3^3·2^12 ≈
//! 1.1e5`); the reproduction shape is that measured ratios stay `O(1)` while
//! the bound explodes — classification is cheap in practice, expensive only
//! in analysis.

use crate::table::{max, mean, Table};
use crate::RunCfg;
use ssp_core::classified::classified_assignment;
use ssp_core::list::marginal_energy_greedy;
use ssp_core::rr::rr_assignment;
use ssp_migratory::bal::bal;
use ssp_model::par::par_map;
use ssp_workloads::{families, subseed};

/// Run EXP-4.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 4 — agreeable deadlines, heterogeneous works: ratio to migratory LB",
        &[
            "m",
            "alpha",
            "bound a^a 2^{4a}",
            "ClassifiedRR mean",
            "ClassifiedRR max",
            "plain RR mean",
            "Greedy mean",
        ],
    );
    let n = cfg.pick(100usize, 20);
    let seeds = cfg.pick(10usize, 2);
    let ms: Vec<usize> = cfg.pick(vec![2, 4, 8], vec![2, 4]);
    let alphas: Vec<f64> = cfg.pick(vec![1.5, 2.0, 2.5, 3.0], vec![2.0]);
    for &m in &ms {
        for &alpha in &alphas {
            let items: Vec<u64> = (0..seeds as u64).collect();
            let rows = par_map(items, |&s| {
                let inst = families::weighted_agreeable(n, m, alpha).gen(subseed(
                    cfg.seed ^ 0x44,
                    s * 131 + m as u64 * 11 + (alpha * 10.0) as u64,
                ));
                let lb = bal(&inst).energy;
                (
                    super::ratio_of(&inst, &classified_assignment(&inst), lb),
                    super::ratio_of(&inst, &rr_assignment(&inst), lb),
                    super::ratio_of(&inst, &marginal_energy_greedy(&inst), lb),
                )
            });
            let class: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let rr: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let greedy: Vec<f64> = rows.iter().map(|r| r.2).collect();
            let bound = super::bound_r3(alpha);
            assert!(class.iter().all(|&r| r >= 1.0 - 1e-6));
            assert!(
                max(&class) <= bound,
                "ClassifiedRR exceeded the paper factor: {} > {bound}",
                max(&class)
            );
            t.push(vec![
                m.into(),
                alpha.into(),
                bound.into(),
                mean(&class).into(),
                max(&class).into(),
                mean(&rr).into(),
                mean(&greedy).into(),
            ]);
        }
    }
    vec![t]
}
