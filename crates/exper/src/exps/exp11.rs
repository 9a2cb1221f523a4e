//! EXP-11 — "Table 9": discrete DVFS levels (extension).
//!
//! Real processors expose a finite frequency table, not the continuum the
//! paper assumes. The classic two-level-mixing reduction converts any
//! continuous-speed schedule into a level-respecting one with the same
//! feasibility; this experiment measures the *energy overhead* of that
//! conversion as the level grid gets finer, alongside the analytic
//! worst-case chord bound for the widest bracket of the grid.
//!
//! Expected shape: overhead ≥ 1, strictly decreasing in the number of
//! levels, and far below the worst-case bound (the optimum spends most time
//! near its few distinct speeds, not at the worst point of a bracket).

use crate::table::{max, mean, Cell, Table};
use crate::RunCfg;
use ssp_migratory::bal::bal;
use ssp_model::par::par_map;
use ssp_model::quantize::{quantize_speeds, two_level_overhead, SpeedLevels};
use ssp_workloads::{families, subseed};

/// Run EXP-11.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 9 — discrete DVFS: energy overhead of two-level mixing vs grid size",
        &[
            "levels",
            "mean overhead",
            "max overhead",
            "worst-bracket chord bound",
        ],
    );
    let n = cfg.pick(40usize, 12);
    let seeds = cfg.pick(12usize, 2);
    let (m, alpha) = (3usize, 2.5f64);
    let level_counts: Vec<usize> = cfg.pick(vec![2, 4, 8, 16, 32], vec![2, 8]);

    let mut prev_mean = f64::INFINITY;
    for &count in &level_counts {
        let items: Vec<u64> = (0..seeds as u64).collect();
        let rows = par_map(items, |&s| {
            let inst = families::general(n, m, alpha).gen(subseed(cfg.seed ^ 0x111, s));
            let sol = bal(&inst);
            let schedule = sol.schedule(&inst);
            // Grid spanning the optimum's own speed range (what a designer
            // sizing a DVFS table for this workload would pick).
            let smin = sol.speeds.min_speed();
            let smax = sol.speeds.max_speed() * (1.0 + 1e-9);
            let levels = SpeedLevels::geometric(smin, smax, count.max(2)).expect("valid grid");
            let q = quantize_speeds(&schedule, &levels).expect("grid covers the optimum's speeds");
            let ratio = q.energy(alpha) / sol.energy;
            // Worst bracket of this grid (constant ratio grid => it's the
            // same chord bound everywhere; compute on the first bracket).
            let chord = two_level_overhead(levels.levels()[0], levels.levels()[1], alpha);
            (ratio, chord)
        });
        let ratios: Vec<f64> = rows.iter().map(|r| r.0).collect();
        // Each seed sizes its own grid, so each row has its own chord bound;
        // compare per row, report the largest in the table.
        let chord = rows.iter().map(|r| r.1).fold(1.0f64, f64::max);
        assert!(
            ratios.iter().all(|&r| r >= 1.0 - 1e-9),
            "quantization reduced energy"
        );
        for (ratio, bound) in &rows {
            assert!(
                *ratio <= bound + 1e-9,
                "overhead {ratio} above this grid's chord bound {bound}"
            );
        }
        let m_ratio = mean(&ratios);
        assert!(
            m_ratio <= prev_mean + 1e-9,
            "overhead should shrink with finer grids: {m_ratio} after {prev_mean}"
        );
        prev_mean = m_ratio;
        t.push(vec![
            count.into(),
            Cell::Num(m_ratio, 5),
            Cell::Num(max(&ratios), 5),
            Cell::Num(chord, 5),
        ]);
    }
    vec![t]
}
