//! EXP-1 — "Table 1": round-robin optimality on unit-work agreeable
//! instances (paper result R1).
//!
//! Part A compares RR-YDS with the exact exponential solver on small
//! instances: the ratio must be exactly 1 (up to numerics) in every cell.
//! Part B scales `n` up and reports RR against the *migratory* lower bound —
//! the residual gap there is the (small) price of forbidding migration, not
//! a deficiency of RR.

use crate::table::{max, mean, Table};
use crate::RunCfg;
use ssp_core::exact::exact_nonmigratory;
use ssp_core::rr::rr_assignment;
use ssp_migratory::bal::bal;
use ssp_model::par::par_map;
use ssp_workloads::{families, subseed};

/// Run EXP-1.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t_exact = Table::new(
        "Table 1a — RR vs exact optimum (unit works, agreeable deadlines)",
        &[
            "m",
            "alpha",
            "n",
            "seeds",
            "mean RR/OPT",
            "max RR/OPT",
            "optimal in",
        ],
    );
    let seeds = cfg.pick(20usize, 3);
    let sizes: Vec<usize> = cfg.pick(vec![8, 10], vec![6]);
    for &m in cfg.pick(&[2usize, 3][..], &[2][..]) {
        for &alpha in cfg.pick(&[2.0f64, 3.0][..], &[2.0][..]) {
            for &n in &sizes {
                let jobs: Vec<u64> = (0..seeds as u64).collect();
                let ratios = par_map(jobs, |&s| {
                    let inst = families::unit_agreeable(n, m, alpha)
                        .gen(subseed(cfg.seed, s * 1000 + n as u64));
                    let rr = super::ratio_of(&inst, &rr_assignment(&inst), 1.0);
                    let opt = exact_nonmigratory(&inst).energy;
                    rr / opt
                });
                let optimal = ratios.iter().filter(|&&r| r <= 1.0 + 1e-6).count();
                assert!(
                    max(&ratios) <= 1.0 + 1e-6,
                    "R1 violated: RR suboptimal on a unit agreeable instance \
                     (m={m}, alpha={alpha}, n={n}, max ratio {})",
                    max(&ratios)
                );
                t_exact.push(vec![
                    m.into(),
                    alpha.into(),
                    n.into(),
                    seeds.into(),
                    mean(&ratios).into(),
                    max(&ratios).into(),
                    format!("{optimal}/{seeds}").into(),
                ]);
            }
        }
    }

    let mut t_scale = Table::new(
        "Table 1b — RR vs migratory lower bound at scale (unit agreeable)",
        &["m", "n", "seeds", "mean RR/LB", "max RR/LB"],
    );
    let big: Vec<usize> = cfg.pick(vec![50, 100, 200, 400], vec![30]);
    let seeds_b = cfg.pick(10usize, 2);
    for &m in cfg.pick(&[2usize, 4, 8][..], &[2, 4][..]) {
        for &n in &big {
            let items: Vec<u64> = (0..seeds_b as u64).collect();
            let ratios = par_map(items, |&s| {
                let inst = families::unit_agreeable(n, m, 2.0)
                    .gen(subseed(cfg.seed ^ 0xB, s * 7919 + n as u64));
                let rr = super::ratio_of(&inst, &rr_assignment(&inst), 1.0);
                rr / bal(&inst).energy
            });
            // Migration can only help, so the ratio is >= 1; it must also
            // stay modest on this easy family.
            assert!(ratios.iter().all(|&r| r >= 1.0 - 1e-6));
            t_scale.push(vec![
                m.into(),
                n.into(),
                seeds_b.into(),
                mean(&ratios).into(),
                max(&ratios).into(),
            ]);
        }
    }
    vec![t_exact, t_scale]
}
