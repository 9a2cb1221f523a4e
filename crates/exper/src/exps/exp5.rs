//! EXP-5 — "Table 5": the value of migration.
//!
//! Contextualizes the model choice: how much energy does forbidding
//! migration actually cost? On small instances the exact non-migratory
//! optimum is compared with the migratory optimum (BAL) across machine
//! counts and window-tightness tiers. The expected shape: the gap grows
//! with `m` (more fragmentation) and shrinks with laxity (loose windows let
//! any machine absorb any job).

use crate::table::{max, mean, Table};
use crate::RunCfg;
use ssp_core::exact::exact_nonmigratory;
use ssp_migratory::bal::bal;
use ssp_model::par::par_map;
use ssp_workloads::{subseed, Spec, WindowDist, WorkDist};

/// Run EXP-5.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 5 — migration gap: exact non-migratory OPT / migratory OPT",
        &["m", "laxity tier", "n", "seeds", "mean gap", "max gap"],
    );
    let n = cfg.pick(9usize, 6);
    let seeds = cfg.pick(16usize, 3);
    let tiers: &[(&str, f64, f64)] = &[
        ("tight 1.05-1.5x", 1.05, 1.5),
        ("medium 1.5-4x", 1.5, 4.0),
        ("loose 4-10x", 4.0, 10.0),
    ];
    let ms: Vec<usize> = cfg.pick(vec![2, 3, 4], vec![2, 3]);
    for &m in &ms {
        for &(tier, lo, hi) in tiers {
            let items: Vec<u64> = (0..seeds as u64).collect();
            let gaps = par_map(items, |&s| {
                let inst = Spec::new(n, m, 2.0)
                    .work(WorkDist::Uniform { min: 0.5, max: 2.0 })
                    .window(WindowDist::LaxityFactor { min: lo, max: hi })
                    .gen(subseed(cfg.seed ^ 0x55, s * 17 + m as u64));
                let nonmig = exact_nonmigratory(&inst).energy;
                let mig = bal(&inst).energy;
                nonmig / mig
            });
            assert!(
                gaps.iter().all(|&g| g >= 1.0 - 1e-6),
                "migration made things worse — impossible"
            );
            t.push(vec![
                m.into(),
                tier.into(),
                n.into(),
                seeds.into(),
                mean(&gaps).into(),
                max(&gaps).into(),
            ]);
        }
    }
    vec![t]
}
