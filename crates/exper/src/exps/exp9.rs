//! EXP-9 — "Table 7": optimality certificates and cross-validation.
//!
//! The trust anchor for every other experiment: the migratory lower bound is
//! only as good as BAL, so BAL is checked three independent ways:
//!
//! 1. **KKT certificate** on every run (sufficient conditions ⇒ optimal);
//! 2. **`m = 1` reduction**: BAL must equal YDS exactly;
//! 3. **closed forms**: equal jobs in a common window have a known optimal
//!    speed `max(w/T, n·w/(m·T))`.
//!
//! Every row must read `pass = total`; the runner asserts it.

use crate::table::Table;
use crate::RunCfg;
use ssp_migratory::bal::bal;
use ssp_migratory::kkt::certify;
use ssp_model::numeric::Tol;
use ssp_model::par::par_map;
use ssp_model::{Instance, Job};
use ssp_single::yds::yds;
use ssp_workloads::{families, subseed};

/// Run EXP-9.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 7 — BAL optimality certificates",
        &["check", "cases", "passed"],
    );
    let seeds = cfg.pick(24usize, 4);
    let n = cfg.pick(30usize, 10);

    // 1. KKT + schedule validation across families and parameters.
    let mut cases = Vec::new();
    for (fam_id, m, alpha) in [
        (0usize, 2usize, 2.0f64),
        (1, 4, 2.0),
        (2, 2, 3.0),
        (3, 3, 1.5),
        (4, 4, 2.5),
    ] {
        for s in 0..seeds as u64 {
            cases.push((fam_id, m, alpha, s));
        }
    }
    let total_kkt = cases.len();
    let results = par_map(cases, |&(fam_id, m, alpha, s)| {
        let spec = match fam_id {
            0 => families::unit_agreeable(n, m, alpha),
            1 => families::unit_arbitrary(n, m, alpha),
            2 => families::weighted_agreeable(n, m, alpha),
            3 => families::general(n, m, alpha),
            _ => families::bursty(n, m, alpha),
        };
        let inst = spec.gen(subseed(cfg.seed ^ 0x99, s * 37 + fam_id as u64));
        let sol = bal(&inst);
        let kkt_ok = certify(&inst, &sol, Tol::rel(1e-6)).is_ok();
        let schedule = sol.schedule(&inst);
        let sched_ok = match schedule.validate(&inst, Default::default()) {
            Ok(stats) => (stats.energy - sol.energy).abs() <= 1e-6 * sol.energy.max(1e-12),
            Err(_) => false,
        };
        kkt_ok && sched_ok
    });
    let passed_kkt = results.iter().filter(|&&ok| ok).count();
    assert_eq!(passed_kkt, total_kkt, "a KKT certificate failed");
    t.push(vec![
        "KKT + schedule validation".into(),
        total_kkt.into(),
        passed_kkt.into(),
    ]);

    // 2. m = 1 reduction to YDS.
    let m1_cases: Vec<u64> = (0..seeds as u64).collect();
    let m1 = par_map(m1_cases, |&s| {
        let inst = families::general(n, 1, 2.0).gen(subseed(cfg.seed ^ 0xAA, s));
        let e_bal = bal(&inst).energy;
        let jobs: Vec<Job> = inst.jobs().to_vec();
        let e_yds = yds(&jobs, 2.0).energy;
        (e_bal - e_yds).abs() <= 1e-6 * e_yds
    });
    let passed_m1 = m1.iter().filter(|&&ok| ok).count();
    assert_eq!(passed_m1, seeds, "BAL != YDS at m = 1");
    t.push(vec![
        "m=1 reduction (BAL == YDS)".into(),
        seeds.into(),
        passed_m1.into(),
    ]);

    // 3. Closed forms: k equal jobs, common window, m machines.
    let mut closed = 0usize;
    let mut closed_total = 0usize;
    for (k, m, w, horizon, alpha) in [
        (3usize, 2usize, 2.0f64, 4.0f64, 2.0f64),
        (5, 2, 1.0, 2.0, 2.5),
        (2, 4, 3.0, 3.0, 3.0),
        (8, 3, 0.5, 1.0, 1.8),
    ] {
        closed_total += 1;
        let jobs: Vec<Job> = (0..k)
            .map(|i| Job::new(i as u32, w, 0.0, horizon))
            .collect();
        let inst = Instance::new(jobs, m, alpha).unwrap();
        let sol = bal(&inst);
        let speed = (w / horizon).max(k as f64 * w / (m as f64 * horizon));
        let expect = k as f64 * w * speed.powf(alpha - 1.0);
        if (sol.energy - expect).abs() <= 1e-6 * expect {
            closed += 1;
        }
    }
    assert_eq!(closed, closed_total, "a closed-form check failed");
    t.push(vec![
        "closed forms (common window)".into(),
        closed_total.into(),
        closed.into(),
    ]);

    vec![t]
}
