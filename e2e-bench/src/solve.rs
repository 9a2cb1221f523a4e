//! `solve-bound` and `solve-search`: one client calling
//! `ssp_harness::solve` in a closed loop over seeded instances.
//!
//! `solve-bound` asks for `rr`, whose own work is small, so the certified
//! lower bound (BAL + KKT) is nearly all of a solve; laminar instances take
//! the sweep fast path and general ones mostly decline it. `solve-search`
//! asks for `local`, whose search and YDS pricing dominate while the bound
//! is a few percent: a bound-only change should not move it.

use crate::layers::Layers;
use crate::report::{Metric, Report};
use crate::stats::{beyond, frac, mean, quantile, tail_quantile};
use crate::{provenance, Config, Workload};
use ssp_core::assignment::Assignment;
use ssp_core::list::marginal_energy_greedy;
use ssp_core::local_search::{improve, LocalSearchOptions};
use ssp_core::rr::rr_assignment;
use ssp_harness::{certified_lower_bound, run_algorithm, solve, Algo, SolveOptions, SolveReport};
use ssp_migratory::bal::try_bal;
use ssp_migratory::kkt::certify;
use ssp_model::numeric::Tol;
use ssp_model::schedule::ValidationOptions;
use ssp_model::{Budget, Instance};
use ssp_serve::json::Json;
use ssp_single::yds::yds;
use ssp_workloads::{families, subseed};
use std::time::Instant;

const MACHINES: usize = 4;
const ALPHA: f64 = 2.0;
/// Relative slack on `energy >= lower bound`, as the serve soak uses.
pub(crate) const LB_SLACK: f64 = 1e-9;
/// Seed of the warm-up inputs. Fixed, so set-up time does not depend on
/// which instances `--seed` draws.
pub(crate) const WARM_SEED: u64 = 0;

/// One solve workload's fixed design.
struct Plan {
    algo: Algo,
    /// Distinct instances; a run solves each at least once.
    instances: usize,
    /// Job counts, cycled over the instances.
    sizes: &'static [usize],
    /// Every `laminar_every`-th instance is `laminar_nested` (0 = none).
    laminar_every: usize,
    /// Local-search evaluation cap (`Budget::iterations`); `None` = the
    /// harness default.
    eval_cap: Option<u64>,
    /// Latency limit for `goodput_rps`.
    limit_ms: f64,
    /// Setup repetitions; `setup_s` is their median.
    setup_reps: usize,
}

fn plan(cfg: &Config) -> Plan {
    match (cfg.workload, cfg.smoke) {
        (Workload::SolveBound, false) => Plan {
            algo: Algo::Rr,
            instances: 60,
            sizes: &[800],
            laminar_every: 3,
            eval_cap: None,
            limit_ms: 1000.0,
            setup_reps: 5,
        },
        (Workload::SolveBound, true) => Plan {
            algo: Algo::Rr,
            instances: 3,
            sizes: &[40],
            laminar_every: 3,
            eval_cap: None,
            limit_ms: 1000.0,
            setup_reps: 1,
        },
        (_, false) => Plan {
            algo: Algo::Local,
            instances: 55,
            // Five sizes, not three: neighbouring sizes' solve times
            // overlap, so the median does not sit in a gap between clusters.
            sizes: &[200, 250, 300, 350, 400],
            laminar_every: 0,
            eval_cap: Some(4_000),
            limit_ms: 1500.0,
            setup_reps: 5,
        },
        (_, true) => Plan {
            algo: Algo::Local,
            instances: 3,
            sizes: &[20, 30, 40],
            laminar_every: 0,
            eval_cap: Some(500),
            limit_ms: 1500.0,
            setup_reps: 1,
        },
    }
}

impl Plan {
    fn generate(&self, seed: u64) -> Vec<Instance> {
        (0..self.instances)
            .map(|k| self.generate_one(seed, k))
            .collect()
    }

    /// Instance `k` of the set for `seed`.
    fn generate_one(&self, seed: u64, k: usize) -> Instance {
        let s = subseed(seed, k as u64);
        let n = self.sizes[k % self.sizes.len()];
        if self.laminar_every > 0 && k % self.laminar_every == self.laminar_every - 1 {
            families::laminar_nested(n, MACHINES, ALPHA, s)
        } else {
            families::general(n, MACHINES, ALPHA).gen(s)
        }
    }

    fn options(&self) -> SolveOptions {
        SolveOptions {
            budget: self
                .eval_cap
                .map_or_else(Budget::unlimited, Budget::iterations),
            ..SolveOptions::default()
        }
    }

    /// The assignment `run_algorithm` starts from.
    fn assign(&self, inst: &Instance) -> Assignment {
        match self.algo {
            Algo::Local => marginal_energy_greedy(inst),
            _ => rr_assignment(inst),
        }
    }

    fn describe(&self, width: usize) -> Vec<(&'static str, Json)> {
        let families = if self.laminar_every > 0 {
            format!("general, laminar_nested every {}th", self.laminar_every)
        } else {
            "general".into()
        };
        vec![
            ("loop", Json::Str("closed, 1 client".into())),
            ("algo", Json::Str(self.algo.name().into())),
            ("families", Json::Str(families)),
            (
                "sizes",
                Json::Arr(self.sizes.iter().map(|&n| Json::Num(n as f64)).collect()),
            ),
            ("machines", Json::Num(MACHINES as f64)),
            ("instances", Json::Num(self.instances as f64)),
            (
                "eval_cap",
                self.eval_cap.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("limit_ms", Json::Num(self.limit_ms)),
            ("thread_width", Json::Num(width as f64)),
        ]
    }
}

/// Outcome check: a validated schedule whose energy is at least the
/// certified bound. Returns `(energy, energy / bound)`.
fn check(report: &SolveReport) -> Result<(f64, f64), String> {
    let outcome = report.outcome.as_ref().ok_or("no outcome")?;
    let lb = report.lower_bound.ok_or("no certified lower bound")?;
    let energy = outcome.stats.energy;
    if !energy.is_finite() || energy < lb * (1.0 - LB_SLACK) {
        return Err(format!("energy {energy} below certified bound {lb}"));
    }
    Ok((energy, energy / lb))
}

/// The validator rules `solve` applies to `algo`'s schedules.
pub(crate) fn validation(algo: Algo) -> ValidationOptions {
    if algo.non_migratory() {
        ValidationOptions::non_migratory()
    } else {
        ValidationOptions::default()
    }
}

/// The median of `reps` timed calls of `f`, and the last call's output.
pub(crate) fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        // Dropping the previous repetition's output is not set-up work.
        out = Some(value);
    }
    (
        quantile(&mut times, 0.5),
        out.expect("at least one repetition"),
    )
}

pub(crate) fn run(cfg: &Config) -> Report {
    let plan = plan(cfg);
    // One caller blocked in `par_map` while its workers run: the fan-out
    // width is the whole thread budget.
    let width = provenance::nproc().min(2);
    ssp_model::par::set_thread_override(Some(width));
    let opts = plan.options();

    let mut gen_s = Vec::new();
    let (setup_s, instances) = median_setup(plan.setup_reps, || {
        let t = Instant::now();
        let instances = plan.generate(cfg.seed);
        gen_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(solve(&plan.generate_one(WARM_SEED, 0), plan.algo, &opts));
        instances
    });

    let mut report = if cfg.trace {
        traced(cfg, &plan, &opts, &instances, quantile(&mut gen_s, 0.5))
    } else {
        untraced(cfg, &plan, &opts, &instances, setup_s)
    };
    report.detail.extend(plan.describe(width));
    report
}

fn untraced(
    cfg: &Config,
    plan: &Plan,
    opts: &SolveOptions,
    instances: &[Instance],
    setup_s: f64,
) -> Report {
    let mut lat = Vec::new();
    let (mut failed, mut degraded, mut within) = (0u64, 0u64, 0u64);
    let mut ratios = Vec::new();
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    let mut k = 0;
    while k < instances.len() || t0.elapsed() < cfg.duration {
        let inst = &instances[k % instances.len()];
        let t = Instant::now();
        let report = solve(inst, plan.algo, opts);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        lat.push(ms);
        degraded += u64::from(report.degraded());
        match check(&report) {
            Ok((energy, ratio)) => {
                ratios.push(ratio);
                within += u64::from(ms <= plan.limit_ms);
                if k < instances.len() {
                    checksum += energy;
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("{} solve {k}: {e}", cfg.workload.name());
            }
        }
        k += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    closed_loop_report(ClosedLoop {
        lat,
        failed,
        degraded,
        within,
        ratios,
        elapsed,
        setup_s,
        design_ops: instances.len(),
        checksum,
        checksum_ops: instances.len(),
    })
}

/// Tallies of a closed-loop run, turned into the end-to-end metrics.
pub(crate) struct ClosedLoop {
    pub(crate) lat: Vec<f64>,
    pub(crate) failed: u64,
    pub(crate) degraded: u64,
    pub(crate) within: u64,
    pub(crate) ratios: Vec<f64>,
    pub(crate) elapsed: f64,
    pub(crate) setup_s: f64,
    /// The operation count the design guarantees (fixes the tail).
    pub(crate) design_ops: usize,
    pub(crate) checksum: f64,
    pub(crate) checksum_ops: usize,
}

pub(crate) fn closed_loop_report(mut t: ClosedLoop) -> Report {
    let attempted = t.lat.len() as u64;
    let ok = attempted - t.failed;
    let q = tail_quantile(t.design_ops);
    let p50 = quantile(&mut t.lat, 0.5);
    let tail = quantile(&mut t.lat, q);
    let error_frac = frac(t.failed as f64, attempted as f64);
    let degraded_frac = frac(t.degraded as f64, attempted as f64);
    let values = [
        t.setup_s,
        ok as f64 / t.elapsed,
        p50,
        tail,
        1.0 - error_frac,
        1.0 - degraded_frac,
        mean(&t.ratios),
        t.within as f64 / t.elapsed,
        provenance::peak_rss_mb(),
    ];
    Report {
        correct: t.failed == 0,
        attempted,
        failed: t.failed,
        metrics: crate::E2E
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect(),
        detail: vec![
            ("error_frac", Json::Num(error_frac)),
            ("degraded_frac", Json::Num(degraded_frac)),
            ("tail_percentile", Json::Num(q * 100.0)),
            (
                "tail_samples_beyond",
                Json::Num(beyond(t.lat.len(), q) as f64),
            ),
            ("energy_checksum", Json::Str(format!("{:?}", t.checksum))),
            ("checksum_ops", Json::Num(t.checksum_ops as f64)),
        ],
        enclosed: Vec::new(),
    }
}

fn traced(
    cfg: &Config,
    plan: &Plan,
    opts: &SolveOptions,
    instances: &[Instance],
    gen_s: f64,
) -> Report {
    let vopts = validation(plan.algo);
    let search_opts = LocalSearchOptions {
        max_evaluations: plan.eval_cap.map_or(2_000_000, |c| c as usize),
        ..LocalSearchOptions::default()
    };
    let mut layers = Layers::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut k = 0;
    while k == 0 || t0.elapsed() < cfg.duration {
        let inst = &instances[k % instances.len()];
        k += 1;

        // The untraced reference solve for the overhead ratio.
        let t = Instant::now();
        let report = solve(inst, plan.algo, opts);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        if let Err(e) = check(&report) {
            failed += 1;
            eprintln!("{} solve {k}: {e}", cfg.workload.name());
        }

        // The traced solve: the calls `solve` makes, timed one by one,
        // with a probe session collecting the program's counters.
        let session = ssp_probe::Session::begin().expect("the benchmark owns the probes");
        let op = Instant::now();
        let lb = layers.time("harness.lower_bound_ms", || {
            certified_lower_bound(inst, opts.budget.clone())
        });
        let run = layers.time("harness.algorithm_ms", || {
            run_algorithm(inst, plan.algo, opts)
        });
        let stats = run.ok().and_then(|r| {
            layers
                .time("model.validate_ms", || r.schedule.validate(inst, vopts))
                .ok()
        });
        traced_ms.push(op.elapsed().as_secs_f64() * 1e3);
        layers.absorb(&session.end(), 1);
        attempted += 1;
        match (stats, lb) {
            (Some(s), Some(lb)) if s.energy >= lb * (1.0 - LB_SLACK) => {}
            (s, lb) => {
                failed += 1;
                eprintln!(
                    "{} traced solve {k}: energy {:?} bound {lb:?}",
                    cfg.workload.name(),
                    s.map(|s| s.energy)
                );
            }
        }

        // The layers below the harness, each called on its own.
        let sol = layers.time("migratory.bal_ms", || try_bal(inst, opts.budget.clone()));
        if let Ok(sol) = &sol {
            let _ = layers.time("migratory.kkt_ms", || certify(inst, sol, Tol::rel(1e-6)));
        }
        let a = layers.time("core.assign_ms", || plan.assign(inst));
        layers.time("single.yds_ms", || {
            for group in a.groups(inst.machines()) {
                let jobs: Vec<_> = group.iter().map(|&i| *inst.job(i)).collect();
                std::hint::black_box(yds(&jobs, inst.alpha()));
            }
        });
        if plan.algo == Algo::Local {
            layers.time("core.local_search_ms", || {
                improve(inst, &a, search_opts.clone())
            });
        }
        layers.end_op(op.elapsed().as_secs_f64() * 1e3);
    }

    let overhead = quantile(&mut traced_ms, 0.5) / quantile(&mut plain_ms, 0.5) - 1.0;
    layers.set("probe.trace_overhead_frac", overhead);
    layers.set("workloads.gen_s", gen_s);
    let (metrics, enclosed) = layers.finish();
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Vec::new(),
        enclosed,
    }
}
