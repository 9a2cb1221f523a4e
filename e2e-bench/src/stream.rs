//! `stream-arrivals`: one thread pushing seeded bursty arrival streams
//! through `ssp_online::StreamEngine` (density dispatch, OA machines,
//! chunked certified lower bound) and finishing each. Compaction runs BAL
//! on thousands of chunks of at most 192 jobs, so a BAL change that trades
//! small-instance cost for large-instance speed shows here.

use crate::layers::Layers;
use crate::report::Report;
use crate::solve::{closed_loop_report, median_setup, ClosedLoop, WARM_SEED};
use crate::stats::{mean, quantile};
use crate::Config;
use ssp_migratory::bal::try_bal;
use ssp_migratory::kkt::certify;
use ssp_model::numeric::Tol;
use ssp_model::{Budget, Instance, Job};
use ssp_online::{EngineOptions, LbMode, Policy, StreamEngine, StreamReport};
use ssp_serve::json::Json;
use ssp_workloads::{stream_family, subseed};
use std::time::Instant;

const FAMILY: &str = "bursty";
const MACHINES: usize = 4;
const ALPHA: f64 = 2.0;
/// Latency limit per arrival for `goodput_rps`.
const LIMIT_MS: f64 = 1.0;

struct Plan {
    /// Arrivals per stream.
    arrivals: usize,
    /// Distinct streams; a run pushes each at least once.
    streams: usize,
    setup_reps: usize,
}

fn plan(smoke: bool) -> Plan {
    if smoke {
        Plan {
            arrivals: 600,
            streams: 2,
            setup_reps: 1,
        }
    } else {
        Plan {
            arrivals: 100_000,
            streams: 6,
            setup_reps: 5,
        }
    }
}

fn options() -> EngineOptions {
    EngineOptions::new(MACHINES, ALPHA).policy(Policy::DensityAware)
}

/// The first `n` arrivals of stream `k` for `seed`.
fn stream(seed: u64, k: usize, n: usize) -> Vec<Job> {
    stream_family(FAMILY, MACHINES, ALPHA)
        .expect("a named stream family")
        .jobs(subseed(seed, k as u64))
        .take(n)
        .collect()
}

/// Push `jobs` through a fresh engine, handing `on_push` the index and
/// wall time (ms) of every successful push. Returns the finished report
/// and the number of failed pushes.
fn push_all(
    jobs: &[Job],
    mut on_push: impl FnMut(usize, f64),
) -> (Result<StreamReport, String>, u64) {
    let mut engine = StreamEngine::new(options()).expect("valid engine options");
    let mut failed = 0;
    for (i, job) in jobs.iter().enumerate() {
        let t = Instant::now();
        let pushed = engine.push(*job);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match pushed {
            Ok(_) => on_push(i, ms),
            Err(e) => {
                failed += 1;
                eprintln!("stream-arrivals: push {i}: {e}");
            }
        }
    }
    (engine.finish().map_err(|e| e.to_string()), failed)
}

/// The stream's own ratio check: the dispatched energy is at least the
/// certified chunked lower bound.
fn check(report: &Result<StreamReport, String>) -> Result<(f64, f64), String> {
    let report = report.as_ref().map_err(Clone::clone)?;
    match report.ratio() {
        Some(r) if r >= 1.0 => Ok((report.energy, r)),
        other => Err(format!("ratio {other:?} below 1")),
    }
}

/// Compaction points, found from the job stream the way the engine finds
/// them: a release at or past every deadline seen (natural split) or a
/// full chunk buffer (forced). Returns one flag per arrival and the
/// chunks the compactions close.
fn compaction_points(jobs: &[Job], window_cap: usize) -> (Vec<bool>, Vec<&[Job]>) {
    let mut split = vec![false; jobs.len()];
    let mut chunks = Vec::new();
    let (mut start, mut max_deadline) = (0, f64::NEG_INFINITY);
    for (i, job) in jobs.iter().enumerate() {
        let len = i - start;
        if (len > 0 && job.release >= max_deadline) || len >= window_cap {
            split[i] = true;
            chunks.push(&jobs[start..i]);
            start = i;
        }
        max_deadline = max_deadline.max(job.deadline);
    }
    chunks.push(&jobs[start..]);
    (split, chunks)
}

pub(crate) fn run(cfg: &Config) -> Report {
    let plan = plan(cfg.smoke);
    // One thread throughout: threads the BAL ladder spawns on a chunk get
    // allocator arenas of their own, which made peak memory jump by 8 MB
    // in some runs and not others.
    let width = 1;
    ssp_model::par::set_thread_override(Some(width));
    let mut gen_s = Vec::new();
    let (setup_s, streams) = median_setup(plan.setup_reps, || {
        let t = Instant::now();
        let streams: Vec<Vec<Job>> = (0..plan.streams)
            .map(|k| stream(cfg.seed, k, plan.arrivals))
            .collect();
        gen_s.push(t.elapsed().as_secs_f64());
        let warm = stream(WARM_SEED, 0, plan.arrivals.min(2000));
        let _ = std::hint::black_box(push_all(&warm, |_, _| {}));
        streams
    });
    let mut report = if cfg.trace {
        traced(cfg, &streams, quantile(&mut gen_s, 0.5))
    } else {
        untraced(cfg, &plan, &streams, setup_s)
    };
    report.detail.extend([
        ("loop", Json::Str("closed, 1 pushing thread".into())),
        ("family", Json::Str(FAMILY.into())),
        ("arrivals_per_stream", Json::Num(plan.arrivals as f64)),
        ("streams", Json::Num(plan.streams as f64)),
        ("machines", Json::Num(MACHINES as f64)),
        (
            "engine",
            Json::Str("density dispatch, OA, chunked LB bal_cap 192".into()),
        ),
        ("limit_ms", Json::Num(LIMIT_MS)),
        ("thread_width", Json::Num(width as f64)),
    ]);
    report
}

fn untraced(cfg: &Config, plan: &Plan, streams: &[Vec<Job>], setup_s: f64) -> Report {
    let mut t = ClosedLoop {
        // Reserved up front so the buffer grows page by page instead of
        // doubling: peak memory then tracks the engine, not how many
        // arrivals a fast run happened to record.
        lat: Vec::with_capacity(4 * plan.arrivals * plan.streams),
        failed: 0,
        degraded: 0,
        within: 0,
        ratios: Vec::new(),
        elapsed: 0.0,
        setup_s,
        design_ops: plan.arrivals * plan.streams,
        checksum: 0.0,
        checksum_ops: plan.arrivals * plan.streams,
    };
    let t0 = Instant::now();
    let mut k = 0;
    while k < streams.len() || t0.elapsed() < cfg.duration {
        let jobs = &streams[k % streams.len()];
        let mut within = 0;
        let before = t.lat.len();
        let (report, failed) = push_all(jobs, |_, ms| {
            t.lat.push(ms);
            within += u64::from(ms <= LIMIT_MS);
        });
        match check(&report) {
            Ok((energy, ratio)) => {
                t.within += within;
                t.failed += failed;
                t.ratios.push(ratio);
                if k < streams.len() {
                    t.checksum += energy;
                }
            }
            Err(e) => {
                // A stream that fails its check fails every arrival in it.
                eprintln!("stream-arrivals: stream {k}: {e}");
                t.failed += failed + (t.lat.len() - before) as u64;
            }
        }
        // Failed pushes count as attempted operations too.
        t.lat
            .extend(std::iter::repeat_n(f64::INFINITY, failed as usize));
        if let Ok(r) = &report {
            t.degraded += r.density_fallbacks;
        }
        k += 1;
    }
    t.elapsed = t0.elapsed().as_secs_f64();
    closed_loop_report(t)
}

fn traced(cfg: &Config, streams: &[Vec<Job>], gen_s: f64) -> Report {
    let opts = options();
    let mut layers = Layers::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut split_us, mut other_us) = (Vec::new(), Vec::new());
    let (mut recompute, mut compactions, mut fallback) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_live = 0usize;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut k = 0;
    while k == 0 || t0.elapsed() < cfg.duration {
        let jobs = &streams[k % streams.len()];
        k += 1;
        let (split, chunks) = compaction_points(jobs, opts.window_cap);

        // Untraced reference pass for the overhead ratio.
        let (report, bad) = push_all(jobs, |_, ms| plain_ms.push(ms));
        attempted += jobs.len() as u64;
        failed += bad + u64::from(check(&report).is_err());

        let session = ssp_probe::Session::begin().expect("the benchmark owns the probes");
        let (report, bad) = push_all(jobs, |i, ms| {
            traced_ms.push(ms);
            if split[i] {
                &mut split_us
            } else {
                &mut other_us
            }
            .push(ms * 1e3);
        });
        layers.absorb(&session.end(), jobs.len() as u64);
        attempted += jobs.len() as u64;
        failed += bad + u64::from(check(&report).is_err());
        if let Ok(r) = &report {
            recompute.push(r.recompute_frac());
            compactions.push((r.compactions + r.forced_compactions) as f64);
            fallback.push(r.density_fallbacks as f64 / r.arrivals.max(1) as f64);
            peak_live = peak_live.max(r.peak_live);
        }

        // BAL and KKT on the chunks compaction hands the exact oracle,
        // each called on its own, for at most a tenth of the run per stream.
        let LbMode::Chunked { bal_cap } = opts.lower_bound else {
            unreachable!("the workload runs the chunked lower bound")
        };
        let budget = cfg.duration.mul_f64(0.1);
        let start = Instant::now();
        for chunk in chunks.into_iter().filter(|c| c.len() <= bal_cap) {
            if start.elapsed() > budget {
                break;
            }
            let inst =
                Instance::new(chunk.to_vec(), MACHINES, ALPHA).expect("stream jobs are valid");
            attempted += 1;
            let op = Instant::now();
            let sol = layers.time("migratory.bal_ms", || try_bal(&inst, Budget::unlimited()));
            let certified = sol.as_ref().map_err(ToString::to_string).and_then(|sol| {
                layers
                    .time("migratory.kkt_ms", || certify(&inst, sol, Tol::rel(1e-6)))
                    .map_err(|v| v.to_string())
            });
            if let Err(e) = certified {
                failed += 1;
                eprintln!("stream-arrivals: chunk bound: {e}");
            }
            layers.end_op(op.elapsed().as_secs_f64() * 1e3);
        }
    }

    layers.set(
        "probe.trace_overhead_frac",
        quantile(&mut traced_ms, 0.5) / quantile(&mut plain_ms, 0.5) - 1.0,
    );
    layers.set("online.split_push_us", mean(&split_us));
    layers.set("online.plain_push_us", mean(&other_us));
    layers.set("online.recompute_frac", mean(&recompute));
    layers.set("online.compactions", mean(&compactions));
    layers.set("online.density_fallback_frac", mean(&fallback));
    layers.set("online.peak_live", peak_live as f64);
    layers.set("workloads.gen_s", gen_s);
    let (metrics, enclosed) = layers.finish();
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: vec![("split_pushes", Json::Num(split_us.len() as f64))],
        enclosed,
    }
}
