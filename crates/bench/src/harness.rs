//! Dependency-free timing harness with a Criterion-compatible surface.
//!
//! The workspace builds in fully offline environments, so the external
//! `criterion` crate is replaced by this minimal shim: the bench targets
//! under `benches/` keep their structure (`Criterion`, `BenchmarkGroup`,
//! `Bencher::iter`, `criterion_group!`/`criterion_main!`) and only swap the
//! `use criterion::...` imports for `ssp_bench` ones.
//!
//! Modes, following Cargo's conventions for `harness = false` targets:
//!
//! * `cargo bench` passes `--bench`: every benchmark is measured (warmup,
//!   then timed samples) and a mean per-iteration time is printed, with
//!   element throughput when a [`Throughput`] was declared.
//! * `cargo test` (and any invocation without `--bench`) runs each
//!   benchmark body exactly once as a smoke test, so the kernels stay
//!   covered by the tier-1 gate without paying measurement time.
//!
//! Passing `--probe` (or setting `SSP_BENCH_PROBE=1`) additionally runs one
//! extra *untimed* invocation of each benchmark inside an `ssp-probe`
//! session and prints the per-iteration solver counters (max-flow runs,
//! bisection steps, …) under the timing line — so a regression in time can
//! immediately be attributed to a regression in work. The traced run stays
//! outside the timed samples, so probing never perturbs the numbers. See
//! `docs/OBSERVABILITY.md`.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// One measured benchmark, retained so the run can be serialized as an
/// artifact after all groups finish (see [`Criterion::emit_artifact`]).
struct BenchRecord {
    label: String,
    per_iter_ms: f64,
    iters: u64,
    trace: Option<ssp_probe::Trace>,
}

/// Measurement configuration plus run-wide counters.
pub struct Criterion {
    measure: bool,
    probe: bool,
    ran: usize,
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Build from the process arguments (`--bench` selects measurement
    /// mode, anything else the single-pass smoke mode; `--probe` or the
    /// `SSP_BENCH_PROBE` env var adds per-iteration counter reporting).
    ///
    /// Setting [`crate::trajectory::TRACE_DIR_ENV`] also turns probing on:
    /// auto-attaching a trace for a regressed cell requires the trace to
    /// exist by the time [`Criterion::emit_artifact`] compares against
    /// history, because macro-driven benches cannot re-run a closure after
    /// their group returns.
    pub fn from_args() -> Self {
        let measure = std::env::args().any(|a| a == "--bench");
        let probe = std::env::args().any(|a| a == "--probe")
            || std::env::var_os("SSP_BENCH_PROBE").is_some()
            || crate::trajectory::trace_dir().is_some();
        Criterion {
            measure,
            probe,
            ran: 0,
            records: Vec::new(),
        }
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(self, &id.to_string(), 20, None, f);
        self
    }

    /// Print the end-of-run summary line.
    pub fn final_summary(&self) {
        let mode = if self.measure {
            "measured"
        } else {
            "smoke-tested"
        };
        println!("{} {} benchmark(s)", mode, self.ran);
    }

    /// Serialize the measured run as a bench artifact, honoring the same
    /// environment contract as the structured kernel benches:
    /// `SSP_BENCH_JSON=<path>` writes a snapshot, `SSP_BENCH_HISTORY=<path>`
    /// appends a `bench_run` trajectory line, and
    /// [`crate::trajectory::TRACE_DIR_ENV`] stores the captured probe trace
    /// of every cell that regresses against its own history-calibrated
    /// noise band. No-op in smoke mode or when neither path is set.
    ///
    /// Labels map to cells as `group/123` → `family="group", n=123` when
    /// the last `/`-segment is an integer, `family=<label>, n=0` otherwise;
    /// the mean per-iteration time lands in `time_ms`.
    pub fn emit_artifact(&self, bench: &str, alpha: f64) {
        use crate::artifact::Artifact;
        if !self.measure {
            return;
        }
        let snapshot = std::env::var("SSP_BENCH_JSON")
            .ok()
            .filter(|p| !p.is_empty());
        let history = std::env::var("SSP_BENCH_HISTORY")
            .ok()
            .filter(|p| !p.is_empty());
        if snapshot.is_none() && history.is_none() {
            return;
        }
        let builders: Vec<_> = self
            .records
            .iter()
            .map(|r| {
                let (family, n) = split_label(&r.label);
                crate::artifact::CellBuilder::new(family, n)
                    .metric_ms("time_ms", r.per_iter_ms)
                    .int("iters", r.iters)
            })
            .collect();
        let artifact = Artifact {
            bench: bench.to_string(),
            alpha,
            unit: "ms_mean".to_string(),
            cells: builders.iter().map(|b| b.render()).collect(),
        };
        // Regression check against the history as it stood *before* this
        // run is appended, so a fresh slowdown is compared to its past.
        if let (Some(path), Some(dir)) = (&history, crate::trajectory::trace_dir()) {
            let prior = std::fs::read_to_string(crate::artifact::resolve_artifact_path(path))
                .unwrap_or_default();
            let metas: Vec<_> = builders.iter().map(|b| b.meta()).collect();
            for reg in crate::trajectory::detect_regressions(
                bench,
                &metas,
                &prior,
                crate::report::DEFAULT_WINDOW,
            ) {
                eprintln!(
                    "regressed {bench} {} {}: {:.4} ms vs baseline {:.4} ms (+{:.1}% > band {:.1}%)",
                    reg.key,
                    reg.metric,
                    reg.latest,
                    reg.baseline,
                    reg.delta * 100.0,
                    reg.band * 100.0
                );
                let trace = metas
                    .iter()
                    .position(|m| m.key == reg.key)
                    .and_then(|i| self.records[i].trace.as_ref());
                match trace {
                    Some(trace) => {
                        match crate::trajectory::write_attachment(&dir, bench, &reg.key, trace) {
                            Ok(p) => eprintln!("  trace attached: {}", p.display()),
                            Err(e) => eprintln!("  warning: cannot attach trace: {e}"),
                        }
                    }
                    None => eprintln!("  no probe trace captured for this cell"),
                }
            }
        }
        if let Some(path) = &snapshot {
            match artifact.write_snapshot(path) {
                Ok(()) => println!("wrote snapshot {path}"),
                Err(e) => eprintln!("warning: cannot write snapshot {path}: {e}"),
            }
        }
        if let Some(path) = &history {
            match artifact.append_history(path) {
                Ok(()) => println!("appended history {path}"),
                Err(e) => eprintln!("warning: cannot append history {path}: {e}"),
            }
        }
    }
}

/// `group/123` → `("group", 123)`; labels without a trailing integer
/// segment keep the whole label as the family with `n = 0`.
fn split_label(label: &str) -> (&str, usize) {
    match label.rsplit_once('/') {
        Some((family, tail)) => match tail.parse::<usize>() {
            Ok(n) => (family, n),
            Err(_) => (label, 0),
        },
        None => (label, 0),
    }
}

/// A group of benchmarks sharing a name prefix and measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples taken per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare the work per iteration so the report can show a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure under `group_name/id`.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion, &label, self.sample_size, self.throughput, f);
        self
    }

    /// Benchmark a closure that borrows a prepared input.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(
            self.criterion,
            &label,
            self.sample_size,
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    /// Close the group (kept for Criterion source compatibility; all
    /// reporting happens per benchmark).
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group: an optional function name
/// plus a parameter rendered with `Display`.
pub struct BenchmarkId {
    name: Option<String>,
    param: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId {
            name: Some(name.into()),
            param: param.to_string(),
        }
    }

    /// An id that is just the parameter (the group supplies the name).
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            name: None,
            param: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.name {
            Some(name) => write!(f, "{}/{}", name, self.param),
            None => write!(f, "{}", self.param),
        }
    }
}

/// Work performed per iteration, for rate reporting.
#[derive(Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many logical elements (e.g. jobs).
    Elements(u64),
}

/// Passed to every benchmark body; [`Bencher::iter`] does the timing.
pub struct Bencher {
    measure: bool,
    probe: bool,
    sample_size: usize,
    /// Total time spent inside `iter` closures.
    elapsed: Duration,
    /// Number of closure invocations that `elapsed` covers.
    iters: u64,
    /// Trace of one untimed invocation, captured in probe mode.
    trace: Option<ssp_probe::Trace>,
}

/// One untimed, traced invocation; `None` if the probe is busy elsewhere.
fn trace_once<O>(routine: &mut impl FnMut() -> O) -> Option<ssp_probe::Trace> {
    let session = ssp_probe::Session::begin()?;
    std::hint::black_box(routine());
    Some(session.end())
}

impl Bencher {
    /// Run the routine, timing it in measurement mode or executing it once
    /// in smoke mode.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if !self.measure {
            if self.probe {
                self.trace = trace_once(&mut routine);
            }
            if self.trace.is_none() {
                std::hint::black_box(routine());
            }
            self.iters += 1;
            return;
        }
        if self.probe {
            // Trace before the timed samples so counter registration and
            // buffer growth never land inside a measurement.
            self.trace = trace_once(&mut routine);
        }
        // Warmup + calibration: aim each timed sample at ~2ms of work.
        let start = Instant::now();
        std::hint::black_box(routine());
        let est = start.elapsed().max(Duration::from_nanos(50));
        let per_sample =
            (Duration::from_millis(2).as_nanos() / est.as_nanos()).clamp(1, 100_000) as u64;
        let mut budget = Duration::from_millis(200);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..per_sample {
                std::hint::black_box(routine());
            }
            let dt = t0.elapsed();
            self.elapsed += dt;
            self.iters += per_sample;
            budget = budget.saturating_sub(dt);
            if budget.is_zero() {
                break;
            }
        }
    }
}

fn run_one(
    criterion: &mut Criterion,
    label: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        measure: criterion.measure,
        probe: criterion.probe,
        sample_size,
        elapsed: Duration::ZERO,
        iters: 0,
        trace: None,
    };
    f(&mut b);
    criterion.ran += 1;
    if !criterion.measure {
        println!("smoke {label}: ok ({} call(s))", b.iters.max(1));
        print_trace_counters(label, &b.trace);
        return;
    }
    if b.iters == 0 {
        println!("bench {label}: no iterations recorded");
        return;
    }
    let per_iter = b.elapsed.as_secs_f64() / b.iters as f64;
    let mut line = format!(
        "bench {label}: {} per iter ({} iters)",
        fmt_time(per_iter),
        b.iters
    );
    if let Some(Throughput::Elements(e)) = throughput {
        if per_iter > 0.0 {
            let rate = e as f64 / per_iter;
            line.push_str(&format!(", {} elem/s", fmt_rate(rate)));
        }
    }
    println!("{line}");
    print_trace_counters(label, &b.trace);
    criterion.records.push(BenchRecord {
        label: label.to_string(),
        per_iter_ms: per_iter * 1e3,
        iters: b.iters,
        trace: b.trace,
    });
}

/// In probe mode, report the solver counters of one traced iteration under
/// the timing line (deltas per iteration, since the session spans exactly
/// one invocation).
fn print_trace_counters(label: &str, trace: &Option<ssp_probe::Trace>) {
    let Some(trace) = trace else { return };
    for (name, value) in &trace.counters {
        println!("  probe {label}: {name} = {value}/iter");
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2}K", rate / 1e3)
    } else {
        format!("{rate:.1}")
    }
}

/// Bundle benchmark functions into a named group runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generate `main` running the listed groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_body_once() {
        let mut c = Criterion {
            measure: false,
            probe: false,
            ran: 0,
            records: Vec::new(),
        };
        let mut calls = 0u32;
        c.bench_function("probe", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
        assert_eq!(c.ran, 1);
    }

    #[test]
    fn measure_mode_records_iterations() {
        let mut c = Criterion {
            measure: true,
            probe: false,
            ran: 0,
            records: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.sample_size(3).throughput(Throughput::Elements(8));
        let mut calls = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(8), &2u64, |b, &x| {
            b.iter(|| calls += x)
        });
        g.finish();
        assert!(
            calls >= 3,
            "expected multiple timed iterations, got {calls}"
        );
    }

    #[test]
    fn probe_mode_traces_one_untimed_iteration() {
        // Process-global probe: this is the only session user in this test
        // binary, so no lock is needed.
        let mut calls = 0u32;
        let trace = trace_once(&mut || {
            ssp_probe::counter!("bench.harness.test_events", 3u64);
            calls += 1;
        })
        .expect("probe idle in the bench test binary");
        assert_eq!(calls, 1, "trace_once runs the routine exactly once");
        assert_eq!(trace.counter("bench.harness.test_events"), 3);

        // Smoke mode with probing on: the traced call doubles as the smoke
        // call, so the body still runs exactly once.
        let mut c = Criterion {
            measure: false,
            probe: true,
            ran: 0,
            records: Vec::new(),
        };
        let mut smoke_calls = 0u32;
        c.bench_function("probe_smoke", |b| b.iter(|| smoke_calls += 1));
        assert_eq!(smoke_calls, 1);
    }

    #[test]
    fn benchmark_ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("exact", 11).to_string(), "exact/11");
        assert_eq!(BenchmarkId::from_parameter(200).to_string(), "200");
        assert_eq!(fmt_time(0.5), "500.000 ms");
        assert_eq!(fmt_rate(2_000_000.0), "2.00M");
    }
}
