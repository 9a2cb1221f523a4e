//! Differential test wall for the parallel BAL probe ladder (tier-1).
//!
//! The ladder fans out each round's candidate speeds onto per-probe clones
//! of one warm solver via `par_map`. Parallelism is required to change
//! **wall time only**: for a fixed instance and strategy, the probe
//! transcript (every `(speed, feasible)` pair in order), the per-round peel
//! sets, the speeds, and the total energy must be bit-identical at every
//! thread count. These
//! tests replay the same instances under pinned widths 1, 2, and 8 (via
//! `set_thread_override`, which takes precedence over `SSP_THREADS`) and
//! compare the full transcripts.
//!
//! A second wall cross-checks the two probe strategies: `Ladder` and
//! `Bisection` take different probe paths, but both stop inside the
//! feasibility classifier's 1e-9 relative tolerance, so their energies must
//! agree to ~1e-8 relative (not bit-for-bit — the transcripts legitimately
//! differ).

use ssp_migratory::bal::{try_bal_with_wap_strategy, BalSolution, ProbeStrategy};
use ssp_migratory::wap::Wap;
use ssp_model::par::set_thread_override;
use ssp_model::resource::Budget;
use ssp_model::Instance;
use ssp_workloads::families;

fn solve(instance: &Instance, strategy: ProbeStrategy) -> BalSolution {
    let (wap, intervals) = Wap::from_instance(instance);
    try_bal_with_wap_strategy(instance, wap, intervals, Budget::unlimited(), strategy)
        .expect("feasible instance must solve")
}

fn solve_at_width(instance: &Instance, strategy: ProbeStrategy, width: usize) -> BalSolution {
    let prev = set_thread_override(Some(width));
    let sol = solve(instance, strategy);
    set_thread_override(prev);
    sol
}

/// Assert two solutions of the same instance + strategy are bit-identical:
/// same probe transcript per round, same peel sets, same speeds and energy.
fn assert_transcripts_identical(a: &BalSolution, b: &BalSolution, ctx: &str) {
    assert_eq!(
        a.energy.to_bits(),
        b.energy.to_bits(),
        "{ctx}: energy diverged ({} vs {})",
        a.energy,
        b.energy
    );
    assert_eq!(
        a.rounds.len(),
        b.rounds.len(),
        "{ctx}: round count diverged"
    );
    for (r, (ra, rb)) in a.rounds.iter().zip(&b.rounds).enumerate() {
        assert_eq!(
            ra.speed.to_bits(),
            rb.speed.to_bits(),
            "{ctx}: round {r} critical speed diverged ({} vs {})",
            ra.speed,
            rb.speed
        );
        assert_eq!(ra.jobs, rb.jobs, "{ctx}: round {r} job set diverged");
        assert_eq!(
            ra.saturated, rb.saturated,
            "{ctx}: round {r} saturated set diverged"
        );
        assert_eq!(
            ra.probes.len(),
            rb.probes.len(),
            "{ctx}: round {r} probe count diverged"
        );
        for (k, (pa, pb)) in ra.probes.iter().zip(&rb.probes).enumerate() {
            assert_eq!(
                pa.0.to_bits(),
                pb.0.to_bits(),
                "{ctx}: round {r} probe {k} speed diverged ({} vs {})",
                pa.0,
                pb.0
            );
            assert_eq!(
                pa.1, pb.1,
                "{ctx}: round {r} probe {k} verdict diverged at speed {}",
                pa.0
            );
        }
    }
    assert_eq!(
        a.flow_computations, b.flow_computations,
        "{ctx}: flow-computation count diverged"
    );
    for (i, (sa, sb)) in a.speeds.speeds().iter().zip(b.speeds.speeds()).enumerate() {
        assert_eq!(
            sa.to_bits(),
            sb.to_bits(),
            "{ctx}: speed of job {i} diverged ({sa} vs {sb})"
        );
    }
}

/// The instance matrix for the walls: one per family, sized so every ladder
/// code path fires (multi-round peels, Newton cuts, fringe exits) while
/// keeping tier-1 fast.
fn instances() -> Vec<(&'static str, Instance)> {
    vec![
        ("general", families::general(48, 3, 2.0).gen(0xBA101)),
        ("laminar", families::laminar_nested(48, 3, 2.0, 0xBA102)),
        ("crossing", families::crossing(48, 3, 2.0, 0xBA103)),
        ("bursty", families::bursty(40, 4, 2.5).gen(0xBA104)),
    ]
}

#[test]
fn ladder_transcripts_are_thread_count_invariant() {
    for (name, instance) in instances() {
        let serial = solve_at_width(&instance, ProbeStrategy::Ladder, 1);
        for width in [2usize, 8] {
            let parallel = solve_at_width(&instance, ProbeStrategy::Ladder, width);
            let ctx = format!("{name} @ width {width}");
            assert_transcripts_identical(&serial, &parallel, &ctx);
        }
    }
}

#[test]
fn bisection_transcripts_are_thread_count_invariant() {
    // Bisection probes serially regardless of width; the wall still pins it
    // so a future regression (e.g. a parallel refactor leaking into the
    // serial driver) cannot slip through.
    for (name, instance) in instances() {
        let serial = solve_at_width(&instance, ProbeStrategy::Bisection, 1);
        let parallel = solve_at_width(&instance, ProbeStrategy::Bisection, 8);
        let ctx = format!("{name} @ width 8");
        assert_transcripts_identical(&serial, &parallel, &ctx);
    }
}

#[test]
fn ladder_and_bisection_agree_on_energy() {
    for (name, instance) in instances() {
        let ladder = solve(&instance, ProbeStrategy::Ladder);
        let bisect = solve(&instance, ProbeStrategy::Bisection);
        let rel = (ladder.energy - bisect.energy).abs() / bisect.energy.max(1e-12);
        assert!(
            rel <= 1e-8,
            "{name}: strategy energies diverged beyond tolerance: ladder {} vs bisect {} (rel {rel:.3e})",
            ladder.energy,
            bisect.energy
        );
        // Both must also validate as explicit schedules.
        for (tag, sol) in [("ladder", &ladder), ("bisect", &bisect)] {
            let schedule = sol.schedule(&instance);
            let stats = schedule
                .validate(&instance, Default::default())
                .unwrap_or_else(|e| panic!("{name}/{tag}: schedule failed validation: {e}"));
            assert!(
                (stats.energy - sol.energy).abs() <= 1e-6 * sol.energy,
                "{name}/{tag}: schedule energy {} vs solver energy {}",
                stats.energy,
                sol.energy
            );
        }
    }
}

#[test]
fn ladder_budget_salvage_is_thread_count_invariant() {
    // Budget exhaustion mid-ladder takes the salvage path (fix remaining
    // jobs at the feasible bracket end); the truncation point is charged
    // per planned probe *before* the fan-out, so it too must be
    // width-invariant.
    let instance = families::laminar_nested(32, 2, 2.0, 0xBA105);
    let solve_budgeted = |width: usize| {
        let prev = set_thread_override(Some(width));
        let (wap, intervals) = Wap::from_instance(&instance);
        let sol = try_bal_with_wap_strategy(
            &instance,
            wap,
            intervals,
            Budget::iterations(25),
            ProbeStrategy::Ladder,
        )
        .expect("budgeted solve must salvage");
        set_thread_override(prev);
        sol
    };
    let serial = solve_budgeted(1);
    assert_eq!(
        serial.budget_exhausted,
        Some("iterations"),
        "budget must actually exhaust for the salvage wall to bite"
    );
    for width in [2usize, 8] {
        let parallel = solve_budgeted(width);
        let ctx = format!("budget salvage @ width {width}");
        assert_transcripts_identical(&serial, &parallel, &ctx);
    }
}
