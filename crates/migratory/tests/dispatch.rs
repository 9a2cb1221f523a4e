//! WAP dispatch counters: after the sweep's first decline the generic
//! engine answers every later solve of that solver.
//!
//! This binary holds exactly one test: probe sessions are process-global,
//! so a concurrent solve in another test would leak counters into it.

use ssp_migratory::Wap;

#[test]
fn first_decline_routes_every_later_solve_to_the_engine() {
    // Per-cell-cap starvation: the sweep greedy cannot certify these
    // demands, so every attempt at them would decline.
    let wap = Wap::new(
        vec![vec![0, 1], vec![0, 1], vec![0, 1], vec![0, 1, 2]],
        vec![4.0, 3.0, 1.0],
        vec![8.0, 6.0, 0.0],
    );
    let p_bad = [4.0, 6.0, 0.0, 6.0];
    let session = ssp_probe::Session::begin().expect("no competing session");
    let mut solver = wap.solver();
    for _ in 0..4 {
        assert!((solver.solve(&p_bad) - 14.0).abs() < 1e-9);
        assert!(!solver.feasible());
    }
    let trace = session.end();
    assert_eq!(trace.counter("wap.flow_calls"), 4);
    assert_eq!(trace.counter("wap.fast_path"), 0);
    assert_eq!(trace.counter("wap.fast_fallback"), 1);
    assert_eq!(trace.counter("wap.sweep_skip"), 3);
}
