//! Scoped-thread parallel map with a controllable thread count.
//!
//! Solver kernels (and the experiment harness) are embarrassingly parallel
//! over independent items. Rather than pull in a thread-pool crate, a single
//! `std::thread::scope` with an atomic work index gives the same
//! data-race-free fan-out (the borrow checker enforces that `f` only
//! captures `Sync` state): each worker claims indices from a shared counter,
//! so uneven item costs balance automatically.
//!
//! ## Thread count, and why callers may pin it
//!
//! The fan-out width is [`thread_count`]: an in-process override
//! ([`set_thread_override`]) if set, else the `SSP_THREADS` environment
//! variable, else [`std::thread::available_parallelism`]. Solver code using
//! [`par_map`] is required to produce **bit-identical results at any thread
//! count** (parallelism may only change *wall time*, never a transcript —
//! see the BAL probe ladder in `ssp-migratory`); the differential test walls
//! replay the same instance under several pinned widths to enforce exactly
//! that. Tests pin the width with [`set_thread_override`] rather than
//! `std::env::set_var`, which is unsound under a multi-threaded test runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// In-process override for [`thread_count`]: `0` = unset, otherwise the
/// pinned width. A process-global relaxed atomic — the value is a tuning
/// knob, not a synchronization point.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin (`Some(width)`) or release (`None`) the [`par_map`] fan-out width for
/// the whole process, taking precedence over `SSP_THREADS`. A width of
/// `Some(0)` is treated as `Some(1)`. Returns the previous override so tests
/// can restore it.
pub fn set_thread_override(width: Option<usize>) -> Option<usize> {
    let raw = match width {
        Some(0) => 1,
        Some(w) => w,
        None => 0,
    };
    let prev = THREAD_OVERRIDE.swap(raw, Ordering::Relaxed);
    if prev == 0 {
        None
    } else {
        Some(prev)
    }
}

/// The fan-out width [`par_map`] will use for a long-enough input:
/// the [`set_thread_override`] value if set, else `SSP_THREADS` (ignored
/// unless it parses to a positive integer), else
/// [`std::thread::available_parallelism`].
pub fn thread_count() -> usize {
    let pinned = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Ok(s) = std::env::var("SSP_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Apply `f` to every item on [`thread_count`] threads; results keep input
/// order.
///
/// Telemetry: each worker adopts the calling thread's innermost open probe
/// span ([`ssp_probe::Session::adopt_parent`]), so spans opened inside `f`
/// attach to the caller's span tree instead of becoming disconnected roots.
/// This is sound because the scope joins every worker before `par_map`
/// returns — the adopted parent span cannot close while workers run.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = thread_count().min(n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let parent = ssp_probe::Session::parent_handle();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let _adopt = ssp_probe::Session::adopt_parent(parent);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(&items[i]);
                        *slots[i].lock().unwrap() = Some(r);
                    }
                })
            })
            .collect();
        // Join manually: `scope` alone would replace a worker's panic
        // payload with a generic "a scoped thread panicked". Re-raising the
        // first payload makes `f`'s panic observable to the caller exactly
        // as in the sequential path (and no slot is silently left `None`).
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect(), |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let _ = par_map((0..57).collect::<Vec<i32>>(), |_| {
            CALLS.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(CALLS.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map((0..64).collect::<Vec<i32>>(), |&x| {
                if x == 13 {
                    panic!("boom at 13");
                }
                x * 2
            })
        });
        let payload = result.expect_err("panic in `f` must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("boom at 13"),
            "original payload must survive, got: {message:?}"
        );
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Just a smoke test that heavy items don't break ordering.
        let out = par_map(vec![30u64, 1, 25, 2, 20], |&ms| {
            let mut acc = 0u64;
            for i in 0..(ms * 100_000) {
                acc = acc.wrapping_add(i);
            }
            (ms, acc != u64::MAX)
        });
        let keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![30, 1, 25, 2, 20]);
    }

    #[test]
    fn override_pins_thread_count_and_restores() {
        // Note: `thread_count` also reads SSP_THREADS, but the override has
        // precedence, so this test is safe under a multi-threaded runner as
        // long as every test touching the override restores it (they do —
        // the knob exists precisely to avoid `std::env::set_var` races).
        let prev = set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        // 0 is normalized away: treated as "1 thread", not "unset".
        set_thread_override(Some(0));
        assert_eq!(thread_count(), 1);
        set_thread_override(prev);
    }

    #[test]
    fn parallel_width_does_not_change_results() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for width in [1usize, 2, 8] {
            let prev = set_thread_override(Some(width));
            let got = par_map(items.clone(), |&x| x * x + 1);
            set_thread_override(prev);
            assert_eq!(got, expect, "width {width}");
        }
    }
}
