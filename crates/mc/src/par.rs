//! Deterministic parallel execution of synthesis jobs.
//!
//! The engine's unit of parallelism is a *job*: an independent piece of
//! property-evaluation work (one instruction/slot enumeration, one
//! transponder/typing IFT sweep, one fuzz case). One scoped worker pool,
//! [`run_ordered`], claims job indices in order and folds their results in
//! index order, so the merged output is a pure function of the job list —
//! independent of worker count and scheduling. `threads == 1` runs the
//! jobs inline on the calling thread, byte-identical to the parallel path
//! (the `--jobs 1` baseline); [`run_jobs`] is that pool collecting every
//! result.
//!
//! A run whose bookkeeping must see results in order, and may stop early,
//! streams them through [`run_ordered`] instead: each result is folded as
//! soon as every earlier one has been, so nothing but the out-of-order
//! stragglers is ever held.
//!
//! Jobs that share a persistent solver context run as *context chains*;
//! [`Fleet::run`] owns those, on top of [`run_jobs`].
//!
//! [`Fleet::run`]: crate::Fleet::run

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The worker count selected by the environment: `SYNTHLC_THREADS` when set
/// to a positive integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SYNTHLC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(job_index, &job)` for every job and returns the results in job
/// order: [`run_ordered`] with a fold that collects them, so the returned
/// vector is the sequential one for every `threads`.
///
/// # Panics
/// A panic in a job is resumed on the caller, as [`run_ordered`] does.
pub fn run_jobs<J, R, F>(jobs: &[J], threads: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let mut out = Vec::with_capacity(jobs.len());
    run_ordered(
        jobs.len(),
        threads,
        |ix| f(ix, &jobs[ix]),
        |_, r| {
            out.push(r);
            ControlFlow::Continue(())
        },
    );
    out
}

/// The shared state of a parallel [`run_ordered`].
struct Ordered<R, F> {
    /// The next job index to claim.
    claimed: usize,
    /// The next job index `fold` is owed.
    folded: usize,
    /// Finished jobs waiting on an earlier index; a panic is a result too.
    waiting: BTreeMap<usize, std::thread::Result<R>>,
    fold: F,
    /// Set once `fold` breaks or a job or `fold` panics.
    stopped: bool,
    /// The panic to resume on the caller, in the order the jobs' results
    /// would have been folded.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Runs `work(ix)` for `ix in 0..n` and hands every result to
/// `fold(ix, result)` in index order, exactly as the loop
/// `for ix in 0..n { if fold(ix, work(ix)).is_break() { break } }` would.
///
/// With `threads > 1`, the calling thread and `threads − 1` scoped workers
/// claim indices in order; whichever thread fills the gap at the lowest
/// unfolded index folds every result that is then in sequence, so only
/// results waiting on an earlier index are ever held. `fold` runs under the
/// run's lock, so a slow fold holds the other threads at their next claim
/// instead of letting them pile up results behind it. Once `fold` breaks,
/// no index is claimed and no result is folded: work already claimed runs
/// to its end and is dropped. `threads == 1` is the loop above, on the
/// caller.
///
/// # Panics
/// A panic in `work` or `fold` is resumed on the caller once every earlier
/// result has been folded, so it surfaces exactly when the sequential loop
/// would raise it, and not at all when `fold` broke first.
pub fn run_ordered<R, W, F>(n: usize, threads: usize, work: W, mut fold: F)
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    F: FnMut(usize, R) -> ControlFlow<()> + Send,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        for ix in 0..n {
            if fold(ix, work(ix)).is_break() {
                return;
            }
        }
        return;
    }
    let state = Mutex::new(Ordered {
        claimed: 0,
        folded: 0,
        waiting: BTreeMap::new(),
        fold,
        stopped: false,
        panic: None,
    });
    // User code only ever panics inside `catch_unwind`, so the lock is
    // never held by an unwinding thread.
    let lock = || state.lock().expect("run_ordered state is never poisoned");
    let drive = || loop {
        let ix = {
            let mut st = lock();
            if st.stopped || st.claimed == n {
                return;
            }
            st.claimed += 1;
            st.claimed - 1
        };
        let result = catch_unwind(AssertUnwindSafe(|| work(ix)));
        let mut guard = lock();
        let st = &mut *guard;
        if st.stopped {
            continue;
        }
        st.waiting.insert(ix, result);
        while let Some(next) = st.waiting.remove(&st.folded) {
            let ix = st.folded;
            st.folded += 1;
            match next.and_then(|r| catch_unwind(AssertUnwindSafe(|| (st.fold)(ix, r)))) {
                Ok(ControlFlow::Continue(())) => {}
                stop => {
                    st.panic = stop.err();
                    st.stopped = true;
                    st.waiting.clear();
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(drive);
        }
        drive();
    });
    let st = state
        .into_inner()
        .expect("run_ordered state is never poisoned");
    if let Some(payload) = st.panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_regardless_of_threads() {
        let jobs: Vec<usize> = (0..64).collect();
        let seq = run_jobs(&jobs, 1, |ix, &j| {
            assert_eq!(ix, j);
            j * 3
        });
        let par = run_jobs(&jobs, 5, |_, &j| j * 3);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 30);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_jobs(&[], 8, |_, &j: &u32| j);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_jobs(&[1u32, 2], 16, |_, &j| j + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn ordered_folds_arrive_in_index_order_even_when_results_do_not() {
        let n = 16;
        for threads in 2..=4 {
            // Job 0 cannot finish before the last job has started, so every
            // job in between finishes ahead of it and waits to be folded.
            let last_started = std::sync::Barrier::new(2);
            let finished = Mutex::new(Vec::new());
            let mut folds = Vec::new();
            run_ordered(
                n,
                threads,
                |ix| {
                    if ix == 0 || ix == n - 1 {
                        last_started.wait();
                    }
                    finished.lock().unwrap().push(ix);
                    ix * 3
                },
                |ix, r| {
                    assert_eq!(r, ix * 3);
                    folds.push(ix);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(folds, (0..n).collect::<Vec<_>>(), "{threads} threads");
            assert_ne!(finished.lock().unwrap()[0], 0, "{threads} threads");
        }
    }

    #[test]
    fn ordered_run_folds_nothing_and_claims_nothing_after_a_stop() {
        for threads in 1..=4 {
            let mut folds = Vec::new();
            run_ordered(
                40,
                threads,
                |ix| ix,
                |ix, _| {
                    folds.push(ix);
                    if ix == 5 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(folds, (0..=5).collect::<Vec<_>>(), "{threads} threads");
        }
        // Job 1 is claimed before job 0's fold stops the run and finishes
        // after it: its result is dropped, and its thread claims nothing.
        let both_claimed = std::sync::Barrier::new(2);
        let stopped = std::sync::Barrier::new(2);
        let worked = Mutex::new(Vec::new());
        let mut folds = Vec::new();
        run_ordered(
            8,
            2,
            |ix| {
                worked.lock().unwrap().push(ix);
                if ix < 2 {
                    both_claimed.wait();
                }
                if ix == 1 {
                    stopped.wait();
                }
            },
            |ix, ()| {
                folds.push(ix);
                if ix == 0 {
                    stopped.wait();
                }
                ControlFlow::Break(())
            },
        );
        assert_eq!(folds, vec![0]);
        let mut worked = worked.into_inner().unwrap();
        worked.sort_unstable();
        assert_eq!(worked, vec![0, 1]);
    }

    #[test]
    fn ordered_panic_surfaces_on_the_caller_where_the_loop_would_raise_it() {
        fn message(payload: Box<dyn std::any::Any + Send>) -> String {
            payload.downcast::<String>().map(|s| *s).unwrap_or_default()
        }
        for threads in 1..=3 {
            let mut folds = Vec::new();
            let in_work = catch_unwind(AssertUnwindSafe(|| {
                run_ordered(
                    16,
                    threads,
                    |ix| assert_ne!(ix, 3, "job {ix} failed"),
                    |ix, ()| {
                        folds.push(ix);
                        ControlFlow::Continue(())
                    },
                );
            }));
            assert!(message(in_work.unwrap_err()).contains("job 3 failed"));
            assert_eq!(folds, vec![0, 1, 2], "{threads} threads");
            let in_fold = catch_unwind(AssertUnwindSafe(|| {
                run_ordered(16, threads, |ix| ix, |ix, _| panic!("fold {ix} failed"));
            }));
            assert_eq!(message(in_fold.unwrap_err()), "fold 0 failed");
            // A stop ahead of the panicking job means the loop never got there.
            run_ordered(
                16,
                threads,
                |ix| assert_ne!(ix, 3),
                |ix, ()| {
                    if ix == 1 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
        }
    }

    #[test]
    fn ordered_single_thread_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        for (n, threads) in [(10, 1), (1, 4)] {
            let mut folds = 0;
            run_ordered(
                n,
                threads,
                |_| assert_eq!(std::thread::current().id(), caller),
                |_, ()| {
                    assert_eq!(std::thread::current().id(), caller);
                    folds += 1;
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(folds, n);
        }
    }
}
