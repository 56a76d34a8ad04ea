//! Deterministic parallel execution of synthesis jobs.
//!
//! The engine's unit of parallelism is a *job*: an independent piece of
//! property-evaluation work (one instruction/slot enumeration, one
//! transponder/typing IFT sweep). One scoped worker pool, [`run_ordered`],
//! claims job indices in order and folds their results in index order,
//! so the merged output is a pure function of the job list — independent
//! of worker count and scheduling. `threads == 1` runs the jobs inline on
//! the calling thread, byte-identical to the parallel path (the `--jobs
//! 1` baseline); [`run_jobs`] is that pool collecting every result.
//!
//! Jobs that share a persistent solver context (DESIGN.md §12) run as one
//! *context chain* (`run_chains`, driven by [`Fleet::run`]): in job
//! order, on one worker, which builds the context when the chain's first
//! job asks for it and drops it when the chain ends. Each context
//! therefore sees the same query stream for every worker count, and no
//! worker ever waits for another.
//!
//! A run whose bookkeeping must see results in order, and may stop early,
//! streams them through [`run_ordered`] instead: each result is folded as
//! soon as every earlier one has been, so nothing but the out-of-order
//! stragglers is ever held.
//!
//! [`Fleet::run`]: crate::Fleet::run

use sat::CancelToken;
use std::cmp::Reverse;
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

/// The sequential retry pass of [`run_chains`].
pub(crate) struct Retries<'r, R> {
    /// Reruns allowed per failed job; `0` keeps single-shot behaviour.
    pub(crate) max: u32,
    /// A tripped run-wide token ends the pass: a deadline can't be outrun
    /// by retrying.
    pub(crate) cancel: Option<&'r CancelToken>,
    /// Whether a job that returned still failed (a degraded verdict) and
    /// so deserves a rerun, like one that panicked.
    pub(crate) degraded: fn(&R) -> bool,
}

/// Runs every job as `f(job_index, attempt, ctx)` and returns the results
/// in job order, `None` for a job whose last attempt panicked.
///
/// `chain_of[ix]` names the solver context job `ix` needs. The jobs
/// naming one context form its *chain*: they run in job order on one
/// worker, all handed the same `ctx` slot, which starts empty. A job
/// builds the context on first use (`ctx.get_or_insert_with(..)`). A
/// panic discards the context — it may hold a half-finished query — and
/// the chain's next job rebuilds it. At chain end the context is dropped,
/// so at most `threads` are live, unless [`Retries`] will rerun one of the
/// chain's jobs.
///
/// Workers claim whole chains, longest first (ties: lowest first job id);
/// a worker never waits on another. Since a context only ever sees its own
/// chain in job order, results are a pure function of the job list for
/// every `threads`.
///
/// Afterwards, failed jobs rerun sequentially on the calling thread in
/// job order (attempts `1..=retries.max`), each on its chain's retained
/// context. Returns the results and the number of retry attempts spent.
pub(crate) fn run_chains<C, R, F>(
    chain_of: &[usize],
    threads: usize,
    retries: Retries<'_, R>,
    f: F,
) -> (Vec<Option<R>>, u64)
where
    C: Send,
    R: Send,
    F: Fn(usize, u32, &mut Option<C>) -> R + Sync,
{
    let mut chains: Vec<Vec<usize>> = {
        let mut by_ctx: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ix, &c) in chain_of.iter().enumerate() {
            by_ctx.entry(c).or_default().push(ix);
        }
        by_ctx.into_values().collect()
    };
    chains.sort_by_key(|chain| (Reverse(chain.len()), chain[0]));
    let needs_retry = |r: &Option<R>| r.as_ref().is_none_or(retries.degraded);
    let run_one = |ix: usize, attempt: u32, ctx: &mut Option<C>| {
        let r = catch_unwind(AssertUnwindSafe(|| f(ix, attempt, ctx))).ok();
        if r.is_none() {
            *ctx = None;
        }
        r
    };
    let ran = run_jobs(&chains, threads, |_, chain| {
        let mut ctx = None;
        let results: Vec<_> = chain.iter().map(|&ix| run_one(ix, 0, &mut ctx)).collect();
        let keep = retries.max > 0 && results.iter().any(needs_retry);
        (results, if keep { ctx } else { None })
    });
    let mut results: Vec<Option<Option<R>>> = chain_of.iter().map(|_| None).collect();
    let mut chain_ix = vec![0; chain_of.len()];
    let mut ctxs = Vec::with_capacity(ran.len());
    for (ci, (chain, (rs, ctx))) in chains.into_iter().zip(ran).enumerate() {
        for (ix, r) in chain.into_iter().zip(rs) {
            results[ix] = Some(r);
            chain_ix[ix] = ci;
        }
        ctxs.push(ctx);
    }
    let mut results: Vec<Option<R>> = results
        .into_iter()
        .map(|r| r.expect("every job belongs to exactly one chain"))
        .collect();
    let mut retried = 0u64;
    for ix in 0..results.len() {
        for n in 1..=retries.max {
            if !needs_retry(&results[ix]) || retries.cancel.is_some_and(CancelToken::is_cancelled) {
                break;
            }
            retried += 1;
            results[ix] = run_one(ix, n, &mut ctxs[chain_ix[ix]]);
        }
    }
    (results, retried)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let (out, retried) = run_chains::<(), u32, _>(&[], 8, no_retries(), |_, _, _| 0);
        assert!(out.is_empty());
        assert_eq!(retried, 0);
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

    fn no_retries<R>() -> Retries<'static, R> {
        Retries {
            max: 0,
            cancel: None,
            degraded: |_| false,
        }
    }

    /// The jobs each job's context has served so far, itself included.
    type Seen = Vec<usize>;

    #[test]
    fn longest_chain_is_claimed_first_with_ties_to_the_lowest_job_id() {
        // Chains: 7 → [0], 3 → [1,2,3], 9 → [4,5,6], 5 → [7,8].
        let chain_of = [7, 3, 3, 3, 9, 9, 9, 5, 5];
        let order = Mutex::new(Vec::new());
        run_chains::<(), (), _>(&chain_of, 1, no_retries(), |ix, _, _| {
            order.lock().unwrap().push(ix);
        });
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8, 0]);
    }

    #[test]
    fn chains_merge_by_job_id_identically_for_any_thread_count() {
        let chain_of: Vec<usize> = (0..40).map(|ix| ix * ix % 5).collect();
        let live = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        struct Ctx<'a>(Seen, &'a AtomicU64);
        impl Drop for Ctx<'_> {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let run = |threads| {
            peak.store(0, Ordering::SeqCst);
            let (out, retried) = run_chains(&chain_of, threads, no_retries(), |ix, _, ctx| {
                let c = ctx.get_or_insert_with(|| {
                    let n = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(n, Ordering::SeqCst);
                    Ctx(Vec::new(), &live)
                });
                c.0.push(ix);
                c.0.clone()
            });
            assert_eq!(retried, 0);
            assert!(
                peak.load(Ordering::SeqCst) <= threads as u64,
                "contexts must drop at chain end"
            );
            out.into_iter().map(Option::unwrap).collect::<Vec<Seen>>()
        };
        let baseline = run(1);
        // Each context served exactly its chain's earlier jobs, in order.
        for (ix, seen) in baseline.iter().enumerate() {
            let want: Seen = (0..=ix).filter(|&j| chain_of[j] == chain_of[ix]).collect();
            assert_eq!(*seen, want, "job {ix}");
        }
        for threads in 2..=4 {
            assert_eq!(run(threads), baseline, "{threads} threads");
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "every context dropped");
    }

    #[test]
    fn panicking_job_discards_its_chains_context_and_the_next_rebuilds_it() {
        let chain_of = [0, 0, 0, 1, 1];
        let builds = AtomicU64::new(0);
        for threads in [1, 2] {
            builds.store(0, Ordering::SeqCst);
            let (out, _) = run_chains(&chain_of, threads, no_retries(), |ix, _, ctx| {
                let seen: &mut Seen = ctx.get_or_insert_with(|| {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                });
                seen.push(ix);
                if ix == 1 {
                    panic!("injected at job {ix}");
                }
                seen.clone()
            });
            assert_eq!(out[0].as_ref().unwrap(), &vec![0]);
            assert!(out[1].is_none(), "job 1 panicked");
            assert_eq!(
                out[2].as_ref().unwrap(),
                &vec![2],
                "rebuilt after the panic"
            );
            assert_eq!(out[4].as_ref().unwrap(), &vec![3, 4]);
            assert_eq!(builds.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn retries_rerun_failed_jobs_in_order_on_the_retained_context() {
        let chain_of = [0, 0, 0, 1, 1];
        fn retries(cancel: Option<&CancelToken>) -> Retries<'_, Seen> {
            Retries {
                max: 2,
                cancel,
                degraded: |seen: &Seen| seen.last() == Some(&3),
            }
        }
        for threads in [1, 2] {
            let (out, retried) =
                run_chains(&chain_of, threads, retries(None), |ix, attempt, ctx| {
                    let seen: &mut Seen = ctx.get_or_insert_with(Vec::new);
                    seen.push(ix);
                    if ix == 1 && attempt == 0 {
                        panic!("transient");
                    }
                    seen.clone()
                });
            // Job 1 reruns once on the context job 2 rebuilt; job 3
            // degrades on every attempt, on the context job 4 left behind.
            assert_eq!(out[1].as_ref().unwrap(), &vec![2, 1]);
            assert_eq!(out[3].as_ref().unwrap(), &vec![3, 4, 3, 3]);
            assert_eq!(out[4].as_ref().unwrap(), &vec![3, 4]);
            assert_eq!(retried, 3);
        }
        let token = CancelToken::new();
        token.cancel();
        let (out, retried) =
            run_chains::<(), Seen, _>(&chain_of, 1, retries(Some(&token)), |_, _, _| {
                panic!("always")
            });
        assert!(out.iter().all(Option::is_none));
        assert_eq!(retried, 0, "a tripped token stops the retry pass");
    }
}
