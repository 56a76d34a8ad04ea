//! Deterministic parallel execution of synthesis jobs.
//!
//! The engine's unit of parallelism is a *job*: an independent piece of
//! property-evaluation work (one instruction/slot enumeration, one
//! transponder/typing IFT sweep). Jobs are drained from a shared queue by
//! scoped worker threads and their results land in slots indexed by job
//! id, so the merged output is a pure function of the job list —
//! independent of worker count and scheduling. `threads == 1` runs the
//! jobs inline on the calling thread, byte-identical to the parallel path
//! (the `--jobs 1` baseline).
//!
//! Jobs that share a persistent solver context (DESIGN.md §12) run as one
//! *context chain* ([`run_chains`]): in job order, on one worker, which
//! builds the context when the chain's first job asks for it and drops it
//! when the chain ends. Each context therefore sees the same query stream
//! for every worker count, and no worker ever waits for another.

use crate::supervise::{catch_job, JobFailure};
use sat::CancelToken;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Runs `f(job_index, job)` for every job and returns the results in job
/// order. With `threads > 1`, jobs are executed by that many scoped worker
/// threads pulling from an atomic queue index, in list order; results are
/// merged by job id, so the returned vector is identical to the sequential
/// one.
///
/// # Panics
/// A panic in any job propagates to the caller (via `std::thread::scope`).
pub fn run_jobs<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads == 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(ix, j)| f(ix, j))
            .collect();
    }
    let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                if ix >= slots.len() {
                    break;
                }
                // Recover poisoned slots instead of double-panicking: a
                // sibling worker may have panicked (e.g. under fault
                // injection) and poisoning is per-mutex state, not data
                // corruption — each slot is touched by exactly one worker.
                let job = slots[ix]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each job taken exactly once");
                let r = f(ix, job);
                *results[ix].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job produced a result")
        })
        .collect()
}

/// The sequential retry pass of [`run_chains`].
pub struct Retries<'r, R> {
    /// Reruns allowed per failed job; `0` keeps single-shot behaviour.
    pub max: u32,
    /// A tripped run-wide token ends the pass: a deadline can't be outrun
    /// by retrying.
    pub cancel: Option<&'r CancelToken>,
    /// Whether a job that returned still failed (a degraded verdict) and
    /// so deserves a rerun, like one that panicked.
    pub degraded: fn(&R) -> bool,
}

/// Runs every job as `f(job_index, attempt, ctx)` and returns the results
/// in job order, each panic caught as that job's [`JobFailure`].
///
/// `chain_of[ix]` names the solver context job `ix` needs, or `None` for
/// a job that needs none (a journal replay). The jobs naming one context
/// form its *chain*: they run in job order on one worker, all handed the
/// same `ctx` slot, which starts empty. A job that needs the context
/// builds it on first use (`ctx.get_or_insert_with(..)`), so a chain with
/// nothing to solve builds nothing. A panic discards the context — it may
/// hold a half-finished query — and the chain's next job rebuilds it. At
/// chain end the context is dropped, so at most `threads` are live,
/// unless [`Retries`] will rerun one of the chain's jobs.
///
/// Workers claim whole chains, longest first (ties: lowest first job id),
/// then the context-free jobs; a worker never waits on another. Since a
/// context only ever sees its own chain in job order, results are a pure
/// function of the job list for every `threads`.
///
/// Afterwards, failed jobs rerun sequentially on the calling thread in
/// job order (attempts `1..=retries.max`), each on its chain's retained
/// context. Returns the results and the number of retry attempts spent.
pub fn run_chains<C, R, F>(
    chain_of: &[Option<usize>],
    threads: usize,
    retries: Retries<'_, R>,
    f: F,
) -> (Vec<Result<R, JobFailure>>, u64)
where
    C: Send,
    R: Send,
    F: Fn(usize, u32, &mut Option<C>) -> R + Sync,
{
    let mut chains: Vec<Vec<usize>> = {
        let mut by_ctx: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ix, c) in chain_of.iter().enumerate() {
            if let Some(c) = c {
                by_ctx.entry(*c).or_default().push(ix);
            }
        }
        by_ctx.into_values().collect()
    };
    chains.sort_by_key(|chain| (Reverse(chain.len()), chain[0]));
    chains.extend(
        (0..chain_of.len())
            .filter(|&ix| chain_of[ix].is_none())
            .map(|ix| vec![ix]),
    );
    let needs_retry = |r: &Result<R, JobFailure>| r.as_ref().map_or(true, retries.degraded);
    let run_one = |ix: usize, attempt: u32, ctx: &mut Option<C>| {
        let r = catch_job(ix, attempt, || f(ix, attempt, ctx));
        if r.is_err() {
            *ctx = None;
        }
        r
    };
    let ran = run_jobs(chains, threads, |_, chain| {
        let mut ctx = None;
        let results: Vec<_> = chain.iter().map(|&ix| run_one(ix, 0, &mut ctx)).collect();
        let keep = retries.max > 0 && results.iter().any(needs_retry);
        (chain, results, if keep { ctx } else { None })
    });
    let mut results: Vec<Option<Result<R, JobFailure>>> = chain_of.iter().map(|_| None).collect();
    let mut chain_ix = vec![0; chain_of.len()];
    let mut ctxs = Vec::with_capacity(ran.len());
    for (ci, (chain, rs, ctx)) in ran.into_iter().enumerate() {
        for (ix, r) in chain.into_iter().zip(rs) {
            results[ix] = Some(r);
            chain_ix[ix] = ci;
        }
        ctxs.push(ctx);
    }
    let mut results: Vec<Result<R, JobFailure>> = results
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
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_job_order_regardless_of_threads() {
        let jobs: Vec<usize> = (0..64).collect();
        let seq = run_jobs(jobs.clone(), 1, |ix, j| {
            assert_eq!(ix, j);
            j * 3
        });
        let par = run_jobs(jobs, 5, |_, j| j * 3);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 30);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_jobs(Vec::<u32>::new(), 8, |_, j| j);
        assert!(out.is_empty());
        let (out, retried) = run_chains::<(), u32, _>(&[], 8, no_retries(), |_, _, _| 0);
        assert!(out.is_empty());
        assert_eq!(retried, 0);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_jobs(vec![1u32, 2], 16, |_, j| j + 1);
        assert_eq!(out, vec![2, 3]);
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
        // Chains: 7 → [0], 3 → [1,2,3], 9 → [4,5,6], 5 → [7,8]; job 9
        // needs no context.
        let chain_of = [
            Some(7),
            Some(3),
            Some(3),
            Some(3),
            Some(9),
            Some(9),
            Some(9),
            Some(5),
            Some(5),
            None,
        ];
        let order = Mutex::new(Vec::new());
        run_chains::<(), (), _>(&chain_of, 1, no_retries(), |ix, _, _| {
            order.lock().unwrap().push(ix);
        });
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8, 0, 9]);
    }

    #[test]
    fn chains_merge_by_job_id_identically_for_any_thread_count() {
        let chain_of: Vec<Option<usize>> = (0..40)
            .map(|ix| (ix % 7 != 3).then_some(ix * ix % 5))
            .collect();
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
                if chain_of[ix].is_none() {
                    return Vec::new();
                }
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
            out.into_iter().map(Result::unwrap).collect::<Vec<Seen>>()
        };
        let baseline = run(1);
        // Each context served exactly its chain's earlier jobs, in order.
        for (ix, seen) in baseline.iter().enumerate() {
            let want: Seen = match chain_of[ix] {
                Some(c) => (0..=ix).filter(|&j| chain_of[j] == Some(c)).collect(),
                None => Vec::new(),
            };
            assert_eq!(*seen, want, "job {ix}");
        }
        for threads in 2..=4 {
            assert_eq!(run(threads), baseline, "{threads} threads");
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "every context dropped");
    }

    #[test]
    fn panicking_job_discards_its_chains_context_and_the_next_rebuilds_it() {
        let chain_of = [Some(0), Some(0), Some(0), Some(1), Some(1)];
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
            let failure = out[1].as_ref().unwrap_err();
            assert_eq!(
                (failure.job_id, failure.payload_msg.as_str()),
                (1, "injected at job 1")
            );
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
        let chain_of = [Some(0), Some(0), Some(0), Some(1), Some(1)];
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
        assert!(out.iter().all(Result::is_err));
        assert_eq!(retried, 0, "a tripped token stops the retry pass");
    }
}
