//! The journaled, supervised job runner behind both synthesis drivers
//! (DESIGN.md §8, §12, §14).
//!
//! RTL2MµPATH's (instruction, fetch slot) enumerations and SynthLC's
//! (transponder, slot pairing, typing) IFT units are the same kind of
//! work: a fleet of cover-query jobs, each on one *context chain* — a
//! persistent [`Checker`] over one netlist that the chain's jobs share in
//! job order. [`Fleet::run`] owns the protocol around such a fleet, so a
//! driver supplies only its netlists, its journal keys and its query body:
//!
//! 1. journal lookup, per [`Replay`] rule, on the calling thread;
//! 2. attempt 0 runs the missed jobs, and each later attempt, up to
//!    [`RobustOptions::retries`], the jobs whose last result panicked or
//!    degraded. Every attempt goes through one chain runner: its jobs
//!    grouped by chain, longest chain first, each chain in job order on a
//!    fresh checker, with panics isolated;
//! 3. each job rolls its [`FaultPlan`] fault for the attempt, builds the
//!    chain's bound-0 checker on first use (COI slice, budget pool, cancel
//!    token), opens a batch, extends the bound, then panics or arms the
//!    fault;
//! 4. only clean verdicts are journaled;
//! 5. a job that panicked on its last attempt yields the
//!    [`JobRecord::panicked`] stand-in, and every degraded job is counted.

use crate::par::run_jobs;
use crate::supervise::{FaultKind, FaultPlan, JobStore};
use crate::{CheckStats, Checker, CoiSlice, Elab, McConfig, UndeterminedReason};
use netlist::{Netlist, SignalId};
use sat::{BudgetPool, CancelToken};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Robustness knobs shared by both synthesis drivers (DESIGN.md §8). The
/// default — no token, inactive fault plan, no journal — adds no work and
/// no nondeterminism to a run.
#[derive(Clone, Debug, Default)]
pub struct RobustOptions {
    /// Run-wide cancellation token (explicit cancel and/or wall-clock
    /// deadline). Queries that trip it degrade to
    /// `Undetermined(Deadline)`.
    pub cancel: Option<Arc<CancelToken>>,
    /// Deterministic fault-injection schedule (testing only).
    pub faults: FaultPlan,
    /// Checkpoint store for completed job verdicts; jobs whose key is
    /// already stored are replayed without running.
    pub journal: Option<Arc<dyn JobStore>>,
    /// How many times a job that panicked or came back degraded — an
    /// injected fault or a deadline ([`CheckStats::degraded`]; an exhausted
    /// conflict budget is not retried) — is rerun before its degraded
    /// verdict stands. Every attempt runs its jobs on fresh checkers, one
    /// per chain, so a retried job that is its chain's only or first job
    /// reports what a clean run reports. `0` (the default) keeps the
    /// single-shot behaviour.
    pub retries: u32,
}

/// Options for the parallel property-evaluation engine, shared by both
/// synthesis drivers.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// Worker threads; `0` selects [`default_threads`](crate::default_threads)
    /// (the `SYNTHLC_THREADS` environment knob, falling back to the
    /// machine's available parallelism).
    pub threads: usize,
    /// A globally shared conflict/propagation account. Uncapped pools only
    /// aggregate statistics; capped pools cut off queries once the global
    /// cap is reached (at the cost of scheduling-dependent results — see
    /// `DESIGN.md` §6).
    pub budget_pool: Option<Arc<BudgetPool>>,
    /// Fault-tolerance knobs (cancellation, fault injection, journal).
    pub robust: RobustOptions,
}

impl EngineOptions {
    /// One worker, no shared budget: today's sequential behaviour.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            ..Default::default()
        }
    }

    /// The effective worker count (resolving `0` to the environment
    /// default).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            crate::default_threads()
        } else {
            self.threads
        }
    }
}

/// A job's result as the runner journals, replays and degrades it.
pub trait JobRecord: Sized {
    /// The journal record (durations excluded: they are nondeterministic).
    fn encode(&self) -> String;
    /// Parses an [`encode`](JobRecord::encode)d record; `None` reads as a
    /// cache miss.
    fn decode(record: &str) -> Option<Self>;
    /// The job's property statistics. A record with
    /// [`CheckStats::degraded`] `> 0` is retried and never journaled.
    fn stats(&self) -> &CheckStats;
    /// The stand-in for a job that panicked on its last attempt: no
    /// verdicts, and [`CheckStats::job_panicked`] on the books.
    fn panicked() -> Self;
}

impl CheckStats {
    /// The books of a job that panicked: one property,
    /// `Undetermined(JobPanicked)`.
    pub fn job_panicked() -> Self {
        let mut stats = CheckStats {
            properties: 1,
            ..Default::default()
        };
        stats.count_undetermined(UndeterminedReason::JobPanicked);
        stats
    }
}

/// Which journal hits a fleet replays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Replay {
    /// A chain replays only when every job in it hits, and its lookups
    /// stop at the first miss: its jobs' results depend on the shared
    /// solver's history (µPATH witnesses), so a partial replay would make
    /// them depend on which subset resumed.
    Chain,
    /// Each job replays alone (its result is a pure function of its key).
    Job,
}

/// One context chain's solver context: the netlist its checker unrolls and
/// the signals its cone-of-influence slice keeps (`None`: no slice).
#[derive(Clone, Copy, Debug)]
pub struct ChainNet<'n> {
    /// The netlist every query of the chain is posed on.
    pub netlist: &'n Netlist,
    /// Every signal a query of the chain may reference.
    pub coi: Option<&'n [SignalId]>,
}

/// A fleet of cover-query jobs over a set of context chains.
#[derive(Clone, Debug)]
pub struct Fleet<'n> {
    /// The fault-stream phase ([`FaultPlan::fault_for_attempt`]).
    pub phase: &'static str,
    /// Each chain's netlist and slice targets, indexed by chain id.
    pub chains: Vec<ChainNet<'n>>,
    /// Registers with a symbolic initial value.
    pub free: &'n [SignalId],
    /// The checker configuration: every job extends its chain's checker
    /// to `mc.bound`.
    pub mc: McConfig,
    /// Replay granularity.
    pub replay: Replay,
}

/// The results of [`Fleet::run`].
#[derive(Clone, Debug)]
pub struct FleetRun<R> {
    /// One result per job, in job order.
    pub results: Vec<R>,
    /// Jobs whose result is degraded: a panic stand-in, an injected
    /// fault, or a deadline.
    pub degraded_jobs: u64,
    /// Jobs replayed from the journal instead of running.
    pub resumed_jobs: u64,
    /// Journaled jobs not replayed (0 without a journal).
    pub cone_misses: u64,
    /// Retry attempts spent ([`RobustOptions::retries`]).
    pub retried_jobs: u64,
}

impl<'n> Fleet<'n> {
    /// Runs job `ix` as `body(ix, checker)` on chain `chain_of[ix]`'s
    /// checker, with `key(ix)` its journal key (computed only when a
    /// journal is configured), under `opts`' threads, budget pool and
    /// robustness knobs. Attempt 0 runs the journal misses, and each later
    /// attempt up to [`RobustOptions::retries`] the jobs whose last attempt
    /// panicked or degraded, each attempt on fresh checkers.
    pub fn run<R, K, B>(
        &self,
        chain_of: &[usize],
        key: K,
        opts: &EngineOptions,
        body: B,
    ) -> FleetRun<R>
    where
        R: JobRecord + Send,
        K: Fn(usize) -> String,
        B: Fn(usize, &mut Checker<'n>) -> R + Sync,
    {
        let robust = &opts.robust;
        let journal = robust.journal.as_deref();
        let keys: Vec<String> =
            journal.map_or_else(Vec::new, |_| (0..chain_of.len()).map(key).collect());
        let mut results: Vec<Option<R>> = chain_of.iter().map(|_| None).collect();
        if let Some(j) = journal {
            let lookup = |ix: usize| j.get(&keys[ix]).as_deref().and_then(R::decode);
            match self.replay {
                Replay::Job => results = (0..chain_of.len()).map(lookup).collect(),
                Replay::Chain => {
                    for jobs in chains(chain_of) {
                        // `collect` into `Option` stops at the first miss.
                        let hits: Option<Vec<R>> = jobs.iter().map(|&ix| lookup(ix)).collect();
                        for (ix, r) in jobs.into_iter().zip(hits.into_iter().flatten()) {
                            results[ix] = Some(r);
                        }
                    }
                }
            }
        }
        let resumed_jobs = results.iter().filter(|r| r.is_some()).count() as u64;
        let cone_misses = journal.map_or(0, |_| chain_of.len() as u64 - resumed_jobs);

        let mc = McConfig {
            bound: 0,
            ..self.mc
        };
        let run_job = |ix: usize, attempt: u32, ctx: &mut Option<Checker<'n>>| {
            let fault = robust.faults.fault_for_attempt(self.phase, ix, attempt);
            let checker = ctx.get_or_insert_with(|| {
                let chain = self.chains[chain_of[ix]];
                let elab = Arc::new(Elab::new(chain.netlist));
                let coi = chain
                    .coi
                    .map(|targets| Arc::new(CoiSlice::compute(chain.netlist, targets)));
                let mut c = Checker::with_coi(chain.netlist, mc, self.free, elab, coi);
                if let Some(p) = &opts.budget_pool {
                    c.set_budget_pool(Arc::clone(p));
                }
                if let Some(token) = &robust.cancel {
                    c.set_cancel_token(Arc::clone(token));
                }
                c
            });
            checker.begin_batch();
            checker.ensure_bound(self.mc.bound);
            // An injected panic discards the checker; the chain's next job
            // rebuilds it.
            if let Some(kind) = fault {
                checker.set_fault(match kind {
                    FaultKind::Panic => panic!("injected fault: panic in {} job {ix}", self.phase),
                    FaultKind::ForceUnknown => UndeterminedReason::FaultInjected,
                    FaultKind::DeadlineExpired => UndeterminedReason::Deadline,
                });
            }
            let r = body(ix, checker);
            // Only clean verdicts are journaled: degraded jobs rerun on
            // resume, so an interrupted faulty run converges to the
            // uninterrupted result.
            if fault.is_none() && r.stats().degraded() == 0 {
                if let Some(j) = journal {
                    j.put(&keys[ix], &r.encode());
                }
            }
            r
        };
        // Attempt 0 runs the misses; each later attempt reruns the jobs
        // whose last attempt panicked (`None`) or degraded.
        let needs_retry = |r: &Option<R>| r.as_ref().is_none_or(|r| r.stats().degraded() > 0);
        let cancel = robust.cancel.as_deref();
        let mut pending: Vec<usize> = (0..chain_of.len())
            .filter(|&ix| results[ix].is_none())
            .collect();
        let mut retried_jobs = 0;
        for attempt in 0..=robust.retries {
            if attempt > 0 {
                pending.retain(|&ix| needs_retry(&results[ix]));
                // A tripped run-wide token ends the retries: a deadline
                // can't be outrun by retrying.
                if pending.is_empty() || cancel.is_some_and(CancelToken::is_cancelled) {
                    break;
                }
                retried_jobs += pending.len() as u64;
            }
            let chain_of_pending: Vec<usize> = pending.iter().map(|&ix| chain_of[ix]).collect();
            let ran = run_chains(&chain_of_pending, opts.effective_threads(), |pi, ctx| {
                run_job(pending[pi], attempt, ctx)
            });
            for (&ix, r) in pending.iter().zip(ran) {
                results[ix] = r;
            }
        }
        let results: Vec<R> = results
            .into_iter()
            .map(|r| r.unwrap_or_else(R::panicked))
            .collect();
        FleetRun {
            degraded_jobs: results.iter().filter(|r| r.stats().degraded() > 0).count() as u64,
            results,
            resumed_jobs,
            cone_misses,
            retried_jobs,
        }
    }
}

/// The jobs of each chain `chain_of` names, in job order, by chain id.
fn chains(chain_of: &[usize]) -> Vec<Vec<usize>> {
    let mut by_ctx: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (ix, &c) in chain_of.iter().enumerate() {
        by_ctx.entry(c).or_default().push(ix);
    }
    by_ctx.into_values().collect()
}

/// Runs every job as `f(job_index, ctx)` and returns the results in job
/// order, `None` for a job that panicked.
///
/// `chain_of[ix]` names the solver context job `ix` needs. The jobs
/// naming one context form its *chain*: they run in job order on one
/// worker, all handed the same `ctx` slot, which starts empty. A job
/// builds the context on first use (`ctx.get_or_insert_with(..)`). A
/// panic discards the context — it may hold a half-finished query — and
/// the chain's next job rebuilds it. At chain end the context is dropped,
/// so at most `threads` are live.
///
/// Workers claim whole chains, longest first (ties: lowest first job id);
/// a worker never waits on another. Since a context only ever sees its own
/// chain in job order, results are a pure function of the job list for
/// every `threads`.
fn run_chains<C, R, F>(chain_of: &[usize], threads: usize, f: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(usize, &mut Option<C>) -> R + Sync,
{
    let mut chains = chains(chain_of);
    chains.sort_by_key(|chain| (Reverse(chain.len()), chain[0]));
    let ran = run_jobs(&chains, threads, |_, chain| {
        let mut ctx = None;
        chain
            .iter()
            .map(|&ix| {
                let r = catch_unwind(AssertUnwindSafe(|| f(ix, &mut ctx))).ok();
                if r.is_none() {
                    ctx = None;
                }
                r
            })
            .collect::<Vec<_>>()
    });
    let mut results: Vec<Option<R>> = chain_of.iter().map(|_| None).collect();
    for (chain, rs) in chains.into_iter().zip(ran) {
        for (ix, r) in chain.into_iter().zip(rs) {
            results[ix] = r;
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Builder;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// The jobs each job's context has served so far, itself included.
    type Seen = Vec<usize>;

    #[test]
    fn an_empty_job_list_runs_nothing() {
        let out = run_chains::<(), u32, _>(&[], 8, |_, _| unreachable!("no job to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn longest_chain_is_claimed_first_with_ties_to_the_lowest_job_id() {
        // Chains: 7 → [0], 3 → [1,2,3], 9 → [4,5,6], 5 → [7,8].
        let chain_of = [7, 3, 3, 3, 9, 9, 9, 5, 5];
        let order = Mutex::new(Vec::new());
        run_chains::<(), (), _>(&chain_of, 1, |ix, _| {
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
            let out = run_chains(&chain_of, threads, |ix, ctx| {
                let c = ctx.get_or_insert_with(|| {
                    let n = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(n, Ordering::SeqCst);
                    Ctx(Vec::new(), &live)
                });
                c.0.push(ix);
                c.0.clone()
            });
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
            let out = run_chains(&chain_of, threads, |ix, ctx| {
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

    /// Runs one-job chains through the chain runner.
    fn supervised<R: Send>(
        n: usize,
        threads: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<Option<R>> {
        let own_chains: Vec<usize> = (0..n).collect();
        run_chains::<(), _, _>(&own_chains, threads, |ix, _| f(ix))
    }

    #[test]
    fn supervised_jobs_isolate_panics() {
        for threads in [1, 4] {
            let out = supervised(16, threads, |j| {
                if j % 5 == 3 {
                    panic!("boom at {j}");
                }
                j * 2
            });
            assert_eq!(out.len(), 16);
            for (ix, r) in out.iter().enumerate() {
                if ix % 5 == 3 {
                    assert!(r.is_none(), "job {ix} panicked");
                } else {
                    assert_eq!(*r, Some(ix * 2));
                }
            }
        }
    }

    #[test]
    fn supervised_results_match_across_thread_counts() {
        let run = |threads| {
            supervised(32, threads, |j| {
                if j == 7 || j == 20 {
                    panic!("injected");
                }
                j + 100
            })
        };
        assert_eq!(run(1), run(6));
    }

    const PHASE: &str = "runner-test";

    /// A 3-bit counter from 0 with one `at{k}` cover per value: at bound 4,
    /// `at0`..`at3` are reachable and `at4`..`at7` are not.
    fn counter() -> (Netlist, Vec<SignalId>) {
        let mut b = Builder::new();
        let c = b.reg("c", 3, 0);
        let one = b.constant(1, 3);
        let next = b.add(c, one);
        b.set_next(c, next).unwrap();
        let covers = (0..8)
            .map(|k| {
                let at = b.eq_const(c, k);
                b.name(at, &format!("at{k}")).id
            })
            .collect();
        (b.finish().unwrap(), covers)
    }

    /// A job's verdict on its cover (`None`: no query, or undetermined).
    #[derive(Clone, Debug)]
    struct Probe {
        reachable: Option<bool>,
        stats: CheckStats,
    }

    impl JobRecord for Probe {
        fn encode(&self) -> String {
            let stats = self.stats.encode().render_compact();
            format!("{:?}|{stats}", self.reachable)
        }
        fn decode(record: &str) -> Option<Self> {
            let (reachable, stats) = record.split_once('|')?;
            let reachable = match reachable {
                "None" => None,
                "Some(true)" => Some(true),
                "Some(false)" => Some(false),
                _ => return None,
            };
            let stats = CheckStats::decode(&jsonio::Json::parse(stats).ok()?)?;
            Some(Probe { reachable, stats })
        }
        fn stats(&self) -> &CheckStats {
            &self.stats
        }
        fn panicked() -> Self {
            Probe {
                reachable: None,
                stats: CheckStats::job_panicked(),
            }
        }
    }

    /// A journal that logs every call, in order.
    #[derive(Debug, Default)]
    struct Store {
        records: Mutex<BTreeMap<String, String>>,
        log: Mutex<Vec<String>>,
    }

    impl JobStore for Store {
        fn get(&self, key: &str) -> Option<String> {
            self.log.lock().unwrap().push(format!("get {key}"));
            self.records.lock().unwrap().get(key).cloned()
        }
        fn put(&self, key: &str, record: &str) {
            self.log.lock().unwrap().push(format!("put {key}"));
            self.records
                .lock()
                .unwrap()
                .insert(key.to_owned(), record.to_owned());
        }
    }

    impl Store {
        fn take_log(&self) -> Vec<String> {
            std::mem::take(&mut *self.log.lock().unwrap())
        }
    }

    fn log(calls: &[&str]) -> Vec<String> {
        calls.iter().map(|c| c.to_string()).collect()
    }

    /// Chain `c` slices to the covers when `c` is even and runs unsliced
    /// when it is odd.
    fn fleet<'n>(
        nl: &'n Netlist,
        covers: &'n [SignalId],
        chains: usize,
        replay: Replay,
    ) -> Fleet<'n> {
        Fleet {
            phase: PHASE,
            chains: (0..chains)
                .map(|c| ChainNet {
                    netlist: nl,
                    coi: (c % 2 == 0).then_some(covers),
                })
                .collect(),
            free: &[],
            mc: McConfig::bounded(4, None),
            replay,
        }
    }

    fn opts(
        threads: usize,
        store: Option<&Arc<Store>>,
        faults: FaultPlan,
        retries: u32,
    ) -> EngineOptions {
        EngineOptions {
            threads,
            budget_pool: None,
            robust: RobustOptions {
                cancel: None,
                faults,
                journal: store.map(|s| Arc::clone(s) as Arc<dyn JobStore>),
                retries,
            },
        }
    }

    /// Runs job `ix` as `on_run(ix)`, then a query of cover `ix % 8`.
    fn run(
        fleet: &Fleet<'_>,
        covers: &[SignalId],
        chain_of: &[usize],
        opts: &EngineOptions,
        on_run: &(dyn Fn(usize) + Sync),
    ) -> FleetRun<Probe> {
        fleet.run(
            chain_of,
            |ix| format!("job{ix}"),
            opts,
            |ix, checker| {
                on_run(ix);
                let outcome = checker.check_cover(covers[ix % 8], &[]);
                Probe {
                    reachable: (!matches!(outcome, crate::Outcome::Undetermined(_)))
                        .then(|| outcome.is_reachable()),
                    stats: checker.stats(),
                }
            },
        )
    }

    /// The first seed whose attempt-0 faults over `n` jobs satisfy `want`.
    fn plan_where(rate: f64, n: usize, want: impl Fn(&[Option<FaultKind>]) -> bool) -> FaultPlan {
        (0..10_000)
            .map(|seed| FaultPlan::new(seed, rate))
            .find(|p| {
                let kinds: Vec<_> = (0..n).map(|ix| p.fault_for_attempt(PHASE, ix, 0)).collect();
                want(&kinds)
            })
            .expect("some seed plans the wanted faults")
    }

    #[test]
    fn chain_replay_reruns_a_chain_with_one_miss_and_stops_its_lookups_there() {
        let (nl, covers) = counter();
        let fleet = fleet(&nl, &covers, 2, Replay::Chain);
        let chain_of = [0, 1, 0, 1, 0, 1];
        let store = Arc::new(Store::default());
        let opts = opts(1, Some(&store), FaultPlan::disabled(), 0);
        let ran = Mutex::new(Vec::new());
        let cold = run(&fleet, &covers, &chain_of, &opts, &|ix| {
            ran.lock().unwrap().push(ix)
        });
        assert_eq!((cold.resumed_jobs, cold.cone_misses), (0, 6));
        let reachable: Vec<_> = cold.results.iter().map(|p| p.reachable).collect();
        let want: Vec<_> = (0..6).map(|ix| Some(ix < 4)).collect();
        assert_eq!(reachable, want);
        // Each chain's lookup stopped at its first job's miss.
        assert_eq!(store.take_log()[..2], log(&["get job0", "get job1"]));

        store.records.lock().unwrap().remove("job2");
        ran.lock().unwrap().clear();
        let warm = run(&fleet, &covers, &chain_of, &opts, &|ix| {
            ran.lock().unwrap().push(ix)
        });
        assert_eq!(
            store.take_log(),
            log(&[
                "get job0", "get job2", "get job1", "get job3", "get job5", "put job0", "put job2",
                "put job4",
            ])
        );
        assert_eq!(*ran.lock().unwrap(), vec![0, 2, 4]);
        assert_eq!((warm.resumed_jobs, warm.cone_misses), (3, 3));
        let encode = |r: &FleetRun<Probe>| r.results.iter().map(Probe::encode).collect::<Vec<_>>();
        assert_eq!(
            encode(&warm),
            encode(&cold),
            "a rerun chain replays its cold run"
        );
    }

    #[test]
    fn job_replay_reruns_only_the_miss() {
        let (nl, covers) = counter();
        let fleet = fleet(&nl, &covers, 2, Replay::Job);
        let chain_of = [0, 1, 0, 1, 0, 1];
        let store = Arc::new(Store::default());
        let opts = opts(1, Some(&store), FaultPlan::disabled(), 0);
        let ran = Mutex::new(Vec::new());
        run(&fleet, &covers, &chain_of, &opts, &|ix| {
            ran.lock().unwrap().push(ix)
        });
        store.records.lock().unwrap().remove("job2");
        store.take_log();
        ran.lock().unwrap().clear();
        let warm = run(&fleet, &covers, &chain_of, &opts, &|ix| {
            ran.lock().unwrap().push(ix)
        });
        let mut want: Vec<String> = (0..6).map(|ix| format!("get job{ix}")).collect();
        want.push("put job2".into());
        assert_eq!(store.take_log(), want);
        assert_eq!(*ran.lock().unwrap(), vec![2]);
        assert_eq!((warm.resumed_jobs, warm.cone_misses), (5, 1));
        assert_eq!(warm.results[2].reachable, Some(true));
    }

    #[test]
    fn only_clean_verdicts_are_journaled() {
        let (nl, covers) = counter();
        let fleet = fleet(&nl, &covers, 2, Replay::Job);
        let n = 10;
        let chain_of: Vec<usize> = (0..n).map(|ix| ix % 2).collect();
        // Forced-unknown and expired-deadline faults on jobs other than
        // job 1, and no panic.
        let faults = plan_where(0.5, n, |k| {
            k.contains(&Some(FaultKind::ForceUnknown))
                && k.contains(&Some(FaultKind::DeadlineExpired))
                && !k.contains(&Some(FaultKind::Panic))
                && k[1].is_none()
                && k.iter().filter(|f| f.is_none()).count() >= 3
        });
        let store = Arc::new(Store::default());
        let opts = opts(1, Some(&store), faults.clone(), 0);
        // No job queries, so a fault leaves its books clean — except job 1,
        // which degrades its own verdict with no fault planned.
        let out = fleet.run(
            &chain_of,
            |ix| format!("job{ix}"),
            &opts,
            |ix, checker| {
                if ix == 1 {
                    checker.set_fault(UndeterminedReason::Deadline);
                    checker.check_cover(covers[0], &[]);
                }
                Probe {
                    reachable: None,
                    stats: checker.stats(),
                }
            },
        );
        let mut put: Vec<usize> = (0..n)
            .filter(|&ix| {
                store
                    .records
                    .lock()
                    .unwrap()
                    .contains_key(&format!("job{ix}"))
            })
            .collect();
        put.sort_unstable();
        let clean: Vec<usize> = (0..n)
            .filter(|&ix| ix != 1 && faults.fault_for_attempt(PHASE, ix, 0).is_none())
            .collect();
        assert_eq!(put, clean);
        assert_eq!(
            out.degraded_jobs, 1,
            "only job 1's books show a degradation"
        );
        assert_eq!(out.results[1].stats.undet_deadline, 1);
    }

    #[test]
    fn a_panic_yields_the_stand_in_and_the_chains_next_job_rebuilds_its_checker() {
        let (nl, covers) = counter();
        let fleet = fleet(&nl, &covers, 2, Replay::Job);
        let chain_of = [0, 1, 0, 1, 0, 1];
        // Exactly one fault: a panic in a job that is not its chain's last.
        let faults = plan_where(0.2, 6, |k| {
            let faulted: Vec<usize> = (0..6).filter(|&ix| k[ix].is_some()).collect();
            faulted.len() == 1 && faulted[0] < 4 && k[faulted[0]] == Some(FaultKind::Panic)
        });
        let p = (0..6)
            .find(|&ix| faults.fault_for_attempt(PHASE, ix, 0).is_some())
            .unwrap();
        for threads in [1, 2] {
            let store = Arc::new(Store::default());
            let out = run(
                &fleet,
                &covers,
                &chain_of,
                &opts(threads, Some(&store), faults.clone(), 0),
                &|_| {},
            );
            let stand_in = &out.results[p].stats;
            assert_eq!((stand_in.properties, stand_in.undet_panicked), (1, 1));
            assert_eq!(out.results[p].reachable, None);
            assert_eq!(out.degraded_jobs, 1);
            assert!(!store
                .records
                .lock()
                .unwrap()
                .contains_key(&format!("job{p}")));
            // Jobs after their chain's first run on a warm checker, except
            // the one after the panic, which built a fresh one.
            for ix in 2..6 {
                if ix != p {
                    let reused = u64::from(ix != p + 2);
                    assert_eq!(
                        out.results[ix].stats.ctx_reused, reused,
                        "job {ix}, {threads} threads"
                    );
                }
            }
            assert_eq!(out.results[p + 2].reachable, Some(p + 2 < 4));
        }
    }

    #[test]
    fn results_are_identical_at_one_and_two_threads() {
        let (nl, covers) = counter();
        let fleet = fleet(&nl, &covers, 3, Replay::Job);
        let n = 12;
        let chain_of: Vec<usize> = (0..n).map(|ix| ix % 3).collect();
        // Jobs 0 and 5 replay, so chain 1 runs jobs 1..=10, then chain 2
        // jobs 2..=11 and chain 0 jobs 3..=9. At two threads, jobs 1 and 3
        // wait for each other, so the two workers must hold different
        // chains at once. The plan panics a job of chain 0 or 2 and leaves
        // chain 1 and the first jobs of chains 0 and 2 clean.
        let faults = plan_where(0.3, n, |k| {
            k.contains(&Some(FaultKind::Panic))
                && [1, 2, 3, 4, 7, 10].iter().all(|&ix| k[ix].is_none())
        });
        let run_at = |threads: usize| {
            let store = Arc::new(Store::default());
            run(
                &fleet,
                &covers,
                &chain_of,
                &opts(1, Some(&store), FaultPlan::disabled(), 0),
                &|_| {},
            );
            store
                .records
                .lock()
                .unwrap()
                .retain(|k, _| k == "job0" || k == "job5");
            let both_running = std::sync::Barrier::new(2);
            let out = run(
                &fleet,
                &covers,
                &chain_of,
                &opts(threads, Some(&store), faults.clone(), 1),
                &|ix| {
                    if threads == 2 && (ix == 1 || ix == 3) {
                        both_running.wait();
                    }
                },
            );
            let results: Vec<String> = out.results.iter().map(Probe::encode).collect();
            (
                results,
                out.degraded_jobs,
                out.resumed_jobs,
                out.cone_misses,
                out.retried_jobs,
            )
        };
        let one = run_at(1);
        assert_eq!(one.2, 2);
        assert_eq!(run_at(2), one);
    }

    /// Every counter of a job's books: its stats without the two durations.
    fn counters(s: &CheckStats) -> String {
        let timeless = CheckStats {
            total_time: std::time::Duration::ZERO,
            max_time: std::time::Duration::ZERO,
            ..*s
        };
        format!("{timeless:?}")
    }

    #[test]
    fn a_job_recovered_by_a_retry_reports_its_clean_run() {
        let (nl, covers) = counter();
        let fleet = fleet(&nl, &covers, 2, Replay::Job);
        let chain_of = [0, 1, 0, 1];
        let clean = run(
            &fleet,
            &covers,
            &chain_of,
            &opts(1, None, FaultPlan::disabled(), 0),
            &|_| {},
        );
        for kind in [
            FaultKind::Panic,
            FaultKind::ForceUnknown,
            FaultKind::DeadlineExpired,
        ] {
            // Job 0 draws `kind` on attempt 0 and nothing on attempt 1;
            // every other job runs clean on attempt 0.
            let faults = (0..10_000)
                .map(|seed| FaultPlan::new(seed, 0.5))
                .find(|p| {
                    p.fault_for_attempt(PHASE, 0, 0) == Some(kind)
                        && p.fault_for_attempt(PHASE, 0, 1).is_none()
                        && (1..4).all(|ix| p.fault_for_attempt(PHASE, ix, 0).is_none())
                })
                .expect("some seed plans the wanted faults");
            let run_at = |threads: usize| {
                let out = run(
                    &fleet,
                    &covers,
                    &chain_of,
                    &opts(threads, None, faults.clone(), 1),
                    &|_| {},
                );
                assert_eq!((out.degraded_jobs, out.retried_jobs), (0, 1), "{kind:?}");
                // Attempt 1 ran job 0 alone, on a fresh checker: its books
                // are its clean attempt 0's, not those of a checker its
                // chain had warmed.
                assert_eq!(out.results[0].reachable, Some(true));
                assert_eq!(
                    counters(&out.results[0].stats),
                    counters(&clean.results[0].stats),
                    "{kind:?}, {threads} threads"
                );
                out.results
                    .iter()
                    .map(|p| format!("{:?} {}", p.reachable, counters(&p.stats)))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run_at(2), run_at(1), "{kind:?}");
        }
    }
}
