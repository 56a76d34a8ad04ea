//! The supervised worker pool behind the daemon (DESIGN.md §13).
//!
//! Jobs land in a bounded queue (submissions past capacity are shed with
//! an explicit `overloaded` event — backpressure, never silent drops) and
//! are executed by worker threads, each attempt wrapped in
//! `catch_unwind` and run under a per-job watchdog deadline
//! ([`sat::CancelToken`], checked cooperatively inside the solver).
//! Transient failures — a caught panic, an expired watchdog, a degraded
//! verdict — are retried with seeded exponential backoff up to the
//! configured retry budget; only then does the job degrade to an
//! `Undetermined`-shaped verdict. The faults-only-widen-verdicts
//! invariant of the batch drivers carries over: no fault, injected or
//! real, can flip a clean verdict, only widen it.
//!
//! Clean verdicts are stored in the content-addressed verdict store — a
//! [`Journal`] whose keys are pure functions of the request: job kind,
//! design source bytes, and verdict-relevant knobs as sent; never
//! deadlines, fault plans or retry budgets, which can only widen verdicts.
//! Identical jobs are answered from cache without parsing the design or
//! re-solving, and a restarted daemon replays the journal (torn tail
//! dropped) and answers byte for byte identically.

use crate::proto::{ev_done, ev_error, ev_progress, Op, Request};
use jsonio::Json;
use mc::{CancelToken, FaultPlan, JobStore, ServeFault};
use mupath::{design_fingerprint, EngineOptions, RobustOptions, SynthConfig};
use sat::ClientBudgets;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;
use synthlc::{Audit, Journal};
use uarch::{Design, DesignSource};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads; `0` selects [`mc::default_threads`]. Each job runs
    /// on `default_threads ÷ workers` engine threads (at least one).
    pub workers: usize,
    /// Bounded-queue capacity; submissions past it are shed.
    pub queue_cap: usize,
    /// Retry budget per job before its degraded verdict stands.
    pub retries: u32,
    /// Per-job watchdog deadline.
    pub deadline_secs: Option<u64>,
    /// Serve-phase fault injection (chaos testing).
    pub faults: FaultPlan,
    /// Base of the seeded exponential retry backoff.
    pub backoff_ms: u64,
    /// Per-client conflict-budget cap (`None` = accounting only).
    pub client_budget: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_cap: 32,
            retries: 2,
            deadline_secs: None,
            faults: FaultPlan::disabled(),
            backoff_ms: 10,
            client_budget: None,
        }
    }
}

/// The synchronous answer to a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submit {
    /// Queued at this position (the `accepted` event was already sent).
    Accepted(usize),
    /// Shed: the queue is at capacity.
    Overloaded,
    /// Refused: the daemon is draining for shutdown.
    ShuttingDown,
}

struct Job {
    seq: u64,
    req: Request,
    tx: Sender<Json>,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Job>,
    in_flight: usize,
    shutdown: bool,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    retried: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    panics_caught: AtomicU64,
    torn_writes: AtomicU64,
    cone_hits: AtomicU64,
    cone_misses: AtomicU64,
}

struct Inner {
    cfg: ServeConfig,
    /// Engine threads each job runs on ([`job_threads`]).
    job_threads: usize,
    store: Option<Arc<Journal>>,
    budgets: ClientBudgets,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    seq: AtomicU64,
    counters: Counters,
}

/// The daemon's scheduling core: a bounded queue, supervised workers,
/// per-job event streams. Transport-agnostic — the TCP layer in
/// [`crate::net`] and the in-process tests drive the same object.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker pool.
    pub fn start(cfg: ServeConfig, store: Option<Arc<Journal>>) -> Server {
        let workers = if cfg.workers == 0 {
            mc::default_threads()
        } else {
            cfg.workers
        };
        let inner = Arc::new(Inner {
            budgets: ClientBudgets::new(cfg.client_budget),
            job_threads: job_threads(mc::default_threads(), workers),
            cfg,
            store,
            state: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            seq: AtomicU64::new(0),
            counters: Counters::default(),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Submits one job. On acceptance the `accepted` event is sent on
    /// `tx` *before* any worker event, so clients always see
    /// `accepted` → (`progress`)* → `done` in order.
    pub fn submit(&self, req: Request, tx: Sender<Json>) -> Submit {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.shutdown {
            return Submit::ShuttingDown;
        }
        if st.pending.len() >= inner.cfg.queue_cap {
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Submit::Overloaded;
        }
        let pos = st.pending.len();
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(crate::proto::ev_accepted(&req.id, pos));
        st.pending.push_back(Job { seq, req, tx });
        drop(st);
        inner.work_cv.notify_one();
        Submit::Accepted(pos)
    }

    /// Stops accepting work and wakes every worker; queued jobs still run
    /// to completion (graceful drain).
    pub fn shutdown(&self) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.shutdown = true;
        drop(st);
        self.inner.work_cv.notify_all();
    }

    /// Blocks until the queue is empty and no job is in flight.
    pub fn drain(&self) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        while !st.pending.is_empty() || st.in_flight > 0 {
            st = self
                .inner
                .idle_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Shuts down, drains, and joins the workers.
    pub fn join(&self) {
        self.shutdown();
        self.drain();
        let handles: Vec<_> = {
            let mut w = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            w.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// The `stats` event: counters, cache reuse, per-client budgets.
    pub fn stats_json(&self) -> Json {
        let c = &self.inner.counters;
        let mut fields = vec![
            ("ev".to_owned(), Json::str("stats")),
            (
                "submitted".to_owned(),
                Json::Int(c.submitted.load(Ordering::Relaxed)),
            ),
            (
                "completed".to_owned(),
                Json::Int(c.completed.load(Ordering::Relaxed)),
            ),
            (
                "retried".to_owned(),
                Json::Int(c.retried.load(Ordering::Relaxed)),
            ),
            (
                "degraded".to_owned(),
                Json::Int(c.degraded.load(Ordering::Relaxed)),
            ),
            ("shed".to_owned(), Json::Int(c.shed.load(Ordering::Relaxed))),
            (
                "panics_caught".to_owned(),
                Json::Int(c.panics_caught.load(Ordering::Relaxed)),
            ),
        ];
        if let Some(store) = &self.inner.store {
            fields.push(("cache_hits".into(), Json::Int(store.hits())));
            fields.push(("cache_size".into(), Json::Int(store.len() as u64)));
            fields.push((
                "torn_writes".into(),
                Json::Int(c.torn_writes.load(Ordering::Relaxed)),
            ));
            fields.push((
                "cone_hits".into(),
                Json::Int(c.cone_hits.load(Ordering::Relaxed)),
            ));
            fields.push((
                "cone_misses".into(),
                Json::Int(c.cone_misses.load(Ordering::Relaxed)),
            ));
        }
        let clients: Vec<Json> = self
            .inner
            .budgets
            .totals()
            .into_iter()
            .map(|(name, conflicts, propagations)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("conflicts", Json::Int(conflicts)),
                    ("propagations", Json::Int(propagations)),
                ])
            })
            .collect();
        fields.push(("clients".into(), Json::Arr(clients)));
        Json::Obj(fields)
    }

    /// Degraded-job count so far (tests).
    pub fn degraded(&self) -> u64 {
        self.inner.counters.degraded.load(Ordering::Relaxed)
    }

    /// Retry-attempt count so far (tests).
    pub fn retried(&self) -> u64 {
        self.inner.counters.retried.load(Ordering::Relaxed)
    }
}

/// Engine threads per job: the cores divided among the workers, at least
/// one. A default daemon (one worker per core) runs each job on one
/// thread; a single-worker daemon gives its one job every core.
fn job_threads(cores: usize, workers: usize) -> usize {
    (cores / workers).max(1)
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = st.pending.pop_front() {
                    st.in_flight += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // The whole job — including our own orchestration — runs under
        // catch_unwind so a worker thread can never die and strand the
        // queue.
        let _ = catch_unwind(AssertUnwindSafe(|| process(inner, &job)));
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.in_flight -= 1;
        drop(st);
        inner.idle_cv.notify_all();
    }
}

/// Everything about a job resolved before the store lookup: its
/// verdict-store key and what a miss needs to run it.
struct Prep {
    /// Paths/Leak: the design the request names, read but not compiled.
    source: Option<DesignSource>,
    /// Paths/Leak after a store miss: the loaded design, the opcode, and
    /// the µPATH knobs ([`load_job`]).
    job: Option<(Design, isa::Opcode, SynthConfig)>,
    /// Fuzz: the effective BMC bound.
    bound: usize,
    key: Option<String>,
}

/// FNV-1a of a design's source: a `.nl` file's bytes, or a built-in's
/// canonical emission ([`design_fingerprint`]), computed once per
/// process. A file that is a canonical emission therefore shares its
/// verdict-store entries with the built-in it emits.
fn source_fingerprint(source: &DesignSource) -> u64 {
    static BUILTINS: [OnceLock<u64>; uarch::DESIGNS.len()] =
        [const { OnceLock::new() }; uarch::DESIGNS.len()];
    match source {
        DesignSource::Builtin(ix) => {
            *BUILTINS[*ix].get_or_init(|| design_fingerprint(&(uarch::DESIGNS[*ix].1)()))
        }
        DesignSource::File { text, .. } => netlist::Fnv::new().bytes(text.as_bytes()).finish(),
    }
}

fn prepare(req: &Request) -> Result<Prep, String> {
    match req.op {
        Op::Paths | Op::Leak => {
            let spec = req.design.as_deref().expect("validated by Request::parse");
            let source =
                DesignSource::resolve(spec, Some(crate::net::MAX_LINE)).map_err(|e| e.message)?;
            let iname = req.instr.as_deref().expect("validated by Request::parse");
            // The key is a pure function of the request: knobs as sent, an
            // omitted one as `-` (its default is a function of the design,
            // which the source fingerprint keys). A mnemonic outside the
            // ISA gets no key: no design implements it, so `load_job`
            // answers it with an error.
            let knob = |k: Option<u64>| k.map_or_else(|| "-".to_owned(), |v| v.to_string());
            let key = isa::Opcode::ALL
                .iter()
                .find(|op| op.mnemonic().eq_ignore_ascii_case(iname))
                .map(|op| {
                    format!(
                        "serve:{}:{:016x}:{op:?}:{}:{}",
                        req.op.label(),
                        source_fingerprint(&source),
                        knob(req.bound.map(|b| b as u64)),
                        knob(req.budget)
                    )
                });
            Ok(Prep {
                source: Some(source),
                job: None,
                bound: 0,
                key,
            })
        }
        Op::Check => {
            let source = req.source.as_deref().expect("validated by Request::parse");
            Ok(Prep {
                source: None,
                job: None,
                bound: 0,
                key: Some(format!(
                    "serve:check:{:016x}",
                    netlist::Fnv::new().bytes(source.as_bytes()).finish()
                )),
            })
        }
        Op::Fuzz => {
            // The effective bound is verdict-relevant (a clean bound-4 run
            // says nothing about bound 12), so it must be part of the key
            // even when the client left it defaulted.
            let bound = req
                .bound
                .unwrap_or_else(|| fuzz::FuzzConfig::default().bound);
            Ok(Prep {
                source: None,
                job: None,
                bound,
                key: Some(format!("serve:fuzz:{}:{}:{bound}", req.seed, req.cases)),
            })
        }
        Op::Stats | Op::Shutdown => Err(format!(
            "op `{}` is answered inline, not queued",
            req.op.label()
        )),
    }
}

/// Compiles a Paths/Leak job's design after a store miss, once for all
/// of its attempts: the design, the opcode, and the µPATH knobs.
fn load_job(
    req: &Request,
    source: DesignSource,
) -> Result<(Design, isa::Opcode, SynthConfig), String> {
    let (design, _) = source.load().map_err(|e| e.message)?;
    let iname = req.instr.as_deref().expect("validated by Request::parse");
    let opcode = design
        .opcode(iname)
        .ok_or_else(|| format!("`{iname}` is not implemented by {}", design.name))?;
    let mut synth = SynthConfig::for_design(&design);
    synth.bound = req.bound.unwrap_or(synth.bound);
    synth.conflict_budget = req.budget.or(synth.conflict_budget);
    Ok((design, opcode, synth))
}

fn process(inner: &Inner, job: &Job) {
    let req = &job.req;
    let mut prep = match prepare(req) {
        Ok(p) => p,
        Err(msg) => {
            let _ = job.tx.send(ev_error(&req.id, &msg));
            return;
        }
    };
    // Content-addressed reuse: identical (design source, knobs) jobs are
    // answered from the verdict store without parsing or re-solving.
    // Provenance goes in an advisory `progress` event, never in the
    // verdict, so a cached answer is byte-identical to a freshly computed
    // one.
    if let (Some(store), Some(key)) = (&inner.store, &prep.key) {
        if let Some(rec) = store.get(key) {
            if let Ok(result) = Json::parse(&rec) {
                let _ = job
                    .tx
                    .send(ev_progress(&req.id, "served from verdict store"));
                let _ = job.tx.send(ev_done(&req.id, result));
                inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    if let Some(source) = prep.source.take() {
        match load_job(req, source) {
            Ok(loaded) => prep.job = Some(loaded),
            Err(msg) => {
                let _ = job.tx.send(ev_error(&req.id, &msg));
                return;
            }
        }
    }
    let mut last_degraded: Option<Json> = None;
    for attempt in 0..=inner.cfg.retries {
        let fault = inner
            .cfg
            .faults
            .serve_fault_for("serve-worker", job.seq as usize, attempt);
        if attempt > 0 {
            inner.counters.retried.fetch_add(1, Ordering::Relaxed);
            let _ = job
                .tx
                .send(ev_progress(&req.id, &format!("retry attempt {attempt}")));
            backoff_sleep(inner, job.seq, attempt);
        }
        if fault == Some(ServeFault::QueueStall) {
            // A stall only adds latency; the attempt then runs clean.
            let _ = job
                .tx
                .send(ev_progress(&req.id, "injected fault: queue stall"));
            std::thread::sleep(Duration::from_millis(25));
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            execute(inner, req, &prep, job.seq, attempt, fault)
        }));
        match run {
            Err(_) => {
                inner.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                let _ = job
                    .tx
                    .send(ev_progress(&req.id, "worker panic caught by supervisor"));
            }
            Ok(Err(msg)) => {
                let _ = job.tx.send(ev_error(&req.id, &msg));
                return;
            }
            Ok(Ok((payload, degraded, cones))) => {
                if let Some((hits, misses)) = cones {
                    // Cone-cache provenance is advisory (a progress event
                    // and counters), never part of the verdict payload.
                    let _ = job.tx.send(ev_progress(
                        &req.id,
                        &format!("cone cache: {hits} hit(s), {misses} miss(es)"),
                    ));
                    inner.counters.cone_hits.fetch_add(hits, Ordering::Relaxed);
                    inner
                        .counters
                        .cone_misses
                        .fetch_add(misses, Ordering::Relaxed);
                }
                if !degraded {
                    if let (Some(store), Some(key)) = (&inner.store, &prep.key) {
                        if fault == Some(ServeFault::TornJournalWrite) {
                            let _ = job
                                .tx
                                .send(ev_progress(&req.id, "injected fault: torn journal write"));
                            inner.counters.torn_writes.fetch_add(1, Ordering::Relaxed);
                            store.put_torn(key, &payload.render_compact());
                        } else {
                            store.put(key, &payload.render_compact());
                        }
                    }
                    let _ = job.tx.send(ev_done(&req.id, payload));
                    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let _ = job
                    .tx
                    .send(ev_progress(&req.id, &format!("attempt {attempt} degraded")));
                last_degraded = Some(payload);
            }
        }
    }
    // Retry budget exhausted: the verdict stands, widened to
    // undetermined — never flipped. Degraded verdicts are not cached, so
    // a later identical job (or a restarted daemon) can still converge to
    // the clean answer.
    inner.counters.degraded.fetch_add(1, Ordering::Relaxed);
    let payload = last_degraded.unwrap_or_else(|| {
        Json::obj([
            ("op", Json::str(req.op.label())),
            ("status", Json::str("undetermined")),
            ("reason", Json::str("job panicked on every attempt")),
            ("exit", Json::Int(2)),
        ])
    });
    let _ = job.tx.send(ev_done(&req.id, payload));
    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
}

/// Seeded exponential backoff: deterministic per (seed, job, attempt), so
/// chaos runs replay their timing envelope from the fault seed alone.
fn backoff_sleep(inner: &Inner, seq: u64, attempt: u32) {
    if inner.cfg.backoff_ms == 0 {
        return;
    }
    let base = inner.cfg.backoff_ms << (attempt.min(6) - 1);
    let mut rng = prng::Rng::new(
        inner.cfg.faults.seed() ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt as u64,
    );
    let jitter = rng.range(0, base.max(1));
    std::thread::sleep(Duration::from_millis(base + jitter));
}

/// A finished attempt: the `done` payload, whether any job degraded, and
/// — for journaled Paths/Leak jobs — the (cone_hits, cone_misses) pair.
type Executed = (Json, bool, Option<(u64, u64)>);

fn execute(
    inner: &Inner,
    req: &Request,
    prep: &Prep,
    seq: u64,
    attempt: u32,
    fault: Option<ServeFault>,
) -> Result<Executed, String> {
    // The watchdog: every attempt runs under its own deadline token. An
    // injected DeadlineExpired fault is an already-expired watchdog.
    let watchdog: Option<Arc<CancelToken>> = if fault == Some(ServeFault::DeadlineExpired) {
        Some(Arc::new(CancelToken::deadline_in(Duration::ZERO)))
    } else {
        inner
            .cfg
            .deadline_secs
            .map(|s| Arc::new(CancelToken::deadline_in(Duration::from_secs(s))))
    };
    if fault == Some(ServeFault::WorkerPanic) {
        panic!("injected serve fault: worker panic (job {seq}, attempt {attempt})");
    }
    // The verdict store doubles as the batch drivers' checkpoint journal,
    // so Paths/Leak jobs replay every property cone whose canonical
    // fingerprint is already on file (cone-granular caching, DESIGN.md
    // §14). An edited design misses the job-level `serve:` key above but
    // still answers its untouched cones from here.
    let robust = RobustOptions {
        cancel: watchdog.clone(),
        faults: FaultPlan::disabled(),
        journal: inner
            .store
            .as_ref()
            .map(|s| Arc::clone(s) as Arc<dyn JobStore>),
        retries: 0,
    };
    let budget_pool = inner.budgets.pool_for(&req.client);
    match req.op {
        Op::Paths | Op::Leak => {
            let (design, op, synth) = prep.job.as_ref().expect("prepared");
            let audit = if req.op == Op::Paths {
                Audit::Paths
            } else {
                Audit::Leak
            };
            let engine = EngineOptions {
                threads: inner.job_threads,
                budget_pool: Some(budget_pool),
                robust,
            };
            let report = synthlc::audit(design, *op, audit, synth, engine);
            let mut fields = vec![
                ("op", Json::str(req.op.label())),
                ("design", Json::str(&design.name)),
                ("instr", Json::str(op.mnemonic())),
            ];
            if audit == Audit::Paths {
                let r = &report.mupath[0];
                fields.push(("mupaths", Json::Int(r.paths.len() as u64)));
                fields.push(("complete", Json::Bool(r.complete)));
            } else {
                let signatures = report.signatures.iter().map(|s| Json::str(s.render()));
                fields.push(("signatures", Json::Arr(signatures.collect())));
                fields.push(("transponder", Json::Bool(report.transponders.contains(op))));
            }
            let stats = report.stats();
            let degraded = report.degraded();
            fields.extend([
                ("properties", Json::Int(stats.properties)),
                ("undetermined", Json::Int(stats.undetermined)),
                ("exit", Json::Int(if degraded { 2 } else { 0 })),
            ]);
            let cones = inner
                .store
                .is_some()
                .then_some((report.resumed_jobs, report.cone_misses));
            Ok((Json::obj(fields), degraded, cones))
        }
        Op::Check => {
            let source = req.source.as_deref().expect("prepared");
            let result = netlist::text::check(source, "<serve>");
            let code = result.report.exit_code(false);
            let payload = Json::obj([
                ("op", Json::str("check")),
                ("summary", Json::str(result.report.summary())),
                ("exit", Json::Int(code as u64)),
            ]);
            Ok((payload, false, None))
        }
        Op::Fuzz => {
            let report = fuzz::run_fuzz(&fuzz::FuzzConfig {
                seed: req.seed,
                cases: req.cases,
                // Resolved in prepare() so the verdict-store key and the
                // run always agree on the effective bound.
                bound: prep.bound,
                deadline: watchdog,
                threads: inner.job_threads,
                ..Default::default()
            });
            let degraded = !report.completed;
            let exit = if report.has_mismatches() {
                1
            } else if degraded {
                2
            } else {
                0
            };
            let payload = Json::obj([
                ("op", Json::str("fuzz")),
                ("seed", Json::Int(report.seed)),
                ("cases", Json::Int(req.cases)),
                ("mismatches", Json::Int(report.mismatches.len() as u64)),
                ("completed", Json::Bool(report.completed)),
                ("exit", Json::Int(exit)),
            ]);
            Ok((payload, degraded, None))
        }
        Op::Stats | Op::Shutdown => Err("not a queued op".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_split_the_cores_among_the_workers() {
        assert_eq!(job_threads(2, 1), 2, "one worker gets every core");
        assert_eq!(job_threads(2, 2), 1, "one worker per core: one thread each");
        assert_eq!(job_threads(8, 3), 2);
        assert_eq!(job_threads(2, 4), 1, "never below one thread");
    }

    #[test]
    fn fuzz_store_key_covers_every_verdict_relevant_knob() {
        let mut r = Request::new(Op::Fuzz);
        r.seed = 7;
        r.cases = 16;
        let defaulted = prepare(&r).unwrap();
        r.bound = Some(fuzz::FuzzConfig::default().bound);
        let explicit_default = prepare(&r).unwrap();
        assert_eq!(
            defaulted.key, explicit_default.key,
            "an explicit bound equal to the default must hit the same entry"
        );
        r.bound = Some(12);
        let deeper = prepare(&r).unwrap();
        assert_ne!(
            defaulted.key, deeper.key,
            "a different BMC bound is a different verdict; keys must differ"
        );
        assert_eq!(deeper.bound, 12, "the keyed bound is the bound that runs");
    }

    #[test]
    fn builtins_and_their_example_files_share_store_keys() {
        let key = |design: String, bound, budget| {
            let mut r = Request::new(Op::Leak);
            r.design = Some(design);
            r.instr = Some("LW".into());
            r.bound = bound;
            r.budget = budget;
            prepare(&r).unwrap().key.expect("an ISA mnemonic is keyed")
        };
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        for &(name, build) in uarch::DESIGNS {
            let file = format!("{examples}/{name}.nl");
            for (bound, budget) in [(None, None), (Some(18), Some(2_000_000))] {
                assert_eq!(
                    key(name.into(), bound, budget),
                    key(file.clone(), bound, budget),
                    "{name}"
                );
            }
            // Explicit knobs keep the whole-design fingerprint's key, so
            // stores written before source keying still answer them.
            let fp = design_fingerprint(&build());
            assert_eq!(
                key(file, Some(18), Some(2_000_000)),
                format!("serve:leak:{fp:016x}:Lw:18:2000000")
            );
            assert_eq!(
                key(name.into(), None, Some(7)),
                format!("serve:leak:{fp:016x}:Lw:-:7"),
                "an omitted knob is keyed as omitted"
            );
        }
    }
}
