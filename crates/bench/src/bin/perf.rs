//! E-P3: §VII-B3 property-evaluation performance, plus the parallel-engine
//! and static-reduction perf report.
//!
//! Each stage runs twice — once on the sequential engine (`--jobs 1`) with
//! the static reductions (cone-of-influence slicing, taint-reachability
//! pruning) disabled, and once on the parallel property-evaluation engine
//! with the reductions enabled — asserts the results are bit-identical
//! (proving both scheduling- and reduction-independence in one shot), and
//! reports the speedup plus the COI bit-blast ratio and the number of SAT
//! queries discharged statically. A machine-readable report is written to
//! `BENCH_perf.json` (schema `synthlc-perf-v7`), including the CDCL
//! core's learnt-database observability (tier sizes, deletions,
//! subsumption, LBD profile) and the incremental-solving reuse economy
//! (warm context-chain checkers reused, unrolling frames extended in
//! place vs. rebuilt, learnt clauses carried across query batches) for
//! every run, all read from the run's `mc::CheckStats`.
//! After the report is written, every stage's parallel speedup is
//! asserted to stay at or above 1.0x (modulo timer noise): the context
//! chains must never make the parallel path slower than `--jobs 1`. On a host with a single hardware thread (the report
//! records `host_threads`) the wall-clock ratio measures scheduler
//! overhead rather than the pool, so the speedup assert is skipped
//! there and the bit-identical-results assert carries the regression
//! coverage alone.
//!
//! The `sat_micro` stage isolates the solver: pigeonhole formulas plus a
//! pre-unrolled BMC CNF (captured via the clause log, built outside the
//! timed region) are solved on fresh solvers, so solver-core changes show
//! up undiluted by synthesis overhead. Its two legs run the identical
//! single-threaded workload twice; `deterministic_match` then certifies
//! run-to-run byte-stability of verdicts and search statistics.
//!
//! The `leakage_edit` stage measures cone-granular incremental
//! re-verification (DESIGN.md §14): a cold journaled leakage run on the
//! cache DUV happens outside the timed region, then one register's reset
//! value — outside every queried cone — is flipped in place. The
//! sequential leg re-verifies the edited design from scratch; the
//! parallel leg resumes from the journal, and every cone the edit did
//! not touch replays from cache (`cone_hits` > 0, `cone_misses` = 0 is
//! asserted). `deterministic_match` then certifies the warm run is
//! byte-identical to the fresh one — the edit-locality contract.
//!
//! ```text
//! perf [--jobs N] [--out PATH] [stage-filter]
//! ```
//!
//! `--jobs` defaults to the `SYNTHLC_THREADS`/available-parallelism worker
//! count (at least 4, to exercise the engine on small machines). Scope is
//! controlled by `SYNTHLC_SCOPE` = `quick` (default) or `full`.

use bench::{leak_cfg, scope, Scope};
use jsonio::Json;
use mc::CheckStats;
use mupath::{synthesize_isa_with, ContextMode, EngineOptions, IsaSynthesis, SynthConfig};
use sat::BudgetPool;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use synthlc::{synthesize_leakage, LeakageReport};
use uarch::{build_core, CoreConfig};

/// One engine run: deterministic result fingerprint plus cost accounting.
struct RunOutcome {
    fingerprint: String,
    seconds: f64,
    conflicts: u64,
    propagations: u64,
    /// The run's property statistics, merged over both phases of a
    /// leakage run.
    stats: CheckStats,
    /// Jobs degraded to an undetermined stand-in (panic/fault/deadline);
    /// always 0 here — the perf pipeline runs with robustness off — but
    /// reported so the schema matches long-run CLI reports.
    degraded_jobs: u64,
    /// Jobs replayed from a checkpoint journal — the cone-cache *hits*
    /// of the `leakage_edit` stage; 0 in the journal-free stages.
    resumed_jobs: u64,
    /// Retry attempts spent re-running degraded jobs; always 0 here
    /// (retries only fire when robustness knobs are on).
    retried_jobs: u64,
    /// Journaled jobs whose cone fingerprint had no usable record —
    /// the cone-cache *misses*; 0 when no journal is attached.
    cone_misses: u64,
}

/// The v7 `solver` block: learnt-DB observability and the reuse economy.
/// Gauges (`learnt_live`, `binary_clauses`) are live end-of-run values
/// summed over checkers; the rest are lifetime counters.
fn solver_json(s: &CheckStats) -> Json {
    Json::obj([
        ("learnt_live", Json::Int(s.sat_learnt_live())),
        ("binary_clauses", Json::Int(s.sat_binary_clauses)),
        ("clauses_deleted", Json::Int(s.sat_clauses_deleted)),
        ("subsumed", Json::Int(s.sat_subsumed)),
        ("strengthened", Json::Int(s.sat_strengthened)),
        ("avg_lbd", Json::Num(s.sat_avg_lbd())),
        ("max_lbd", Json::Int(s.sat_max_lbd as u64)),
        ("trail_reuses", Json::Int(s.sat_trail_reuses)),
        ("reused_levels", Json::Int(s.sat_reused_levels)),
        ("contexts_reused", Json::Int(s.ctx_reused)),
        ("frames_extended", Json::Int(s.frames_extended)),
        ("frames_rebuilt", Json::Int(s.frames_rebuilt)),
        ("learnts_carried", Json::Int(s.learnts_carried)),
    ])
}

struct StageResult {
    name: &'static str,
    seq: RunOutcome,
    par: RunOutcome,
}

impl StageResult {
    fn matches(&self) -> bool {
        self.seq.fingerprint == self.par.fingerprint
    }
    fn speedup(&self) -> f64 {
        self.seq.seconds / self.par.seconds.max(1e-9)
    }
}

/// Everything scheduling-independent about a whole-ISA synthesis: shapes,
/// witnesses, decisions, and outcome counts — wall times excluded.
fn isa_fingerprint(r: &IsaSynthesis) -> String {
    let mut out = String::new();
    for i in &r.instrs {
        writeln!(
            out,
            "{} complete={} paths={:?} concrete={:?} decisions={:?} classes={:?}",
            i.opcode, i.complete, i.paths, i.concrete, i.decisions, i.class_decisions
        )
        .unwrap();
        writeln!(
            out,
            "  stats p={} r={} u={} ud={}",
            i.stats.properties, i.stats.reachable, i.stats.unreachable, i.stats.undetermined
        )
        .unwrap();
    }
    out
}

/// Scheduling-independent view of a leakage report: the µPATH phase plus
/// signatures, transponder/transmitter sets, and outcome counts.
fn leak_fingerprint(r: &LeakageReport) -> String {
    let mut out = String::new();
    writeln!(out, "design={}", r.design).unwrap();
    for i in &r.mupath {
        writeln!(
            out,
            "{} complete={} paths={:?} decisions={:?}",
            i.opcode, i.complete, i.paths, i.class_decisions
        )
        .unwrap();
    }
    for s in &r.signatures {
        writeln!(out, "sig {}", s.render()).unwrap();
    }
    writeln!(out, "candidates={:?}", r.candidate_transponders).unwrap();
    writeln!(out, "transponders={:?}", r.transponders).unwrap();
    writeln!(out, "transmitters={:?}", r.transmitters).unwrap();
    for (tag, s) in [("mupath", &r.mupath_stats), ("ift", &r.ift_stats)] {
        writeln!(
            out,
            "{tag} p={} r={} u={} ud={}",
            s.properties, s.reachable, s.unreachable, s.undetermined
        )
        .unwrap();
    }
    out
}

/// The pinned one-gate edit of the `leakage_edit` stage: flip one
/// register's reset value in place (node ids, names, widths untouched),
/// so every cone not containing the register keeps its fingerprint
/// bit-for-bit.
fn flip_reg_init(design: &uarch::Design, reg_name: &str) -> uarch::Design {
    let nl = &design.netlist;
    let id = nl
        .find(reg_name)
        .unwrap_or_else(|| panic!("{}: no register named {reg_name}", design.name));
    let next = nl.reg_next(id);
    let init = nl.reg_init(id) ^ 1;
    let mut edited = design.clone();
    edited.netlist = nl
        .with_op(
            id,
            netlist::Op::Reg {
                next: Some(next),
                init,
            },
        )
        .expect("a reset-value flip keeps the netlist valid");
    edited
}

fn run_mupath(
    design: &uarch::Design,
    ops: &[isa::Opcode],
    cfg: &SynthConfig,
    threads: usize,
) -> RunOutcome {
    let pool = Arc::new(BudgetPool::new(None));
    let opts = EngineOptions {
        threads,
        budget_pool: Some(Arc::clone(&pool)),
        robust: Default::default(),
    };
    let started = Instant::now();
    let r = synthesize_isa_with(design, ops, cfg, &opts);
    RunOutcome {
        seconds: started.elapsed().as_secs_f64(),
        fingerprint: isa_fingerprint(&r),
        conflicts: pool.conflicts(),
        propagations: pool.propagations(),
        stats: r.stats,
        degraded_jobs: r.degraded_jobs,
        resumed_jobs: r.resumed_jobs,
        retried_jobs: r.retried_jobs,
        cone_misses: r.cone_misses,
    }
}

fn run_leakage(
    design: &uarch::Design,
    transponders: &[isa::Opcode],
    cfg: &synthlc::LeakConfig,
    threads: usize,
    reductions: bool,
    journal: Option<Arc<dyn mc::JobStore>>,
) -> RunOutcome {
    let pool = Arc::new(BudgetPool::new(None));
    let mut cfg = cfg.clone();
    cfg.threads = threads;
    cfg.budget_pool = Some(Arc::clone(&pool));
    cfg.coi = reductions;
    cfg.static_prune = reductions;
    cfg.robust.journal = journal;
    let started = Instant::now();
    let r = synthesize_leakage(design, transponders, &cfg);
    RunOutcome {
        seconds: started.elapsed().as_secs_f64(),
        fingerprint: leak_fingerprint(&r),
        conflicts: pool.conflicts(),
        propagations: pool.propagations(),
        stats: r.stats(),
        degraded_jobs: r.degraded_jobs,
        resumed_jobs: r.resumed_jobs,
        retried_jobs: r.retried_jobs,
        cone_misses: r.cone_misses,
    }
}

/// One prepared CNF workload of the `sat_micro` stage, built outside the
/// timed region so the measurement sees only the solver.
struct SatMicro {
    name: String,
    num_vars: usize,
    clauses: Vec<Vec<sat::Lit>>,
    /// Activation literals, one incremental `solve_assuming` query each;
    /// empty means a single plain `solve`.
    queries: Vec<sat::Lit>,
}

/// The pigeonhole formula `PHP(pigeons, holes)` — the classic
/// exponential-resolution UNSAT family, all long clauses plus a dense
/// binary at-most-one layer (exactly the mix the tiered DB and the
/// binary fast path are built for).
fn php_instance(pigeons: usize, holes: usize) -> SatMicro {
    let v = |p: usize, h: usize| sat::Var((p * holes + h) as u32);
    let mut clauses: Vec<Vec<sat::Lit>> = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| sat::Lit::pos(v(p, h))).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![sat::Lit::neg(v(p1, h)), sat::Lit::neg(v(p2, h))]);
            }
        }
    }
    SatMicro {
        name: format!("php-{pigeons}-{holes}"),
        num_vars: pigeons * holes,
        clauses,
        queries: Vec::new(),
    }
}

/// A pre-unrolled BMC CNF captured via the solver's clause log: the
/// design is unrolled to `bound` frames, and every 1-bit signal (up to
/// `max_queries`) gets a Checker-style activation literal implying "the
/// signal fires at some frame". The timed run replays the clause stream
/// into a fresh solver and issues one incremental query per activation —
/// the same workload shape as leakage synthesis, minus the synthesis.
fn unrolled_instance(design: &uarch::Design, bound: usize, max_queries: usize) -> SatMicro {
    let mut u = mc::Unrolling::new(&design.netlist, mc::InitMode::Reset);
    u.gate().solver().set_clause_log(true);
    u.extend_to(bound);
    let true_lit = u.gate().true_lit();
    let mut queries = Vec::new();
    let sigs: Vec<_> = design
        .netlist
        .iter()
        .filter(|(_, n)| n.width == 1)
        .map(|(id, _)| id)
        .take(max_queries)
        .collect();
    for sig in sigs {
        let act = u.gate().fresh();
        let mut clause = vec![!act];
        for t in 0..bound {
            clause.push(u.lit(t, sig));
        }
        u.gate().add_clause(&clause);
        queries.push(act);
    }
    // The gate builder's constant-true unit clause predates the log.
    let mut clauses: Vec<Vec<sat::Lit>> = vec![vec![true_lit]];
    clauses.extend(u.gate().solver_ref().logged_clauses().iter().cloned());
    SatMicro {
        name: format!("unrolled-{}-b{bound}", design.name),
        num_vars: u.gate().num_vars(),
        clauses,
        queries,
    }
}

/// Runs every prepared instance on a fresh solver and folds verdicts and
/// search statistics into the fingerprint — any run-to-run wobble in the
/// solver core breaks `deterministic_match`.
fn run_sat_micro(instances: &[SatMicro]) -> RunOutcome {
    let started = Instant::now();
    let mut fp = String::new();
    let mut conflicts = 0u64;
    let mut propagations = 0u64;
    let mut stats = CheckStats::default();
    for inst in instances {
        let mut s = sat::Solver::new();
        for _ in 0..inst.num_vars {
            s.new_var();
        }
        for c in &inst.clauses {
            s.add_clause(c);
        }
        if inst.queries.is_empty() {
            let r = s.solve();
            stats.properties += 1;
            writeln!(fp, "{} {}", inst.name, r.answer()).unwrap();
        } else {
            for (i, &act) in inst.queries.iter().enumerate() {
                let r = s.solve_assuming(&[act]);
                stats.properties += 1;
                writeln!(fp, "{} q{i} {}", inst.name, r.answer()).unwrap();
            }
        }
        let st = s.stats();
        writeln!(
            fp,
            "{} conflicts={} propagations={} decisions={} restarts={} lbd={}/{}",
            inst.name,
            st.conflicts,
            st.propagations,
            st.decisions,
            st.restarts,
            st.lbd_sum,
            st.lbd_count
        )
        .unwrap();
        conflicts += st.conflicts;
        propagations += st.propagations;
        // Each fresh solver's whole run, folded as a checker would fold it;
        // `absorb` then sums the gauges across solvers.
        let mut run = CheckStats::default();
        run.fold_solver(&sat::SolverStats::default(), &st);
        run.set_gauges(&st);
        stats.absorb(&run);
    }
    RunOutcome {
        seconds: started.elapsed().as_secs_f64(),
        fingerprint: fp,
        conflicts,
        propagations,
        stats,
        degraded_jobs: 0,
        resumed_jobs: 0,
        retried_jobs: 0,
        cone_misses: 0,
    }
}

fn run_outcome_json(r: &RunOutcome) -> Json {
    Json::Obj(vec![
        ("seconds".into(), Json::Num(r.seconds)),
        ("properties".into(), Json::Int(r.stats.properties)),
        ("undetermined".into(), Json::Int(r.stats.undetermined)),
        ("conflicts".into(), Json::Int(r.conflicts)),
        ("propagations".into(), Json::Int(r.propagations)),
        ("coi_bits_before".into(), Json::Int(r.stats.coi_bits_before)),
        ("coi_bits_after".into(), Json::Int(r.stats.coi_bits_after)),
        (
            "sat_calls_avoided".into(),
            Json::Int(r.stats.discharged_static),
        ),
        ("degraded_jobs".into(), Json::Int(r.degraded_jobs)),
        ("resumed_jobs".into(), Json::Int(r.resumed_jobs)),
        ("retried_jobs".into(), Json::Int(r.retried_jobs)),
        ("cone_hits".into(), Json::Int(r.resumed_jobs)),
        ("cone_misses".into(), Json::Int(r.cone_misses)),
        ("solver".into(), solver_json(&r.stats)),
    ])
}

fn report_json(jobs: usize, scope: Scope, stages: &[StageResult]) -> Json {
    let total_seq: f64 = stages.iter().map(|s| s.seq.seconds).sum();
    let total_par: f64 = stages.iter().map(|s| s.par.seconds).sum();
    Json::Obj(vec![
        ("schema".into(), Json::str("synthlc-perf-v7")),
        ("jobs".into(), Json::Int(jobs as u64)),
        (
            "host_threads".into(),
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            ),
        ),
        (
            "scope".into(),
            Json::str(if scope == Scope::Full {
                "full"
            } else {
                "quick"
            }),
        ),
        (
            "stages".into(),
            Json::Arr(
                stages
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(s.name)),
                            ("sequential".into(), run_outcome_json(&s.seq)),
                            ("parallel".into(), run_outcome_json(&s.par)),
                            ("speedup".into(), Json::Num(s.speedup())),
                            ("coi_ratio".into(), Json::Num(s.par.stats.coi_ratio())),
                            (
                                "sat_calls_avoided".into(),
                                Json::Int(s.par.stats.discharged_static),
                            ),
                            ("deterministic_match".into(), Json::Bool(s.matches())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_sequential_seconds".into(), Json::Num(total_seq)),
        ("total_parallel_seconds".into(), Json::Num(total_par)),
        (
            "overall_speedup".into(),
            Json::Num(total_seq / total_par.max(1e-9)),
        ),
    ])
}

fn main() {
    let mut jobs = mc::default_threads().max(4);
    let mut out_path = "BENCH_perf.json".to_owned();
    let mut filter = String::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--jobs needs a positive integer");
            }
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            other if !other.starts_with('-') => filter = other.to_owned(),
            other => panic!("unknown option `{other}`"),
        }
    }
    let scope = scope();
    println!("== parallel property-evaluation engine: perf report ==");
    println!("jobs = {jobs}, scope = {scope:?}\n");

    let core = build_core(&CoreConfig::default());
    let cache = uarch::cache::build_cache();
    let core_ops: Vec<isa::Opcode> = match scope {
        Scope::Quick => vec![
            isa::Opcode::Add,
            isa::Opcode::Div,
            isa::Opcode::Lw,
            isa::Opcode::Sw,
        ],
        Scope::Full => vec![
            isa::Opcode::Add,
            isa::Opcode::Mul,
            isa::Opcode::Div,
            isa::Opcode::Lw,
            isa::Opcode::Sw,
            isa::Opcode::Beq,
            isa::Opcode::Jal,
        ],
    };
    let core_cfg = SynthConfig {
        slots: vec![0, 1],
        context: ContextMode::NoControlFlow,
        bound: 24,
        conflict_budget: Some(2_000_000),
        max_shapes: 64,
    };
    let cache_cfg = SynthConfig {
        slots: vec![0, 1],
        context: ContextMode::Any,
        bound: 18,
        conflict_budget: Some(2_000_000),
        max_shapes: 64,
    };
    let (leak_ops, leak) = leak_cfg(&core, scope);
    let cache_leak = synthlc::LeakConfig {
        mupath: cache_cfg.clone(),
        transmitters: vec![isa::Opcode::Lw, isa::Opcode::Sw],
        kinds: vec![synthlc::TxKind::Intrinsic, synthlc::TxKind::Static],
        bound: 20,
        conflict_budget: Some(1_000_000),
        threads: 0,
        budget_pool: None,
        slot_base: 1,
        max_sources: Some(2),
        coi: true,
        static_prune: true,
        robust: Default::default(),
    };

    let mut stages = Vec::new();
    // Sequential runs double as the reduction-off baseline: the fingerprint
    // match below then certifies that neither worker scheduling nor the
    // static reductions change any synthesis result.
    let mut stage = |name: &'static str, run: &dyn Fn(usize, bool) -> RunOutcome| {
        if !name.contains(filter.as_str()) {
            return;
        }
        println!("{name}: sequential, reductions off ...");
        let seq = run(1, false);
        println!("{name}: parallel ({jobs} workers), reductions on ...");
        let par = run(jobs, true);
        let s = StageResult { name, seq, par };
        println!(
            "{name}: {:.2}s -> {:.2}s  ({:.2}x, {} properties, coi {:.0}%, \
             {} SAT calls avoided, match = {})\n",
            s.seq.seconds,
            s.par.seconds,
            s.speedup(),
            s.par.stats.properties,
            s.par.stats.coi_ratio() * 100.0,
            s.par.stats.discharged_static,
            s.matches()
        );
        stages.push(s);
    };
    // Solver-only microbench: both legs run the identical prepared CNFs
    // single-threaded, so the match certifies run-to-run determinism of
    // the CDCL core itself.
    let sat_micro: Vec<SatMicro> = match scope {
        Scope::Quick => vec![php_instance(9, 8), unrolled_instance(&core, 16, 48)],
        Scope::Full => vec![
            php_instance(9, 8),
            php_instance(10, 9),
            unrolled_instance(&core, 24, 96),
        ],
    };
    stage("sat_micro", &|_, _| run_sat_micro(&sat_micro));
    stage("mupath_core", &|threads, _| {
        run_mupath(&core, &core_ops, &core_cfg, threads)
    });
    stage("mupath_cache", &|threads, _| {
        run_mupath(
            &cache,
            &[isa::Opcode::Lw, isa::Opcode::Sw],
            &cache_cfg,
            threads,
        )
    });
    stage("leakage_core", &|threads, reductions| {
        run_leakage(&core, &leak_ops, &leak, threads, reductions, None)
    });
    stage("leakage_cache", &|threads, reductions| {
        run_leakage(
            &cache,
            &[isa::Opcode::Lw],
            &cache_leak,
            threads,
            reductions,
            None,
        )
    });
    // Cone-granular incremental re-verification: cold journaled run on
    // the pristine cache (outside the timed region), then a pinned
    // one-gate edit — `rsp_data`'s reset value, a pure-data register
    // outside every queried cone — and a timed fresh-vs-warm pair on the
    // edited design. The warm leg must answer everything from cache.
    if "leakage_edit".contains(filter.as_str()) {
        let journal_path = std::env::temp_dir().join("synthlc-perf-leakage-edit.journal");
        let _ = std::fs::remove_file(&journal_path);
        let cold =
            Arc::new(synthlc::Journal::create(&journal_path).expect("create perf edit journal"))
                as Arc<dyn mc::JobStore>;
        println!("leakage_edit: cold journaled run (untimed) ...");
        run_leakage(
            &cache,
            &[isa::Opcode::Lw],
            &cache_leak,
            jobs,
            true,
            Some(cold),
        );
        let edited = flip_reg_init(&cache, "rsp_data");
        let journal_path2 = journal_path.clone();
        stage("leakage_edit", &move |threads, reductions| {
            if threads == 1 {
                // Fresh baseline: full re-verification of the edited design.
                run_leakage(
                    &edited,
                    &[isa::Opcode::Lw],
                    &cache_leak,
                    threads,
                    reductions,
                    None,
                )
            } else {
                let warm = Arc::new(
                    synthlc::Journal::resume(&journal_path2).expect("resume perf edit journal"),
                ) as Arc<dyn mc::JobStore>;
                run_leakage(
                    &edited,
                    &[isa::Opcode::Lw],
                    &cache_leak,
                    threads,
                    reductions,
                    Some(warm),
                )
            }
        });
        if let Some(s) = stages.iter().find(|s| s.name == "leakage_edit") {
            assert!(
                s.par.resumed_jobs > 0 && s.par.cone_misses == 0,
                "leakage_edit: the out-of-cone edit must replay every cone \
                 from cache (hits={}, misses={})",
                s.par.resumed_jobs,
                s.par.cone_misses
            );
        }
        let _ = std::fs::remove_file(&journal_path);
    }

    let mismatches: Vec<&str> = stages
        .iter()
        .filter(|s| !s.matches())
        .map(|s| s.name)
        .collect();
    let report = report_json(jobs, scope, &stages);
    std::fs::write(&out_path, report.render()).expect("write perf report");

    let total_seq: f64 = stages.iter().map(|s| s.seq.seconds).sum();
    let total_par: f64 = stages.iter().map(|s| s.par.seconds).sum();
    println!(
        "overall: {total_seq:.2}s sequential, {total_par:.2}s with {jobs} workers \
         ({:.2}x); report -> {out_path}",
        total_seq / total_par.max(1e-9)
    );
    assert!(
        mismatches.is_empty(),
        "reduced parallel results diverged from the unreduced --jobs 1 \
         baseline in: {mismatches:?}"
    );
    // With persistent per-slot contexts the parallel engine does
    // strictly less work than the sequential reduction-off baseline, so a
    // stage dipping below 1.0x means the contexts regressed into
    // rebuilding (or the chains serialized more than job order requires).
    // The 3% grace absorbs timer noise on stages whose two legs run the
    // identical workload (sat_micro). The assert only holds where the
    // workers can actually overlap: on a single-hardware-thread host the
    // parallel leg pays pure context-switch overhead, so wall-clock ratio
    // measures the scheduler, not the pool — there we rely on the
    // deterministic-match assert above (identical conflicts/propagations
    // across legs) to catch rebuild regressions instead.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let slowdowns: Vec<String> = stages
        .iter()
        .filter(|s| s.speedup() < 0.97)
        .map(|s| format!("{} ({:.2}x)", s.name, s.speedup()))
        .collect();
    if cores > 1 {
        assert!(
            slowdowns.is_empty(),
            "parallel speedup regressed below 1.0x in: {slowdowns:?}"
        );
    } else if !slowdowns.is_empty() {
        println!(
            "note: single-core host; skipping parallel-speedup assert \
             (would have flagged: {slowdowns:?})"
        );
    }
}
