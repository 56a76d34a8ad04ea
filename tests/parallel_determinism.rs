//! Determinism of the parallel property-evaluation engine: any worker
//! count must produce results byte-identical to `--jobs 1`, because jobs
//! are independent and merge by job id (DESIGN.md §6). These tests compare
//! full scheduling-independent fingerprints — µPATH sets, witnesses,
//! decisions, leakage signatures, and outcome/budget accounting — across
//! worker counts.

use mc::{FaultPlan, JobStore};
use mupath::{synthesize_isa_with, ContextMode, EngineOptions, IsaSynthesis, SynthConfig};
use sat::BudgetPool;
use std::fmt::Write as _;
use std::sync::Arc;
use synthlc::{synthesize_leakage, Journal, LeakConfig, LeakageReport, TxKind};
use uarch::{build_core, build_tiny, CoreConfig};

fn isa_fingerprint(r: &IsaSynthesis) -> String {
    let mut out = String::new();
    for i in &r.instrs {
        writeln!(
            out,
            "{} complete={} paths={:?} concrete={:?} decisions={:?} classes={:?} \
             p={} r={} u={} ud={}",
            i.opcode,
            i.complete,
            i.paths,
            i.concrete,
            i.decisions,
            i.class_decisions,
            i.stats.properties,
            i.stats.reachable,
            i.stats.unreachable,
            i.stats.undetermined
        )
        .unwrap();
    }
    out
}

fn leak_fingerprint(r: &LeakageReport) -> String {
    let mut out = String::new();
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
    writeln!(
        out,
        "candidates={:?} transponders={:?} transmitters={:?}",
        r.candidate_transponders, r.transponders, r.transmitters
    )
    .unwrap();
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

#[test]
fn tinycore_mupath_synthesis_is_deterministic_across_worker_counts() {
    let design = build_tiny();
    let cfg = SynthConfig {
        slots: vec![0, 1],
        context: ContextMode::Any,
        bound: 12,
        conflict_budget: Some(1_000_000),
        max_shapes: 16,
    };
    let ops = design.isa.clone();
    let mut runs = Vec::new();
    for threads in [1, 2, 3] {
        let pool = Arc::new(BudgetPool::new(None));
        let opts = EngineOptions {
            threads,
            budget_pool: Some(Arc::clone(&pool)),
            robust: Default::default(),
        };
        let r = synthesize_isa_with(&design, &ops, &cfg, &opts);
        runs.push((
            threads,
            isa_fingerprint(&r),
            pool.conflicts(),
            pool.propagations(),
        ));
    }
    let (_, baseline, conflicts, propagations) = runs[0].clone();
    for (threads, fp, c, p) in &runs[1..] {
        assert_eq!(
            *fp, baseline,
            "--jobs {threads} produced different µPATHs than --jobs 1"
        );
        assert_eq!(
            (*c, *p),
            (conflicts, propagations),
            "--jobs {threads} budget drift"
        );
    }
}

#[test]
fn divider_leakage_synthesis_is_deterministic_across_worker_counts() {
    let design = build_core(&CoreConfig::default());
    let cfg = LeakConfig {
        mupath: SynthConfig {
            slots: vec![0],
            context: ContextMode::Solo,
            bound: 18,
            conflict_budget: Some(2_000_000),
            max_shapes: 32,
        },
        transmitters: vec![isa::Opcode::Div, isa::Opcode::Lw],
        kinds: vec![TxKind::Intrinsic, TxKind::DynamicOlder],
        bound: 18,
        conflict_budget: Some(2_000_000),
        threads: 1,
        budget_pool: None,
        slot_base: 0,
        max_sources: Some(2),
        coi: true,
        static_prune: true,
        robust: Default::default(),
    };
    let mut runs = Vec::new();
    for threads in [1, 3] {
        let mut cfg = cfg.clone();
        cfg.threads = threads;
        let pool = Arc::new(BudgetPool::new(None));
        cfg.budget_pool = Some(Arc::clone(&pool));
        let r = synthesize_leakage(&design, &[isa::Opcode::Div], &cfg);
        runs.push((threads, leak_fingerprint(&r), pool.conflicts()));
    }
    assert!(
        runs[0].1.contains("sig "),
        "expected the divider to synthesize at least one leakage signature"
    );
    let (_, baseline, conflicts) = runs[0].clone();
    for (threads, fp, c) in &runs[1..] {
        assert_eq!(
            *fp, baseline,
            "--jobs {threads} produced different signatures than --jobs 1"
        );
        assert_eq!(*c, conflicts, "--jobs {threads} budget drift");
    }
}

/// The minicache LW leak query (the §VII-A2 cache experiment's
/// configuration) — the workload of the robustness tests below.
fn minicache_lw_cfg() -> LeakConfig {
    LeakConfig {
        mupath: SynthConfig {
            slots: vec![2],
            context: ContextMode::Any,
            bound: 24,
            conflict_budget: Some(2_000_000),
            max_shapes: 48,
        },
        transmitters: vec![isa::Opcode::Lw],
        kinds: vec![TxKind::Static],
        bound: 24,
        conflict_budget: Some(2_000_000),
        threads: 2,
        budget_pool: None,
        slot_base: 1,
        max_sources: Some(1),
        coi: true,
        static_prune: true,
        robust: Default::default(),
    }
}

/// Fault-injected runs (DESIGN.md §8) must complete without aborting, book
/// every degradation under its reason, and only ever *widen* verdicts to
/// Undetermined: a faulted run may lose signatures or inputs relative to
/// the clean run, but can never invent ones the clean run does not have.
#[test]
fn fault_injected_runs_widen_but_never_flip_verdicts() {
    let design = uarch::cache::build_cache();
    let base = minicache_lw_cfg();
    let clean = synthesize_leakage(&design, &[isa::Opcode::Lw], &base);
    assert_eq!(clean.degraded_jobs, 0);
    assert!(
        !clean.signatures.is_empty(),
        "the clean minicache run must find the LW^S leak"
    );
    let mut any_degraded = false;
    for seed in [1u64, 7, 42] {
        let mut cfg = base.clone();
        cfg.robust.faults = FaultPlan::new(seed, 0.6);
        let r = synthesize_leakage(&design, &[isa::Opcode::Lw], &cfg);
        for s in &r.signatures {
            let c = clean
                .signatures
                .iter()
                .find(|c| c.transponder == s.transponder && c.src == s.src)
                .unwrap_or_else(|| panic!("seed {seed}: fault invented signature {}", s.render()));
            assert!(
                s.inputs.is_subset(&c.inputs),
                "seed {seed}: fault invented inputs in {}",
                s.render()
            );
        }
        let degraded_stats = r.mupath_stats.degraded() + r.ift_stats.degraded();
        assert_eq!(
            degraded_stats > 0,
            r.degraded_jobs > 0,
            "seed {seed}: degraded jobs and degraded stats must agree"
        );
        if r.degraded_jobs == 0 {
            assert_eq!(
                leak_fingerprint(&r),
                leak_fingerprint(&clean),
                "seed {seed}: no fault fired, so the run must be identical"
            );
        } else {
            any_degraded = true;
            assert!(
                degraded_stats >= r.degraded_jobs,
                "seed {seed}: every degraded job must book >= 1 reason"
            );
        }
    }
    assert!(
        any_degraded,
        "rate 0.6 across three seeds must inject at least one fault"
    );
}

/// Journal + resume (DESIGN.md §8): a fault-interrupted journaled run,
/// even with a torn final record (a kill mid-append), resumes to a report
/// byte-identical to an uninterrupted run.
#[test]
fn journaled_run_resumes_byte_identical_after_faults_and_torn_tail() {
    let design = uarch::cache::build_cache();
    let base = minicache_lw_cfg();
    let baseline = leak_fingerprint(&synthesize_leakage(&design, &[isa::Opcode::Lw], &base));
    // A seed whose plan spares the µPATH job but kills the IFT unit, so
    // the journal ends up holding the former and not the latter.
    let rate = 0.8;
    let seed = (0..1024u64)
        .find(|&s| {
            let p = FaultPlan::new(s, rate);
            p.fault_for_attempt("mupath", 0, 0).is_none()
                && p.fault_for_attempt("ift", 0, 0).is_some()
        })
        .expect("some seed in 0..1024 splits the phases");
    let path =
        std::env::temp_dir().join(format!("synthlc-resume-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut cfg = base.clone();
        cfg.robust.faults = FaultPlan::new(seed, rate);
        cfg.robust.journal = Some(Arc::new(Journal::create(&path).unwrap()) as Arc<dyn JobStore>);
        let r = synthesize_leakage(&design, &[isa::Opcode::Lw], &cfg);
        assert!(
            r.degraded_jobs >= 1,
            "seed {seed} must degrade the IFT unit"
        );
    }
    // Simulate a kill mid-append: a torn, newline-less record at the tail.
    let mut bytes = std::fs::read(&path).unwrap();
    let good_records = bytes.iter().filter(|&&b| b == b'\n').count();
    assert!(
        good_records >= 1,
        "the clean µPATH verdict must have been journaled"
    );
    bytes.extend_from_slice(b"{\"k\":\"torn-write");
    std::fs::write(&path, &bytes).unwrap();

    let journal = Arc::new(Journal::resume(&path).unwrap());
    assert_eq!(
        journal.len(),
        good_records,
        "torn tail dropped, good records kept"
    );
    let mut cfg = base.clone();
    cfg.robust.journal = Some(Arc::clone(&journal) as Arc<dyn JobStore>);
    let r = synthesize_leakage(&design, &[isa::Opcode::Lw], &cfg);
    assert_eq!(r.degraded_jobs, 0, "resume reruns the faulted job cleanly");
    assert!(
        r.resumed_jobs >= 1,
        "the journaled µPATH verdict must replay without solving"
    );
    assert_eq!(
        leak_fingerprint(&r),
        baseline,
        "resumed run must be byte-identical to an uninterrupted one"
    );
    std::fs::remove_file(&path).unwrap();
}

/// The Fig. 8 quick-scope sweep (the `fig8` binary's configuration),
/// parallel vs sequential. Several minutes of solving; excluded from the
/// tier-1 suite — run with `cargo test -- --ignored`, or rely on the
/// `perf` binary's `leakage_core` stage, which asserts the same equality
/// on every run.
#[test]
#[ignore = "several minutes of SAT solving; the perf binary checks this on every run"]
fn fig8_quick_scope_leakage_is_deterministic_across_worker_counts() {
    let design = build_core(&CoreConfig::default());
    let transponders = [isa::Opcode::Div, isa::Opcode::Lw, isa::Opcode::Sw];
    let cfg = LeakConfig {
        mupath: SynthConfig {
            slots: vec![0, 1],
            context: ContextMode::NoControlFlow,
            bound: 24,
            conflict_budget: Some(2_000_000),
            max_shapes: 64,
        },
        transmitters: vec![isa::Opcode::Div, isa::Opcode::Lw, isa::Opcode::Sw],
        kinds: vec![
            TxKind::Intrinsic,
            TxKind::DynamicOlder,
            TxKind::DynamicYounger,
        ],
        bound: 22,
        conflict_budget: Some(1_000_000),
        threads: 1,
        budget_pool: None,
        slot_base: 0,
        max_sources: Some(3),
        coi: true,
        static_prune: true,
        robust: Default::default(),
    };
    let mut runs = Vec::new();
    for threads in [1, 4] {
        let mut cfg = cfg.clone();
        cfg.threads = threads;
        let r = synthesize_leakage(&design, &transponders, &cfg);
        runs.push((threads, leak_fingerprint(&r)));
    }
    assert_eq!(
        runs[0].1, runs[1].1,
        "--jobs 4 produced a different fig8 quick-scope sweep than --jobs 1"
    );
}
