//! Edit-locality of the cone-granular verdict cache (DESIGN.md §14).
//!
//! Journal records are keyed by the canonical fingerprint of each
//! property's sliced cone, not by the whole-design fingerprint, so a
//! resumed run after an *in-place* edit (node ops changed, no node
//! inserted or removed — [`netlist::Netlist::with_op`]) must:
//!
//! (a) answer every cone the edit did not touch from the cache, with
//!     zero SAT conflicts spent on those cones and byte-identical
//!     verdicts/witnesses,
//! (b) re-solve exactly the cones the edit did touch, and
//! (c) converge to a report byte-identical to a fresh, journal-free run
//!     on the edited design.
//!
//! A mixed-format journal (records from the pre-cone-cache schema, plus
//! a torn tail) must degrade to cache misses, never to corruption.

use mc::JobStore;
use mupath::{synthesize_isa_with, ContextMode, EngineOptions, IsaSynthesis, SynthConfig};
use sat::BudgetPool;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use synthlc::{synthesize_leakage, Journal, LeakConfig, LeakageReport, TxKind};
use uarch::{build_tiny, Design};

/// Scheduling-independent full fingerprint of an ISA synthesis (µPATH
/// sets, witnesses, decisions, outcome accounting) — the byte-identity
/// the cache must preserve.
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

/// Same discipline for a leakage report: µPATHs, signatures, transponder
/// sets, and per-phase outcome counts.
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

/// A pinned in-place edit: flip bit 0 of a named register's reset value.
/// Node ids, names, and widths all survive, so every cone not containing
/// the register keeps its canonical fingerprint bit for bit.
fn flip_reg_init(design: &Design, reg_name: &str) -> Design {
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

fn tmp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "synthlc-cone-cache-{name}-{}.jsonl",
        std::process::id()
    ))
}

fn tiny_cfg() -> SynthConfig {
    SynthConfig {
        slots: vec![0, 1],
        context: ContextMode::Any,
        bound: 12,
        conflict_budget: Some(1_000_000),
        max_shapes: 16,
    }
}

fn tiny_opts(journal: Option<Arc<Journal>>, pool: Option<Arc<BudgetPool>>) -> EngineOptions {
    let mut opts = EngineOptions {
        threads: 2,
        budget_pool: pool,
        robust: Default::default(),
    };
    opts.robust.journal = journal.map(|j| j as Arc<dyn JobStore>);
    opts
}

/// TinyCore µPATH synthesis, full edit-locality cycle:
///
/// 1. warm resume with no edit → every slot cone replays, zero conflicts;
/// 2. an edit *outside every query cone* (the writeback result register
///    `wb_res` is pure data — no monitor, assume, or IUV signal depends
///    on it) → still every cone replays, zero conflicts, even though the
///    design fingerprint changed;
/// 3. an edit *inside* the query cones (the `ex_valid` occupancy bit
///    drives the performing-location monitors) → every slot cone
///    re-solves, and the resumed run matches a fresh run byte for byte.
#[test]
fn tinycore_mupath_cache_is_cone_granular_under_inplace_edits() {
    let design = build_tiny();
    let ops = design.isa.clone();
    let cfg = tiny_cfg();
    let total_jobs = (ops.len() * cfg.slots.len()) as u64;
    let path = tmp_journal("tiny");
    let _ = std::fs::remove_file(&path);

    // Cold journaled run.
    let journal = Arc::new(Journal::create(&path).unwrap());
    let cold = synthesize_isa_with(&design, &ops, &cfg, &tiny_opts(Some(journal), None));
    assert_eq!(cold.degraded_jobs, 0);
    assert_eq!(cold.resumed_jobs, 0, "nothing to resume on a fresh journal");
    assert_eq!(cold.cone_misses, total_jobs, "every cone solved cold");
    let baseline = isa_fingerprint(&cold);

    // 1. Warm resume, no edit: all hits, zero conflicts.
    let pool = Arc::new(BudgetPool::new(None));
    let journal = Arc::new(Journal::resume(&path).unwrap());
    let warm = synthesize_isa_with(
        &design,
        &ops,
        &cfg,
        &tiny_opts(Some(journal), Some(Arc::clone(&pool))),
    );
    assert_eq!(warm.resumed_jobs, total_jobs, "every slot cone replays");
    assert_eq!(warm.cone_misses, 0);
    assert_eq!(pool.conflicts(), 0, "a full replay spends no SAT conflicts");
    assert_eq!(isa_fingerprint(&warm), baseline, "replay is byte-identical");

    // 2. Out-of-cone edit: wb_res carries result *data*; the µPATH query
    // universe (monitors, assumes, IUV state) never reads it, so its
    // cone fingerprint survives the edit and the whole run still replays.
    let data_edit = flip_reg_init(&design, "wb_res");
    let pool = Arc::new(BudgetPool::new(None));
    let journal = Arc::new(Journal::resume(&path).unwrap());
    let warm = synthesize_isa_with(
        &data_edit,
        &ops,
        &cfg,
        &tiny_opts(Some(journal), Some(Arc::clone(&pool))),
    );
    assert_eq!(
        warm.resumed_jobs, total_jobs,
        "an edit outside every query cone must not invalidate any record"
    );
    assert_eq!(warm.cone_misses, 0);
    assert_eq!(pool.conflicts(), 0, "untouched cones cost zero conflicts");
    assert_eq!(
        isa_fingerprint(&warm),
        baseline,
        "out-of-cone data edit leaves every verdict and witness bit-identical"
    );

    // 3. In-cone edit: ex_valid drives the location monitors, so every
    // slot cone changes. The stale records must be bypassed and the
    // resumed run must equal a fresh journal-free run on the edit.
    let control_edit = flip_reg_init(&design, "ex_valid");
    let fresh = synthesize_isa_with(&control_edit, &ops, &cfg, &tiny_opts(None, None));
    let journal = Arc::new(Journal::resume(&path).unwrap());
    let warm = synthesize_isa_with(&control_edit, &ops, &cfg, &tiny_opts(Some(journal), None));
    assert_eq!(warm.resumed_jobs, 0, "touched cones must not replay");
    assert_eq!(warm.cone_misses, total_jobs, "touched cones re-solve");
    assert_eq!(
        isa_fingerprint(&warm),
        isa_fingerprint(&fresh),
        "resumed run on the edited design equals a fresh run"
    );

    std::fs::remove_file(&path).unwrap();
}

/// The minicache LW leak query (the §VII-A2 experiment), same shape as
/// `tests/parallel_determinism.rs`.
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

/// The full leakage pipeline on minicache, both halves of edit locality:
///
/// 1. a one-bit edit to the response *data* register (`rsp_data`, pure
///    payload — no µPATH monitor, assume, or IFT cover cone contains it)
///    → every journaled cone replays, zero SAT conflicts, report
///    byte-identical to a fresh run on the edited design;
/// 2. a one-bit edit to a cache-line *valid* bit's reset value
///    (`val0_0`, occupancy state every hit/miss query depends on) →
///    the touched cones re-solve and the resumed run converges to the
///    fresh report byte for byte.
#[test]
fn minicache_leak_replays_untouched_cones_after_a_data_edit() {
    let design = uarch::cache::build_cache();
    let base = minicache_lw_cfg();
    let path = tmp_journal("minicache");
    let _ = std::fs::remove_file(&path);

    // Cold journaled run on the original design.
    let mut cfg = base.clone();
    cfg.robust.journal = Some(Arc::new(Journal::create(&path).unwrap()) as Arc<dyn JobStore>);
    let cold = synthesize_leakage(&design, &[isa::Opcode::Lw], &cfg);
    assert_eq!(cold.degraded_jobs, 0);
    assert!(
        !cold.signatures.is_empty(),
        "the clean minicache run must find the LW^S leak"
    );
    assert!(cold.cone_misses > 1, "cold run solves µPATH and IFT cones");
    let total = cold.cone_misses;

    // 1. Out-of-cone edit: response payload.
    let payload_edit = flip_reg_init(&design, "rsp_data");
    let fresh = synthesize_leakage(&payload_edit, &[isa::Opcode::Lw], &base);
    assert_eq!(fresh.degraded_jobs, 0);

    let mut cfg = base.clone();
    let pool = Arc::new(BudgetPool::new(None));
    cfg.budget_pool = Some(Arc::clone(&pool));
    cfg.robust.journal = Some(Arc::new(Journal::resume(&path).unwrap()) as Arc<dyn JobStore>);
    let warm = synthesize_leakage(&payload_edit, &[isa::Opcode::Lw], &cfg);
    assert_eq!(
        warm.resumed_jobs, total,
        "no queried cone reads rsp_data, so every record must replay"
    );
    assert_eq!(warm.cone_misses, 0);
    assert_eq!(
        pool.conflicts(),
        0,
        "untouched cones are discharged from cache with zero SAT conflicts"
    );
    assert_eq!(
        leak_fingerprint(&warm),
        leak_fingerprint(&fresh),
        "warm re-verification of the edited design equals a fresh run byte for byte"
    );

    // 2. In-cone edit: a line starts out valid at reset, which every
    // hit/miss timing query and every occupancy cover can see.
    let state_edit = flip_reg_init(&design, "val0_0");
    let fresh = synthesize_leakage(&state_edit, &[isa::Opcode::Lw], &base);
    let mut cfg = base.clone();
    cfg.robust.journal = Some(Arc::new(Journal::resume(&path).unwrap()) as Arc<dyn JobStore>);
    let warm = synthesize_leakage(&state_edit, &[isa::Opcode::Lw], &cfg);
    assert!(
        warm.cone_misses >= 1,
        "cones containing val0_0 must re-solve, not replay stale verdicts"
    );
    assert_eq!(
        leak_fingerprint(&warm),
        leak_fingerprint(&fresh),
        "resumed run on the occupancy edit equals a fresh run"
    );

    std::fs::remove_file(&path).unwrap();
}

/// A replay with every cone on file builds no solver context: no netlist
/// is elaborated, so no frame is built or extended. Contexts are built by
/// the first cache miss of their chain (DESIGN.md §12), and one thread
/// runs everything, so the calling thread's elaboration count sees all.
#[test]
fn fully_journaled_leak_replay_builds_no_context() {
    let design = uarch::cache::build_cache();
    let path = tmp_journal("no-context");
    let _ = std::fs::remove_file(&path);
    let mut cfg = minicache_lw_cfg();
    cfg.threads = 1;
    cfg.robust.journal = Some(Arc::new(Journal::create(&path).unwrap()) as Arc<dyn JobStore>);
    let before = mc::elaborations_on_this_thread();
    let cold = synthesize_leakage(&design, &[isa::Opcode::Lw], &cfg);
    assert!(
        mc::elaborations_on_this_thread() > before,
        "the cold run builds its contexts"
    );
    cfg.robust.journal = Some(Arc::new(Journal::resume(&path).unwrap()) as Arc<dyn JobStore>);
    let before = mc::elaborations_on_this_thread();
    let warm = synthesize_leakage(&design, &[isa::Opcode::Lw], &cfg);
    assert_eq!((warm.resumed_jobs, warm.cone_misses), (cold.cone_misses, 0));
    assert_eq!(
        mc::elaborations_on_this_thread(),
        before,
        "a fully journaled replay elaborates nothing"
    );
    assert_eq!(leak_fingerprint(&warm), leak_fingerprint(&cold));
    std::fs::remove_file(&path).unwrap();
}

/// Journal schema migration: records written by the pre-cone-cache
/// format (`"v":1`, whole-design keys) must read back as cache misses —
/// the affected cones re-solve and the run converges — never as
/// corruption. A torn tail on the same file must keep being truncated
/// exactly as before.
#[test]
fn old_format_journal_records_resume_as_misses_not_corruption() {
    let design = build_tiny();
    let ops = design.isa.clone();
    let cfg = tiny_cfg();
    let total_jobs = (ops.len() * cfg.slots.len()) as u64;
    let path = tmp_journal("mixed-format");
    let _ = std::fs::remove_file(&path);

    let journal = Arc::new(Journal::create(&path).unwrap());
    let cold = synthesize_isa_with(&design, &ops, &cfg, &tiny_opts(Some(journal), None));
    let baseline = isa_fingerprint(&cold);

    // Downgrade the first record to the legacy schema. Journal lines are
    // checksummed (a raw byte edit would read as a torn line, which is
    // the *other* failure mode) and `put` keeps the first record for a
    // key, so the rewrite rebuilds the file through the journal API:
    // every record re-written in order, the first one swapped for its
    // `"v":1` twin. Then tear the tail mid-append on top.
    let text = std::fs::read_to_string(&path).unwrap();
    let records: Vec<(String, String)> = text
        .lines()
        .map(|l| {
            let line = jsonio::Json::parse(l).expect("journal lines are JSON");
            (
                line.field("k").unwrap().as_str().unwrap().to_owned(),
                line.field("r").unwrap().as_str().unwrap().to_owned(),
            )
        })
        .collect();
    assert!(!records.is_empty(), "journal has records");
    let legacy = records[0].1.replacen("\"v\":2,", "\"v\":1,", 1);
    assert_ne!(
        legacy, records[0].1,
        "the schema version must be in the record"
    );
    {
        let journal = Journal::create(&path).unwrap();
        for (i, (key, record)) in records.iter().enumerate() {
            journal.put(key, if i == 0 { &legacy } else { record });
        }
        journal.append_raw(b"{\"k\":\"mupath:torn");
    }

    let journal = Arc::new(Journal::resume(&path).unwrap());
    let warm = synthesize_isa_with(
        &design,
        &ops,
        &cfg,
        &tiny_opts(Some(Arc::clone(&journal)), None),
    );
    // The legacy record belongs to one slot group; group-atomic replay
    // re-solves that whole slot and replays the other.
    assert!(
        warm.cone_misses >= 1,
        "the legacy-format record must read as a miss"
    );
    assert!(
        warm.resumed_jobs >= 1,
        "intact v2 records must keep replaying"
    );
    assert_eq!(
        warm.resumed_jobs + warm.cone_misses,
        total_jobs,
        "every job is either a hit or a miss"
    );
    assert_eq!(
        isa_fingerprint(&warm),
        baseline,
        "a mixed-format journal converges to the same report"
    );
    std::fs::remove_file(&path).unwrap();
}
