//! RTL2MµPATH: multi-µPATH synthesis from RTL (the paper's first
//! contribution, §III and §V-B).
//!
//! Given an annotated design ([`uarch::Design`]: netlist + µFSM/IFR/commit
//! metadata), this crate finds a complete set of formally verified µPATHs
//! for each instruction:
//!
//! ```text
//! design ──► IuvHarness (visit monitors, §III-C) ──► Checker (BMC covers)
//!        ──► µPATH shapes + concrete witnesses ──► decisions (§IV-B)
//! ```
//!
//! Entry points:
//! * [`duv_pl_reachability`] — §V-B1 (design-wide PL pruning),
//! * [`synthesize_instr`] — §V-B2..5 (per-instruction µPATH enumeration,
//!   decisions, HB edges),
//! * [`dom_excl_relations`] — §V-B3 (dominates/exclusive cover templates),
//! * [`enumerate_revisit_counts`] — §V-B6 (e.g. divider occupancy range),
//! * [`synthesize_isa_with`] — the whole-ISA driver used by SynthLC.

mod harness;
mod synth;

pub use harness::{
    build_harness, build_harness_multi, ContextMode, HarnessConfig, IuvHarness, PlMonitors,
};
pub use synth::{
    class_view, dom_excl_relations, duv_pl_reachability, enumerate_revisit_counts,
    synthesize_instr, DomExclRelations, DuvPlReport, InstrSynthesis, SynthConfig,
};

use isa::Opcode;
use mc::{CheckStats, FaultKind, FaultPlan, JobStore, UndeterminedReason};
use sat::{BudgetPool, CancelToken};
use std::sync::Arc;
use uarch::Design;

/// Robustness knobs shared by the whole-ISA driver here and by SynthLC's
/// leakage driver (DESIGN.md §8). The default — no token, inactive fault
/// plan, no journal — adds no work and no nondeterminism to a run.
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
    /// How many times a transiently failed job (panic, injected fault,
    /// deadline, budget exhaustion) is rerun before its degraded verdict
    /// stands. Retries run sequentially on the coordinating thread in
    /// job order, so any worker count retries the same jobs in the same
    /// order. `0` (the default) keeps the single-shot behaviour.
    pub retries: u32,
}

impl RobustOptions {
    /// Whether any robustness machinery is switched on.
    pub fn is_active(&self) -> bool {
        self.cancel.is_some()
            || self.faults.is_active()
            || self.journal.is_some()
            || self.retries > 0
    }
}

/// Options for the parallel property-evaluation engine, shared by the
/// whole-ISA driver here and by SynthLC's leakage driver.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// Worker threads; `0` selects [`mc::default_threads`] (the
    /// `SYNTHLC_THREADS` environment knob, falling back to the machine's
    /// available parallelism).
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
            mc::default_threads()
        } else {
            self.threads
        }
    }
}

/// A stable fingerprint of a whole design, so a verdict keyed by it can
/// never answer for another revision: FNV-1a over the design's canonical
/// `.nl` text ([`uarch::frontend::design_to_text`]), which carries its
/// name, netlist, `annotations` and `harness` blocks — every input a
/// verdict depends on.
pub fn design_fingerprint(design: &Design) -> u64 {
    netlist::Fnv::new()
        .bytes(uarch::frontend::design_to_text(design).as_bytes())
        .finish()
}

/// Whole-ISA synthesis results.
#[derive(Clone, Debug)]
pub struct IsaSynthesis {
    /// Per-instruction results, in the order requested.
    pub instrs: Vec<InstrSynthesis>,
    /// Aggregate property statistics (the §VII-B3 accounting).
    pub stats: CheckStats,
    /// Jobs that degraded to an undetermined stand-in (panic, injected
    /// fault, or deadline) instead of completing.
    pub degraded_jobs: u64,
    /// Jobs replayed from the checkpoint journal instead of running.
    /// Records are keyed by canonical cone fingerprint, so these are
    /// *cone cache hits*: slots whose query cone (and knobs) matched a
    /// journaled verdict, including across design edits outside the cone.
    pub resumed_jobs: u64,
    /// Cone cache misses: jobs that had to solve because no cone-keyed
    /// record matched. Zero when no journal is configured (a run without
    /// a cache has no misses, only work).
    pub cone_misses: u64,
    /// Retry attempts spent recovering transiently failed jobs
    /// ([`RobustOptions::retries`]); counts attempts, not jobs, so two
    /// reruns of one job add two.
    pub retried_jobs: u64,
}

impl IsaSynthesis {
    /// The candidate transponders (>1 µPATH, §V-C).
    pub fn candidate_transponders(&self) -> Vec<Opcode> {
        self.instrs
            .iter()
            .filter(|i| i.is_candidate_transponder())
            .map(|i| i.opcode)
            .collect()
    }
}

/// The whole-ISA driver over the parallel property-evaluation engine: runs
/// [`synthesize_instr`]'s enumeration for each requested instruction.
///
/// The job queue holds one job per (instruction, fetch slot), but jobs do
/// not own their solver: one multi-opcode harness is built per fetch slot
/// (the monitor logic is opcode-independent), and every opcode's
/// enumeration on that slot shares one persistent checker. The slot's
/// jobs form one context chain ([`mc::run_chains`]): they run in job
/// order on one worker, so the solver sees an identical query stream for
/// every worker count and results merge byte-identically (the
/// `tests/parallel_determinism.rs` bar); learnt clauses and the unrolled
/// transition relation carry across the whole fleet.
///
/// Journal resume is *group-atomic* per slot: a slot's cached verdicts are
/// only replayed when every opcode of that slot is cached, and then the
/// slot builds no checker at all. A partial replay would make the shared
/// solver's clause state depend on which subset resumed — trading a
/// little resume coverage for determinism.
pub fn synthesize_isa_with(
    design: &Design,
    ops: &[Opcode],
    cfg: &SynthConfig,
    opts: &EngineOptions,
) -> IsaSynthesis {
    let threads = opts.effective_threads();
    let robust = &opts.robust;
    if ops.is_empty() {
        return IsaSynthesis {
            instrs: Vec::new(),
            stats: CheckStats::default(),
            degraded_jobs: 0,
            resumed_jobs: 0,
            cone_misses: 0,
            retried_jobs: 0,
        };
    }
    // One shared harness per fetch slot; all opcodes ride on it.
    let harnesses: Vec<IuvHarness> = cfg
        .slots
        .iter()
        .map(|&slot| build_harness_multi(design, ops, slot, cfg.context))
        .collect();
    // PL table / classes / HB-edge candidates are opcode- and
    // slot-independent; compute them once for the whole run.
    let meta = match harnesses.first() {
        Some(h) => synth::slot_meta(design, h),
        None => {
            let h = build_harness_multi(design, ops, 0, cfg.context);
            synth::slot_meta(design, &h)
        }
    };
    let free_regs: Vec<netlist::SignalId> = {
        let ann = &design.annotations;
        ann.arf.iter().chain(ann.amem.iter()).copied().collect()
    };
    // The slot-wide query cone: everything the enumeration consumes. The
    // canonical fingerprint of this cone (with the free registers, whose
    // symbolic init is part of the query) keys the journal records, so an
    // edit outside a slot's cone does not invalidate its cached verdicts.
    let slot_targets: Vec<Vec<netlist::SignalId>> =
        harnesses.iter().map(slot_query_universe).collect();
    let cone_fps: Vec<mc::ConeFingerprint> = harnesses
        .iter()
        .zip(&slot_targets)
        .map(|(h, t)| mc::ConeFingerprint::compute(&h.netlist, t, &free_regs))
        .collect();
    // Resolve journal hits on the coordinating thread so `resumed_jobs` is
    // counted before workers start. Atomic per slot group: either every
    // opcode of a slot replays, or the whole slot reruns.
    let mut resumed_jobs = 0u64;
    let keys_json: Vec<Vec<Option<String>>> = (0..cfg.slots.len())
        .map(|si| {
            (0..ops.len())
                .map(|oi| {
                    robust
                        .journal
                        .as_ref()
                        .map(|_| slot_job_key(cone_fps[si], ops[oi], cfg.slots[si], cfg))
                })
                .collect()
        })
        .collect();
    let cached_groups: Vec<Option<Vec<synth::SlotSynthesis>>> = (0..cfg.slots.len())
        .map(|si| {
            let journal = robust.journal.as_deref()?;
            let group: Option<Vec<synth::SlotSynthesis>> = (0..ops.len())
                .map(|oi| {
                    let k = keys_json[si][oi].as_deref()?;
                    synth::SlotSynthesis::decode(&journal.get(k)?)
                })
                .collect();
            if group.is_some() {
                resumed_jobs += ops.len() as u64;
            }
            group
        })
        .collect();
    let jobs: Vec<(usize, usize)> = ops
        .iter()
        .enumerate()
        .flat_map(|(oi, _)| (0..cfg.slots.len()).map(move |si| (oi, si)))
        .collect();
    // A slot's uncached jobs chain on the slot's checker.
    let chain_of: Vec<Option<usize>> = jobs
        .iter()
        .map(|&(_, si)| cached_groups[si].is_none().then_some(si))
        .collect();
    let retries = mc::Retries {
        max: robust.retries,
        cancel: robust.cancel.as_deref(),
        degraded: |s: &synth::SlotSynthesis| s.stats.degraded() > 0,
    };
    let (results, retried_jobs) =
        mc::run_chains(&chain_of, threads, retries, |ix, attempt, ctx| {
            let (oi, si) = jobs[ix];
            if let Some(group) = &cached_groups[si] {
                return group[oi].clone();
            }
            let fault = robust.faults.fault_for_attempt("mupath", ix, attempt);
            let ctx = ctx.get_or_insert_with(|| {
                // Slice to the slot-wide query cone. Sound here even though
                // the shape loop consumes witness data: every consumed signal
                // (covers, assumes, signature bits, `visit_now` monitors) is
                // a slice target, so the projection onto them is exact — and
                // the sliced CNF is a pure function of the cone, which is
                // what makes cone-keyed journal replays witness-identical to
                // fresh solves after an out-of-cone edit (`DESIGN.md` §14).
                let elab = Arc::new(mc::Elab::new(&harnesses[si].netlist));
                let coi = Arc::new(mc::CoiSlice::compute(
                    &harnesses[si].netlist,
                    &slot_targets[si],
                ));
                let mut c = mc::Checker::with_coi(
                    &harnesses[si].netlist,
                    mc::McConfig {
                        bound: 0,
                        ..cfg.mc_config()
                    },
                    &free_regs,
                    elab,
                    Some(coi),
                );
                if let Some(p) = &opts.budget_pool {
                    c.set_budget_pool(Arc::clone(p));
                }
                if let Some(token) = &robust.cancel {
                    c.set_cancel_token(Arc::clone(token));
                }
                c
            });
            ctx.begin_batch();
            ctx.ensure_bound(cfg.bound);
            // An injected panic discards the checker; the slot's next opcode
            // deterministically rebuilds it.
            if fault == Some(FaultKind::Panic) {
                panic!("injected fault: panic in mupath job {ix}");
            }
            match fault {
                Some(FaultKind::ForceUnknown) => ctx.set_fault(UndeterminedReason::FaultInjected),
                Some(FaultKind::DeadlineExpired) => ctx.set_fault(UndeterminedReason::Deadline),
                _ => {}
            }
            let r = synth::enumerate_slot(&harnesses[si], ops[oi], ctx, cfg);
            // Only clean verdicts are journaled: degraded jobs must rerun on
            // resume so an interrupted faulty run can still converge to the
            // uninterrupted result.
            if fault.is_none() && r.stats.degraded() == 0 {
                if let (Some(j), Some(k)) =
                    (robust.journal.as_deref(), keys_json[si][oi].as_deref())
                {
                    j.put(k, &r.encode());
                }
            }
            r
        });
    let mut degraded_jobs = 0u64;
    let mut results = results.into_iter();
    let mut instrs = Vec::new();
    let mut stats = CheckStats::default();
    for &op in ops {
        let slots: Vec<synth::SlotSynthesis> = results
            .by_ref()
            .take(cfg.slots.len())
            .map(|r| match r {
                Ok(s) => {
                    if s.stats.degraded() > 0 {
                        degraded_jobs += 1;
                    }
                    s
                }
                Err(_) => {
                    degraded_jobs += 1;
                    synth::SlotSynthesis::degraded(UndeterminedReason::JobPanicked)
                }
            })
            .collect();
        let r = synth::assemble_instr(op, slots, &meta);
        stats.absorb(&r.stats);
        instrs.push(r);
    }
    let cone_misses = if robust.journal.is_some() {
        jobs.len() as u64 - resumed_jobs
    } else {
        0
    };
    IsaSynthesis {
        instrs,
        stats,
        degraded_jobs,
        resumed_jobs,
        cone_misses,
        retried_jobs,
    }
}

/// The slot-wide query universe: every harness signal the µPATH shape
/// enumeration can reference — the done cover, the opcode-independent and
/// per-opcode assumes, and all monitor bits (the signature bits blocked
/// per shape plus the `visit_now` bits the witness extraction reads).
/// The cone of this set is the slot's verdict-determining region.
fn slot_query_universe(h: &IuvHarness) -> Vec<netlist::SignalId> {
    let mut t = vec![h.iuv_done, h.iuv_seen, h.iuv_pc];
    t.extend_from_slice(&h.assumes);
    t.extend(h.op_assumes.iter().map(|&(_, s)| s));
    for m in &h.monitors {
        t.extend([m.visit_now, m.visited, m.multi, m.noncons]);
    }
    t
}

/// The stable journal key of one (instruction, fetch-slot) job: the
/// slot's canonical cone fingerprint plus every configuration knob that
/// can change the verdict. Keying on the *cone* (not the whole design)
/// means a design edit outside the slot's cone leaves its cached
/// verdicts valid — see `DESIGN.md` §14.
fn slot_job_key(
    cone_fp: mc::ConeFingerprint,
    op: Opcode,
    slot: usize,
    cfg: &SynthConfig,
) -> String {
    format!(
        "mupath:{cone_fp}:{op:?}:{slot}:{:?}:{}:{:?}:{}",
        cfg.context, cfg.bound, cfg.conflict_budget, cfg.max_shapes
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_fingerprint_covers_annotations_and_harness() {
        let base = uarch::build_tiny();
        let fp = design_fingerprint(&base);
        assert_eq!(design_fingerprint(&base.clone()), fp);
        let mut annotations_only = base.clone();
        annotations_only.annotations.ufsms.pop();
        assert_ne!(design_fingerprint(&annotations_only), fp, "annotations");
        let mut harness_only = base.clone();
        harness_only.max_latency += 1;
        assert_ne!(design_fingerprint(&harness_only), fp, "harness");
    }
}
