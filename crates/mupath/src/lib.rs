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
    build_harness, build_harness_multi, fetch_counter, for_each_pl, no_control_flow, opcode_field,
    ContextMode, HarnessConfig, IuvHarness, PlClasses, PlMonitors, Tracker,
};
pub use mc::{EngineOptions, RobustOptions};
pub use synth::{
    dom_excl_relations, duv_pl_reachability, enumerate_revisit_counts, synthesize_instr,
    DomExclRelations, DuvPlReport, InstrSynthesis, SynthConfig,
};

use isa::Opcode;
use mc::CheckStats;
use uarch::Design;

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
#[derive(Clone, Debug, Default)]
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
/// jobs form one context chain of the job runner ([`mc::Fleet`]): they
/// run in job order on one worker, so the solver sees an identical query
/// stream for every worker count and results merge byte-identically (the
/// `tests/parallel_determinism.rs` bar); learnt clauses and the unrolled
/// transition relation carry across the whole fleet.
///
/// Journal resume is chain-wide ([`mc::Replay::Chain`]): a slot's cached
/// verdicts are only replayed when every opcode of that slot is cached,
/// and then the slot builds no checker at all. A partial replay would make
/// the shared solver's clause state depend on which subset resumed —
/// trading a little resume coverage for determinism.
pub fn synthesize_isa_with(
    design: &Design,
    ops: &[Opcode],
    cfg: &SynthConfig,
    opts: &EngineOptions,
) -> IsaSynthesis {
    if ops.is_empty() {
        return IsaSynthesis::default();
    }
    // One shared harness per fetch slot; all opcodes ride on it.
    let harnesses: Vec<IuvHarness> = cfg
        .slots
        .iter()
        .map(|&slot| build_harness_multi(design, ops, slot, cfg.context))
        .collect();
    // PL table / classes / HB-edge candidates are opcode- and
    // slot-independent; compute them once for the whole run.
    let meta = synth::slot_meta(design);
    let free_regs = design.annotations.arch_state();
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
    let jobs: Vec<(usize, usize)> = (0..ops.len())
        .flat_map(|oi| (0..cfg.slots.len()).map(move |si| (oi, si)))
        .collect();
    let fleet = mc::Fleet {
        phase: "mupath",
        // Slice to the slot-wide query cone. Sound here even though the
        // shape loop consumes witness data: every consumed signal (covers,
        // assumes, signature bits, `visit_now` monitors) is a slice target,
        // so the projection onto them is exact — and the sliced CNF is a
        // pure function of the cone, which is what makes cone-keyed journal
        // replays witness-identical to fresh solves after an out-of-cone
        // edit (`DESIGN.md` §14).
        chains: harnesses
            .iter()
            .zip(&slot_targets)
            .map(|(h, t)| mc::ChainNet {
                netlist: &h.netlist,
                coi: Some(t),
            })
            .collect(),
        free: &free_regs,
        mc: cfg.mc_config(),
        replay: mc::Replay::Chain,
    };
    let chain_of: Vec<usize> = jobs.iter().map(|&(_, si)| si).collect();
    let run = fleet.run(
        &chain_of,
        |ix| {
            let (oi, si) = jobs[ix];
            slot_job_key(cone_fps[si], ops[oi], cfg.slots[si], cfg)
        },
        opts,
        |ix, checker| {
            let (oi, si) = jobs[ix];
            synth::enumerate_slot(&harnesses[si], ops[oi], checker, cfg)
        },
    );
    let mut results = run.results.into_iter();
    let mut instrs = Vec::new();
    let mut stats = CheckStats::default();
    for &op in ops {
        let slots = results.by_ref().take(cfg.slots.len()).collect();
        let r = synth::assemble_instr(op, slots, &meta);
        stats.absorb(&r.stats);
        instrs.push(r);
    }
    IsaSynthesis {
        instrs,
        stats,
        degraded_jobs: run.degraded_jobs,
        resumed_jobs: run.resumed_jobs,
        cone_misses: run.cone_misses,
        retried_jobs: run.retried_jobs,
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
