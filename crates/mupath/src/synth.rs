//! The RTL2MµPATH synthesis procedures (§V-B).
//!
//! Phases, mirroring Fig. 6:
//!
//! 1. [`duv_pl_reachability`] — which PLs are reachable by *any* instruction
//!    (§V-B1): plain cover properties on the un-harnessed design.
//! 2. Per IUV: [`synthesize_instr`] — enumerate every µPATH *shape*
//!    (reachable PL set + revisit classification, §V-B2–§V-B4). The paper
//!    prunes a candidate powerset with dominates/exclusive covers and then
//!    checks each candidate set; with an incremental SAT backend the same
//!    enumeration is done directly: each satisfying execution yields a
//!    shape, whose signature (visited/multi/non-consecutive bits at the
//!    final frame) is then blocked, until the cover becomes unreachable —
//!    same outcome set, one solver. The §V-B3 dominates/exclusive relations
//!    remain available via [`dom_excl_relations`] (they feed the §VII-B3
//!    property accounting and the HB-edge filter).
//! 3. HB edges (§V-B5): candidate edges are PL pairs whose µFSMs are
//!    connected by pure combinational logic; candidates are confirmed
//!    against the enumerated witnesses.
//! 4. [`enumerate_revisit_counts`] — the optional §V-B6 revisit-cycle-count
//!    enumeration (e.g. the DIV latency range).

use crate::harness::{build_harness, ContextMode, HarnessConfig, IuvHarness};
use isa::Opcode;
use mc::{CheckStats, Checker, McConfig, Outcome, UndeterminedReason};
use netlist::analysis::next_state_sources;
use netlist::{Builder, SignalId};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use uarch::Design;
use uhb::{decisions_of_paths, ConcretePath, Decision, MuPath, PlId, PlTable};

/// Synthesis parameters.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Fetch slots to explore (IUV position among context instructions).
    pub slots: Vec<usize>,
    /// Context restriction.
    pub context: ContextMode,
    /// BMC bound (cycles from reset); must cover fetch-to-drain latency of
    /// the IUV in the deepest slot.
    pub bound: usize,
    /// SAT conflict budget per property.
    pub conflict_budget: Option<u64>,
    /// Safety cap on enumerated shapes per (instruction, slot).
    pub max_shapes: usize,
}

impl SynthConfig {
    /// The front ends' defaults for a design (the CLI's `paths`/`leak` and
    /// the daemon's jobs): slots 0 and 1; a no-control-flow context, or
    /// any context for request-driven DUVs with their own type encoding;
    /// a bound covering fetch-to-drain latency (capped at 16) plus 8.
    pub fn for_design(design: &Design) -> Self {
        Self {
            slots: vec![0, 1],
            context: if design.type_values.is_empty() {
                ContextMode::NoControlFlow
            } else {
                ContextMode::Any
            },
            bound: design.max_latency.min(16) + 8,
            conflict_budget: Some(2_000_000),
            max_shapes: 64,
        }
    }

    /// The artifact's quick mode: the IUV alone, right after reset.
    pub fn solo(design: &Design) -> Self {
        Self {
            slots: vec![0],
            context: ContextMode::Solo,
            bound: design.max_latency.min(18) + 6,
            conflict_budget: Some(4_000_000),
            max_shapes: 64,
        }
    }

    pub(crate) fn mc_config(&self) -> McConfig {
        McConfig {
            bound: self.bound,
            conflict_budget: self.conflict_budget,
            bound_is_complete: true,
            try_induction: false,
            induction_depth: 0,
        }
    }
}

/// The synthesized result for one instruction.
#[derive(Clone, Debug)]
pub struct InstrSynthesis {
    /// The instruction.
    pub opcode: Opcode,
    /// Every distinct µPATH shape found, with HB edges filled in.
    pub paths: Vec<MuPath>,
    /// One concrete witness execution per shape (cycle-aligned to the first
    /// visit).
    pub concrete: Vec<ConcretePath>,
    /// Decisions at PL granularity (§IV-B).
    pub decisions: Vec<Decision>,
    /// Decisions at µFSM-class granularity (structurally identical µFSMs
    /// such as scoreboard entries merged; the granularity of Fig. 8).
    pub class_decisions: Vec<Decision>,
    /// `false` when a budget ran out and the shape set may be incomplete
    /// (§VII-B4's undetermined discussion).
    pub complete: bool,
    /// Property-evaluation statistics (§VII-B3).
    pub stats: CheckStats,
}

impl InstrSynthesis {
    /// Whether this instruction is a *candidate transponder*: more than one
    /// µPATH (§V, "instructions with more than one µPATH are candidate
    /// transponders").
    pub fn is_candidate_transponder(&self) -> bool {
        self.paths.len() > 1
    }
}

/// A PL-level reachability report for the whole design (§V-B1).
#[derive(Clone, Debug)]
pub struct DuvPlReport {
    /// The PL label table.
    pub pls: PlTable,
    /// Reachable flags per PL (true = some instruction can occupy it).
    pub reachable: Vec<bool>,
    /// Checker statistics.
    pub stats: CheckStats,
}

/// §V-B1: enumerate feasible PLs and prune the unreachable ones with cover
/// properties on the raw design.
pub fn duv_pl_reachability(design: &Design, cfg: &SynthConfig) -> DuvPlReport {
    let ann = &design.annotations;
    let mut b = Builder::from_netlist(design.netlist.clone());
    let mut pls = PlTable::new();
    let mut occupied_sigs = Vec::new();
    for ufsm in &ann.ufsms {
        for st in ufsm.candidate_states(&design.netlist) {
            pls.add(st.name.clone());
            let mut state_match = b.one();
            for (vi, &var) in ufsm.vars.iter().enumerate() {
                let vw = b.wire(var);
                let m = b.eq_const(vw, st.state.0[vi]);
                state_match = b.and(state_match, m);
            }
            let named = b.name(state_match, &format!("occ_{}", st.name));
            occupied_sigs.push(named.id);
        }
    }
    let netlist = b.finish().expect("monitored netlist is valid");
    // Boolean-outcome query: slice to the occupancy monitors' cone (verdict-
    // preserving — no witness data is consumed here).
    let elab = std::sync::Arc::new(mc::Elab::new(&netlist));
    let coi = std::sync::Arc::new(mc::CoiSlice::compute(&netlist, &occupied_sigs));
    let mut checker = Checker::with_coi(
        &netlist,
        cfg.mc_config(),
        &arch_free_regs(design),
        elab,
        Some(coi),
    );
    let reachable = occupied_sigs
        .iter()
        .map(|&sig| checker.check_cover(sig, &[]).is_reachable())
        .collect();
    DuvPlReport {
        pls,
        reachable,
        stats: checker.stats(),
    }
}

/// The architectural state of a design: registers whose reset value is
/// symbolic (§V-B: "only architectural state is symbolically initialized").
fn arch_free_regs(design: &Design) -> Vec<SignalId> {
    let ann = &design.annotations;
    ann.arf.iter().chain(ann.amem.iter()).copied().collect()
}

/// The per-PL shape signature read from a witness at the final frame.
type Signature = Vec<(bool, bool, bool)>;

fn signature_bits(harness: &IuvHarness) -> Vec<SignalId> {
    harness
        .monitors
        .iter()
        .flat_map(|m| [m.visited, m.multi, m.noncons])
        .collect()
}

/// Extracts the IUV's concrete path from a witness trace, cycle-aligned to
/// its first PL visit.
fn extract_path(harness: &IuvHarness, trace: &mc::Trace) -> ConcretePath {
    let mut first: Option<usize> = None;
    let mut visits: Vec<(PlId, usize)> = Vec::new();
    for t in 0..trace.len() {
        for pl in harness.pls.ids() {
            if trace.value(t, harness.monitors(pl).visit_now) != 0 {
                first.get_or_insert(t);
                visits.push((pl, t));
            }
        }
    }
    let base = first.unwrap_or(0);
    let mut path = ConcretePath::new();
    for (pl, t) in visits {
        path.visit(pl, t - base);
    }
    path
}

/// Per-instruction metadata shared by every slot of one instruction,
/// computed once (by the first slot's job).
pub(crate) struct SlotMeta {
    pls: PlTable,
    classes: Vec<String>,
    candidates: BTreeSet<(PlId, PlId)>,
}

/// Computes [`SlotMeta`] from any harness over `design`. The PL table,
/// class labels, and HB-edge candidates depend only on the design's
/// annotations — not on the opcode or fetch slot — so the whole-ISA driver
/// computes this exactly once per run (no solver queries involved).
pub(crate) fn slot_meta(design: &Design, harness: &IuvHarness) -> SlotMeta {
    SlotMeta {
        pls: harness.pls.clone(),
        classes: harness.classes.clone(),
        candidates: hb_edge_candidates(design, harness),
    }
}

/// The result of one (instruction, fetch-slot) enumeration job — the unit
/// of parallelism of the whole-ISA driver. Jobs over the same instruction
/// are merged in slot order by [`assemble_instr`], reproducing the
/// sequential per-instruction result exactly.
#[derive(Clone)]
pub(crate) struct SlotSynthesis {
    shapes: BTreeMap<Signature, ConcretePath>,
    pub(crate) complete: bool,
    pub(crate) stats: CheckStats,
}

impl SlotSynthesis {
    /// The stand-in result for a job the supervisor caught panicking (or
    /// that a fault plan killed): no shapes, incomplete, one undetermined
    /// property on the books under `reason`.
    pub(crate) fn degraded(reason: UndeterminedReason) -> Self {
        let mut stats = CheckStats {
            properties: 1,
            ..Default::default()
        };
        stats.count_undetermined(reason);
        Self {
            shapes: BTreeMap::new(),
            complete: false,
            stats,
        }
    }

    /// Serializes the slot verdict for the checkpoint journal. Metadata and
    /// durations are excluded: the former is derivable from the design, the
    /// latter is nondeterministic.
    pub(crate) fn encode(&self) -> String {
        use jsonio::Json;
        let shapes: Vec<Json> = self
            .shapes
            .iter()
            .map(|(sig, path)| {
                let bits: String = sig
                    .iter()
                    .flat_map(|&(a, b, c)| [a, b, c])
                    .map(|b| if b { '1' } else { '0' })
                    .collect();
                let occ: Vec<Json> = path
                    .pl_set()
                    .iter()
                    .map(|&pl| {
                        Json::Arr(vec![
                            Json::Int(pl.index() as u64),
                            Json::Arr(
                                path.cycles(pl)
                                    .iter()
                                    .map(|&c| Json::Int(c as u64))
                                    .collect(),
                            ),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("sig".into(), Json::Str(bits)),
                    ("occ".into(), Json::Arr(occ)),
                ])
            })
            .collect();
        Json::Obj(vec![
            // v2: records live under cone-fingerprint keys and hold
            // sliced-enumeration witnesses. v1 records (whole-design
            // keys, unsliced witnesses) decode as cache misses.
            ("v".into(), Json::Int(2)),
            ("complete".into(), Json::Bool(self.complete)),
            ("shapes".into(), Json::Arr(shapes)),
            ("stats".into(), self.stats.encode()),
        ])
        .render_compact()
    }

    /// Parses a journaled record back into a slot verdict. Returns `None`
    /// on any shape mismatch, which the driver treats as a cache miss.
    pub(crate) fn decode(s: &str) -> Option<Self> {
        let j = jsonio::Json::parse(s).ok()?;
        if j.field("v")?.as_u64()? != 2 {
            return None;
        }
        let complete = j.field("complete")?.as_bool()?;
        let mut shapes = BTreeMap::new();
        for sh in j.field("shapes")?.as_arr()? {
            let bits = sh.field("sig")?.as_str()?;
            if bits.len() % 3 != 0 || !bits.bytes().all(|b| b == b'0' || b == b'1') {
                return None;
            }
            let sig: Signature = bits
                .as_bytes()
                .chunks(3)
                .map(|c| (c[0] == b'1', c[1] == b'1', c[2] == b'1'))
                .collect();
            let mut path = ConcretePath::new();
            for entry in sh.field("occ")?.as_arr()? {
                let pair = entry.as_arr()?;
                let pl = PlId(pair.first()?.as_u64()? as u32);
                for cyc in pair.get(1)?.as_arr()? {
                    path.visit(pl, cyc.as_u64()? as usize);
                }
            }
            shapes.insert(sig, path);
        }
        Some(Self {
            shapes,
            complete,
            stats: CheckStats::decode(j.field("stats")?)?,
        })
    }
}

/// Enumerates the µPATH shapes of `opcode` through an already-built
/// (usually shared) checker over a multi-opcode harness. The opcode is
/// selected purely by assumption — `harness.op_assume(opcode)` joins the
/// opcode-independent assumes — and the per-shape blocking clauses are
/// *scoped* under that same assume, so one persistent solver context can
/// serve every opcode of a fetch slot without the blocks of one opcode
/// leaking into another's enumeration. The returned stats are the
/// checker's current batch account (zeroed by `begin_batch`).
pub(crate) fn enumerate_slot(
    harness: &IuvHarness,
    opcode: Opcode,
    checker: &mut Checker<'_>,
    cfg: &SynthConfig,
) -> SlotSynthesis {
    let op_assume = harness.op_assume(opcode);
    let mut assumes = Vec::with_capacity(harness.assumes.len() + 1);
    assumes.push(op_assume);
    assumes.extend_from_slice(&harness.assumes);
    let sig_bits = signature_bits(harness);
    let mut shapes: BTreeMap<Signature, ConcretePath> = BTreeMap::new();
    let mut complete = true;
    let mut found_this_slot = 0usize;
    loop {
        if found_this_slot >= cfg.max_shapes {
            complete = false;
            break;
        }
        match checker.check_cover(harness.iuv_done, &assumes) {
            Outcome::Reachable(trace) => {
                found_this_slot += 1;
                let path = extract_path(harness, &trace);
                let signature: Signature = harness
                    .pls
                    .ids()
                    .map(|pl| {
                        let m = harness.monitors(pl);
                        let last = trace.len() - 1;
                        (
                            trace.value(last, m.visited) != 0,
                            trace.value(last, m.multi) != 0,
                            trace.value(last, m.noncons) != 0,
                        )
                    })
                    .collect();
                // Block this signature at the final frame, under this
                // opcode's activation guard.
                let clause: Vec<sat::Lit> = sig_bits
                    .iter()
                    .zip(signature.iter().flat_map(|&(a, b2, c)| [a, b2, c]))
                    .map(|(&sig, val)| {
                        let lit = checker.final_frame_lit(sig);
                        if val {
                            !lit
                        } else {
                            lit
                        }
                    })
                    .collect();
                checker.add_blocking_clause_scoped(op_assume, &clause);
                shapes.entry(signature).or_insert(path);
            }
            Outcome::Unreachable => break,
            Outcome::Undetermined(_) => {
                complete = false;
                break;
            }
        }
    }
    SlotSynthesis {
        shapes,
        complete,
        stats: checker.stats(),
    }
}

/// Merges one instruction's slot jobs (in slot order: earlier slots' shape
/// witnesses win ties, exactly as the sequential loop inserted them) into
/// the final [`InstrSynthesis`]. `meta` is the run-wide [`SlotMeta`] —
/// derivable from the design alone, so the driver computes it once and
/// shares it across every instruction.
pub(crate) fn assemble_instr(
    opcode: Opcode,
    slots: Vec<SlotSynthesis>,
    meta: &SlotMeta,
) -> InstrSynthesis {
    let mut shapes: BTreeMap<Signature, ConcretePath> = BTreeMap::new();
    let mut complete = true;
    let mut stats = CheckStats::default();
    for s in slots {
        complete &= s.complete;
        stats.absorb(&s.stats);
        for (signature, path) in s.shapes {
            shapes.entry(signature).or_insert(path);
        }
    }
    let concrete: Vec<ConcretePath> = shapes.into_values().collect();
    let paths: Vec<MuPath> = concrete
        .iter()
        .map(|p| {
            let mut shape = p.shape();
            shape.edges = witness_edges(p, &meta.candidates);
            shape
        })
        .collect();
    let decisions = decisions_of_paths(&concrete);
    let class_decisions = class_level_decisions(&concrete, &meta.pls, &meta.classes);
    InstrSynthesis {
        opcode,
        paths,
        concrete,
        decisions,
        class_decisions,
        complete,
        stats,
    }
}

/// §V-B2–§V-B4: enumerate all µPATH shapes for one instruction. A
/// convenience wrapper over the whole-ISA driver (and hence its
/// incremental backend) for a single-opcode fleet.
pub fn synthesize_instr(design: &Design, opcode: Opcode, cfg: &SynthConfig) -> InstrSynthesis {
    crate::synthesize_isa_with(design, &[opcode], cfg, &crate::EngineOptions::sequential())
        .instrs
        .into_iter()
        .next()
        .expect("one instruction requested")
}

/// §V-B5 candidate filter: PL pairs whose source µFSM state registers feed
/// the destination µFSM's next-state logic through pure combinational
/// paths.
fn hb_edge_candidates(design: &Design, harness: &IuvHarness) -> BTreeSet<(PlId, PlId)> {
    let ann = &design.annotations;
    // Group PLs by µFSM (in declaration order, matching harness PL order).
    let mut pl_fsm: Vec<usize> = Vec::new();
    for (fi, ufsm) in ann.ufsms.iter().enumerate() {
        for _ in ufsm.candidate_states(&design.netlist) {
            pl_fsm.push(fi);
        }
    }
    let fsm_regs: Vec<HashSet<SignalId>> = ann
        .ufsms
        .iter()
        .map(|u| {
            let mut s: HashSet<SignalId> = u.vars.iter().copied().collect();
            s.insert(u.pcr);
            s
        })
        .collect();
    // Walk each destination µFSM's next-state cones once, then test every
    // source µFSM against that source set.
    let fsm_srcs: Vec<HashSet<SignalId>> = fsm_regs
        .iter()
        .map(|regs| next_state_sources(&design.netlist, regs.iter().copied()))
        .collect();
    let fsm_conn: Vec<Vec<bool>> = fsm_regs
        .iter()
        .map(|src| {
            fsm_srcs
                .iter()
                .map(|dst| src.iter().any(|r| dst.contains(r)))
                .collect()
        })
        .collect();
    let mut out = BTreeSet::new();
    for a in harness.pls.ids() {
        for bpl in harness.pls.ids() {
            if a != bpl && fsm_conn[pl_fsm[a.index()]][pl_fsm[bpl.index()]] {
                out.insert((a, bpl));
            }
        }
    }
    out
}

/// Confirms candidate HB edges against a witness: an edge holds when the
/// source PL is occupied exactly one cycle before a visit to the
/// destination PL.
fn witness_edges(
    path: &ConcretePath,
    candidates: &BTreeSet<(PlId, PlId)>,
) -> BTreeSet<(PlId, PlId)> {
    let mut edges = BTreeSet::new();
    for &(a, b) in candidates {
        let cycles_a: BTreeSet<usize> = path.cycles(a).iter().copied().collect();
        if path
            .cycles(b)
            .iter()
            .any(|&t| t > 0 && cycles_a.contains(&(t - 1)))
        {
            edges.insert((a, b));
        }
    }
    edges
}

/// Re-expresses concrete paths at µFSM-class granularity and extracts
/// decisions there (scoreboard entries etc. merged).
fn class_level_decisions(
    paths: &[ConcretePath],
    pls: &PlTable,
    classes: &[String],
) -> Vec<Decision> {
    let (class_table, mapped) = class_view(paths, pls, classes);
    let _ = class_table;
    decisions_of_paths(&mapped)
}

/// Maps concrete paths onto a class-level PL table. Returns the class table
/// and the re-mapped paths.
pub fn class_view(
    paths: &[ConcretePath],
    pls: &PlTable,
    classes: &[String],
) -> (PlTable, Vec<ConcretePath>) {
    let mut class_table = PlTable::new();
    let mut class_of_pl: Vec<PlId> = Vec::new();
    for pl in pls.ids() {
        let cname = &classes[pl.index()];
        let cid = class_table
            .find(cname)
            .unwrap_or_else(|| class_table.add(cname.clone()));
        class_of_pl.push(cid);
    }
    let mapped = paths
        .iter()
        .map(|p| {
            let mut np = ConcretePath::new();
            for pl in pls.ids() {
                for &t in p.cycles(pl) {
                    np.visit(class_of_pl[pl.index()], t);
                }
            }
            np
        })
        .collect();
    (class_table, mapped)
}

/// The (dominates, exclusive, stats) result of [`dom_excl_relations`].
pub type DomExclRelations = (Vec<(PlId, PlId)>, Vec<(PlId, PlId)>, CheckStats);

/// §V-B3: the dominates/exclusive relations over the IUV's PLs, computed
/// with the paper's cover templates. Returned as (dominates, exclusive)
/// pair lists; also bumps the checker-statistics account.
pub fn dom_excl_relations(design: &Design, opcode: Opcode, cfg: &SynthConfig) -> DomExclRelations {
    let harness = build_harness(
        design,
        &HarnessConfig {
            opcode,
            fetch_slot: cfg.slots.first().copied().unwrap_or(0),
            context: cfg.context,
        },
    );
    // Build dom/excl monitors for every ordered/unordered PL pair.
    let mut b = Builder::from_netlist(harness.netlist.clone());
    let n = harness.pls.len();
    let mut dom_sigs = Vec::new();
    let mut excl_sigs = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let vi = b.wire(harness.monitors[i].visited);
            let vj = b.wire(harness.monitors[j].visited);
            let c = sva::templates::dominates_cover(&mut b, vi, vj, &format!("dom_{i}_{j}"));
            dom_sigs.push(((i, j), c.id));
            if i < j {
                let e = sva::templates::exclusive_cover(&mut b, vi, vj, &format!("excl_{i}_{j}"));
                excl_sigs.push(((i, j), e.id));
            }
        }
    }
    let netlist = b.finish().expect("dom/excl monitored netlist");
    // Boolean-outcome queries: slice to the dom/excl covers plus the
    // harness assumes (all of which the activation clauses read).
    let targets: Vec<SignalId> = dom_sigs
        .iter()
        .chain(excl_sigs.iter())
        .map(|&(_, s)| s)
        .chain(harness.assumes.iter().copied())
        .collect();
    let elab = std::sync::Arc::new(mc::Elab::new(&netlist));
    let coi = std::sync::Arc::new(mc::CoiSlice::compute(&netlist, &targets));
    let mut checker = Checker::with_coi(
        &netlist,
        cfg.mc_config(),
        &arch_free_regs(design),
        elab,
        Some(coi),
    );
    let mut dominates = Vec::new();
    for ((i, j), sig) in dom_sigs {
        if checker.check_cover(sig, &harness.assumes).is_unreachable() {
            dominates.push((PlId(i as u32), PlId(j as u32)));
        }
    }
    let mut exclusive = Vec::new();
    for ((i, j), sig) in excl_sigs {
        if checker.check_cover(sig, &harness.assumes).is_unreachable() {
            exclusive.push((PlId(i as u32), PlId(j as u32)));
        }
    }
    (dominates, exclusive, checker.stats())
}

/// §V-B6: enumerate the possible *consecutive-visit run lengths* of one PL
/// across all of the IUV's executions (e.g. the serial divider's occupancy
/// range). Returns the sorted set of observed maximal run lengths.
pub fn enumerate_revisit_counts(
    design: &Design,
    opcode: Opcode,
    pl_name: &str,
    cfg: &SynthConfig,
) -> Vec<u64> {
    let harness = build_harness(
        design,
        &HarnessConfig {
            opcode,
            fetch_slot: cfg.slots.first().copied().unwrap_or(0),
            context: cfg.context,
        },
    );
    let pl = harness
        .pls
        .find(pl_name)
        .unwrap_or_else(|| panic!("no PL named `{pl_name}`"));
    let mut b = Builder::from_netlist(harness.netlist.clone());
    let visit = b.wire(harness.monitors(pl).visit_now);
    let width = 4u8;
    let (_cur, maxrun) = sva::consecutive_counter(&mut b, visit, width, "plrun");
    let done = b.wire(harness.iuv_done);
    let nonzero = b.red_or(maxrun);
    let interesting = b.and(done, nonzero);
    b.name(interesting, "revisit_cover");
    let netlist = b.finish().expect("revisit monitored netlist");
    let cover = netlist.find("revisit_cover").expect("named");
    let maxrun_sig = netlist.find("plrun").expect("named");
    let mut checker = Checker::with_free_regs(&netlist, cfg.mc_config(), &arch_free_regs(design));
    let mut counts = BTreeSet::new();
    while let Outcome::Reachable(trace) = checker.check_cover(cover, &harness.assumes) {
        let v = trace.value(trace.len() - 1, maxrun_sig);
        counts.insert(v);
        // Block this run-length value at the final frame.
        let clause: Vec<sat::Lit> = (0..width)
            .map(|bit| {
                // Reconstruct per-bit literals via a slice-free path:
                // the counter is a register; block on its bits.
                let lit = checker.final_frame_bit(maxrun_sig, bit);
                if (v >> bit) & 1 == 1 {
                    !lit
                } else {
                    lit
                }
            })
            .collect();
        checker.add_blocking_clause(&clause);
        if counts.len() > 32 {
            break;
        }
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod codec_tests {
    use super::*;

    fn sample() -> SlotSynthesis {
        let mut shapes = BTreeMap::new();
        let mut p1 = ConcretePath::new();
        p1.visit(PlId(0), 1);
        p1.visit(PlId(3), 4);
        p1.visit(PlId(3), 7);
        shapes.insert(vec![(true, false, false), (false, true, true)], p1);
        let mut p2 = ConcretePath::new();
        p2.visit(PlId(2), 0);
        shapes.insert(vec![(false, false, true)], p2);
        let mut stats = CheckStats {
            properties: 9,
            reachable: 4,
            unreachable: 3,
            coi_bits_before: 512,
            coi_bits_after: 120,
            discharged_static: 2,
            ..Default::default()
        };
        stats.count_undetermined(UndeterminedReason::BudgetExhausted);
        stats.count_undetermined(UndeterminedReason::FaultInjected);
        SlotSynthesis {
            shapes,
            complete: true,
            stats,
        }
    }

    /// The journal codec is a golden fixed point: encode ∘ decode ∘
    /// encode is byte-identical, so a resumed run re-journals records
    /// without churning the journal file.
    #[test]
    fn slot_synthesis_round_trip_is_byte_identical() {
        let original = sample();
        let once = original.encode();
        let decoded = SlotSynthesis::decode(&once).expect("own encoding decodes");
        assert_eq!(decoded.encode(), once, "encode∘decode∘encode drifted");
        assert_eq!(decoded.complete, original.complete);
        assert_eq!(decoded.shapes.len(), original.shapes.len());
        for (sig, path) in &original.shapes {
            let d = &decoded.shapes[sig];
            assert_eq!(d.pl_set(), path.pl_set());
            for pl in path.pl_set() {
                assert_eq!(d.cycles(pl), path.cycles(pl));
            }
        }
        assert_eq!(decoded.stats.properties, 9);
        assert_eq!(decoded.stats.undetermined, 2);
    }

    /// A torn journal tail — any truncation or appended garbage — must
    /// read as a cache miss (`None`), never as a wrong verdict.
    #[test]
    fn slot_synthesis_corrupt_tail_is_rejected() {
        let full = sample().encode();
        for cut in 1..=40.min(full.len() - 1) {
            let torn = &full[..full.len() - cut];
            assert!(
                SlotSynthesis::decode(torn).is_none(),
                "accepted a record torn {cut} bytes short"
            );
        }
        for garbage in ["x", " {}", "\0\0"] {
            let mut s = full.clone();
            s.push_str(garbage);
            assert!(
                SlotSynthesis::decode(&s).is_none(),
                "accepted trailing garbage {garbage:?}"
            );
        }
        // Wrong schema version — newer (v3) or the pre-cone-cache v1 —
        // is an explicit miss, not a best-effort parse.
        let bumped = full.replacen("{\"v\":2,", "{\"v\":3,", 1);
        assert_ne!(bumped, full);
        assert!(SlotSynthesis::decode(&bumped).is_none());
        let legacy = full.replacen("{\"v\":2,", "{\"v\":1,", 1);
        assert_ne!(legacy, full);
        assert!(SlotSynthesis::decode(&legacy).is_none());
    }
}
