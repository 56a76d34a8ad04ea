//! The verification harness: weaves IUV-tracking monitors and per-PL visit
//! detectors into a design under verification.
//!
//! This implements the paper's verification environment (§V-A, §V-B):
//! the instruction under verification (IUV) is the instruction latched by
//! the `fetch_slot`-th fetch event; its PC is captured into a
//! verification-only register (the PCR discipline of §V-A), and "instruction
//! *i* visits PL ⟨µfsm, state⟩" (§III-C) becomes the 1-bit monitor
//! `µfsm.vars == state && µfsm.pcr == iuv_pc && iuv_seen`.

use isa::Opcode;
use netlist::{Builder, Netlist, SignalId, Wire};
use uarch::Design;
use uhb::{PlId, PlTable};

/// How the model checker may surround the IUV with context instructions
/// ("all reachable contexts", §V-B, or restrictions used by the artifact's
/// quick experiments).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContextMode {
    /// Arbitrary valid instructions before and after the IUV.
    Any,
    /// Arbitrary non-control-flow context (avoids PC reconvergence; the
    /// default for µPATH enumeration).
    NoControlFlow,
    /// No context at all: the IUV is the only instruction ever fetched
    /// (the artifact's restricted DIV experiment, Appendix §I-F3).
    Solo,
}

/// Per-PL monitor signals.
#[derive(Clone, Copy, Debug)]
pub struct PlMonitors {
    /// The IUV occupies this PL in the current cycle.
    pub visit_now: SignalId,
    /// The IUV has occupied this PL at some cycle so far (sticky).
    pub visited: SignalId,
    /// The IUV has occupied this PL in two or more cycles (sticky).
    pub multi: SignalId,
    /// The IUV left this PL and re-entered it (non-consecutive revisit,
    /// sticky).
    pub noncons: SignalId,
}

/// Harness construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// The IUV's opcode (its encoding constraint; operands stay symbolic).
    pub opcode: Opcode,
    /// Which fetch event carries the IUV (0 = first instruction fetched).
    pub fetch_slot: usize,
    /// Context restriction.
    pub context: ContextMode,
}

/// The monitored design: netlist plus every signal the synthesis passes
/// query.
#[derive(Clone, Debug)]
pub struct IuvHarness {
    /// Design + monitors.
    pub netlist: Netlist,
    /// Performing locations, labelled by their declared state names.
    pub pls: PlTable,
    /// Per-PL class label (the state name with any trailing entry index
    /// stripped, e.g. `scbIss0` → `scbIss`), used to merge structurally
    /// identical µFSMs for decision analysis.
    pub classes: Vec<String>,
    /// Per-PL monitor signals (indexed by [`PlId::index`]).
    pub monitors: Vec<PlMonitors>,
    /// Assume signals that must hold in every cycle of every query.
    /// Opcode-independent; combine with one entry of [`IuvHarness::op_assumes`]
    /// to pin the IUV's opcode.
    pub assumes: Vec<SignalId>,
    /// Per-opcode IUV-encoding assumes: one monitor per opcode the harness
    /// was built for, so a single netlist (and hence one shared solver
    /// context) serves every opcode's query fleet.
    pub op_assumes: Vec<(Opcode, SignalId)>,
    /// The IUV has been fetched (sticky, registered).
    pub iuv_seen: SignalId,
    /// The IUV has finished: it visited at least one PL and now occupies
    /// none, stably for two cycles.
    pub iuv_done: SignalId,
    /// The captured IUV program counter.
    pub iuv_pc: SignalId,
    /// The configuration that built this harness.
    pub config: HarnessConfig,
}

/// Strips a trailing decimal entry index from a PL label.
fn class_of(name: &str) -> String {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
        .to_owned()
}

/// Builds the IUV harness for a single opcode. The opcode's encoding
/// assume is included in [`IuvHarness::assumes`], so every query made
/// through this harness is automatically opcode-constrained.
///
/// # Panics
/// Panics if the design's annotations are inconsistent with its netlist.
pub fn build_harness(design: &Design, cfg: &HarnessConfig) -> IuvHarness {
    let mut h = build_harness_multi(design, &[cfg.opcode], cfg.fetch_slot, cfg.context);
    h.assumes.insert(0, h.op_assumes[0].1);
    h
}

/// Builds one IUV harness serving a whole family of opcodes: the monitor
/// logic is opcode-independent, and each opcode gets its own encoding
/// assume in [`IuvHarness::op_assumes`]. Queries select an opcode by
/// adding its assume to the opcode-independent [`IuvHarness::assumes`];
/// this is what lets one shared solver context absorb every opcode's
/// enumeration at a fetch slot.
///
/// # Panics
/// Panics if `opcodes` is empty or the design's annotations are
/// inconsistent with its netlist.
pub fn build_harness_multi(
    design: &Design,
    opcodes: &[Opcode],
    fetch_slot: usize,
    context: ContextMode,
) -> IuvHarness {
    assert!(!opcodes.is_empty(), "harness needs at least one opcode");
    let cfg = HarnessConfig {
        opcode: opcodes[0],
        fetch_slot,
        context,
    };
    let ann = &design.annotations;
    ann.validate(&design.netlist)
        .expect("annotated design is consistent");
    let mut b = Builder::from_netlist(design.netlist.clone());
    let fetch_fire = b.wire(design.fetch_fire);
    let pc = b.wire(design.pc);
    let in_instr = b.wire(design.fetch_instr_input);
    let pcw = pc.width;

    // --- IUV selection: the `fetch_slot`-th fetch event ------------------
    let cnt = b.reg("iuv_fetch_count", 3, 0);
    let one3 = b.constant(1, 3);
    let cnt_max = b.eq_const(cnt, 7);
    let bumped = b.add(cnt, one3);
    let held = b.mux(cnt_max, cnt, bumped);
    let cnt_next = b.mux(fetch_fire, held, cnt);
    b.set_next(cnt, cnt_next).expect("fresh monitor reg");
    let at_slot = b.eq_const(cnt, cfg.fetch_slot as u64);
    let iuv_fire = b.and(fetch_fire, at_slot);
    let iuv_fire = b.name(iuv_fire, "iuv_fire");

    let seen_reg = b.reg("iuv_seen_reg", 1, 0);
    let seen_next = b.or(seen_reg, iuv_fire);
    b.set_next(seen_reg, seen_next).expect("fresh monitor reg");

    let iuv_pc = b.reg("iuv_pc", pcw, 0);
    let iuv_pc_next = b.mux(iuv_fire, pc, iuv_pc);
    b.set_next(iuv_pc, iuv_pc_next).expect("fresh monitor reg");

    // --- assumes -----------------------------------------------------------
    let mut assumes: Vec<SignalId> = Vec::new();
    // Per-opcode IUV encoding assumes (operands remain symbolic). These go
    // into `op_assumes`, not `assumes`: a query picks exactly one.
    let tf = design.type_field;
    let opfield = b.slice(in_instr, tf.hi, tf.lo);
    let not_fire = b.not(iuv_fire);
    let mut op_assumes: Vec<(Opcode, SignalId)> = Vec::new();
    for &op in opcodes {
        let op_match = b.eq_const(opfield, design.type_encoding(op));
        let opcode_ok = b.or(not_fire, op_match);
        let opcode_ok = b.name(opcode_ok, &format!("assume_iuv_opcode_{op:?}"));
        op_assumes.push((op, opcode_ok.id));
    }
    // PC uniqueness: no later fetch may reuse the IUV's PC (PCs are the
    // instruction identifiers, §V-A).
    let refetch = {
        let same = b.eq(pc, iuv_pc);
        let f = b.and(fetch_fire, seen_reg);
        b.and(f, same)
    };
    let no_refetch = b.not(refetch);
    let no_refetch = b.name(no_refetch, "assume_no_refetch");
    assumes.push(no_refetch.id);
    // Context restriction.
    match cfg.context {
        ContextMode::Any => {}
        ContextMode::NoControlFlow => {
            // Control-flow opcodes occupy the top of the encoding space
            // (BEQ=23 .. JALR=30); designs with a custom type encoding
            // (e.g. the cache) have no control flow at all.
            let is_cf = if design.type_values.is_empty() {
                let c23 = b.constant(Opcode::Beq.bits() as u64, opfield.width);
                b.ule(c23, opfield)
            } else {
                b.zero()
            };
            let ctx_fetch = b.and(fetch_fire, not_fire);
            let bad = b.and(ctx_fetch, is_cf);
            let ok = b.not(bad);
            let ok = b.name(ok, "assume_ctx_no_cf");
            assumes.push(ok.id);
        }
        ContextMode::Solo => {
            let ctx_fetch = b.and(fetch_fire, not_fire);
            let ok = b.not(ctx_fetch);
            let ok = b.name(ok, "assume_ctx_solo");
            assumes.push(ok.id);
        }
    }

    // --- per-PL visit monitors ------------------------------------------------
    let mut pls = PlTable::new();
    let mut classes = Vec::new();
    let mut monitors = Vec::new();
    let mut visit_now_all: Vec<Wire> = Vec::new();
    let mut visited_all: Vec<Wire> = Vec::new();
    for ufsm in &ann.ufsms {
        let pcr = b.wire(ufsm.pcr);
        let pcr_match = b.eq(pcr, iuv_pc);
        for st in ufsm.candidate_states(&design.netlist) {
            let pl = pls.add(st.name.clone());
            classes.push(class_of(&st.name));
            let mut state_match = b.one();
            for (vi, &var) in ufsm.vars.iter().enumerate() {
                let vw = b.wire(var);
                let m = b.eq_const(vw, st.state.0[vi]);
                state_match = b.and(state_match, m);
            }
            let occupied = b.and(state_match, pcr_match);
            let visit_now = b.and(occupied, seen_reg);
            let visit_now = b.name(visit_now, &format!("vis_{}", st.name));

            let vis_reg = b.reg(&format!("visreg_{}", st.name), 1, 0);
            let vis_next = b.or(vis_reg, visit_now);
            b.set_next(vis_reg, vis_next).expect("fresh monitor reg");
            let visited = b.name(vis_next, &format!("visited_{}", st.name));

            let multi_now = b.and(visit_now, vis_reg);
            let multi = sva::sticky(&mut b, multi_now, &format!("multi_{}", st.name));

            // Left after a visit, strictly before this cycle.
            let not_now = b.not(visit_now);
            let left_now = b.and(vis_reg, not_now);
            let left_reg = b.reg(&format!("leftreg_{}", st.name), 1, 0);
            let left_next = b.or(left_reg, left_now);
            b.set_next(left_reg, left_next).expect("fresh monitor reg");
            let noncons_now = b.and(visit_now, left_reg);
            let noncons = sva::sticky(&mut b, noncons_now, &format!("noncons_{}", st.name));

            visit_now_all.push(visit_now);
            visited_all.push(visited);
            monitors.push(PlMonitors {
                visit_now: visit_now.id,
                visited: visited.id,
                multi: multi.id,
                noncons: noncons.id,
            });
            debug_assert_eq!(pl.index() + 1, monitors.len());
        }
    }

    // --- completion detector ----------------------------------------------------
    let any_now = b.any(&visit_now_all);
    let any_visited = b.any(&visited_all);
    let done_now = {
        let quiet = b.not(any_now);
        let sv = b.and(seen_reg, any_visited);
        b.and(sv, quiet)
    };
    let done_d1 = sva::delay(&mut b, done_now, 1, "iuv_done_d1");
    let done2 = b.and(done_now, done_d1);
    let iuv_done = b.name(done2, "iuv_done");

    let netlist = b.finish().expect("harnessed netlist is valid");
    IuvHarness {
        netlist,
        pls,
        classes,
        monitors,
        assumes,
        op_assumes,
        iuv_seen: seen_reg.id,
        iuv_done: iuv_done.id,
        iuv_pc: iuv_pc.id,
        config: cfg,
    }
}

impl IuvHarness {
    /// The monitors of a PL.
    ///
    /// # Panics
    /// Panics if `pl` is out of range.
    pub fn monitors(&self, pl: PlId) -> &PlMonitors {
        &self.monitors[pl.index()]
    }

    /// The encoding assume pinning the IUV to `op`.
    ///
    /// # Panics
    /// Panics if the harness was not built for `op`.
    pub fn op_assume(&self, op: Opcode) -> SignalId {
        self.op_assumes
            .iter()
            .find(|(o, _)| *o == op)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| panic!("harness was not built for {op:?}"))
    }

    /// PL ids sharing the same class label as `pl` (including itself).
    pub fn class_members(&self, pl: PlId) -> Vec<PlId> {
        let class = &self.classes[pl.index()];
        self.pls
            .ids()
            .filter(|p| &self.classes[p.index()] == class)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Simulator;
    use uarch::build_tiny;

    #[test]
    fn harness_monitors_track_a_simulated_iuv() {
        let design = build_tiny();
        let h = build_harness(
            &design,
            &HarnessConfig {
                opcode: Opcode::Add,
                fetch_slot: 0,
                context: ContextMode::Any,
            },
        );
        // Simulate: feed exactly one ADD, then idle.
        let mut s = Simulator::new(&h.netlist);
        let add = isa::Instr::rrr(Opcode::Add, 1, 2, 3).encode() as u64;
        s.set_input(design.fetch_instr_input, add);
        s.set_input(design.fetch_valid_input, 1);
        s.step();
        s.set_input(design.fetch_valid_input, 0);
        // IF visit in the cycle after the fetch.
        let if_pl = h.pls.find("IF").unwrap();
        assert_eq!(s.value(h.monitors(if_pl).visit_now), 1);
        s.step();
        let ex_pl = h.pls.find("EX").unwrap();
        assert_eq!(s.value(h.monitors(ex_pl).visit_now), 1);
        s.step();
        let wb_pl = h.pls.find("WB").unwrap();
        assert_eq!(s.value(h.monitors(wb_pl).visit_now), 1);
        assert_eq!(s.value(h.monitors(if_pl).visited), 1, "sticky");
        assert_eq!(s.value(h.iuv_done), 0, "still in flight");
        s.step();
        s.step();
        assert_eq!(s.value(h.iuv_done), 1, "finished after WB + settle");
        assert_eq!(s.value(h.monitors(wb_pl).multi), 0, "single-cycle visits");
    }

    #[test]
    fn class_labels_strip_entry_indices() {
        assert_eq!(class_of("scbIss0"), "scbIss");
        assert_eq!(class_of("scbIss12"), "scbIss");
        assert_eq!(class_of("ldFin"), "ldFin");
        assert_eq!(class_of("ID"), "ID");
    }
}
