//! The verification harness: weaves instruction-tracking monitors and
//! per-PL visit detectors into a design under verification.
//!
//! This is the paper's verification environment (§V-A, §V-B), and its one
//! tracking rule: a [`Tracker`] follows the instruction latched by the
//! `slot`-th fetch event ([`fetch_counter`]), captures its PC into a
//! verification-only register (the PCR discipline of §V-A) and assumes no
//! later fetch reuses it; "instruction *i* visits PL ⟨µfsm, state⟩" (§III-C)
//! is the monitor `µfsm.vars == state && µfsm.pcr == pc && seen`, which
//! [`for_each_pl`] hands to a per-PL callback. The IUV harness, SynthLC's
//! two leak-harness trackers and `duv_pl_reachability` each add only their
//! own monitors there, so every node keeps its place.

use isa::Opcode;
use netlist::annotate::{FsmState, UFsm};
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
}

/// A design's performing locations and their classes, derived from its
/// µFSM annotations alone: one PL per candidate state of each µFSM, in
/// declaration order. A PL's class label is its state name with any
/// trailing entry index stripped (`scbIss0` → `scbIss`), which merges
/// structurally identical µFSMs for decision analysis; classes are
/// numbered in first-seen order.
#[derive(Clone, Debug)]
pub struct PlClasses {
    /// The PL table, labelled by state name.
    pub pls: PlTable,
    /// Per-PL class label (indexed by [`PlId::index`]).
    pub labels: Vec<String>,
    /// The class table: each distinct label once.
    pub classes: PlTable,
    /// Per-PL class id.
    pub class_of: Vec<PlId>,
    /// Per-PL index of the owning µFSM in the design's annotations.
    pub ufsm_of: Vec<usize>,
}

impl PlClasses {
    /// The PL and class tables of `design`.
    pub fn of(design: &Design) -> Self {
        let mut t = PlClasses {
            pls: PlTable::new(),
            labels: Vec::new(),
            classes: PlTable::new(),
            class_of: Vec::new(),
            ufsm_of: Vec::new(),
        };
        for (ui, ufsm) in design.annotations.ufsms.iter().enumerate() {
            for st in ufsm.candidate_states(&design.netlist) {
                let label = class_label(&st.name);
                let class = t
                    .classes
                    .find(label)
                    .unwrap_or_else(|| t.classes.add(label));
                t.labels.push(label.to_owned());
                t.pls.add(st.name);
                t.class_of.push(class);
                t.ufsm_of.push(ui);
            }
        }
        t
    }
}

/// A PL's class label: its state name minus any trailing entry index.
fn class_label(name: &str) -> &str {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
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
    design
        .annotations
        .validate(&design.netlist)
        .expect("annotated design is consistent");
    let mut b = Builder::from_netlist(design.netlist.clone());
    let fetch_fire = b.wire(design.fetch_fire);
    let count = fetch_counter(&mut b, design);
    let iuv = Tracker::new(&mut b, design, count, fetch_slot, "iuv");

    // Per-opcode IUV encoding assumes (operands remain symbolic). These go
    // into `op_assumes`, not `assumes`: a query picks exactly one.
    let opfield = opcode_field(&mut b, design);
    let not_fire = b.not(iuv.fire);
    let mut op_assumes: Vec<(Opcode, SignalId)> = Vec::new();
    for &op in opcodes {
        let op_match = b.eq_const(opfield, design.type_encoding(op));
        let ok = b.or(not_fire, op_match);
        op_assumes.push((op, b.name(ok, &format!("assume_iuv_opcode_{op:?}")).id));
    }
    let mut assumes = vec![iuv.no_refetch(&mut b, design).id];
    let context_fetch = |b: &mut Builder| b.and(fetch_fire, not_fire);
    match context {
        ContextMode::Any => {}
        ContextMode::NoControlFlow => {
            assumes.push(no_control_flow(&mut b, design, opfield, context_fetch).id);
        }
        ContextMode::Solo => {
            let ctx_fetch = context_fetch(&mut b);
            let ok = b.not(ctx_fetch);
            assumes.push(b.name(ok, "assume_ctx_solo").id);
        }
    }

    // Per-PL revisit monitors over the tracker's visit signals.
    let mut monitors = Vec::new();
    let mut visit_now_all: Vec<Wire> = Vec::new();
    let mut visited_all: Vec<Wire> = Vec::new();
    for_each_pl(&mut b, design, Some(&iuv), |b, pl, visit_now| {
        let vis_reg = b.reg(&format!("visreg_{pl}"), 1, 0);
        let vis_next = b.or(vis_reg, visit_now);
        b.set_next(vis_reg, vis_next).expect("fresh monitor reg");
        let visited = b.name(vis_next, &format!("visited_{pl}"));

        let multi_now = b.and(visit_now, vis_reg);
        let multi = sva::sticky(b, multi_now, &format!("multi_{pl}"));

        // Left after a visit, strictly before this cycle.
        let not_now = b.not(visit_now);
        let left_now = b.and(vis_reg, not_now);
        let left_reg = b.reg(&format!("leftreg_{pl}"), 1, 0);
        let left_next = b.or(left_reg, left_now);
        b.set_next(left_reg, left_next).expect("fresh monitor reg");
        let noncons_now = b.and(visit_now, left_reg);
        let noncons = sva::sticky(b, noncons_now, &format!("noncons_{pl}"));

        visit_now_all.push(visit_now);
        visited_all.push(visited);
        monitors.push(PlMonitors {
            visit_now: visit_now.id,
            visited: visited.id,
            multi: multi.id,
            noncons: noncons.id,
        });
    });

    // Completion: finished, and stably so for two cycles.
    let any_now = b.any(&visit_now_all);
    let any_visited = b.any(&visited_all);
    let done_now = iuv.finished(&mut b, any_now, any_visited);
    let done_d1 = sva::delay(&mut b, done_now, 1, "iuv_done_d1");
    let done2 = b.and(done_now, done_d1);
    let iuv_done = b.name(done2, "iuv_done");

    let netlist = b.finish().expect("harnessed netlist is valid");
    IuvHarness {
        netlist,
        pls: PlClasses::of(design).pls,
        monitors,
        assumes,
        op_assumes,
        iuv_seen: iuv.seen.id,
        iuv_done: iuv_done.id,
        iuv_pc: iuv.pc.id,
    }
}

/// The shared fetch counter: the number of fetch events so far, saturating
/// at 7. A [`Tracker`] picks its instruction by this count.
pub fn fetch_counter(b: &mut Builder, design: &Design) -> Wire {
    let fetch_fire = b.wire(design.fetch_fire);
    let count = b.reg("fetch_count", 3, 0);
    let one = b.constant(1, 3);
    let at_max = b.eq_const(count, 7);
    let bumped = b.add(count, one);
    let held = b.mux(at_max, count, bumped);
    let next = b.mux(fetch_fire, held, count);
    b.set_next(count, next).expect("fresh monitor reg");
    count
}

/// The opcode field of the instruction being fetched.
pub fn opcode_field(b: &mut Builder, design: &Design) -> Wire {
    let in_instr = b.wire(design.fetch_instr_input);
    let tf = design.type_field;
    b.slice(in_instr, tf.hi, tf.lo)
}

/// The no-control-flow context rule: no fetch that `context_fetch` marks
/// as context (an instruction no tracker follows) is a control-flow
/// instruction. Control-flow opcodes occupy the top of the encoding space
/// (BEQ=23 .. JALR=30); designs with a custom type encoding (e.g. the
/// cache) have no control flow at all.
pub fn no_control_flow(
    b: &mut Builder,
    design: &Design,
    opfield: Wire,
    context_fetch: impl FnOnce(&mut Builder) -> Wire,
) -> Wire {
    let is_cf = if design.type_values.is_empty() {
        let first_cf = b.constant(Opcode::Beq.bits() as u64, opfield.width);
        b.ule(first_cf, opfield)
    } else {
        b.zero()
    };
    let ctx_fetch = context_fetch(b);
    let bad = b.and(ctx_fetch, is_cf);
    let ok = b.not(bad);
    b.name(ok, "assume_ctx_no_cf")
}

/// 1 when `ufsm`'s state variables hold `state`.
fn state_match(b: &mut Builder, ufsm: &UFsm, state: &FsmState) -> Wire {
    let mut matched = b.one();
    for (&var, &value) in ufsm.vars.iter().zip(&state.0) {
        let vw = b.wire(var);
        let m = b.eq_const(vw, value);
        matched = b.and(matched, m);
    }
    matched
}

/// Calls `per_pl(b, name, signal)` for every PL of `design`, in PL-table
/// order. Without a tracker, `signal` is "the PL's µFSM holds its state";
/// with one, it is the tracker's visit signal (§III-C): the µFSM holds the
/// state with the tracked PC in its PCR, once the instruction was fetched.
pub fn for_each_pl(
    b: &mut Builder,
    design: &Design,
    tracker: Option<&Tracker>,
    mut per_pl: impl FnMut(&mut Builder, &str, Wire),
) {
    for ufsm in &design.annotations.ufsms {
        let pcr_match = tracker.map(|t| {
            let pcr = b.wire(ufsm.pcr);
            (t, b.eq(pcr, t.pc))
        });
        for st in ufsm.candidate_states(&design.netlist) {
            let mut signal = state_match(b, ufsm, &st.state);
            if let Some((t, pcr_match)) = pcr_match {
                let occupied = b.and(signal, pcr_match);
                let visit = b.and(occupied, t.seen);
                signal = b.name(visit, &format!("{}_vis_{}", t.prefix, st.name));
            }
            per_pl(b, &st.name, signal);
        }
    }
}

/// One tracked dynamic instruction (§V-A): the one fetched by the
/// `slot`-th fetch event, identified by the PC it was fetched with. The
/// IUV harness tracks the instruction under verification with one; the
/// leak harness tracks its transponder and transmitter with two (§V-C1).
/// Monitor names start with the tracker's prefix.
#[derive(Clone, Copy, Debug)]
pub struct Tracker {
    prefix: &'static str,
    /// High on the instruction's fetch event.
    pub fire: Wire,
    /// Sticky, registered: the instruction has been fetched.
    pub seen: Wire,
    /// The PC captured at the fetch (the PCR discipline of §V-A).
    pub pc: Wire,
}

impl Tracker {
    /// Tracks the instruction of the `slot`-th fetch event, counted by
    /// `count` (a [`fetch_counter`]).
    pub fn new(
        b: &mut Builder,
        design: &Design,
        count: Wire,
        slot: usize,
        prefix: &'static str,
    ) -> Self {
        let fetch_fire = b.wire(design.fetch_fire);
        let pc = b.wire(design.pc);
        let at_slot = b.eq_const(count, slot as u64);
        let fire = b.and(fetch_fire, at_slot);
        let fire = b.name(fire, &format!("{prefix}_fire"));
        let seen = b.reg(&format!("{prefix}_seen"), 1, 0);
        let seen_next = b.or(seen, fire);
        b.set_next(seen, seen_next).expect("fresh monitor reg");
        let ipc = b.reg(&format!("{prefix}_pc"), pc.width, 0);
        let ipc_next = b.mux(fire, pc, ipc);
        b.set_next(ipc, ipc_next).expect("fresh monitor reg");
        Self {
            prefix,
            fire,
            seen,
            pc: ipc,
        }
    }

    /// The PC-uniqueness assume: no later fetch reuses the tracked PC (PCs
    /// are the instruction identifiers, §V-A).
    pub fn no_refetch(&self, b: &mut Builder, design: &Design) -> Wire {
        let fetch_fire = b.wire(design.fetch_fire);
        let pc = b.wire(design.pc);
        let same = b.eq(pc, self.pc);
        let fetched = b.and(fetch_fire, self.seen);
        let refetch = b.and(fetched, same);
        let ok = b.not(refetch);
        b.name(ok, &format!("{}_no_refetch", self.prefix))
    }

    /// The instruction has visited some PL (`any_visited`) and occupies
    /// none this cycle (`any_now`).
    pub fn finished(&self, b: &mut Builder, any_now: Wire, any_visited: Wire) -> Wire {
        let quiet = b.not(any_now);
        let visited = b.and(self.seen, any_visited);
        b.and(visited, quiet)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Simulator;
    use uarch::build_tiny;

    #[test]
    fn harness_monitors_track_a_simulated_iuv() {
        let design = build_tiny();
        let h = build_harness_multi(&design, &[Opcode::Add], 0, ContextMode::Any);
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
        assert_eq!(class_label("scbIss0"), "scbIss");
        assert_eq!(class_label("scbIss12"), "scbIss");
        assert_eq!(class_label("ldFin"), "ldFin");
        assert_eq!(class_label("ID"), "ID");
        let t = PlClasses::of(&uarch::build_core(&uarch::CoreConfig::default()));
        let class = |pl: &str| {
            let pl = t.pls.find(pl).unwrap();
            (t.labels[pl.index()].as_str(), t.class_of[pl.index()])
        };
        let (label, iss) = class("scbIss0");
        assert_eq!(label, "scbIss");
        assert_eq!(class("scbIss1"), ("scbIss", iss));
        assert_eq!(t.classes.name(iss), "scbIss");
        assert_eq!(class("ID").0, "ID");
        assert_ne!(class("ID").1, iss);
        // Classes are numbered in first-seen order over the PL table.
        let mut first_seen = PlTable::new();
        for label in &t.labels {
            if first_seen.find(label).is_none() {
                first_seen.add(label.as_str());
            }
        }
        let names = |table: &PlTable| {
            table
                .ids()
                .map(|c| table.name(c).to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&t.classes), names(&first_seen));
        assert_eq!(t.ufsm_of.len(), t.pls.len());
    }
}
