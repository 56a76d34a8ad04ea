//! The SynthLC verification harness (§V-C1, Fig. 7): an IFT-instrumented
//! design plus trackers for a transponder instance `iP` and a transmitter
//! instance `iT`, with assume signals encoding Assumptions 1/2a/2b/3 and the
//! taint-introduction binding, and decision-taint covers per transponder
//! decision.
//!
//! One harness (and one incremental model checker) serves *every*
//! (transmitter-opcode, operand, decision) query for a given
//! (transponder, slot arrangement): the per-query differences are all
//! `assume` signals, so queries share the solver and its learnt clauses —
//! the reproduction's answer to the paper's JasperGold job pool.

use ift::{instrument, IftOptions, Instrumented};
use isa::Opcode;
use netlist::{Builder, Netlist, SignalId, Wire};
use std::collections::BTreeSet;
use uarch::Design;
use uhb::{Decision, PlId, PlTable};

/// Which architectural operand of the transmitter carries the taint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Operand {
    /// First source register (`rs1`).
    Rs1,
    /// Second source register (`rs2`).
    Rs2,
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Rs1 => f.write_str("rs1"),
            Operand::Rs2 => f.write_str("rs2"),
        }
    }
}

/// Transmitter typing (§IV-C): how `iT` relates to the transponder `iP`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TxKind {
    /// `iT = iP` (Assumption 1).
    Intrinsic,
    /// `iT` older than `iP` and in flight when `iP` decides (Assumption 2a).
    DynamicOlder,
    /// `iT` younger than `iP` and in flight when `iP` decides (Assumption
    /// 2b) — the speculative-interference-attack shape.
    DynamicYounger,
    /// `iT` dematerialized before `iP` decides; only influence through
    /// persistent state counts (Assumption 3).
    Static,
}

impl std::fmt::Display for TxKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TxKind::Intrinsic => "N",
            TxKind::DynamicOlder => "D.O",
            TxKind::DynamicYounger => "D.Y",
            TxKind::Static => "S",
        };
        f.write_str(s)
    }
}

/// Monitors for one tracked dynamic instruction.
#[derive(Clone, Debug)]
pub struct Tracked {
    /// Sticky: the instruction has been fetched.
    pub seen: SignalId,
    /// Per-PL occupancy bits (indexed like the design's PL table).
    pub visit_now: Vec<SignalId>,
    /// The instruction occupies some PL this cycle.
    pub inflight: SignalId,
    /// The instruction has materialized and dematerialized.
    pub done: SignalId,
    /// The instruction issues this cycle (taint-introduction timing for
    /// request-driven DUVs).
    pub issue_now: SignalId,
    /// The instruction currently occupies the issue/decode stage
    /// (taint-introduction window for register-file reads).
    pub stage_now: SignalId,
}

/// The leak harness for one (transponder-slot, transmitter-slot) pairing.
#[derive(Clone, Debug)]
pub struct LeakHarness {
    /// IFT-instrumented, monitored netlist.
    pub netlist: Netlist,
    /// PL table (same order as the design's µFSM declaration).
    pub pls: PlTable,
    /// Per-PL class labels.
    pub classes: Vec<String>,
    /// The transponder tracker.
    pub ip: Tracked,
    /// The transmitter tracker (same monitors as `ip` when intrinsic).
    pub it: Tracked,
    /// Base assumes that hold for every query (slot opcode binding is *not*
    /// included — see [`LeakHarness::opcode_assume`]).
    pub base_assumes: Vec<SignalId>,
    /// Assume: `taint_flush` is held at zero (Assumptions 1/2).
    pub flush_zero: SignalId,
    /// Assume: `taint_flush` pulses exactly when `iT` dematerializes
    /// (Assumption 3).
    pub flush_at_demat: SignalId,
    /// Assume per operand: taint enters exactly that operand register at
    /// `iT`'s issue.
    pub taint_rs1: SignalId,
    /// See [`LeakHarness::taint_rs1`].
    pub taint_rs2: SignalId,
    /// The underlying instrumentation (taint signal lookup).
    pub inst: Instrumented,
    /// Whether `iP` and `iT` are the same dynamic instruction.
    pub intrinsic: bool,
    opcode_assume_p: Vec<(Opcode, SignalId)>,
    opcode_assume_t: Vec<(Opcode, SignalId)>,
    /// Assume per PL-class: `iT` is in flight whenever `iP` occupies a PL
    /// of that class (Assumption 2).
    inflight_at: Vec<SignalId>,
    /// Assume per PL-class: `iT` is done whenever `iP` occupies a PL of
    /// that class (Assumption 3).
    dead_at: Vec<SignalId>,
    /// Per-class "iP occupies some member now".
    class_now: Vec<SignalId>,
    /// Per-class "some member's µFSM is tainted while iP occupies it".
    class_tainted: Vec<SignalId>,
    class_table: PlTable,
}

/// Configuration for [`build_leak_harness`].
#[derive(Clone, Debug)]
pub struct LeakHarnessConfig {
    /// Transponder fetch slot.
    pub slot_p: usize,
    /// Transmitter fetch slot (equal to `slot_p` for the intrinsic case).
    pub slot_t: usize,
    /// Transponder opcodes to prepare assume bindings for.
    pub p_opcodes: Vec<Opcode>,
    /// Transmitter opcodes to prepare assume bindings for.
    pub t_opcodes: Vec<Opcode>,
    /// Restrict untracked context instructions to non-control-flow ones.
    pub no_cf_context: bool,
}

fn track(
    b: &mut Builder,
    design: &Design,
    slot: usize,
    prefix: &str,
    cnt: Wire,
    pls: &PlTable,
) -> Tracked {
    let fetch_fire = b.wire(design.fetch_fire);
    let pc = b.wire(design.pc);
    let issue_fire = b.wire(design.issue_fire);
    let ann = &design.annotations;

    let at_slot = b.eq_const(cnt, slot as u64);
    let fire = b.and(fetch_fire, at_slot);
    let fire = b.name(fire, &format!("{prefix}_fire"));
    let seen = b.reg(&format!("{prefix}_seen"), 1, 0);
    let seen_next = b.or(seen, fire);
    b.set_next(seen, seen_next).expect("fresh monitor reg");
    let ipc = b.reg(&format!("{prefix}_pc"), pc.width, 0);
    let ipc_next = b.mux(fire, pc, ipc);
    b.set_next(ipc, ipc_next).expect("fresh monitor reg");
    // No later fetch may reuse this PC.
    let refetch = {
        let same = b.eq(pc, ipc);
        let f = b.and(fetch_fire, seen);
        b.and(f, same)
    };
    let no_refetch = b.not(refetch);
    b.name(no_refetch, &format!("{prefix}_no_refetch"));

    let mut visit_now = Vec::new();
    let mut any_now = b.zero();
    let mut any_visited_w = b.zero();
    for ufsm in &ann.ufsms {
        let pcr = b.wire(ufsm.pcr);
        let pcr_match = b.eq(pcr, ipc);
        for st in ufsm.candidate_states(&design.netlist) {
            let mut state_match = b.one();
            for (vi, &var) in ufsm.vars.iter().enumerate() {
                let vw = b.wire(var);
                let m = b.eq_const(vw, st.state.0[vi]);
                state_match = b.and(state_match, m);
            }
            let occ = b.and(state_match, pcr_match);
            let vn = b.and(occ, seen);
            let vn = b.name(vn, &format!("{prefix}_vis_{}", st.name));
            visit_now.push(vn.id);
            any_now = b.or(any_now, vn);
            let sticky = sva::sticky(b, vn, &format!("{prefix}_visited_{}", st.name));
            any_visited_w = b.or(any_visited_w, sticky);
        }
    }
    debug_assert_eq!(visit_now.len(), pls.len());
    let inflight = b.name(any_now, &format!("{prefix}_inflight"));
    let done = {
        let quiet = b.not(any_now);
        let sv = b.and(seen, any_visited_w);
        let d = b.and(sv, quiet);
        b.name(d, &format!("{prefix}_done"))
    };
    let issue_pc = b.wire(design.issue_pc);
    let issue_valid = b.wire(design.issue_valid);
    // `seen` is a register; on request-driven DUVs (the cache) the issue
    // coincides with the fetch event itself, so the fire cycle must count
    // as "seen". On the cache, the tracked id equals the txid counter at
    // the fire cycle, making `same_pc` hold there.
    let seen_now = b.or(seen, fire);
    let same_pc = b.eq(issue_pc, ipc);
    let same_pc_now = {
        // At the fire cycle the id register has not latched yet; compare
        // against the live counter instead.
        let live = b.eq(issue_pc, pc);
        let when_firing = b.and(fire, live);
        let when_seen = b.and(seen, same_pc);
        b.or(when_firing, when_seen)
    };
    let issuing_this = {
        let s = b.and(issue_fire, same_pc_now);
        b.and(s, seen_now)
    };
    let issue_now = b.name(issuing_this, &format!("{prefix}_issue_now"));
    let staged = {
        let s = b.and(issue_valid, same_pc);
        b.and(s, seen)
    };
    let stage_now = b.name(staged, &format!("{prefix}_stage_now"));
    Tracked {
        seen: seen.id,
        visit_now,
        inflight: inflight.id,
        done: done.id,
        issue_now: issue_now.id,
        stage_now: stage_now.id,
    }
}

fn class_of(name: &str) -> String {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
        .to_owned()
}

/// Builds the leak harness: IFT instrumentation + trackers + assume/cover
/// machinery.
///
/// # Panics
/// Panics on inconsistent annotations (a design bug).
pub fn build_leak_harness(design: &Design, cfg: &LeakHarnessConfig) -> LeakHarness {
    let ann = &design.annotations;
    assert!(
        ann.operand_regs.len() == 2,
        "leak harness expects two operand registers (rs1, rs2)"
    );
    // Taint-introduction point: designs that read an architectural
    // register file get taint *at the ARF registers while the transmitter
    // occupies the decode/issue stage* (so decode-time operand uses, such
    // as operand-packing eligibility, are covered); request-driven DUVs
    // (the cache) get taint at their operand/request registers at issue.
    let use_arf = design.rs_fields.is_some() && !ann.arf.is_empty();
    let sources = if use_arf {
        ann.arf.clone()
    } else {
        ann.operand_regs.clone()
    };
    let inst = instrument(
        &design.netlist,
        &IftOptions {
            sources,
            persistent: {
                let mut p = ann.amem.clone();
                p.extend(ann.persistent.iter().copied());
                p
            },
            blocked: {
                let mut v = ann.arf.clone();
                v.extend(ann.amem.iter().copied());
                v
            },
        },
    );
    let mut b = Builder::from_netlist(inst.netlist.clone());

    // PL table (shared by both trackers).
    let mut pls = PlTable::new();
    let mut classes = Vec::new();
    for ufsm in &ann.ufsms {
        for st in ufsm.candidate_states(&design.netlist) {
            pls.add(st.name.clone());
            classes.push(class_of(&st.name));
        }
    }

    // Shared fetch counter.
    let fetch_fire = b.wire(design.fetch_fire);
    let cnt = b.reg("fetch_count", 3, 0);
    let one3 = b.constant(1, 3);
    let cnt_max = b.eq_const(cnt, 7);
    let bumped = b.add(cnt, one3);
    let held = b.mux(cnt_max, cnt, bumped);
    let cnt_next = b.mux(fetch_fire, held, cnt);
    b.set_next(cnt, cnt_next).expect("fresh monitor reg");

    let intrinsic = cfg.slot_p == cfg.slot_t;
    let ip = track(&mut b, design, cfg.slot_p, "ip", cnt, &pls);
    let it = if intrinsic {
        ip.clone()
    } else {
        track(&mut b, design, cfg.slot_t, "it", cnt, &pls)
    };

    let mut base_assumes: Vec<SignalId> = Vec::new();
    base_assumes.push(b.wire_named("ip_no_refetch").id);
    if !intrinsic {
        base_assumes.push(b.wire_named("it_no_refetch").id);
    }
    if cfg.no_cf_context {
        let in_instr = b.wire(design.fetch_instr_input);
        let tf = design.type_field;
        let opfield = b.slice(in_instr, tf.hi, tf.lo);
        let is_cf = if design.type_values.is_empty() {
            let c23 = b.constant(Opcode::Beq.bits() as u64, opfield.width);
            b.ule(c23, opfield)
        } else {
            b.zero()
        };
        let ip_fire = b.wire_named("ip_fire");
        let tracked_fire = if intrinsic {
            ip_fire
        } else {
            let itf = b.wire_named("it_fire");
            b.or(ip_fire, itf)
        };
        let untracked = {
            let nt = b.not(tracked_fire);
            b.and(fetch_fire, nt)
        };
        let bad = b.and(untracked, is_cf);
        let ok = b.not(bad);
        let ok = b.name(ok, "assume_ctx_no_cf");
        base_assumes.push(ok.id);
    }

    // Opcode bindings (selected per query).
    let in_instr = b.wire(design.fetch_instr_input);
    let tf = design.type_field;
    let opfield = b.slice(in_instr, tf.hi, tf.lo);
    let mut opcode_assume_p = Vec::new();
    let ip_fire = b.wire_named("ip_fire");
    for &op in &cfg.p_opcodes {
        let m = b.eq_const(opfield, design.type_encoding(op));
        let nf = b.not(ip_fire);
        let ok = b.or(nf, m);
        let ok = b.name(ok, &format!("assume_p_is_{op}"));
        opcode_assume_p.push((op, ok.id));
    }
    let mut opcode_assume_t = Vec::new();
    if !intrinsic {
        let it_fire = b.wire_named("it_fire");
        for &op in &cfg.t_opcodes {
            let m = b.eq_const(opfield, design.type_encoding(op));
            let nf = b.not(it_fire);
            let ok = b.or(nf, m);
            let ok = b.name(ok, &format!("assume_t_is_{op}"));
            opcode_assume_t.push((op, ok.id));
        }
    }

    // Taint introduction binding.
    let bind = |b: &mut Builder, en: Wire, to: Wire| -> Wire {
        let x = b.xor(en, to);
        b.not(x)
    };
    let (taint_rs1, taint_rs2) = if use_arf {
        // ARF mode: while iT occupies the decode/issue stage, the register
        // named by its rs1 (resp. rs2) field is tainted; all other ARF
        // registers' enables are held low.
        let it_staged = b.wire(it.stage_now);
        let (rs1_f, rs2_f) = design.rs_fields.expect("arf mode");
        let rs1_field = b.wire(rs1_f);
        let rs2_field = b.wire(rs2_f);
        let mut per_operand = Vec::new();
        for field in [rs1_field, rs2_field] {
            let mut all_ok = b.one();
            for (ix, &reg) in ann.arf.iter().enumerate() {
                let en = b.wire(
                    inst.source_enable(reg)
                        .expect("arf register is a taint source"),
                );
                // Register indices start at 1 (r0 is hardwired zero).
                let reads = b.eq_const(field, (ix + 1) as u64);
                let want = b.and(it_staged, reads);
                let ok = bind(&mut b, en, want);
                all_ok = b.and(all_ok, ok);
            }
            per_operand.push(all_ok);
        }
        let rs1 = b.name(per_operand[0], "assume_taint_rs1");
        // For per-operand attribution, the rs2 query additionally requires
        // the two source fields to name distinct registers — otherwise an
        // encoding with rs1 == rs2 would let rs1-driven behaviour masquerade
        // as an rs2 leak (a per-operand aliasing false positive).
        let rs2 = {
            let distinct = {
                let same = b.eq(rs1_field, rs2_field);
                let diff = b.not(same);
                let ns = b.not(it_staged);
                b.or(ns, diff)
            };
            let both = b.and(per_operand[1], distinct);
            b.name(both, "assume_taint_rs2")
        };
        (rs1, rs2)
    } else {
        // Request-driven DUVs: taint the operand registers at issue.
        let it_issue = b.wire(it.issue_now);
        let en_a = b.wire(
            inst.source_enable(ann.operand_regs[0])
                .expect("rs1 operand register is a taint source"),
        );
        let en_b = b.wire(
            inst.source_enable(ann.operand_regs[1])
                .expect("rs2 operand register is a taint source"),
        );
        let zero1 = b.zero();
        let a_is_issue = bind(&mut b, en_a, it_issue);
        let b_is_zero = bind(&mut b, en_b, zero1);
        let b_is_issue = bind(&mut b, en_b, it_issue);
        let a_is_zero = bind(&mut b, en_a, zero1);
        let rs1 = {
            let both = b.and(a_is_issue, b_is_zero);
            b.name(both, "assume_taint_rs1")
        };
        let rs2 = {
            let both = b.and(b_is_issue, a_is_zero);
            b.name(both, "assume_taint_rs2")
        };
        (rs1, rs2)
    };

    // Flush binding.
    let flush = b.wire(inst.flush_input);
    let flush_zero = {
        let nz = b.not(flush);
        b.name(nz, "assume_flush_zero")
    };
    let it_done = b.wire(it.done);
    let demat = sva::rose(&mut b, it_done, "it_demat");
    let flush_at_demat = {
        let x = b.xor(flush, demat);
        let ok = b.not(x);
        b.name(ok, "assume_flush_at_demat")
    };

    // Class-level transponder occupancy + taint bits.
    let mut class_table = PlTable::new();
    let mut class_of_pl: Vec<PlId> = Vec::new();
    for pl in pls.ids() {
        let cname = &classes[pl.index()];
        let cid = class_table
            .find(cname)
            .unwrap_or_else(|| class_table.add(cname.clone()));
        class_of_pl.push(cid);
    }
    // Per-PL µFSM taint bit.
    let mut pl_fsm_taint: Vec<Wire> = Vec::new();
    for ufsm in &ann.ufsms {
        let mut t = b.zero();
        for &var in &ufsm.vars {
            let tv = b.wire(inst.taint_of(var));
            let any = b.red_or(tv);
            t = b.or(t, any);
        }
        let tp = b.wire(inst.taint_of(ufsm.pcr));
        let anyp = b.red_or(tp);
        t = b.or(t, anyp);
        for _ in ufsm.candidate_states(&design.netlist) {
            pl_fsm_taint.push(t);
        }
    }
    let mut class_now = Vec::new();
    let mut class_tainted = Vec::new();
    for cid in class_table.ids() {
        let mut now = b.zero();
        let mut tainted = b.zero();
        for pl in pls.ids() {
            if class_of_pl[pl.index()] == cid {
                let vn = b.wire(ip.visit_now[pl.index()]);
                now = b.or(now, vn);
                let ft = pl_fsm_taint[pl.index()];
                let both = b.and(vn, ft);
                tainted = b.or(tainted, both);
            }
        }
        let now = b.name(now, &format!("ip_class_now_{}", class_table.name(cid)));
        let tainted = b.name(
            tainted,
            &format!("ip_class_tainted_{}", class_table.name(cid)),
        );
        class_now.push(now.id);
        class_tainted.push(tainted.id);
    }

    // Assumption-2/3 constraints per class.
    let it_inflight = b.wire(it.inflight);
    let mut inflight_at = Vec::new();
    let mut dead_at = Vec::new();
    for cid in class_table.ids() {
        let pnow = b.wire(class_now[cid.index()]);
        let np = b.not(pnow);
        let ok_inflight = b.or(np, it_inflight);
        let ok_inflight = b.name(
            ok_inflight,
            &format!("assume_it_inflight_at_{}", class_table.name(cid)),
        );
        inflight_at.push(ok_inflight.id);
        let ok_dead = b.or(np, it_done);
        let ok_dead = b.name(
            ok_dead,
            &format!("assume_it_dead_at_{}", class_table.name(cid)),
        );
        dead_at.push(ok_dead.id);
    }

    let netlist = b.finish().expect("leak harness netlist is valid");
    LeakHarness {
        netlist,
        pls,
        classes,
        ip,
        it,
        base_assumes,
        flush_zero: flush_zero.id,
        flush_at_demat: flush_at_demat.id,
        taint_rs1: taint_rs1.id,
        taint_rs2: taint_rs2.id,
        inst,
        intrinsic,
        opcode_assume_p,
        opcode_assume_t,
        inflight_at,
        dead_at,
        class_now,
        class_tainted,
        class_table,
    }
}

impl LeakHarness {
    /// The class-level PL table.
    pub fn class_table(&self) -> &PlTable {
        &self.class_table
    }

    /// The opcode-binding assume for the transponder.
    ///
    /// # Panics
    /// Panics if the opcode was not listed in the harness config.
    pub fn p_opcode_assume(&self, op: Opcode) -> SignalId {
        self.opcode_assume_p
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("transponder opcode {op} not prepared"))
    }

    /// The opcode-binding assume for the transmitter (intrinsic harnesses
    /// use the transponder binding).
    ///
    /// # Panics
    /// Panics if the opcode was not listed in the harness config.
    pub fn t_opcode_assume(&self, op: Opcode) -> SignalId {
        if self.intrinsic {
            return self.p_opcode_assume(op);
        }
        self.opcode_assume_t
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("transmitter opcode {op} not prepared"))
    }

    /// The taint-operand binding assume.
    pub fn operand_assume(&self, op: Operand) -> SignalId {
        match op {
            Operand::Rs1 => self.taint_rs1,
            Operand::Rs2 => self.taint_rs2,
        }
    }

    /// The Assumption-2/3 relation assume for decisions at `src` (a class
    /// PL id).
    ///
    /// # Panics
    /// Panics if `kind` is intrinsic (no relation assume needed).
    pub fn relation_assume(&self, kind: TxKind, src: PlId) -> SignalId {
        match kind {
            TxKind::DynamicOlder | TxKind::DynamicYounger => self.inflight_at[src.index()],
            TxKind::Static => self.dead_at[src.index()],
            TxKind::Intrinsic => panic!("intrinsic queries need no relation assume"),
        }
    }

    /// The flush-policy assume for a kind.
    pub fn flush_assume(&self, kind: TxKind) -> SignalId {
        match kind {
            TxKind::Static => self.flush_at_demat,
            _ => self.flush_zero,
        }
    }

    /// Every signal any query may pass as an *assume*: the cone-of-influence
    /// slice of a shared cover netlist must keep all of them, since assume
    /// activation reads their literals at every frame (see
    /// [`mc::CoiSlice`]).
    pub fn assume_signal_universe(&self) -> Vec<SignalId> {
        let mut sigs = self.base_assumes.clone();
        sigs.extend(self.opcode_assume_p.iter().map(|(_, s)| *s));
        sigs.extend(self.opcode_assume_t.iter().map(|(_, s)| *s));
        sigs.extend([
            self.taint_rs1,
            self.taint_rs2,
            self.flush_zero,
            self.flush_at_demat,
        ]);
        sigs.extend(self.inflight_at.iter().copied());
        sigs.extend(self.dead_at.iter().copied());
        sigs
    }

    /// Builds, into a fresh extension of this harness's netlist, the
    /// §V-C1 decision-taint covers of *many* transponders' class-level
    /// decisions, returning one cover-signal vector per input set (in
    /// order; the caller filters empty-dst decisions beforehand). Each
    /// cover is `src_now ##1 (exactly the decision's destinations & any
    /// destination tainted)`. Every transponder's queries over this harness
    /// can then share one bit-blast and one pooled solver context instead
    /// of one netlist per (transponder, pairing) unit.
    pub fn decision_covers_multi(&self, works: &[&[Decision]]) -> (Netlist, Vec<Vec<SignalId>>) {
        let mut b = Builder::from_netlist(self.netlist.clone());
        let mut all_covers = Vec::new();
        for (wi, decisions) in works.iter().enumerate() {
            // All destination classes that appear across this source's
            // decisions, for the exact-set veto.
            let mut covers = Vec::new();
            for (ix, d) in decisions.iter().enumerate() {
                let src_now = b.wire(self.class_now[d.src.index()]);
                let mut sibling_classes: BTreeSet<PlId> = BTreeSet::new();
                for d2 in decisions.iter().filter(|d2| d2.src == d.src) {
                    sibling_classes.extend(d2.dst.iter().copied());
                }
                let dst_now: Vec<Wire> = d
                    .dst
                    .iter()
                    .map(|&c| b.wire(self.class_now[c.index()]))
                    .collect();
                let other_now: Vec<Wire> = sibling_classes
                    .iter()
                    .filter(|c| !d.dst.contains(c))
                    .map(|&c| b.wire(self.class_now[c.index()]))
                    .collect();
                let dst_tainted: Vec<Wire> = d
                    .dst
                    .iter()
                    .map(|&c| b.wire(self.class_tainted[c.index()]))
                    .collect();
                let all_dst = b.all(&dst_now);
                let any_other = b.any(&other_now);
                let no_other = b.not(any_other);
                let any_taint = b.any(&dst_tainted);
                let exact = b.and(all_dst, no_other);
                let payload = b.and(exact, any_taint);
                let cover = sva::seq_then(&mut b, src_now, payload, &format!("dtaint_{wi}_{ix}"));
                covers.push(cover.id);
            }
            all_covers.push(covers);
        }
        let nl = b.finish().expect("decision-cover netlist is valid");
        (nl, all_covers)
    }
}
