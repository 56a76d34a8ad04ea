//! The SynthLC verification harness (§V-C1, Fig. 7): an IFT-instrumented
//! design plus trackers for a transponder instance `iP` and a transmitter
//! instance `iT`, with assume signals encoding Assumptions 1/2a/2b/3 and the
//! taint-introduction binding, and decision-taint covers per transponder
//! decision.
//!
//! The trackers follow the IUV harness's rule ([`mupath::Tracker`]); this
//! module adds only its own monitors, and names no signal to find it.
//!
//! One harness (and one incremental model checker) serves *every*
//! (transmitter-opcode, operand, decision) query for a given
//! (transponder, slot arrangement): the per-query differences are all
//! `assume` signals, so queries share the solver and its learnt clauses —
//! the reproduction's answer to the paper's JasperGold job pool.

use ift::{instrument, IftOptions, Instrumented};
use isa::Opcode;
use mupath::{fetch_counter, for_each_pl, no_control_flow, opcode_field, PlClasses, Tracker};
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

/// Monitors for one tracked dynamic instruction: the shared tracker plus
/// the leak harness's own occupancy, completion and issue monitors.
#[derive(Clone, Debug)]
pub struct Tracked {
    /// The fetch-slot tracker (fire, sticky seen bit, captured PC).
    pub tracker: Tracker,
    /// Assume: no later fetch reuses the instruction's PC.
    pub no_refetch: SignalId,
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
    /// The transponder tracker.
    pub ip: Tracked,
    /// The transmitter tracker (same monitors as `ip` when intrinsic).
    pub it: Tracked,
    /// Base assumes that hold for every query (slot opcode binding is *not*
    /// included — see [`LeakHarness::p_opcode_assume`] and
    /// [`LeakHarness::t_opcode_assume`]).
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

/// Tracks the instruction of the `slot`-th fetch event with the leak
/// harness's monitors.
fn track(
    b: &mut Builder,
    design: &Design,
    count: Wire,
    slot: usize,
    prefix: &'static str,
) -> Tracked {
    let tracker = Tracker::new(b, design, count, slot, prefix);
    let no_refetch = tracker.no_refetch(b, design);
    let mut visit_now = Vec::new();
    let mut any_now = b.zero();
    let mut any_visited = b.zero();
    for_each_pl(b, design, Some(&tracker), |b, pl, vn| {
        visit_now.push(vn.id);
        any_now = b.or(any_now, vn);
        let sticky = sva::sticky(b, vn, &format!("{prefix}_visited_{pl}"));
        any_visited = b.or(any_visited, sticky);
    });
    let inflight = b.name(any_now, &format!("{prefix}_inflight"));
    let done = tracker.finished(b, any_now, any_visited);
    let done = b.name(done, &format!("{prefix}_done"));
    let Tracker { fire, seen, .. } = tracker;
    let pc = b.wire(design.pc);
    let issue_fire = b.wire(design.issue_fire);
    let issue_pc = b.wire(design.issue_pc);
    let issue_valid = b.wire(design.issue_valid);
    // `seen` is a register; on request-driven DUVs (the cache) the issue
    // coincides with the fetch event itself, so the fire cycle must count
    // as "seen". On the cache, the tracked id equals the txid counter at
    // the fire cycle, making `same_pc` hold there.
    let seen_now = b.or(seen, fire);
    let same_pc = b.eq(issue_pc, tracker.pc);
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
        tracker,
        no_refetch: no_refetch.id,
        visit_now,
        inflight: inflight.id,
        done: done.id,
        issue_now: issue_now.id,
        stage_now: stage_now.id,
    }
}

/// The opcode bindings of the tracker that fires on `fire`: per opcode, the
/// assume that the instruction fetched then has that opcode.
fn bind_opcodes(
    b: &mut Builder,
    design: &Design,
    opfield: Wire,
    fire: Wire,
    ops: &[Opcode],
    role: char,
) -> Vec<(Opcode, SignalId)> {
    ops.iter()
        .map(|&op| {
            let m = b.eq_const(opfield, design.type_encoding(op));
            let nf = b.not(fire);
            let ok = b.or(nf, m);
            (op, b.name(ok, &format!("assume_{role}_is_{op}")).id)
        })
        .collect()
}

/// The binding of `op` in a tracker's opcode bindings.
fn prepared(bindings: &[(Opcode, SignalId)], op: Opcode, role: &str) -> SignalId {
    let found = bindings.iter().find(|&&(o, _)| o == op);
    found.map_or_else(|| panic!("{role} opcode {op} not prepared"), |&(_, s)| s)
}

/// Where the leak harness introduces taint — the one rule its taint
/// binding and the static taint prune share.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TaintEntry<'d> {
    /// Designs that read an architectural register file: the ARF register
    /// the transmitter's rs field names, while it occupies the
    /// decode/issue stage (so decode-time operand uses, such as
    /// operand-packing eligibility, are covered). Either operand may name
    /// any ARF register.
    Arf(&'d [SignalId]),
    /// Request-driven DUVs (the cache): the per-operand request registers
    /// `(rs1, rs2)`, at issue.
    Operands(SignalId, SignalId),
}

impl<'d> TaintEntry<'d> {
    /// The rule for `design`: ARF taint when it has an ARF and rs fields.
    pub(crate) fn of(design: &'d Design) -> Self {
        let ann = &design.annotations;
        if design.rs_fields.is_some() && !ann.arf.is_empty() {
            TaintEntry::Arf(&ann.arf)
        } else {
            TaintEntry::Operands(ann.operand_regs[0], ann.operand_regs[1])
        }
    }

    /// The registers taint on the transmitter's `operand` may enter at.
    pub(crate) fn sources(self, operand: Operand) -> Vec<SignalId> {
        match (self, operand) {
            (TaintEntry::Arf(arf), _) => arf.to_vec(),
            (TaintEntry::Operands(rs1, _), Operand::Rs1) => vec![rs1],
            (TaintEntry::Operands(_, rs2), Operand::Rs2) => vec![rs2],
        }
    }
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
    let entry = TaintEntry::of(design);
    let inst = instrument(
        &design.netlist,
        &IftOptions {
            sources: match entry {
                TaintEntry::Arf(arf) => arf.to_vec(),
                TaintEntry::Operands(rs1, rs2) => vec![rs1, rs2],
            },
            persistent: {
                let mut p = ann.amem.clone();
                p.extend(ann.persistent.iter().copied());
                p
            },
            blocked: ann.arch_state(),
        },
    );
    let mut b = Builder::from_netlist(inst.netlist.clone());

    // PL and class tables (shared by both trackers).
    let PlClasses {
        pls,
        classes: class_table,
        class_of: class_of_pl,
        ufsm_of,
        ..
    } = PlClasses::of(design);

    let count = fetch_counter(&mut b, design);
    let intrinsic = cfg.slot_p == cfg.slot_t;
    let ip = track(&mut b, design, count, cfg.slot_p, "ip");
    let it = if intrinsic {
        ip.clone()
    } else {
        track(&mut b, design, count, cfg.slot_t, "it")
    };

    let mut base_assumes = vec![ip.no_refetch];
    if !intrinsic {
        base_assumes.push(it.no_refetch);
    }
    let (ip_fire, it_fire) = (ip.tracker.fire, it.tracker.fire);
    if cfg.no_cf_context {
        let opfield = opcode_field(&mut b, design);
        let ok = no_control_flow(&mut b, design, opfield, |b| {
            let tracked_fire = if intrinsic {
                ip_fire
            } else {
                b.or(ip_fire, it_fire)
            };
            let fetch_fire = b.wire(design.fetch_fire);
            let nt = b.not(tracked_fire);
            b.and(fetch_fire, nt)
        });
        base_assumes.push(ok.id);
    }

    // Opcode bindings (selected per query).
    let opfield = opcode_field(&mut b, design);
    let opcode_assume_p = bind_opcodes(&mut b, design, opfield, ip_fire, &cfg.p_opcodes, 'p');
    let opcode_assume_t = if intrinsic {
        Vec::new()
    } else {
        bind_opcodes(&mut b, design, opfield, it_fire, &cfg.t_opcodes, 't')
    };

    // Taint introduction binding.
    let bind = |b: &mut Builder, en: Wire, to: Wire| -> Wire {
        let x = b.xor(en, to);
        b.not(x)
    };
    let (taint_rs1, taint_rs2) = match entry {
        TaintEntry::Arf(arf) => {
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
                for (ix, &reg) in arf.iter().enumerate() {
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
        }
        TaintEntry::Operands(rs1_reg, rs2_reg) => {
            // Request-driven DUVs: taint the operand registers at issue.
            let it_issue = b.wire(it.issue_now);
            let en_a = b.wire(
                inst.source_enable(rs1_reg)
                    .expect("rs1 operand register is a taint source"),
            );
            let en_b = b.wire(
                inst.source_enable(rs2_reg)
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
        }
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

    // Class-level transponder occupancy + taint bits, from each µFSM's
    // taint bit: some state var or its PCR is tainted.
    let ufsm_taint: Vec<Wire> = ann
        .ufsms
        .iter()
        .map(|ufsm| {
            let mut t = b.zero();
            for &reg in ufsm.vars.iter().chain([&ufsm.pcr]) {
                let tv = b.wire(inst.taint_of(reg));
                let any = b.red_or(tv);
                t = b.or(t, any);
            }
            t
        })
        .collect();
    let mut class_now = Vec::new();
    let mut class_tainted = Vec::new();
    for cid in class_table.ids() {
        let mut now = b.zero();
        let mut tainted = b.zero();
        for pl in pls.ids() {
            if class_of_pl[pl.index()] == cid {
                let vn = b.wire(ip.visit_now[pl.index()]);
                now = b.or(now, vn);
                let ft = ufsm_taint[ufsm_of[pl.index()]];
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
        prepared(&self.opcode_assume_p, op, "transponder")
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
        prepared(&self.opcode_assume_t, op, "transmitter")
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
