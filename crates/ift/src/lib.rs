//! Cell-level information-flow tracking (IFT) instrumentation, in the style
//! of CellIFT: every signal in the design gets a same-width shadow *taint*
//! signal, with per-cell propagation rules (precise for logic cells,
//! conservatively smearing for arithmetic — reproducing the over-taint
//! false positives the paper reports in §VII-B1).
//!
//! SynthLC's symbolic IFT step (§V-C1) drives this pass as follows:
//!
//! * **taint introduction** — caller-designated *source* registers (the
//!   operand registers of §V-A) receive an extra `taint_en_<name>` primary
//!   input; while it is high, the register's taint is forced all-ones. The
//!   verification harness constrains that input with an `assume` tying it to
//!   "the transmitter under test is at issue" (the paper's first template
//!   assume).
//! * **taint flushing** — a global `taint_flush` input clears the taint of
//!   every non-*persistent* register. Assumption 3 (static transmitters)
//!   pulses it when the transmitter dematerializes, so only taint that
//!   flowed through persistent state (memory, cache arrays) — the static
//!   influence — survives.
//! * **taint blocking** — architectural state (ARF/AMEM) can be listed as
//!   *blocked*: taint never enters those registers, implementing the
//!   "prohibited from propagating architecturally between instruction
//!   outputs/inputs" rule.
//!
//! # Examples
//!
//! ```
//! use netlist::Builder;
//! use ift::{instrument, IftOptions};
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut b = Builder::new();
//! let x = b.input("x", 4);
//! let r = b.reg("r", 4, 0);
//! b.set_next(r, x)?;
//! let nl = b.finish()?;
//! let r = nl.find("r").unwrap();
//!
//! let inst = instrument(&nl, &IftOptions { sources: vec![r], ..Default::default() });
//! assert!(inst.netlist.find("r__taint").is_some());
//! # Ok(())
//! # }
//! ```

use netlist::{Builder, Netlist, Op, SignalId, UnOp, Wire};
use std::collections::{HashMap, HashSet};

/// Options controlling instrumentation.
#[derive(Clone, Debug, Default)]
pub struct IftOptions {
    /// Registers that may receive introduced taint (get a `taint_en_*`
    /// input). Typically the operand registers.
    pub sources: Vec<SignalId>,
    /// Registers whose taint survives a flush pulse (memory/cache arrays).
    pub persistent: Vec<SignalId>,
    /// Registers that never accept taint (ARF/AMEM architectural blocking).
    pub blocked: Vec<SignalId>,
}

/// The result of instrumentation.
#[derive(Clone, Debug)]
pub struct Instrumented {
    /// The taint-augmented netlist. Original signal ids are preserved.
    pub netlist: Netlist,
    /// The global flush input (1 bit): clears non-persistent register taint.
    pub flush_input: SignalId,
    taint: Vec<SignalId>,
    source_enables: HashMap<SignalId, SignalId>,
}

impl Instrumented {
    /// The taint shadow of an original signal.
    ///
    /// # Panics
    /// Panics if `orig` is not an original-design signal.
    pub fn taint_of(&self, orig: SignalId) -> SignalId {
        self.taint[orig.index()]
    }

    /// The `taint_en` input created for a source register.
    pub fn source_enable(&self, target: SignalId) -> Option<SignalId> {
        self.source_enables.get(&target).copied()
    }
}

fn replicate(b: &mut Builder, bit: Wire, width: u8) -> Wire {
    let ones = b.constant(netlist::mask(width), width);
    let zeros = b.constant(0, width);
    b.mux(bit, ones, zeros)
}

/// Upward carry smear: `out[i] = OR(t[0..=i])`, modelling that a tainted bit
/// can disturb every more-significant bit through carries.
fn smear_up(b: &mut Builder, t: Wire) -> Wire {
    if t.width == 1 {
        return t;
    }
    let mut acc = b.bit(t, 0);
    let mut out = acc;
    for i in 1..t.width {
        let bi = b.bit(t, i);
        acc = b.or(acc, bi);
        out = b.concat(acc, out);
    }
    out
}

/// Static over-approximation of where taint introduced at `sources` can
/// ever flow: the forward closure over combinational fan-out edges and
/// register `next` edges, with `blocked` registers never accepting taint
/// through their `next` input (mirroring the blocking rule of
/// [`instrument`]). Sources themselves are always in the set — even when
/// blocked, their *visible* taint includes the combinational enable.
///
/// Soundness: every CellIFT propagation rule emits zero taint when all of
/// its inputs carry zero taint, so any signal outside this set has taint
/// identically 0 in the instrumented design under any input sequence.
/// SynthLC uses this to discharge transmitter→transponder pairs with no
/// structural path without a SAT call.
pub fn taint_reachable(
    nl: &Netlist,
    sources: &[SignalId],
    blocked: &[SignalId],
) -> HashSet<SignalId> {
    let blocked: HashSet<SignalId> = blocked.iter().copied().collect();
    // Forward adjacency: comb users of each signal, plus next -> reg edges
    // (skipping blocked registers).
    let mut fanout: Vec<Vec<SignalId>> = vec![Vec::new(); nl.len()];
    for (id, node) in nl.iter() {
        for src in node.op.comb_fanin() {
            fanout[src.index()].push(id);
        }
        if let Op::Reg { next: Some(nx), .. } = node.op {
            if !blocked.contains(&id) {
                fanout[nx.index()].push(id);
            }
        }
    }
    let mut reach: HashSet<SignalId> = HashSet::new();
    let mut stack: Vec<SignalId> = sources.to_vec();
    while let Some(s) = stack.pop() {
        if !reach.insert(s) {
            continue;
        }
        stack.extend(fanout[s.index()].iter().copied());
    }
    reach
}

/// Instruments a netlist with a taint plane.
///
/// # Panics
/// Panics if the input netlist is invalid or an option references a
/// non-register signal.
pub fn instrument(nl: &Netlist, opts: &IftOptions) -> Instrumented {
    nl.validate().expect("instrumenting an invalid netlist");
    for &s in opts
        .sources
        .iter()
        .chain(&opts.persistent)
        .chain(&opts.blocked)
    {
        assert!(
            nl.node(s).op.is_reg(),
            "IFT option references non-register {}",
            nl.display_name(s)
        );
    }
    let persistent: HashSet<SignalId> = opts.persistent.iter().copied().collect();
    let blocked: HashSet<SignalId> = opts.blocked.iter().copied().collect();

    let mut b = Builder::from_netlist(nl.clone());
    let flush = b.input("taint_flush", 1);
    let not_flush = b.not(flush);

    let mut source_enables = HashMap::new();
    for &s in &opts.sources {
        let en = b.input(&format!("taint_en_{}", nl.display_name(s)), 1);
        source_enables.insert(s, en.id);
    }

    let n = nl.len();
    let mut taint: Vec<Option<Wire>> = vec![None; n];
    let mut taint_regs: Vec<Option<Wire>> = vec![None; n];
    // Taint registers are declared first (so comb taint of signals feeding
    // back through registers resolves), then comb taints in topo order, then
    // register-taint next wiring. A *source* register's visible taint is
    // `treg | enable` so introduced taint is observable in the same cycle
    // the enable fires (same-cycle reads — e.g. decode-stage operand uses —
    // must see it).
    for (id, node) in nl.iter() {
        if node.op.is_reg() {
            let t = b.reg(&format!("{}__taint", nl.display_name(id)), node.width, 0);
            taint_regs[id.index()] = Some(t);
            let visible = if let Some(&en) = source_enables.get(&id) {
                let en_w = b.wire(en);
                let ones = replicate(&mut b, en_w, node.width);
                b.or(t, ones)
            } else {
                t
            };
            taint[id.index()] = Some(visible);
        }
    }
    let order = netlist::analysis::topo_order(nl).expect("validated netlist is acyclic");
    for &id in &order {
        let node = nl.node(id);
        let w = node.width;
        let t: Wire = match &node.op {
            Op::Reg { .. } => continue, // declared above
            Op::Input | Op::Const(_) => b.constant(0, w),
            Op::Unary(op, a) => {
                let ta = taint[a.index()].expect("topo order");
                let aw = b.wire(*a);
                match op {
                    UnOp::Not => ta,
                    UnOp::Neg => smear_up(&mut b, ta),
                    UnOp::RedOr => {
                        // Tainted iff no untainted bit is 1 and some bit is
                        // tainted.
                        let nt = b.not(ta);
                        let untainted_ones = b.and(aw, nt);
                        let has_solid_one = b.red_or(untainted_ones);
                        let none_solid = b.not(has_solid_one);
                        let any_taint = b.red_or(ta);
                        b.and(none_solid, any_taint)
                    }
                    UnOp::RedAnd => {
                        // Tainted iff all untainted bits are 1 and some bit
                        // is tainted.
                        let with_taint_high = b.or(aw, ta);
                        let all_one = b.red_and(with_taint_high);
                        let any_taint = b.red_or(ta);
                        b.and(all_one, any_taint)
                    }
                    UnOp::RedXor => b.red_or(ta),
                }
            }
            Op::Binary(op, a, c) => {
                let ta = taint[a.index()].expect("topo order");
                let tc = taint[c.index()].expect("topo order");
                let aw = b.wire(*a);
                let cw = b.wire(*c);
                use netlist::BinOp::*;
                match op {
                    And => {
                        let x = b.and(ta, tc);
                        let y = b.and(ta, cw);
                        let z = b.and(tc, aw);
                        let xy = b.or(x, y);
                        b.or(xy, z)
                    }
                    Or => {
                        let ncw = b.not(cw);
                        let naw = b.not(aw);
                        let x = b.and(ta, tc);
                        let y = b.and(ta, ncw);
                        let z = b.and(tc, naw);
                        let xy = b.or(x, y);
                        b.or(xy, z)
                    }
                    Xor => b.or(ta, tc),
                    Add | Sub => {
                        let u = b.or(ta, tc);
                        smear_up(&mut b, u)
                    }
                    Mul => {
                        let u = b.or(ta, tc);
                        let any = b.red_or(u);
                        replicate(&mut b, any, w)
                    }
                    Eq | Ne | Ult | Ule => {
                        let u = b.or(ta, tc);
                        b.red_or(u)
                    }
                    Shl | Shr => {
                        let shifted = if matches!(op, Shl) {
                            b.shl(ta, cw)
                        } else {
                            b.shr(ta, cw)
                        };
                        let amt_tainted = b.red_or(tc);
                        let all = replicate(&mut b, amt_tainted, w);
                        b.or(shifted, all)
                    }
                }
            }
            Op::Mux { sel, a, b: c } => {
                let ts = taint[sel.index()].expect("topo order");
                let ta = taint[a.index()].expect("topo order");
                let tc = taint[c.index()].expect("topo order");
                let sw = b.wire(*sel);
                let aw = b.wire(*a);
                let cw = b.wire(*c);
                // Untainted select: chosen arm's taint. Tainted select:
                // either arm's taint plus every bit where the arms differ.
                let chosen = b.mux(sw, ta, tc);
                let diff = b.xor(aw, cw);
                let either = b.or(ta, tc);
                let leak = b.or(diff, either);
                let sel_t = replicate(&mut b, ts, w);
                let from_sel = b.and(sel_t, leak);
                b.or(chosen, from_sel)
            }
            Op::Slice { src, hi, lo } => {
                let ts = taint[src.index()].expect("topo order");
                b.slice(ts, *hi, *lo)
            }
            Op::Concat { hi, lo } => {
                let th = taint[hi.index()].expect("topo order");
                let tl = taint[lo.index()].expect("topo order");
                b.concat(th, tl)
            }
        };
        taint[id.index()] = Some(t);
    }
    // Wire register taints.
    for (id, node) in nl.iter() {
        if let Op::Reg { next, .. } = &node.op {
            let treg = taint_regs[id.index()].expect("declared");
            let next_sig = next.expect("validated");
            let mut tnext = taint[next_sig.index()].expect("topo order");
            let is_blocked = blocked.contains(&id);
            if is_blocked {
                tnext = b.constant(0, node.width);
            }
            // Blocked source registers (the ARF) get *purely combinational*
            // introduction: their visible taint is `enable` alone, with no
            // latched residue — otherwise taint would outlive the
            // introduction window by a cycle and bleed into the next
            // instruction's register read.
            if !is_blocked {
                if let Some(&en) = source_enables.get(&id) {
                    let en_w = b.wire(en);
                    let ones = replicate(&mut b, en_w, node.width);
                    tnext = b.or(tnext, ones);
                }
            }
            if !persistent.contains(&id) {
                // Flush clears the taint of transient state.
                let nf = replicate(&mut b, not_flush, node.width);
                tnext = b.and(tnext, nf);
            }
            b.set_next(treg, tnext).expect("fresh taint register");
        }
    }
    let netlist = b.finish().expect("instrumented netlist is valid");
    let flush_input = flush.id;
    Instrumented {
        netlist,
        flush_input,
        taint: taint.into_iter().map(|t| t.expect("complete").id).collect(),
        source_enables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Simulator;

    /// A 2-register pipeline: src -> mid, fed by input x.
    fn pipeline() -> (Netlist, SignalId, SignalId, SignalId) {
        let mut b = Builder::new();
        let x = b.input("x", 4);
        let src = b.reg("src", 4, 0);
        let mid = b.reg("mid", 4, 0);
        b.set_next(src, x).unwrap();
        b.set_next(mid, src).unwrap();
        let nl = b.finish().unwrap();
        let (x, s, m) = (
            nl.find("x").unwrap(),
            nl.find("src").unwrap(),
            nl.find("mid").unwrap(),
        );
        (nl, x, s, m)
    }

    #[test]
    fn taint_flows_through_registers() {
        let (nl, x, src, mid) = pipeline();
        let inst = instrument(
            &nl,
            &IftOptions {
                sources: vec![src],
                ..Default::default()
            },
        );
        let en = inst.source_enable(src).unwrap();
        let t_mid = inst.taint_of(mid);
        let mut s = Simulator::new(&inst.netlist);
        s.set_input(en, 1);
        s.set_input(x, 5);
        s.step(); // taint lands in src
        s.set_input(en, 0);
        assert_eq!(s.value(inst.taint_of(src)), 0xf);
        s.step(); // taint flows src -> mid
        assert_eq!(s.value(t_mid), 0xf);
    }

    #[test]
    fn flush_clears_transient_but_not_persistent() {
        // `mem` models persistent storage: it latches `src` only while `we`
        // is high and then holds its value, like a memory word.
        let mut b = Builder::new();
        let x = b.input("x", 4);
        let we = b.input("we", 1);
        let src = b.reg("src", 4, 0);
        let mem = b.reg("mem", 4, 0);
        b.set_next(src, x).unwrap();
        let captured = b.mux(we, src, mem);
        b.set_next(mem, captured).unwrap();
        let nl = b.finish().unwrap();
        let (src, mem) = (nl.find("src").unwrap(), nl.find("mem").unwrap());
        let inst = instrument(
            &nl,
            &IftOptions {
                sources: vec![src],
                persistent: vec![mem],
                ..Default::default()
            },
        );
        let en = inst.source_enable(src).unwrap();
        let we = nl.find("we").unwrap();
        let mut s = Simulator::new(&inst.netlist);
        s.set_input(en, 1);
        s.step(); // taint lands in src
        s.set_input(en, 0);
        s.set_input(we, 1);
        s.step(); // mem captures tainted src
        s.set_input(we, 0);
        assert_eq!(s.value(inst.taint_of(mem)), 0xf, "mem captured taint");
        s.set_input(inst.flush_input, 1);
        s.step();
        s.set_input(inst.flush_input, 0);
        assert_eq!(s.value(inst.taint_of(src)), 0, "transient flushed");
        assert_eq!(s.value(inst.taint_of(mem)), 0xf, "persistent survives");
    }

    #[test]
    fn blocked_registers_never_taint() {
        let (nl, _x, src, mid) = pipeline();
        let inst = instrument(
            &nl,
            &IftOptions {
                sources: vec![src],
                blocked: vec![mid],
                ..Default::default()
            },
        );
        let en = inst.source_enable(src).unwrap();
        let mut s = Simulator::new(&inst.netlist);
        s.set_input(en, 1);
        s.step();
        s.step();
        s.step();
        assert_eq!(s.value(inst.taint_of(mid)), 0, "blocked reg stays clean");
    }

    /// Helper: 2-input comb function; returns taint of output when `ra` is
    /// fully tainted and `rb` is clean, at concrete register values.
    fn comb_taint(f: impl Fn(&mut Builder, Wire, Wire) -> Wire, av: u64, bv: u64) -> u64 {
        let mut bld = Builder::new();
        let x = bld.input("x", 4);
        let y = bld.input("y", 4);
        let ra = bld.reg("ra", 4, 0);
        let rb = bld.reg("rb", 4, 0);
        bld.set_next(ra, x).unwrap();
        bld.set_next(rb, y).unwrap();
        let out = f(&mut bld, ra, rb);
        bld.name(out, "out");
        let nl = bld.finish().unwrap();
        let inst = instrument(
            &nl,
            &IftOptions {
                sources: vec![nl.find("ra").unwrap()],
                ..Default::default()
            },
        );
        let mut s = Simulator::new(&inst.netlist);
        let en = inst.source_enable(nl.find("ra").unwrap()).unwrap();
        s.set_input(nl.find("x").unwrap(), av);
        s.set_input(nl.find("y").unwrap(), bv);
        s.set_input(en, 1);
        s.step();
        s.set_input(en, 0);
        s.value(inst.taint_of(nl.find("out").unwrap()))
    }

    #[test]
    fn and_gate_taint_is_value_sensitive() {
        // tainted & 0 = 0 regardless of taint -> no taint out.
        assert_eq!(comb_taint(|b, a, c| b.and(a, c), 0xf, 0x0), 0);
        // tainted & 1 bits leak.
        assert_eq!(comb_taint(|b, a, c| b.and(a, c), 0xf, 0xf), 0xf);
        assert_eq!(comb_taint(|b, a, c| b.and(a, c), 0xf, 0x3), 0x3);
    }

    #[test]
    fn or_gate_taint_is_value_sensitive() {
        // tainted | 1 = 1 regardless -> no taint out on those bits.
        assert_eq!(comb_taint(|b, a, c| b.or(a, c), 0xf, 0xf), 0);
        assert_eq!(comb_taint(|b, a, c| b.or(a, c), 0xf, 0x0), 0xf);
    }

    #[test]
    fn add_taint_smears_upward_only() {
        let mut bld = Builder::new();
        let x = bld.input("x", 4);
        let y = bld.input("y", 4);
        let ra = bld.reg("ra", 4, 0);
        let rb = bld.reg("rb", 4, 0);
        bld.set_next(ra, x).unwrap();
        bld.set_next(rb, y).unwrap();
        // Taint only reaches bits [3:2] of the adder's left operand.
        let hi = bld.slice(ra, 3, 2);
        let clean = bld.constant(0, 2);
        let masked = bld.concat(hi, clean);
        let sum = bld.add(masked, rb);
        bld.name(sum, "out");
        let nl = bld.finish().unwrap();
        let inst = instrument(
            &nl,
            &IftOptions {
                sources: vec![nl.find("ra").unwrap()],
                ..Default::default()
            },
        );
        let mut s = Simulator::new(&inst.netlist);
        let en = inst.source_enable(nl.find("ra").unwrap()).unwrap();
        s.set_input(en, 1);
        s.step();
        s.set_input(en, 0);
        let t = s.value(inst.taint_of(nl.find("out").unwrap()));
        assert_eq!(t, 0b1100, "taint smears up from bit 2, not down");
    }

    #[test]
    fn mux_select_taint_only_leaks_differing_arms() {
        let mut bld = Builder::new();
        let sel_in = bld.input("sel_in", 1);
        let rsel = bld.reg("rsel", 1, 0);
        bld.set_next(rsel, sel_in).unwrap();
        let a = bld.constant(5, 4);
        let c = bld.constant(5, 4);
        let d = bld.constant(9, 4);
        let same = bld.mux(rsel, a, c);
        let diff = bld.mux(rsel, a, d);
        bld.name(same, "same");
        bld.name(diff, "diff");
        let nl = bld.finish().unwrap();
        let inst = instrument(
            &nl,
            &IftOptions {
                sources: vec![nl.find("rsel").unwrap()],
                ..Default::default()
            },
        );
        let mut s = Simulator::new(&inst.netlist);
        let en = inst.source_enable(nl.find("rsel").unwrap()).unwrap();
        s.set_input(en, 1);
        s.step();
        s.set_input(en, 0);
        assert_eq!(s.value(inst.taint_of(nl.find("same").unwrap())), 0);
        assert_eq!(
            s.value(inst.taint_of(nl.find("diff").unwrap())),
            0b1100,
            "bits where arms differ leak select taint"
        );
    }

    #[test]
    fn static_reach_set_over_approximates_simulated_taint() {
        // A design exercising most cell rules, with one branch structurally
        // cut off from the source (fed only by y) and a blocked register.
        let mut bld = Builder::new();
        let x = bld.input("x", 4);
        let y = bld.input("y", 4);
        let src = bld.reg("src", 4, 0);
        bld.set_next(src, x).unwrap();
        let yr = bld.reg("yr", 4, 0);
        bld.set_next(yr, y).unwrap();
        let sum = bld.add(src, yr);
        bld.name(sum, "sum");
        let prod = bld.mul(src, yr);
        let sel = bld.bit(sum, 0);
        let picked = bld.mux(sel, prod, sum);
        let down = bld.reg("down", 4, 0);
        bld.set_next(down, picked).unwrap();
        let barrier = bld.reg("barrier", 4, 0);
        bld.set_next(barrier, picked).unwrap();
        let past = bld.not(barrier);
        bld.name(past, "past_barrier");
        // Clean island: depends only on y.
        let island = bld.xor(yr, y);
        bld.name(island, "island");
        let nl = bld.finish().unwrap();
        let src = nl.find("src").unwrap();
        let barrier = nl.find("barrier").unwrap();
        let reach = taint_reachable(&nl, &[src], &[barrier]);
        assert!(!reach.contains(&nl.find("island").unwrap()));
        assert!(!reach.contains(&barrier), "blocked reg is unreachable");
        assert!(!reach.contains(&nl.find("past_barrier").unwrap()));
        assert!(reach.contains(&nl.find("down").unwrap()));

        let inst = instrument(
            &nl,
            &IftOptions {
                sources: vec![src],
                blocked: vec![barrier],
                ..Default::default()
            },
        );
        let en = inst.source_enable(src).unwrap();
        let mut s = Simulator::new(&inst.netlist);
        s.set_input(en, 1);
        let mut rng = 0x9e3779b97f4a7c15u64;
        for cycle in 0..12 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.set_input(nl.find("x").unwrap(), rng & 0xf);
            s.set_input(nl.find("y").unwrap(), (rng >> 7) & 0xf);
            s.step();
            for (id, _) in nl.iter() {
                if !reach.contains(&id) {
                    assert_eq!(
                        s.value(inst.taint_of(id)),
                        0,
                        "cycle {cycle}: {} outside the reach set must be clean",
                        nl.display_name(id)
                    );
                }
            }
        }
    }

    #[test]
    fn original_signals_keep_their_ids_and_behaviour() {
        let (nl, x, src, mid) = pipeline();
        let inst = instrument(&nl, &IftOptions::default());
        let mut s = Simulator::new(&inst.netlist);
        s.set_input(x, 7);
        s.step();
        s.step();
        assert_eq!(s.value(src), 7);
        assert_eq!(s.value(mid), 7);
    }
}
