//! Time-frame expansion of a netlist into SAT literals.

use crate::cnf::GateBuilder;
use crate::coi::CoiSlice;
use crate::elab::Elab;
use netlist::{BinOp, Netlist, Op, SignalId, UnOp};
use std::collections::HashSet;
use std::sync::Arc;

/// How registers are constrained at frame 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InitMode {
    /// Registers start at their reset values (the paper's "valid reset
    /// state", §V-B).
    Reset,
    /// Registers start fully symbolic (used by the k-induction step).
    Free,
}

/// An incremental unrolling: frame `t` holds one literal per signal bit.
#[derive(Debug)]
pub struct Unrolling<'a> {
    nl: &'a Netlist,
    elab: Arc<Elab>,
    init: InitMode,
    free_regs: HashSet<SignalId>,
    /// Optional cone-of-influence slice: out-of-cone nodes get no literals.
    coi: Option<Arc<CoiSlice>>,
    gate: GateBuilder,
    /// Per-signal bit offsets into every frame, fixed when frame 0 is
    /// built: signal `i` occupies `offsets[i]..offsets[i + 1]`, an empty
    /// range when the slice drops it.
    offsets: Vec<u32>,
    /// `frames[t]` = every kept signal's LSB-first literals at cycle `t`,
    /// laid out flat at `offsets`.
    frames: Vec<Vec<sat::Lit>>,
}

impl<'a> Unrolling<'a> {
    /// Creates an unrolling with zero frames; call [`Unrolling::extend_to`].
    ///
    /// # Panics
    /// Panics if the netlist fails validation.
    pub fn new(nl: &'a Netlist, init: InitMode) -> Self {
        Self::with_elab(nl, init, Arc::new(Elab::new(nl)))
    }

    /// Like [`Unrolling::new`], but reuses an already-computed elaboration
    /// (validation + topological order) of the same netlist, e.g. shared by
    /// many checkers over one harness.
    ///
    /// # Panics
    /// Panics if the elaboration does not match the netlist.
    pub fn with_elab(nl: &'a Netlist, init: InitMode, elab: Arc<Elab>) -> Self {
        assert_eq!(
            elab.len(),
            nl.len(),
            "elaboration belongs to a different netlist"
        );
        Self {
            nl,
            elab,
            init,
            free_regs: HashSet::new(),
            coi: None,
            gate: GateBuilder::new(),
            offsets: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Restricts the unrolling to a cone-of-influence slice: nodes outside
    /// the slice are skipped entirely (no literals, no clauses). An
    /// out-of-cone signal's [`Unrolling::lits`] are empty, so
    /// [`Unrolling::model_value`] reads it as 0, and [`Unrolling::lit`]
    /// panics naming it; the slice must cover every cover/assume signal
    /// the caller will reference. Must be called before any frame is
    /// built.
    ///
    /// # Panics
    /// Panics if frames have already been built or the slice belongs to a
    /// different netlist.
    pub fn set_coi(&mut self, coi: Option<Arc<CoiSlice>>) {
        assert!(self.frames.is_empty(), "set_coi after unrolling");
        if let Some(c) = &coi {
            assert_eq!(c.total_nodes, self.nl.len(), "slice of a different netlist");
        }
        self.coi = coi;
    }

    /// The active cone-of-influence slice, if any.
    pub fn coi(&self) -> Option<Arc<CoiSlice>> {
        self.coi.clone()
    }

    /// The shared elaboration backing this unrolling.
    pub fn elab(&self) -> Arc<Elab> {
        Arc::clone(&self.elab)
    }

    /// Marks registers whose *initial* value is symbolic even under
    /// [`InitMode::Reset`] — the paper's "only architectural state is
    /// symbolically initialized" reset discipline (§V-B). Must be called
    /// before any frame is built.
    ///
    /// # Panics
    /// Panics if frames have already been built.
    pub fn set_free_regs(&mut self, regs: &[SignalId]) {
        assert!(self.frames.is_empty(), "set_free_regs after unrolling");
        self.free_regs = regs.iter().copied().collect();
    }

    /// The netlist being unrolled.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Number of built frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Mutable access to the gate builder / solver.
    pub fn gate(&mut self) -> &mut GateBuilder {
        &mut self.gate
    }

    /// The literals of `sig` at `frame` (LSB first); empty when a
    /// cone-of-influence slice drops `sig`.
    ///
    /// # Panics
    /// Panics if the frame has not been built.
    pub fn lits(&self, frame: usize, sig: SignalId) -> &[sat::Lit] {
        let i = sig.index();
        &self.frames[frame][self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The single literal of a 1-bit signal at `frame`.
    ///
    /// # Panics
    /// Panics if the signal is wider than one bit, or if the
    /// cone-of-influence slice drops it.
    pub fn lit(&self, frame: usize, sig: SignalId) -> sat::Lit {
        let ls = self.lits(frame, sig);
        if ls.is_empty() {
            let coi = self.coi.as_ref().expect("only a slice drops signals");
            panic!(
                "signal `{}` is outside the cone-of-influence slice ({} of {} nodes kept)",
                self.nl.display_name(sig),
                coi.kept_nodes,
                coi.total_nodes
            );
        }
        assert_eq!(ls.len(), 1, "signal is not 1 bit");
        ls[0]
    }

    /// Builds frames until `frames` exist.
    pub fn extend_to(&mut self, frames: usize) {
        while self.frames.len() < frames {
            self.build_frame();
        }
    }

    /// Bit-blasts one more frame. Operands are read in place and results
    /// written straight into the frame; the gate calls (and so variables
    /// and clauses) come in topological order, operand bits LSB first.
    fn build_frame(&mut self) {
        let t = self.frames.len();
        if t == 0 {
            let mut end = 0u32;
            self.offsets = std::iter::once(0)
                .chain(self.nl.iter().map(|(id, node)| {
                    if self.coi.as_ref().is_none_or(|c| c.keeps(id)) {
                        end += node.width as u32;
                    }
                    end
                }))
                .collect();
        }
        let Self {
            nl,
            elab,
            init,
            free_regs,
            gate,
            offsets,
            frames,
            ..
        } = self;
        let at = |s: SignalId| offsets[s.index()] as usize;
        let span = |s: SignalId| at(s)..offsets[s.index() + 1] as usize;
        let mut cur = vec![gate.false_lit(); *offsets.last().expect("offsets built") as usize];
        for &id in elab.order() {
            let out = span(id);
            if out.is_empty() {
                continue; // outside the cone-of-influence slice
            }
            let node = nl.node(id);
            debug_assert_eq!(out.len(), node.width as usize);
            let (o, w) = (out.start, out.len());
            match &node.op {
                Op::Input => cur[out].fill_with(|| gate.fresh()),
                Op::Const(v) => fill_const(gate, &mut cur[out], *v),
                Op::Reg { next, init: reset } => {
                    if t > 0 {
                        let nx = span(next.expect("validated netlist"));
                        cur[out].copy_from_slice(&frames[t - 1][nx]);
                    } else if *init == InitMode::Reset && !free_regs.contains(&id) {
                        fill_const(gate, &mut cur[out], *reset);
                    } else {
                        cur[out].fill_with(|| gate.fresh());
                    }
                }
                Op::Unary(op, a) => {
                    let a = span(*a);
                    match op {
                        UnOp::Not => {
                            for k in 0..w {
                                cur[o + k] = !cur[a.start + k];
                            }
                        }
                        UnOp::Neg => {
                            let bits = gate.word_neg(&cur[a]);
                            cur[out].copy_from_slice(&bits);
                        }
                        UnOp::RedOr => cur[o] = gate.or_many(&cur[a]),
                        UnOp::RedAnd => cur[o] = gate.and_many(&cur[a]),
                        UnOp::RedXor => {
                            let mut acc = gate.constant(false);
                            for k in a {
                                acc = gate.xor(acc, cur[k]);
                            }
                            cur[o] = acc;
                        }
                    }
                }
                Op::Binary(op, a, b) => {
                    let (a, b) = (span(*a), span(*b));
                    match op {
                        BinOp::And | BinOp::Or | BinOp::Xor => {
                            for k in 0..w {
                                let (x, y) = (cur[a.start + k], cur[b.start + k]);
                                cur[o + k] = match op {
                                    BinOp::And => gate.and(x, y),
                                    BinOp::Or => gate.or(x, y),
                                    _ => gate.xor(x, y),
                                };
                            }
                        }
                        BinOp::Eq => cur[o] = gate.word_eq(&cur[a], &cur[b]),
                        BinOp::Ne => cur[o] = !gate.word_eq(&cur[a], &cur[b]),
                        BinOp::Ult => cur[o] = gate.word_ult(&cur[a], &cur[b]),
                        BinOp::Ule => cur[o] = gate.word_ule(&cur[a], &cur[b]),
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl | BinOp::Shr => {
                            let (x, y) = (&cur[a], &cur[b]);
                            let bits = match op {
                                BinOp::Add => gate.word_add(x, y),
                                BinOp::Sub => gate.word_sub(x, y),
                                BinOp::Mul => gate.word_mul(x, y),
                                BinOp::Shl => gate.word_shl(x, y),
                                _ => gate.word_shr(x, y),
                            };
                            cur[out].copy_from_slice(&bits);
                        }
                    }
                }
                Op::Mux { sel, a, b } => {
                    let (s, a, b) = (cur[at(*sel)], at(*a), at(*b));
                    for k in 0..w {
                        cur[o + k] = gate.mux(s, cur[a + k], cur[b + k]);
                    }
                }
                Op::Slice { src, hi, lo } => {
                    let src = at(*src);
                    cur.copy_within(src + *lo as usize..=src + *hi as usize, o);
                }
                Op::Concat { hi, lo } => {
                    let lo = span(*lo);
                    let lw = lo.len();
                    cur.copy_within(lo, o);
                    cur.copy_within(span(*hi), o + lw);
                }
            }
        }
        frames.push(cur);
    }

    /// Reads a signal's value at a frame out of the most recent SAT model.
    /// Unconstrained bits read as 0.
    pub fn model_value(&self, frame: usize, sig: SignalId) -> u64 {
        let solver = self.gate.solver_ref();
        let mut v = 0u64;
        for (i, &l) in self.lits(frame, sig).iter().enumerate() {
            if solver.lit_model(l) == Some(true) {
                v |= 1 << i;
            }
        }
        v
    }
}

/// Writes the LSB-first literals of the constant `v` into `dst`.
fn fill_const(gate: &GateBuilder, dst: &mut [sat::Lit], v: u64) {
    for (k, l) in dst.iter_mut().enumerate() {
        *l = gate.constant((v >> k) & 1 == 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Builder;
    use sat::SolveResult;

    fn counter(width: u8) -> Netlist {
        let mut b = Builder::new();
        let c = b.reg("c", width, 0);
        let one = b.constant(1, width);
        let n = b.add(c, one);
        b.set_next(c, n).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn counter_reaches_value_at_exact_frame() {
        let nl = counter(4);
        let c = nl.find("c").unwrap();
        let mut u = Unrolling::new(&nl, InitMode::Reset);
        u.extend_to(6);
        // c@5 == 5 must be satisfiable; c@5 == 4 unsatisfiable.
        let five = u.gate().word_const(5, 4);
        let lits5 = u.lits(5, c).to_vec();
        let eq5 = u.gate().word_eq(&lits5, &five);
        assert_eq!(u.gate().solver().solve_assuming(&[eq5]), SolveResult::Sat);
        let four = u.gate().word_const(4, 4);
        let eq4 = u.gate().word_eq(&lits5, &four);
        assert_eq!(u.gate().solver().solve_assuming(&[eq4]), SolveResult::Unsat);
    }

    #[test]
    fn free_init_makes_any_value_reachable_at_frame_0() {
        let nl = counter(4);
        let c = nl.find("c").unwrap();
        let mut u = Unrolling::new(&nl, InitMode::Free);
        u.extend_to(1);
        let nine = u.gate().word_const(9, 4);
        let lits0 = u.lits(0, c).to_vec();
        let eq = u.gate().word_eq(&lits0, &nine);
        assert_eq!(u.gate().solver().solve_assuming(&[eq]), SolveResult::Sat);
    }

    #[test]
    #[should_panic(expected = "signal `b_out` is outside the cone-of-influence slice")]
    fn lit_of_an_out_of_cone_signal_panics_naming_it() {
        let mut b = Builder::new();
        for name in ["a", "b"] {
            let x = b.input(&format!("{name}_in"), 1);
            let r = b.reg(&format!("{name}_out"), 1, 0);
            b.set_next(r, x).unwrap();
        }
        let nl = b.finish().unwrap();
        let (a, bo) = (nl.find("a_out").unwrap(), nl.find("b_out").unwrap());
        let mut u = Unrolling::new(&nl, InitMode::Reset);
        u.set_coi(Some(Arc::new(CoiSlice::compute(&nl, &[a]))));
        u.extend_to(2);
        assert!(
            u.lits(1, bo).is_empty(),
            "out-of-cone signals hold no literals"
        );
        assert_eq!(u.model_value(1, bo), 0, "and read as 0");
        let _ = u.lit(1, a);
        u.lit(1, bo);
    }

    #[test]
    fn model_value_reads_inputs() {
        let mut b = Builder::new();
        let x = b.input("x", 8);
        let r = b.reg("r", 8, 0);
        b.set_next(r, x).unwrap();
        let nl = b.finish().unwrap();
        let (x, r) = (nl.find("x").unwrap(), nl.find("r").unwrap());
        let mut u = Unrolling::new(&nl, InitMode::Reset);
        u.extend_to(2);
        let c99 = u.gate().word_const(99, 8);
        let r1 = u.lits(1, r).to_vec();
        let eq = u.gate().word_eq(&r1, &c99);
        assert!(u.gate().solver().solve_assuming(&[eq]).is_sat());
        assert_eq!(u.model_value(0, x), 99);
        assert_eq!(u.model_value(1, r), 99);
    }
}
