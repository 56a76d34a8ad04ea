//! Core intermediate representation: a word-level, synchronous netlist.
//!
//! A [`Netlist`] is a flat list of [`Node`]s. Every node defines exactly one
//! signal (a bit-vector of up to 64 bits). Sequential state is modelled by
//! [`Op::Reg`] nodes: the node's value is the register's *current* value, and
//! the register's *next* value is another (combinational) signal wired up via
//! [`Netlist::set_reg_next`]. All registers share one implicit clock and are
//! initialised to a constant on reset, mirroring the paper's "valid reset
//! state" requirement (§V-B).

use std::collections::HashMap;
use std::fmt;

/// Identifier of a signal (and of the node that defines it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SignalId(pub u32);

impl SignalId {
    /// Index into the netlist's node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Two-operand combinational operators.
///
/// Unless noted otherwise both operands must have equal widths and the result
/// has that width. Comparison operators produce a 1-bit result. `Shl`/`Shr`
/// take an arbitrary-width shift amount and produce the left operand's width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Truncating addition.
    Add,
    /// Truncating (wrapping) subtraction.
    Sub,
    /// Truncating multiplication.
    Mul,
    /// Equality; 1-bit result.
    Eq,
    /// Inequality; 1-bit result.
    Ne,
    /// Unsigned less-than; 1-bit result.
    Ult,
    /// Unsigned less-or-equal; 1-bit result.
    Ule,
    /// Logical shift left by a variable amount.
    Shl,
    /// Logical shift right by a variable amount.
    Shr,
}

impl BinOp {
    /// Whether the result of this operator is a single bit regardless of the
    /// operand widths.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Ult | BinOp::Ule)
    }

    /// Evaluate the operator on two operand values already masked to `w` bits.
    pub fn eval(self, a: u64, b: u64, w: u8) -> u64 {
        let m = mask(w);
        match self {
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Add => a.wrapping_add(b) & m,
            BinOp::Sub => a.wrapping_sub(b) & m,
            BinOp::Mul => a.wrapping_mul(b) & m,
            BinOp::Eq => (a == b) as u64,
            BinOp::Ne => (a != b) as u64,
            BinOp::Ult => (a < b) as u64,
            BinOp::Ule => (a <= b) as u64,
            BinOp::Shl => {
                if b >= w as u64 {
                    0
                } else {
                    (a << b) & m
                }
            }
            BinOp::Shr => {
                if b >= w as u64 {
                    0
                } else {
                    a >> b
                }
            }
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Ult => "ult",
            BinOp::Ule => "ule",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// One-operand combinational operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Bitwise NOT; same width.
    Not,
    /// Two's-complement negation; same width.
    Neg,
    /// OR-reduction; 1-bit result.
    RedOr,
    /// AND-reduction; 1-bit result.
    RedAnd,
    /// XOR-reduction (parity); 1-bit result.
    RedXor,
}

impl UnOp {
    /// Evaluate the operator on an operand value masked to `w` bits.
    pub fn eval(self, a: u64, w: u8) -> u64 {
        let m = mask(w);
        match self {
            UnOp::Not => !a & m,
            UnOp::Neg => a.wrapping_neg() & m,
            UnOp::RedOr => (a != 0) as u64,
            UnOp::RedAnd => (a == m) as u64,
            UnOp::RedXor => (a.count_ones() & 1) as u64,
        }
    }

    /// Whether the result is a single bit.
    pub fn is_reduction(self) -> bool {
        matches!(self, UnOp::RedOr | UnOp::RedAnd | UnOp::RedXor)
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
            UnOp::RedOr => "redor",
            UnOp::RedAnd => "redand",
            UnOp::RedXor => "redxor",
        };
        f.write_str(s)
    }
}

/// The defining operation of a node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// A primary input: free (checker-chosen) every cycle.
    Input,
    /// A constant value.
    Const(u64),
    /// Unary combinational operator.
    Unary(UnOp, SignalId),
    /// Binary combinational operator.
    Binary(BinOp, SignalId, SignalId),
    /// 2:1 multiplexer: `sel ? a : b` (`sel` must be 1 bit wide).
    Mux {
        /// 1-bit select.
        sel: SignalId,
        /// Value when `sel` is 1.
        a: SignalId,
        /// Value when `sel` is 0.
        b: SignalId,
    },
    /// Bit slice `[hi:lo]` (inclusive); result width `hi - lo + 1`.
    Slice {
        /// Source signal.
        src: SignalId,
        /// High bit index (inclusive).
        hi: u8,
        /// Low bit index (inclusive).
        lo: u8,
    },
    /// Concatenation: `hi` occupies the upper bits, `lo` the lower bits.
    Concat {
        /// Upper-bits operand.
        hi: SignalId,
        /// Lower-bits operand.
        lo: SignalId,
    },
    /// A D flip-flop register. `next` is wired after construction; on reset
    /// the register holds `init`.
    Reg {
        /// Signal sampled at every clock edge. `None` until wired.
        next: Option<SignalId>,
        /// Reset value.
        init: u64,
    },
}

impl Op {
    /// Whether the node is sequential (a register).
    pub fn is_reg(&self) -> bool {
        matches!(self, Op::Reg { .. })
    }

    /// Whether the node is a primary input.
    pub fn is_input(&self) -> bool {
        matches!(self, Op::Input)
    }

    /// Combinational fan-in signals of this node, in operand order.
    /// Registers have *no* combinational fan-in (their `next` input is
    /// sequential).
    pub fn comb_fanin(&self) -> Fanin {
        match self {
            Op::Input | Op::Const(_) | Op::Reg { .. } => Fanin::of(&[]),
            Op::Unary(_, a) => Fanin::of(&[*a]),
            Op::Binary(_, a, b) => Fanin::of(&[*a, *b]),
            Op::Mux { sel, a, b } => Fanin::of(&[*sel, *a, *b]),
            Op::Slice { src, .. } => Fanin::of(&[*src]),
            Op::Concat { hi, lo } => Fanin::of(&[*hi, *lo]),
        }
    }
}

/// A node's combinational fan-in, stored inline: at most three operands
/// (a mux), which also leaves room to [`Fanin::push`] a register's `next`
/// edge. Derefs to `&[SignalId]`, so graph walks visit fan-in without a
/// heap allocation per node.
#[derive(Clone, Copy, Debug)]
pub struct Fanin {
    ids: [SignalId; 3],
    len: u8,
}

impl Fanin {
    fn of(ids: &[SignalId]) -> Self {
        let mut f = Fanin {
            ids: [SignalId(0); 3],
            len: 0,
        };
        for &s in ids {
            f.push(s);
        }
        f
    }

    /// Appends one signal.
    ///
    /// # Panics
    /// Panics if three signals are already held.
    pub fn push(&mut self, s: SignalId) {
        self.ids[self.len as usize] = s;
        self.len += 1;
    }
}

impl std::ops::Deref for Fanin {
    type Target = [SignalId];
    fn deref(&self) -> &[SignalId] {
        &self.ids[..self.len as usize]
    }
}

impl IntoIterator for Fanin {
    type Item = SignalId;
    type IntoIter = std::iter::Take<std::array::IntoIter<SignalId, 3>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

/// A node: one signal definition.
#[derive(Clone, Debug)]
pub struct Node {
    /// Optional human-readable name (unique when present).
    pub name: Option<String>,
    /// Bit width, 1..=64.
    pub width: u8,
    /// Defining operation.
    pub op: Op,
}

/// Errors produced when constructing or validating a netlist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetlistError {
    /// A signal name was used twice.
    DuplicateName(String),
    /// A width of 0 or more than 64 bits was requested.
    BadWidth(u8),
    /// Operand widths do not satisfy the operator's width rule.
    WidthMismatch {
        /// Description of the offending construct.
        context: String,
    },
    /// A slice's indices are out of range or inverted.
    BadSlice {
        /// Source width.
        src_width: u8,
        /// Requested high index.
        hi: u8,
        /// Requested low index.
        lo: u8,
    },
    /// A register was finalized without a `next` connection.
    UnconnectedReg(String),
    /// A register's `next` was wired twice.
    RegAlreadyConnected(String),
    /// `set_reg_next` was applied to a non-register node.
    NotAReg(String),
    /// The combinational logic contains a cycle through the named signal.
    CombCycle(String),
    /// A referenced signal id is out of range.
    BadSignal(SignalId),
    /// A constant does not fit in the declared width.
    ConstTooWide {
        /// The constant value.
        value: u64,
        /// The declared width.
        width: u8,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate signal name `{n}`"),
            NetlistError::BadWidth(w) => write!(f, "invalid width {w} (must be 1..=64)"),
            NetlistError::WidthMismatch { context } => write!(f, "width mismatch in {context}"),
            NetlistError::BadSlice { src_width, hi, lo } => {
                write!(f, "invalid slice [{hi}:{lo}] of {src_width}-bit signal")
            }
            NetlistError::UnconnectedReg(n) => write!(f, "register `{n}` has no next connection"),
            NetlistError::RegAlreadyConnected(n) => {
                write!(f, "register `{n}` already has a next connection")
            }
            NetlistError::NotAReg(n) => write!(f, "signal `{n}` is not a register"),
            NetlistError::CombCycle(n) => {
                write!(f, "combinational cycle through signal `{n}`")
            }
            NetlistError::BadSignal(s) => write!(f, "signal id {s} out of range"),
            NetlistError::ConstTooWide { value, width } => {
                write!(f, "constant {value:#x} does not fit in {width} bits")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// Bit mask for a `w`-bit value.
#[inline]
pub fn mask(w: u8) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// How a node breaks its operator's width rule (see [`width_rule`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fault {
    /// An operand, or a register's `next`, names no node.
    Dangling(SignalId),
    /// The operator does not accept its operands' widths: binary operands
    /// or mux arms that differ, a slice outside its source, a register
    /// `next` of another width.
    Operands,
    /// A mux select that is not 1 bit wide.
    Select,
    /// The node is not as wide as the result width the rule gives.
    Width(u8),
    /// A constant or reset value that does not fit in the node's width.
    Value(u64),
    /// A register with no `next`.
    Unconnected,
}

/// Every operator's width rule, written once. `width` is the node's own
/// width, which only inputs, constants and registers read: theirs is
/// declared, while every other operator's follows from its operands.
/// `operand(s)` is operand `s`'s width, `None` when `s` names no node.
/// Each fault goes to `fault`, in a fixed order; the return value is the
/// width the node must have, or `None` when its operands give none.
pub(crate) fn width_rule(
    op: &Op,
    width: u8,
    operand: impl Fn(SignalId) -> Option<u8>,
    mut fault: impl FnMut(Fault),
) -> Option<u8> {
    // Reports `f` unless `ok`; returns `ok`.
    let mut require = |ok: bool, f: Fault| {
        if !ok {
            fault(f);
        }
        ok
    };
    let mut dangling = false;
    for s in op.comb_fanin() {
        dangling |= !require(operand(s).is_some(), Fault::Dangling(s));
    }
    if dangling {
        return None;
    }
    let w = |s: SignalId| operand(s).unwrap_or_default();
    let fits = |v: u64| v & !mask(width) == 0;
    match *op {
        Op::Input => Some(width),
        Op::Const(v) => {
            require(fits(v), Fault::Value(v));
            Some(width)
        }
        Op::Unary(op, a) => Some(if op.is_reduction() { 1 } else { w(a) }),
        Op::Binary(BinOp::Shl | BinOp::Shr, a, _) => Some(w(a)),
        Op::Binary(op, a, b) => {
            require(w(a) == w(b), Fault::Operands)
                .then(|| if op.is_comparison() { 1 } else { w(a) })
        }
        Op::Mux { sel, a, b } => {
            require(w(sel) == 1, Fault::Select);
            require(w(a) == w(b), Fault::Operands).then(|| w(a))
        }
        Op::Slice { src, hi, lo } => {
            require(lo <= hi && hi < w(src), Fault::Operands).then(|| hi - lo + 1)
        }
        Op::Concat { hi, lo } => Some(w(hi) + w(lo)),
        Op::Reg { next, init } => {
            match next {
                None => require(false, Fault::Unconnected),
                // The `next` must exist and be as wide as the register.
                Some(n) => {
                    let nw = operand(n);
                    require(nw.is_some(), Fault::Dangling(n))
                        && require(nw == Some(width), Fault::Operands)
                }
            };
            require(fits(init), Fault::Value(init));
            Some(width)
        }
    }
}

/// A flat, validated or under-construction synchronous netlist.
///
/// Construct through [`crate::Builder`]; most consumers receive a finished,
/// validated netlist and only read from it.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    pub(crate) nodes: Vec<Node>,
    pub(crate) by_name: HashMap<String, SignalId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (signals).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node defining `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: SignalId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Width of signal `id`.
    pub fn width(&self, id: SignalId) -> u8 {
        self.nodes[id.index()].width
    }

    /// Name of signal `id`, if it has one.
    pub fn name(&self, id: SignalId) -> Option<&str> {
        self.nodes[id.index()].name.as_deref()
    }

    /// A printable name: the declared name or `s<N>`.
    pub fn display_name(&self, id: SignalId) -> String {
        match self.name(id) {
            Some(n) => n.to_owned(),
            None => format!("{id}"),
        }
    }

    /// Looks up a signal by name.
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// Iterator over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (SignalId(i as u32), n))
    }

    /// All register signals, in id order.
    pub fn regs(&self) -> Vec<SignalId> {
        self.iter()
            .filter(|(_, n)| n.op.is_reg())
            .map(|(i, _)| i)
            .collect()
    }

    /// All primary-input signals, in id order.
    pub fn inputs(&self) -> Vec<SignalId> {
        self.iter()
            .filter(|(_, n)| n.op.is_input())
            .map(|(i, _)| i)
            .collect()
    }

    /// The `next` signal of register `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a connected register.
    pub fn reg_next(&self, id: SignalId) -> SignalId {
        match &self.nodes[id.index()].op {
            Op::Reg { next: Some(n), .. } => *n,
            _ => panic!("{} is not a connected register", self.display_name(id)),
        }
    }

    /// The reset value of register `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a register.
    pub fn reg_init(&self, id: SignalId) -> u64 {
        match &self.nodes[id.index()].op {
            Op::Reg { init, .. } => *init,
            _ => panic!("{} is not a register", self.display_name(id)),
        }
    }

    pub(crate) fn push(&mut self, node: Node) -> Result<SignalId, NetlistError> {
        if node.width == 0 || node.width > 64 {
            return Err(NetlistError::BadWidth(node.width));
        }
        let id = SignalId(self.nodes.len() as u32);
        if let Some(name) = &node.name {
            if self.by_name.contains_key(name) {
                return Err(NetlistError::DuplicateName(name.clone()));
            }
            self.by_name.insert(name.clone(), id);
        }
        self.nodes.push(node);
        Ok(id)
    }

    /// Width of `s`, or `None` when it names no node.
    fn width_of(&self, s: SignalId) -> Option<u8> {
        self.nodes.get(s.index()).map(|n| n.width)
    }

    /// Pushes a combinational node as wide as [`width_rule`] says its
    /// operands make it. Shared by the [`crate::Builder`] operators and the
    /// textual frontend's lowering pass.
    ///
    /// # Errors
    /// The error [`Netlist::validate`] would report for the node, or
    /// whatever [`Netlist::push`] rejects.
    pub(crate) fn push_derived(
        &mut self,
        name: Option<String>,
        op: Op,
    ) -> Result<SignalId, NetlistError> {
        let mut first = None;
        let width = width_rule(&op, 0, |s| self.width_of(s), |f| first = first.or(Some(f)));
        let Some(fault) = first else {
            let width = width.expect("a rule that reports no fault gives a width");
            return self.push(Node { name, width, op });
        };
        let name = name.unwrap_or_else(|| SignalId(self.nodes.len() as u32).to_string());
        Err(self.fault_error(&op, 0, name, fault))
    }

    /// Every width-rule fault of node `id`, in a fixed order: those of
    /// [`width_rule`], then a node width other than the rule's. Allocates
    /// nothing; [`Netlist::validate`] and the lint suite both walk it.
    pub(crate) fn node_faults(&self, id: SignalId, mut fault: impl FnMut(Fault)) {
        let node = &self.nodes[id.index()];
        match width_rule(&node.op, node.width, |s| self.width_of(s), &mut fault) {
            Some(w) if w != node.width => fault(Fault::Width(w)),
            _ => {}
        }
    }

    /// The [`NetlistError`] for `fault` of node `name`, `width` bits wide
    /// and defined by `op`.
    fn fault_error(&self, op: &Op, width: u8, name: String, fault: Fault) -> NetlistError {
        match (fault, op) {
            (Fault::Dangling(s), _) => NetlistError::BadSignal(s),
            (Fault::Value(value), _) => NetlistError::ConstTooWide { value, width },
            (Fault::Unconnected, _) => NetlistError::UnconnectedReg(name),
            (Fault::Operands, &Op::Slice { src, hi, lo }) => NetlistError::BadSlice {
                src_width: self.width(src),
                hi,
                lo,
            },
            _ => NetlistError::WidthMismatch { context: name },
        }
    }

    /// Wires register `reg`'s next-state input to `next`. Shared by the
    /// [`crate::Builder`] DSL and the textual frontend's lowering pass.
    pub(crate) fn set_reg_next(
        &mut self,
        reg: SignalId,
        next: SignalId,
    ) -> Result<(), NetlistError> {
        let op = Op::Reg {
            next: Some(next),
            init: 0,
        };
        let mut bad = false;
        width_rule(&op, self.width(reg), |s| self.width_of(s), |_| bad = true);
        if bad {
            return Err(NetlistError::WidthMismatch {
                context: format!("set_next of {}", self.display_name(reg)),
            });
        }
        match &mut self.nodes[reg.index()].op {
            Op::Reg {
                next: slot @ None, ..
            } => {
                *slot = Some(next);
                Ok(())
            }
            Op::Reg { .. } => Err(NetlistError::RegAlreadyConnected(self.display_name(reg))),
            _ => Err(NetlistError::NotAReg(self.display_name(reg))),
        }
    }

    /// Returns a copy of the netlist with `id`'s defining operation
    /// replaced, re-validated. Node ids, names, and widths are untouched,
    /// so this is the *in-place edit* model of the cone-granular verdict
    /// cache (DESIGN.md §14): every property cone that does not contain
    /// `id` keeps its canonical fingerprint bit for bit.
    ///
    /// # Errors
    /// Whatever [`Netlist::validate`] rejects on the edited netlist
    /// (width mismatch, dangling operand, combinational cycle, ...).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn with_op(&self, id: SignalId, op: Op) -> Result<Netlist, NetlistError> {
        let mut edited = self.clone();
        edited.nodes[id.index()].op = op;
        edited.validate()?;
        Ok(edited)
    }

    /// Total register state bits (a rough design-size metric used by the
    /// benchmark harness, mirroring the elaboration statistics in §VI).
    pub fn state_bits(&self) -> usize {
        self.iter()
            .filter(|(_, n)| n.op.is_reg())
            .map(|(_, n)| n.width as usize)
            .sum()
    }

    /// Structural equality check: same node count and identical
    /// `(name, width, op)` per node id. Used by the text round-trip oracle
    /// to prove emit→parse→lower is the identity on the IR.
    ///
    /// # Errors
    /// Returns a description of the first difference found.
    pub fn same_structure(&self, other: &Netlist) -> Result<(), String> {
        if self.len() != other.len() {
            return Err(format!(
                "node counts differ: {} vs {}",
                self.len(),
                other.len()
            ));
        }
        for (id, a) in self.iter() {
            let b = other.node(id);
            if a.name != b.name || a.width != b.width || a.op != b.op {
                return Err(format!(
                    "node {} differs: {:?} vs {:?}",
                    self.display_name(id),
                    a,
                    b
                ));
            }
        }
        Ok(())
    }

    /// Validates the netlist: every referenced signal exists, widths obey the
    /// operator rules, every register is connected, and the combinational
    /// logic is acyclic.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, node) in self.iter() {
            let mut first = None;
            self.node_faults(id, |f| first = first.or(Some(f)));
            if let Some(f) = first {
                return Err(self.fault_error(&node.op, node.width, self.display_name(id), f));
            }
        }
        match crate::analysis::find_comb_cycle(self) {
            Some(cycle) => Err(NetlistError::CombCycle(self.display_name(cycle.path[0]))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_masks_results() {
        assert_eq!(BinOp::Add.eval(0xff, 1, 8), 0);
        assert_eq!(BinOp::Sub.eval(0, 1, 4), 0xf);
        assert_eq!(BinOp::Mul.eval(16, 16, 8), 0);
        assert_eq!(BinOp::Shl.eval(1, 8, 8), 0);
        assert_eq!(BinOp::Shl.eval(1, 3, 8), 8);
        assert_eq!(BinOp::Shr.eval(0x80, 7, 8), 1);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Not.eval(0b1010, 4), 0b0101);
        assert_eq!(UnOp::Neg.eval(1, 8), 0xff);
        assert_eq!(UnOp::RedOr.eval(0, 8), 0);
        assert_eq!(UnOp::RedOr.eval(4, 8), 1);
        assert_eq!(UnOp::RedAnd.eval(0xff, 8), 1);
        assert_eq!(UnOp::RedAnd.eval(0xfe, 8), 0);
        assert_eq!(UnOp::RedXor.eval(0b111, 8), 1);
    }

    #[test]
    fn mask_edges() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xff);
        assert_eq!(mask(64), u64::MAX);
    }

    /// One netlist per width-rule violation: the exact error `validate`
    /// returns and the exact findings of the lint suite, so the two readers
    /// of the rule cannot drift apart.
    #[test]
    fn every_width_rule_violation_is_pinned() {
        use crate::lint::{self, LintContext};
        use NetlistError::*;
        let s = SignalId;
        let input = |name, width| (name, width, Op::Input);
        let reg = |next, init| Op::Reg { next, init };
        let mux = |sel, a, b| Op::Mux {
            sel: s(sel),
            a: s(a),
            b: s(b),
        };
        let mismatch = |ctx: &str| WidthMismatch {
            context: ctx.into(),
        };
        type Case = (
            Vec<(&'static str, u8, Op)>,
            NetlistError,
            Vec<(&'static str, &'static str, u32, &'static str)>,
        );
        let l004 = |msg| ("L004", "width-audit", 1, msg);
        let cases: Vec<Case> = vec![
            (
                vec![input("a", 4), ("y", 4, mux(7, 0, 8))],
                BadSignal(s(7)),
                vec![
                    l004("`y` references out-of-range signal s7"),
                    l004("`y` references out-of-range signal s8"),
                ],
            ),
            (
                vec![("r", 4, reg(Some(s(5)), 0))],
                BadSignal(s(5)),
                vec![(
                    "L004",
                    "width-audit",
                    0,
                    "register `r` next references out-of-range signal s5",
                )],
            ),
            (
                vec![("c", 4, Op::Const(0x1f))],
                ConstTooWide {
                    value: 0x1f,
                    width: 4,
                },
                vec![(
                    "L004",
                    "width-audit",
                    0,
                    "constant `c` value 0x1f does not fit in 4 bits",
                )],
            ),
            (
                vec![input("a", 4), ("y", 2, Op::Unary(UnOp::Not, s(0)))],
                mismatch("y"),
                vec![l004("`y` = not(...): result width 2 != expected 4")],
            ),
            (
                vec![input("a", 4), ("y", 4, Op::Unary(UnOp::RedOr, s(0)))],
                mismatch("y"),
                vec![l004("`y` = redor(...): result width 4 != expected 1")],
            ),
            (
                vec![
                    input("a", 4),
                    ("y", 8, Op::Binary(BinOp::Shl, s(0), s(2))),
                    input("b", 8),
                ],
                mismatch("y"),
                vec![l004("`y` = shl(...): result width 8 != operand width 4")],
            ),
            (
                vec![
                    input("a", 4),
                    ("y", 4, Op::Binary(BinOp::Add, s(0), s(2))),
                    input("b", 8),
                ],
                mismatch("y"),
                vec![l004("`y` = add(...): operand widths 4 and 8 differ")],
            ),
            (
                vec![input("a", 4), ("y", 4, Op::Binary(BinOp::Eq, s(0), s(0)))],
                mismatch("y"),
                vec![l004("`y` = eq(...): result width 4 != expected 1")],
            ),
            (
                vec![input("a", 4), ("y", 4, mux(2, 0, 0)), input("s", 2)],
                mismatch("y"),
                vec![l004("`y`: mux select is 2 bits, not 1")],
            ),
            (
                vec![
                    input("a", 4),
                    ("y", 4, mux(2, 0, 3)),
                    input("s", 1),
                    input("b", 8),
                ],
                mismatch("y"),
                vec![l004("`y`: mux arm widths 4/8 vs result width 4")],
            ),
            (
                vec![
                    input("a", 4),
                    ("y", 4, mux(2, 0, 3)),
                    input("s", 2),
                    input("b", 8),
                ],
                mismatch("y"),
                vec![
                    l004("`y`: mux select is 2 bits, not 1"),
                    l004("`y`: mux arm widths 4/8 vs result width 4"),
                ],
            ),
            (
                vec![
                    input("a", 4),
                    (
                        "y",
                        2,
                        Op::Slice {
                            src: s(0),
                            hi: 5,
                            lo: 4,
                        },
                    ),
                ],
                BadSlice {
                    src_width: 4,
                    hi: 5,
                    lo: 4,
                },
                vec![l004("`y`: slice [5:4] out of range for 4-bit source")],
            ),
            (
                vec![
                    input("a", 4),
                    (
                        "y",
                        3,
                        Op::Slice {
                            src: s(0),
                            hi: 1,
                            lo: 0,
                        },
                    ),
                ],
                mismatch("y"),
                vec![l004("`y`: slice [1:0] yields 2 bits but node is 3 bits")],
            ),
            (
                vec![
                    input("a", 4),
                    ("y", 8, Op::Concat { hi: s(0), lo: s(2) }),
                    input("b", 8),
                ],
                mismatch("y"),
                vec![l004("`y`: concat of 4+8 bits but node is 8 bits")],
            ),
            (
                vec![("r", 4, reg(None, 0))],
                UnconnectedReg("r".into()),
                vec![("L002", "undriven", 0, "register `r` has no next connection")],
            ),
            (
                vec![input("a", 8), ("r", 4, reg(Some(s(0)), 0))],
                mismatch("r"),
                vec![l004("register `r` is 4 bits but its next is 8 bits")],
            ),
            (
                vec![("r", 2, reg(Some(s(0)), 9))],
                ConstTooWide { value: 9, width: 2 },
                vec![(
                    "L005",
                    "reg-reset",
                    0,
                    "register `r` reset value 0x9 does not fit in 2 bits",
                )],
            ),
            (
                vec![("r", 2, reg(None, 9))],
                UnconnectedReg("r".into()),
                vec![
                    ("L002", "undriven", 0, "register `r` has no next connection"),
                    (
                        "L005",
                        "reg-reset",
                        0,
                        "register `r` reset value 0x9 does not fit in 2 bits",
                    ),
                ],
            ),
            (
                vec![input("a", 8), ("r", 2, reg(Some(s(0)), 9))],
                mismatch("r"),
                vec![
                    l004("register `r` is 2 bits but its next is 8 bits"),
                    (
                        "L005",
                        "reg-reset",
                        1,
                        "register `r` reset value 0x9 does not fit in 2 bits",
                    ),
                ],
            ),
        ];
        for (nodes, error, diags) in cases {
            let mut nl = Netlist::new();
            for (name, width, op) in nodes {
                nl.push(Node {
                    name: Some(name.into()),
                    width,
                    op,
                })
                .unwrap();
            }
            assert_eq!(nl.validate(), Err(error), "{nl:?}");
            let report = lint::run(&LintContext::netlist_only(&nl));
            let got: Vec<_> = report
                .diagnostics
                .iter()
                .map(|d| (d.code, d.pass, d.signal, d.message.as_str()))
                .collect();
            let want: Vec<_> = diags
                .iter()
                .map(|&(code, pass, sig, msg)| (code, pass, Some(s(sig)), msg))
                .collect();
            assert_eq!(got, want, "{nl:?}");
        }
    }
}
