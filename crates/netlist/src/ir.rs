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

    /// Wires register `reg`'s next-state input to `next`. Shared by the
    /// [`crate::Builder`] DSL and the textual frontend's lowering pass.
    pub(crate) fn set_reg_next(
        &mut self,
        reg: SignalId,
        next: SignalId,
    ) -> Result<(), NetlistError> {
        if self.width(reg) != self.width(next) {
            return Err(NetlistError::WidthMismatch {
                context: format!("set_next of {}", self.display_name(reg)),
            });
        }
        let name = self.display_name(reg);
        match &mut self.nodes[reg.index()].op {
            Op::Reg { next: slot, .. } => {
                if slot.is_some() {
                    return Err(NetlistError::RegAlreadyConnected(name));
                }
                *slot = Some(next);
                Ok(())
            }
            _ => Err(NetlistError::NotAReg(name)),
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
        let n = self.nodes.len();
        let check = |s: SignalId| -> Result<&Node, NetlistError> {
            self.nodes.get(s.index()).ok_or(NetlistError::BadSignal(s))
        };
        for (id, node) in self.iter() {
            let ctx = || self.display_name(id);
            match &node.op {
                Op::Input => {}
                Op::Const(v) => {
                    if *v & !mask(node.width) != 0 {
                        return Err(NetlistError::ConstTooWide {
                            value: *v,
                            width: node.width,
                        });
                    }
                }
                Op::Unary(op, a) => {
                    let an = check(*a)?;
                    let expect = if op.is_reduction() { 1 } else { an.width };
                    if node.width != expect {
                        return Err(NetlistError::WidthMismatch { context: ctx() });
                    }
                }
                Op::Binary(op, a, b) => {
                    let (an, bn) = (check(*a)?, check(*b)?);
                    match op {
                        BinOp::Shl | BinOp::Shr => {
                            if node.width != an.width {
                                return Err(NetlistError::WidthMismatch { context: ctx() });
                            }
                            let _ = bn;
                        }
                        _ => {
                            if an.width != bn.width {
                                return Err(NetlistError::WidthMismatch { context: ctx() });
                            }
                            let expect = if op.is_comparison() { 1 } else { an.width };
                            if node.width != expect {
                                return Err(NetlistError::WidthMismatch { context: ctx() });
                            }
                        }
                    }
                }
                Op::Mux { sel, a, b } => {
                    let (sn, an, bn) = (check(*sel)?, check(*a)?, check(*b)?);
                    if sn.width != 1 || an.width != bn.width || node.width != an.width {
                        return Err(NetlistError::WidthMismatch { context: ctx() });
                    }
                }
                Op::Slice { src, hi, lo } => {
                    let sn = check(*src)?;
                    if hi < lo || *hi >= sn.width {
                        return Err(NetlistError::BadSlice {
                            src_width: sn.width,
                            hi: *hi,
                            lo: *lo,
                        });
                    }
                    if node.width != hi - lo + 1 {
                        return Err(NetlistError::WidthMismatch { context: ctx() });
                    }
                }
                Op::Concat { hi, lo } => {
                    let (hn, ln) = (check(*hi)?, check(*lo)?);
                    if node.width as u16 != hn.width as u16 + ln.width as u16 {
                        return Err(NetlistError::WidthMismatch { context: ctx() });
                    }
                }
                Op::Reg { next, init } => {
                    match next {
                        None => return Err(NetlistError::UnconnectedReg(ctx())),
                        Some(nx) => {
                            let nn = check(*nx)?;
                            if nn.width != node.width {
                                return Err(NetlistError::WidthMismatch { context: ctx() });
                            }
                        }
                    }
                    if *init & !mask(node.width) != 0 {
                        return Err(NetlistError::ConstTooWide {
                            value: *init,
                            width: node.width,
                        });
                    }
                }
            }
        }
        // Combinational cycle detection via iterative DFS over comb edges.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if marks[start] != Mark::White {
                continue;
            }
            stack.push((start, 0));
            marks[start] = Mark::Grey;
            while let Some(&mut (node_ix, ref mut child_ix)) = stack.last_mut() {
                let fanin = self.nodes[node_ix].op.comb_fanin();
                if *child_ix < fanin.len() {
                    let child = fanin[*child_ix].index();
                    *child_ix += 1;
                    match marks[child] {
                        Mark::White => {
                            marks[child] = Mark::Grey;
                            stack.push((child, 0));
                        }
                        Mark::Grey => {
                            return Err(NetlistError::CombCycle(
                                self.display_name(SignalId(child as u32)),
                            ));
                        }
                        Mark::Black => {}
                    }
                } else {
                    marks[node_ix] = Mark::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
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
}
