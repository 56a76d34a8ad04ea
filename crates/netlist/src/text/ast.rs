//! Span-carrying surface AST for the netlist language.
//!
//! One [`Item`] is (at most) one statement of the source file; the
//! declaration items other than `mem` lower to exactly one IR node each,
//! which is what makes canonical emission a byte-identical round trip.
//! `mem`/`read`/`write` are surface sugar that expand to register words
//! plus mux chains during lowering (the emitter never produces them).

use crate::diag::Span;
use crate::ir::{BinOp, UnOp};

/// A value paired with the source span it was written at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Spanned<T> {
    /// The parsed value.
    pub node: T,
    /// Where it appeared.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Pairs `node` with `span`.
    pub fn new(node: T, span: Span) -> Self {
        Self { node, span }
    }
}

/// An identifier occurrence.
pub type Name = Spanned<String>;

/// A parsed `module` with its optional metadata blocks.
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name (becomes the design name).
    pub name: Name,
    /// Declaration/connection statements, in source order.
    pub items: Vec<Item>,
    /// The `annotations { ... }` block, at most one.
    pub annotations: Option<AnnBlock>,
    /// The `harness { ... }` block, at most one.
    pub harness: Option<HarnessBlock>,
}

/// One module-level statement.
#[derive(Clone, Debug)]
pub enum Item {
    /// `input <name> : w<N>`
    Input {
        /// Declared name.
        name: Name,
        /// Declared width.
        width: Spanned<u64>,
    },
    /// `reg <name> : w<N> = <init>`
    Reg {
        /// Declared name.
        name: Name,
        /// Declared width.
        width: Spanned<u64>,
        /// Reset value.
        init: Spanned<u64>,
    },
    /// `const <name> : w<N> = <value>`
    Const {
        /// Declared name.
        name: Name,
        /// Declared width.
        width: Spanned<u64>,
        /// Constant value.
        value: Spanned<u64>,
    },
    /// `wire <name> [: w<N>] = <op> <operands>`
    Wire {
        /// Declared name.
        name: Name,
        /// Optional declared width (inferred from the operator otherwise).
        width: Option<Spanned<u64>>,
        /// The defining operator application.
        op: WireOp,
    },
    /// `mem <name>[<len>] : w<N> [= <init>]` — sugar for `len` register
    /// words named `name[0]`..`name[len-1]`.
    Mem {
        /// Array name (without the bracket suffix).
        name: Name,
        /// Word count (must be a power of two).
        len: Spanned<u64>,
        /// Word width.
        width: Spanned<u64>,
        /// Per-word reset value (0 when omitted).
        init: Option<Spanned<u64>>,
    },
    /// `write <mem> <en> <addr> <data>` — the array's single write port.
    Write {
        /// Target memory.
        mem: Name,
        /// 1-bit write enable.
        en: Name,
        /// Word address.
        addr: Name,
        /// Write data.
        data: Name,
    },
    /// `next <reg> <- <src>`
    Next {
        /// The register being connected.
        reg: Name,
        /// Its next-state signal.
        src: Name,
    },
}

impl Item {
    /// The declared name, for declaration-bearing items.
    pub fn decl_name(&self) -> Option<&Name> {
        match self {
            Item::Input { name, .. }
            | Item::Reg { name, .. }
            | Item::Const { name, .. }
            | Item::Wire { name, .. }
            | Item::Mem { name, .. } => Some(name),
            Item::Write { .. } | Item::Next { .. } => None,
        }
    }
}

/// The right-hand side of a `wire` statement.
#[derive(Clone, Debug)]
pub enum WireOp {
    /// `not|neg|redor|redand|redxor <a>`
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        a: Name,
    },
    /// `and|or|xor|add|sub|mul|eq|ne|ult|ule|shl|shr <a> <b>`
    Binary {
        /// The operator.
        op: BinOp,
        /// Span of the operator token.
        op_span: Span,
        /// Left operand.
        a: Name,
        /// Right operand.
        b: Name,
    },
    /// `mux <sel> <a> <b>`
    Mux {
        /// 1-bit select.
        sel: Name,
        /// Value when `sel` is 1.
        a: Name,
        /// Value when `sel` is 0.
        b: Name,
    },
    /// `slice <src> <hi> <lo>`
    Slice {
        /// Source signal.
        src: Name,
        /// High bit (inclusive).
        hi: Spanned<u64>,
        /// Low bit (inclusive).
        lo: Spanned<u64>,
    },
    /// `concat <hi> <lo>`
    Concat {
        /// Upper-bits operand.
        hi: Name,
        /// Lower-bits operand.
        lo: Name,
    },
    /// `read <mem> <addr>` — combinational word read (mux chain).
    Read {
        /// Source memory.
        mem: Name,
        /// Word address.
        addr: Name,
    },
}

impl WireOp {
    /// Every signal operand of the right-hand side, in source order.
    pub fn operands(&self) -> Vec<&Name> {
        match self {
            WireOp::Unary { a, .. } => vec![a],
            WireOp::Binary { a, b, .. } => vec![a, b],
            WireOp::Mux { sel, a, b } => vec![sel, a, b],
            WireOp::Slice { src, .. } => vec![src],
            WireOp::Concat { hi, lo } => vec![hi, lo],
            WireOp::Read { addr, .. } => vec![addr],
        }
    }
}

/// The `annotations { ... }` block (the §V-A metadata).
#[derive(Clone, Debug, Default)]
pub struct AnnBlock {
    /// Span of the `annotations` keyword (anchor for missing-field
    /// diagnostics).
    pub span: Span,
    /// `ifr <name>`
    pub ifr: Option<Name>,
    /// `fetch_valid <name>`
    pub fetch_valid: Option<Name>,
    /// `fetch_pc <name>`
    pub fetch_pc: Option<Name>,
    /// `commit <name>`
    pub commit: Option<Name>,
    /// `commit_pc <name>`
    pub commit_pc: Option<Name>,
    /// `operands <name>...`
    pub operands: Vec<Name>,
    /// `arf <name>...`
    pub arf: Vec<Name>,
    /// `amem <name>...`
    pub amem: Vec<Name>,
    /// `persistent <name>...`
    pub persistent: Vec<Name>,
    /// `added_loc <N>`
    pub added_loc: Option<Spanned<u64>>,
    /// `ufsm <name> [added] { ... }` blocks, in source order.
    pub ufsms: Vec<UfsmBlock>,
}

/// One `ufsm` sub-block.
#[derive(Clone, Debug)]
pub struct UfsmBlock {
    /// µFSM name.
    pub name: Name,
    /// Whether the PCR was added for verification.
    pub added: bool,
    /// `pcr <name>`
    pub pcr: Option<Name>,
    /// `vars <name>...`
    pub vars: Vec<Name>,
    /// `idle (<v>, ...)` lines.
    pub idle: Vec<Spanned<Vec<u64>>>,
    /// `state <name> = (<v>, ...)` lines.
    pub states: Vec<(Name, Spanned<Vec<u64>>)>,
}

/// The `harness { ... }` block (hook signals + ISA metadata).
#[derive(Clone, Debug, Default)]
pub struct HarnessBlock {
    /// Span of the `harness` keyword.
    pub span: Span,
    /// `fetch_instr_input <name>`
    pub fetch_instr_input: Option<Name>,
    /// `fetch_valid_input <name>`
    pub fetch_valid_input: Option<Name>,
    /// `fetch_fire <name>`
    pub fetch_fire: Option<Name>,
    /// `issue_fire <name>`
    pub issue_fire: Option<Name>,
    /// `issue_pc <name>`
    pub issue_pc: Option<Name>,
    /// `issue_valid <name>`
    pub issue_valid: Option<Name>,
    /// `rs_fields <rs1> <rs2>`
    pub rs_fields: Option<(Name, Name)>,
    /// `pc <name>`
    pub pc: Option<Name>,
    /// `isa <mnemonic>...`
    pub isa: Vec<Name>,
    /// `type_field <hi> <lo>`
    pub type_field: Option<(Spanned<u64>, Spanned<u64>)>,
    /// `type_value <mnemonic> <N>` lines.
    pub type_values: Vec<(Name, Spanned<u64>)>,
    /// `max_latency <N>`
    pub max_latency: Option<Spanned<u64>>,
    /// `outputs <name>...`
    pub outputs: Vec<Name>,
}
