//! Name resolution for the netlist language.
//!
//! Walks the AST once to build the declaration table, then checks every
//! identifier use:
//!
//! * `E003` — duplicate declaration (secondary label at the first one),
//! * `E004` — undefined identifier (suggesting the earliest-declared name
//!   one edit away),
//! * `E005` — a combinational operand referring to a later declaration
//!   (the language is def-before-use for everything except `next`,
//!   `write` data, and the metadata blocks, which are fix-ups),
//! * `E010`–`E012` — identifier of the wrong kind (e.g. a memory array
//!   used as a signal, `next` on a wire, a µFSM var that is not a
//!   register),
//! * `W002` — a declaration shadowing an operator mnemonic.

use std::collections::HashMap;

use super::ast::{Item, Module, Name, WireOp};
use crate::diag::{Diagnostic, Report, Span};
use crate::ir::{BinOp, UnOp};

/// What a name was declared as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeclKind {
    /// `input`
    Input,
    /// `reg` (or a `mem` word)
    Reg,
    /// `const`
    Const,
    /// `wire`
    Wire,
    /// A `mem` array name (not itself a signal).
    Mem,
}

impl DeclKind {
    fn describe(self) -> &'static str {
        match self {
            DeclKind::Input => "an input",
            DeclKind::Reg => "a register",
            DeclKind::Const => "a constant",
            DeclKind::Wire => "a wire",
            DeclKind::Mem => "a memory array",
        }
    }

    /// Registers and memory words hold state.
    pub fn is_stateful(self) -> bool {
        matches!(self, DeclKind::Reg)
    }
}

/// One resolved declaration.
#[derive(Clone, Debug)]
pub struct Decl {
    /// Statement index (position in `Module::items`) of the declaration.
    pub order: usize,
    /// What it is.
    pub kind: DeclKind,
    /// Span of the declaring name.
    pub span: Span,
}

/// The declaration table [`run`] builds. Memory words (`m[i]`) get
/// their own entries of kind [`DeclKind::Reg`].
pub type DeclTable = HashMap<String, Decl>;

/// Largest memory the `mem` sugar will expand (matches the builder DSL's
/// practical sizes; keeps pathological inputs from allocating millions of
/// nodes before type checking rejects them).
pub const MAX_MEM_LEN: u64 = 1024;

fn is_operator_name(s: &str) -> bool {
    UnOp::ALL.iter().any(|u| u.mnemonic() == s)
        || BinOp::ALL.iter().any(|b| b.mnemonic() == s)
        || matches!(s, "mux" | "slice" | "concat" | "read" | "write")
}

/// Edit distance with early exit, for `E004` suggestions.
fn close_enough(a: &str, b: &str) -> bool {
    if a == b {
        return false;
    }
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len().abs_diff(b.len()) > 1 {
        return false;
    }
    // Accept one substitution, insertion, or deletion.
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    let ta = &a[i..];
    let tb = &b[i..];
    if ta.is_empty() || tb.is_empty() {
        return ta.len() + tb.len() == 1;
    }
    ta[1..] == tb[1..] || ta == &tb[1..] || &ta[1..] == tb
}

/// Runs name resolution over `m`, reporting into `report`.
pub fn run(m: &Module, report: &mut Report) {
    let mut table: DeclTable = HashMap::new();

    // Pass 1: collect declarations in statement order.
    for (order, item) in m.items.iter().enumerate() {
        let Some(name) = item.decl_name() else {
            continue;
        };
        let kind = match item {
            Item::Input { .. } => DeclKind::Input,
            Item::Reg { .. } => DeclKind::Reg,
            Item::Const { .. } => DeclKind::Const,
            Item::Wire { .. } => DeclKind::Wire,
            Item::Mem { .. } => DeclKind::Mem,
            Item::Write { .. } | Item::Next { .. } => unreachable!(),
        };
        declare(&mut table, report, name, kind, order);
        if is_operator_name(&name.node) {
            report.push(
                Diagnostic::warning(
                    "W002",
                    "resolve",
                    format!(
                        "declaration of `{}` shadows an operator mnemonic",
                        name.node
                    ),
                )
                .with_primary(name.span, "rename to avoid confusion"),
            );
        }
        if let Item::Mem { name, len, .. } = item {
            // Each word is an addressable register in its own right.
            for i in 0..len.node.min(MAX_MEM_LEN) {
                let word = format!("{}[{i}]", name.node);
                declare_raw(&mut table, report, &word, name.span, DeclKind::Reg, order);
            }
        }
    }

    // Pass 2: check uses.
    for (order, item) in m.items.iter().enumerate() {
        match item {
            Item::Wire { op, .. } => {
                for operand in op.operands() {
                    if check_use_before(&table, report, operand, order) {
                        check_not_mem(&table, report, operand);
                    }
                }
                if let WireOp::Read { mem, .. } = op {
                    check_kind(&table, report, mem, DeclKind::Mem, "E010", "typeck");
                    check_use_before(&table, report, mem, order);
                }
            }
            Item::Write {
                mem,
                en,
                addr,
                data,
            } => {
                check_kind(&table, report, mem, DeclKind::Mem, "E010", "typeck");
                check_exists(&table, report, mem);
                // Write operands are sequential fix-ups: they may be
                // declared later in the file.
                check_signal(&table, report, en);
                check_signal(&table, report, addr);
                check_signal(&table, report, data);
            }
            Item::Next { reg, src } => {
                if check_exists(&table, report, reg) {
                    let d = &table[&reg.node];
                    if !d.kind.is_stateful() {
                        report.push(
                            Diagnostic::error(
                                "E011",
                                "resolve",
                                format!("`next` target `{}` is not a register", reg.node),
                            )
                            .with_primary(reg.span, format!("this is {}", d.kind.describe()))
                            .with_secondary(d.span, "declared here"),
                        );
                    }
                }
                check_signal(&table, report, src);
            }
            Item::Input { .. } | Item::Reg { .. } | Item::Const { .. } | Item::Mem { .. } => {}
        }
    }

    // Metadata blocks: every referenced name must exist; kind constraints
    // for the state-bearing lists.
    if let Some(ann) = &m.annotations {
        for n in [
            &ann.ifr,
            &ann.fetch_valid,
            &ann.fetch_pc,
            &ann.commit,
            &ann.commit_pc,
        ]
        .into_iter()
        .flatten()
        {
            check_signal(&table, report, n);
        }
        for n in ann
            .operands
            .iter()
            .chain(&ann.arf)
            .chain(&ann.amem)
            .chain(&ann.persistent)
        {
            check_stateful(&table, report, n, "annotation list entry");
        }
        for u in &ann.ufsms {
            if let Some(pcr) = &u.pcr {
                check_stateful(&table, report, pcr, "ufsm pcr");
            }
            for v in &u.vars {
                check_stateful(&table, report, v, "ufsm var");
            }
        }
    }
    if let Some(h) = &m.harness {
        let singles = [
            &h.fetch_instr_input,
            &h.fetch_valid_input,
            &h.fetch_fire,
            &h.issue_fire,
            &h.issue_pc,
            &h.issue_valid,
            &h.pc,
        ];
        for n in singles.into_iter().flatten() {
            check_signal(&table, report, n);
        }
        if let Some((a, b)) = &h.rs_fields {
            check_signal(&table, report, a);
            check_signal(&table, report, b);
        }
        for n in &h.outputs {
            check_signal(&table, report, n);
        }
    }
}

fn declare(table: &mut DeclTable, report: &mut Report, name: &Name, kind: DeclKind, order: usize) {
    declare_raw(table, report, &name.node, name.span, kind, order);
}

fn declare_raw(
    table: &mut DeclTable,
    report: &mut Report,
    name: &str,
    span: Span,
    kind: DeclKind,
    order: usize,
) {
    if let Some(prev) = table.get(name) {
        report.push(
            Diagnostic::error(
                "E003",
                "resolve",
                format!("duplicate declaration of `{name}`"),
            )
            .with_primary(span, "redeclared here")
            .with_secondary(prev.span, "first declared here"),
        );
        return;
    }
    table.insert(name.to_string(), Decl { order, kind, span });
}

fn check_exists(table: &DeclTable, report: &mut Report, name: &Name) -> bool {
    if table.contains_key(&name.node) {
        return true;
    }
    let mut d = Diagnostic::error(
        "E004",
        "resolve",
        format!("undefined signal `{}`", name.node),
    )
    .with_primary(name.span, "not declared anywhere in this module");
    // The earliest-declared close name, ties (words of one `mem`) by name:
    // the table's own iteration order differs from run to run.
    let close = table.iter().filter(|(k, _)| close_enough(&name.node, k));
    if let Some((sugg, _)) = close.min_by_key(|&(k, d)| (d.order, k)) {
        d = d.with_note(format!("did you mean `{sugg}`?"));
    }
    report.push(d);
    false
}

/// [`check_exists`], plus `E005` when `name` is declared at or after
/// `use_order`. Returns whether `name` exists.
fn check_use_before(table: &DeclTable, report: &mut Report, name: &Name, use_order: usize) -> bool {
    if !check_exists(table, report, name) {
        return false;
    }
    let d = &table[&name.node];
    if d.order >= use_order {
        report.push(
            Diagnostic::error(
                "E005",
                "resolve",
                format!("`{}` is used before its declaration", name.node),
            )
            .with_primary(name.span, "combinational operands must already be declared")
            .with_secondary(d.span, "declared here")
            .with_note("feedback must go through a register: connect it with `next`"),
        );
    }
    true
}

/// [`check_exists`], plus [`check_not_mem`]: whether `name` is a signal.
fn check_signal(table: &DeclTable, report: &mut Report, name: &Name) -> bool {
    check_exists(table, report, name) && check_not_mem(table, report, name)
}

/// `E010` when `name`, which exists, is a memory array where a signal is
/// needed. Returns whether it is a signal.
fn check_not_mem(table: &DeclTable, report: &mut Report, name: &Name) -> bool {
    let d = &table[&name.node];
    if d.kind == DeclKind::Mem {
        report.push(
            Diagnostic::error(
                "E010",
                "resolve",
                format!("memory array `{}` is used as a signal", name.node),
            )
            .with_primary(name.span, "read a word with `read <mem> <addr>`")
            .with_secondary(d.span, "declared here"),
        );
        return false;
    }
    true
}

fn check_kind(
    table: &DeclTable,
    report: &mut Report,
    name: &Name,
    want: DeclKind,
    code: &'static str,
    pass: &'static str,
) {
    if let Some(d) = table.get(&name.node) {
        if d.kind != want {
            report.push(
                Diagnostic::error(
                    code,
                    pass,
                    format!("`{}` is not {}", name.node, want.describe()),
                )
                .with_primary(name.span, format!("this is {}", d.kind.describe()))
                .with_secondary(d.span, "declared here"),
            );
        }
    }
}

fn check_stateful(table: &DeclTable, report: &mut Report, name: &Name, what: &str) {
    if !check_exists(table, report, name) {
        return;
    }
    let d = &table[&name.node];
    if !d.kind.is_stateful() {
        report.push(
            Diagnostic::error(
                "E012",
                "resolve",
                format!("{what} `{}` must be a register", name.node),
            )
            .with_primary(name.span, format!("this is {}", d.kind.describe()))
            .with_secondary(d.span, "declared here"),
        );
    }
}
