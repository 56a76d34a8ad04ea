//! Recursive-descent parser for the netlist language.
//!
//! Grammar (newline-separated statements, `#` comments, nesting via `{}`):
//!
//! ```text
//! module    := "module" name "{" stmt* "}"
//! stmt      := "input" name ":" width
//!            | "reg" name ":" width "=" int
//!            | "const" name ":" width "=" int
//!            | "wire" name [":" width] "=" wireop
//!            | "mem" name "[" int "]" ":" width ["=" int]
//!            | "write" name name name name
//!            | "next" name "<-" name
//!            | annotations | harness
//! wireop    := unop name | binop name name | "mux" name name name
//!            | "slice" name int int | "concat" name name | "read" name name
//! width     := "w" int       (single token, e.g. `w8`)
//! ```
//!
//! Errors are `E002` diagnostics; recovery is per line (skip to the next
//! newline), so one typo does not cascade through the whole file. One
//! block reader (`Parser::block`) runs every `{ … }` body, the module's
//! and the `annotations`, `ufsm` and `harness` blocks', and reports the
//! block left open at end of file. Each line parses its rest with `?` and
//! one finisher ends it: `line` for statements and repeatable fields,
//! `once` for fields a block may set once, `names` for name lists.

use super::ast::{AnnBlock, HarnessBlock, Item, Module, Name, Spanned, UfsmBlock, WireOp};
use super::lexer::{TokKind, Token};
use crate::diag::{Diagnostic, Report, Span};
use crate::ir::{BinOp, UnOp};

/// Parses a token stream into a [`Module`]. Returns `None` only when no
/// module header could be found at all; otherwise a best-effort AST is
/// returned alongside whatever `E002` diagnostics were pushed.
pub fn parse(tokens: &[Token], report: &mut Report) -> Option<Module> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        report,
    };
    while p.eat(&TokKind::Newline).is_some() {}
    if p.eat(&TokKind::Ident("module".into())).is_none() {
        p.unexpected("`module`", "a netlist file starts with `module <name> {`");
        return None;
    }
    let mut m = Module {
        name: p.name("a module name")?,
        items: Vec::new(),
        annotations: None,
        harness: None,
    };
    p.block("module block", |p| p.statement(&mut m))?;
    while p.eat(&TokKind::Newline).is_some() {}
    if p.peek().kind != TokKind::Eof {
        p.unexpected("end of file", "a file holds one module");
    }
    Some(m)
}

struct Parser<'a, 'r> {
    toks: &'a [Token],
    pos: usize,
    report: &'r mut Report,
}

fn ident(k: &TokKind) -> Option<String> {
    match k {
        TokKind::Ident(s) => Some(s.clone()),
        _ => None,
    }
}

impl Parser<'_, '_> {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    /// Moves past the current token (never past `Eof`) and returns its span.
    fn bump(&mut self) -> Span {
        let span = self.peek().span;
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        span
    }

    fn eat(&mut self, kind: &TokKind) -> Option<Span> {
        (self.peek().kind == *kind).then(|| self.bump())
    }

    /// Takes the current token when `f` accepts it.
    fn take<T>(&mut self, f: impl FnOnce(&TokKind) -> Option<T>) -> Option<Spanned<T>> {
        let v = f(&self.peek().kind)?;
        Some(Spanned::new(v, self.bump()))
    }

    fn error(&mut self, span: Span, msg: impl Into<String>, label: &str) {
        self.report
            .push(Diagnostic::error("E002", "parse", msg).with_primary(span, label));
    }

    /// Reports the current token where the grammar wants `what`.
    fn unexpected(&mut self, what: &str, label: &str) {
        let found = self.peek().kind.describe();
        let span = self.peek().span;
        self.error(span, format!("expected {what}, found {found}"), label);
    }

    /// [`Self::unexpected`], labelled `expected {what}`; always `None`.
    fn expected<T>(&mut self, what: &str) -> Option<T> {
        self.unexpected(what, &format!("expected {what}"));
        None
    }

    /// Skips to the end of the current line without consuming the closing
    /// brace of the enclosing block, so recovery stays local.
    fn sync_line(&mut self) {
        while !matches!(self.peek().kind, TokKind::RBrace | TokKind::Eof) {
            if self.peek().kind == TokKind::Newline {
                self.bump();
                return;
            }
            self.bump();
        }
    }

    /// Consumes the end of a line; on junk, reports and recovers.
    fn end_line(&mut self) {
        match self.peek().kind {
            TokKind::Newline => {
                self.bump();
            }
            TokKind::RBrace | TokKind::Eof => {}
            _ => {
                self.unexpected("end of line", "trailing tokens");
                self.sync_line();
            }
        }
    }

    fn expect(&mut self, kind: TokKind, what: &str) -> Option<Span> {
        self.eat(&kind).or_else(|| self.expected(what))
    }

    fn name(&mut self, what: &str) -> Option<Name> {
        self.take(ident).or_else(|| self.expected(what))
    }

    fn int(&mut self, what: &str) -> Option<Spanned<u64>> {
        self.take(|k| match *k {
            TokKind::Int(n) => Some(n),
            _ => None,
        })
        .or_else(|| self.expected(what))
    }

    /// A width token: an identifier of the shape `w<digits>`.
    fn width(&mut self) -> Option<Spanned<u64>> {
        let w = self.take(|k| match k {
            TokKind::Ident(s)
                if s.starts_with('w')
                    && s[1..].chars().all(|c| c.is_ascii_digit())
                    && s.len() > 1 =>
            {
                Some(s[1..].parse().unwrap_or(u64::MAX))
            }
            _ => None,
        });
        if w.is_none() {
            self.unexpected("a width such as `w8`", "expected a width");
        }
        w
    }

    /// Reads `{`, then each line up to the matching `}` through `line`,
    /// skipping blank ones; at end of file, reports the unclosed `what`.
    /// `None` only when the `{` is missing.
    fn block(&mut self, what: &str, mut line: impl FnMut(&mut Self)) -> Option<()> {
        self.expect(TokKind::LBrace, "`{`")?;
        self.end_line();
        loop {
            while self.eat(&TokKind::Newline).is_some() {}
            match self.peek().kind {
                TokKind::RBrace => {
                    self.bump();
                    return Some(());
                }
                TokKind::Eof => {
                    let span = self.peek().span;
                    self.error(
                        span,
                        format!("unexpected end of file: unclosed {what}"),
                        "expected `}`",
                    );
                    return Some(());
                }
                _ => line(self),
            }
        }
    }

    /// Finishes a line whose rest `f` parses: the end of line after a
    /// value, the skip to the next line after an error.
    fn line<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let v = f(self);
        if v.is_some() {
            self.end_line();
        } else {
            self.sync_line();
        }
        v
    }

    /// A field a block sets at most once: its value from `f`, or a
    /// duplicate report at `field`; then the end of its line.
    fn once<T>(
        &mut self,
        slot: &mut Option<T>,
        field: &Name,
        f: impl FnOnce(&mut Self) -> Option<T>,
    ) {
        if let Some(v) = f(self) {
            if slot.is_some() {
                self.error(
                    field.span,
                    format!("duplicate `{}` field", field.node),
                    "already set above",
                );
            } else {
                *slot = Some(v);
            }
        }
        self.end_line();
    }

    fn once_name(&mut self, slot: &mut Option<Name>, field: &Name) {
        self.once(slot, field, |p| p.name("a signal name"));
    }

    /// A field listing names up to the end of its line.
    fn names(&mut self, out: &mut Vec<Name>) {
        out.extend(std::iter::from_fn(|| self.take(ident)));
        self.end_line();
    }

    fn unknown_field(&mut self, block: &str, field: &Name, label: &str) {
        self.error(
            field.span,
            format!("unknown {block} field `{}`", field.node),
            label,
        );
        self.sync_line();
    }

    fn statement(&mut self, m: &mut Module) {
        let Some(kw) = self.take(ident) else {
            self.unexpected("a statement", "not a statement");
            return self.sync_line();
        };
        match kw.node.as_str() {
            "annotations" => {
                let block = self.annotations(kw.span);
                self.at_most_one(&mut m.annotations, block, &kw);
            }
            "harness" => {
                let block = self.harness(kw.span);
                self.at_most_one(&mut m.harness, block, &kw);
            }
            _ => m.items.extend(self.line(|p| p.item(&kw))),
        }
    }

    /// Stores a module's metadata block, or reports a second `kw` block.
    fn at_most_one<T>(&mut self, slot: &mut Option<T>, block: Option<T>, kw: &Name) {
        if slot.is_some() {
            self.error(
                kw.span,
                format!("duplicate `{}` block", kw.node),
                "a module has at most one",
            );
        } else {
            *slot = block;
        }
    }

    /// The rest of a declaration or connection statement after `kw`.
    fn item(&mut self, kw: &Name) -> Option<Item> {
        Some(match kw.node.as_str() {
            "input" => {
                let name = self.name("a signal name")?;
                self.expect(TokKind::Colon, "`:`")?;
                Item::Input {
                    name,
                    width: self.width()?,
                }
            }
            "reg" => {
                let name = self.name("a register name")?;
                self.expect(TokKind::Colon, "`:`")?;
                let width = self.width()?;
                self.expect(TokKind::Eq, "`=`")?;
                Item::Reg {
                    name,
                    width,
                    init: self.int("a reset value")?,
                }
            }
            "const" => {
                let name = self.name("a constant name")?;
                self.expect(TokKind::Colon, "`:`")?;
                let width = self.width()?;
                self.expect(TokKind::Eq, "`=`")?;
                Item::Const {
                    name,
                    width,
                    value: self.int("a constant value")?,
                }
            }
            "wire" => {
                let name = self.name("a wire name")?;
                let width = match self.eat(&TokKind::Colon) {
                    Some(_) => Some(self.width()?),
                    None => None,
                };
                self.expect(TokKind::Eq, "`=`")?;
                Item::Wire {
                    name,
                    width,
                    op: self.wire_op()?,
                }
            }
            "mem" => {
                let raw = self.name("a memory name like `m[16]`")?;
                let Some(br) = raw.node.find('[').filter(|_| raw.node.ends_with(']')) else {
                    self.error(
                        raw.span,
                        "memory declarations need a length suffix, e.g. `mem m[16] : w8`",
                        "missing `[len]`",
                    );
                    return None;
                };
                let (rlo, rhi) = (raw.span.lo as usize, raw.span.hi as usize);
                let len = raw.node[br + 1..raw.node.len() - 1].parse().unwrap_or(0);
                self.expect(TokKind::Colon, "`:`")?;
                Item::Mem {
                    name: Spanned::new(raw.node[..br].to_string(), Span::new(rlo, rlo + br)),
                    len: Spanned::new(len, Span::new(rlo + br + 1, rhi - 1)),
                    width: self.width()?,
                    init: match self.eat(&TokKind::Eq) {
                        Some(_) => Some(self.int("a reset value")?),
                        None => None,
                    },
                }
            }
            "write" => Item::Write {
                mem: self.name("a memory name")?,
                en: self.name("a write-enable signal")?,
                addr: self.name("an address signal")?,
                data: self.name("a data signal")?,
            },
            "next" => {
                let reg = self.name("a register name")?;
                self.expect(TokKind::Arrow, "`<-`")?;
                Item::Next {
                    reg,
                    src: self.name("a signal name")?,
                }
            }
            other => {
                self.error(
                    kw.span,
                    format!("unknown statement `{other}`"),
                    "expected `input`, `reg`, `const`, `wire`, `mem`, `write`, `next`, `annotations`, or `harness`",
                );
                return None;
            }
        })
    }

    fn wire_op(&mut self) -> Option<WireOp> {
        let op = self.name("an operator")?;
        if let Some(u) = UnOp::ALL.into_iter().find(|u| u.mnemonic() == op.node) {
            let a = self.name("an operand")?;
            return Some(WireOp::Unary { op: u, a });
        }
        if let Some(b) = BinOp::ALL.into_iter().find(|b| b.mnemonic() == op.node) {
            return Some(WireOp::Binary {
                op: b,
                op_span: op.span,
                a: self.name("an operand")?,
                b: self.name("an operand")?,
            });
        }
        Some(match op.node.as_str() {
            "mux" => WireOp::Mux {
                sel: self.name("a select signal")?,
                a: self.name("an operand")?,
                b: self.name("an operand")?,
            },
            "slice" => WireOp::Slice {
                src: self.name("a source signal")?,
                hi: self.int("a high bit index")?,
                lo: self.int("a low bit index")?,
            },
            "concat" => WireOp::Concat {
                hi: self.name("an operand")?,
                lo: self.name("an operand")?,
            },
            "read" => WireOp::Read {
                mem: self.name("a memory name")?,
                addr: self.name("an address signal")?,
            },
            other => {
                self.error(
                    op.span,
                    format!("unknown operator `{other}`"),
                    "not an operator",
                );
                return None;
            }
        })
    }

    /// `( <int> {, <int>} )` — a µFSM state valuation.
    fn tuple(&mut self) -> Option<Spanned<Vec<u64>>> {
        let open = self.expect(TokKind::LParen, "`(`")?;
        let mut vals = vec![self.int("a state value")?.node];
        while self.eat(&TokKind::Comma).is_some() {
            vals.push(self.int("a state value")?.node);
        }
        let Some(close) = self.eat(&TokKind::RParen) else {
            self.unexpected("`,` or `)`", "in state tuple");
            return None;
        };
        Some(Spanned::new(vals, open.join(close)))
    }

    fn annotations(&mut self, span: Span) -> Option<AnnBlock> {
        let mut b = AnnBlock {
            span,
            ..AnnBlock::default()
        };
        self.block("`annotations` block", |p| {
            let Some(field) = p.name("an annotation field") else {
                return p.sync_line();
            };
            match field.node.as_str() {
                "ifr" => p.once_name(&mut b.ifr, &field),
                "fetch_valid" => p.once_name(&mut b.fetch_valid, &field),
                "fetch_pc" => p.once_name(&mut b.fetch_pc, &field),
                "commit" => p.once_name(&mut b.commit, &field),
                "commit_pc" => p.once_name(&mut b.commit_pc, &field),
                "operands" => p.names(&mut b.operands),
                "arf" => p.names(&mut b.arf),
                "amem" => p.names(&mut b.amem),
                "persistent" => p.names(&mut b.persistent),
                "added_loc" => p.once(&mut b.added_loc, &field, |p| p.int("a location count")),
                "ufsm" => b.ufsms.extend(p.ufsm()),
                _ => p.unknown_field(
                    "annotation",
                    &field,
                    "expected `ifr`, `fetch_valid`, `fetch_pc`, `commit`, `commit_pc`, `operands`, `arf`, `amem`, `persistent`, `added_loc`, or `ufsm`",
                ),
            }
        })?;
        Some(b)
    }

    fn ufsm(&mut self) -> Option<UfsmBlock> {
        let mut u = UfsmBlock {
            name: self.name("a ufsm name")?,
            added: self.eat(&TokKind::Ident("added".into())).is_some(),
            pcr: None,
            vars: Vec::new(),
            idle: Vec::new(),
            states: Vec::new(),
        };
        self.block("`ufsm` block", |p| {
            let Some(field) = p.name("a ufsm field") else {
                return p.sync_line();
            };
            match field.node.as_str() {
                "pcr" => p.once(&mut u.pcr, &field, |p| p.name("a register name")),
                "vars" => p.names(&mut u.vars),
                "idle" => u.idle.extend(p.line(Self::tuple)),
                "state" => u.states.extend(p.line(|p| {
                    let name = p.name("a state name")?;
                    p.expect(TokKind::Eq, "`=`")?;
                    Some((name, p.tuple()?))
                })),
                _ => p.unknown_field("ufsm", &field, "expected `pcr`, `vars`, `idle`, or `state`"),
            }
        })?;
        Some(u)
    }

    fn harness(&mut self, span: Span) -> Option<HarnessBlock> {
        let mut b = HarnessBlock {
            span,
            ..HarnessBlock::default()
        };
        self.block("`harness` block", |p| {
            let Some(field) = p.name("a harness field") else {
                return p.sync_line();
            };
            match field.node.as_str() {
                "fetch_instr_input" => p.once_name(&mut b.fetch_instr_input, &field),
                "fetch_valid_input" => p.once_name(&mut b.fetch_valid_input, &field),
                "fetch_fire" => p.once_name(&mut b.fetch_fire, &field),
                "issue_fire" => p.once_name(&mut b.issue_fire, &field),
                "issue_pc" => p.once_name(&mut b.issue_pc, &field),
                "issue_valid" => p.once_name(&mut b.issue_valid, &field),
                "rs_fields" => p.once(&mut b.rs_fields, &field, |p| {
                    Some((p.name("a signal name")?, p.name("a signal name")?))
                }),
                "pc" => p.once_name(&mut b.pc, &field),
                "isa" => p.names(&mut b.isa),
                "type_field" => p.once(&mut b.type_field, &field, |p| {
                    Some((p.int("a high bit index")?, p.int("a low bit index")?))
                }),
                "type_value" => b.type_values.extend(
                    p.line(|p| Some((p.name("a mnemonic")?, p.int("a type value")?))),
                ),
                "max_latency" => p.once(&mut b.max_latency, &field, |p| p.int("a cycle count")),
                "outputs" => p.names(&mut b.outputs),
                _ => p.unknown_field(
                    "harness",
                    &field,
                    "expected a harness hook, `isa`, `type_field`, `type_value`, `max_latency`, or `outputs`",
                ),
            }
        })?;
        Some(b)
    }
}
