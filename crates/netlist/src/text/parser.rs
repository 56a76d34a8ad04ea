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
//! newline), so one typo does not cascade through the whole file.

use super::ast::{AnnBlock, HarnessBlock, Item, Module, Name, Spanned, UfsmBlock, WireOp};
use super::lexer::{TokKind, Token};
use crate::diag::{Diagnostic, Report, Span};
use crate::ir::{BinOp, UnOp};

/// Parses a token stream into a [`Module`]. Returns `None` only when no
/// module header could be found at all; otherwise a best-effort AST is
/// returned alongside whatever `E002` diagnostics were pushed.
pub fn parse(tokens: &[Token], report: &mut Report) -> Option<Module> {
    Parser {
        toks: tokens,
        pos: 0,
        report,
    }
    .module()
}

struct Parser<'a, 'r> {
    toks: &'a [Token],
    pos: usize,
    report: &'r mut Report,
}

impl Parser<'_, '_> {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokKind) -> bool {
        &self.peek().kind == kind
    }

    fn skip_newlines(&mut self) {
        while self.at(&TokKind::Newline) {
            self.bump();
        }
    }

    fn error(&mut self, span: Span, msg: impl Into<String>, label: &str) {
        self.report
            .push(Diagnostic::error("E002", "parse", msg).with_primary(span, label));
    }

    /// Skips to the end of the current line without consuming the closing
    /// brace of the enclosing block, so recovery stays local.
    fn sync_line(&mut self) {
        loop {
            match &self.peek().kind {
                TokKind::Newline => {
                    self.bump();
                    return;
                }
                TokKind::RBrace | TokKind::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn expect(&mut self, kind: TokKind, what: &str) -> Option<Token> {
        if self.at(&kind) {
            Some(self.bump())
        } else {
            let found = self.peek().kind.describe();
            let span = self.peek().span;
            self.error(
                span,
                format!("expected {what}, found {found}"),
                &format!("expected {what}"),
            );
            None
        }
    }

    fn name(&mut self, what: &str) -> Option<Name> {
        match &self.peek().kind {
            TokKind::Ident(s) => {
                let s = s.clone();
                let t = self.bump();
                Some(Spanned::new(s, t.span))
            }
            k => {
                let found = k.describe();
                let span = self.peek().span;
                self.error(
                    span,
                    format!("expected {what}, found {found}"),
                    &format!("expected {what}"),
                );
                None
            }
        }
    }

    fn int(&mut self, what: &str) -> Option<Spanned<u64>> {
        match &self.peek().kind {
            TokKind::Int(n) => {
                let n = *n;
                let t = self.bump();
                Some(Spanned::new(n, t.span))
            }
            k => {
                let found = k.describe();
                let span = self.peek().span;
                self.error(
                    span,
                    format!("expected {what}, found {found}"),
                    &format!("expected {what}"),
                );
                None
            }
        }
    }

    /// A width token: an identifier of the shape `w<digits>`.
    fn width(&mut self) -> Option<Spanned<u64>> {
        match &self.peek().kind {
            TokKind::Ident(s)
                if s.starts_with('w')
                    && s[1..].chars().all(|c| c.is_ascii_digit())
                    && s.len() > 1 =>
            {
                let n: u64 = s[1..].parse().unwrap_or(u64::MAX);
                let t = self.bump();
                Some(Spanned::new(n, t.span))
            }
            k => {
                let found = k.describe();
                let span = self.peek().span;
                self.error(
                    span,
                    format!("expected a width such as `w8`, found {found}"),
                    "expected a width",
                );
                None
            }
        }
    }

    /// Consumes the end of a statement line; on junk, reports and recovers.
    fn end_line(&mut self) {
        match &self.peek().kind {
            TokKind::Newline => {
                self.bump();
            }
            TokKind::RBrace | TokKind::Eof => {}
            k => {
                let found = k.describe();
                let span = self.peek().span;
                self.error(
                    span,
                    format!("expected end of line, found {found}"),
                    "trailing tokens",
                );
                self.sync_line();
            }
        }
    }

    fn module(&mut self) -> Option<Module> {
        self.skip_newlines();
        match &self.peek().kind {
            TokKind::Ident(s) if s == "module" => {
                self.bump();
            }
            k => {
                let found = k.describe();
                let span = self.peek().span;
                self.error(
                    span,
                    format!("expected `module`, found {found}"),
                    "a netlist file starts with `module <name> {`",
                );
                return None;
            }
        }
        let name = self.name("a module name")?;
        self.expect(TokKind::LBrace, "`{`")?;
        self.end_line();

        let mut m = Module {
            name,
            items: Vec::new(),
            annotations: None,
            harness: None,
        };
        loop {
            self.skip_newlines();
            match &self.peek().kind {
                TokKind::RBrace => {
                    self.bump();
                    break;
                }
                TokKind::Eof => {
                    let span = self.peek().span;
                    self.error(
                        span,
                        "unexpected end of file: unclosed module block",
                        "expected `}`",
                    );
                    break;
                }
                _ => self.statement(&mut m),
            }
        }
        Some(m)
    }

    fn statement(&mut self, m: &mut Module) {
        let kw = match &self.peek().kind {
            TokKind::Ident(s) => s.clone(),
            k => {
                let found = k.describe();
                let span = self.peek().span;
                self.error(
                    span,
                    format!("expected a statement, found {found}"),
                    "not a statement",
                );
                self.sync_line();
                return;
            }
        };
        let kw_span = self.peek().span;
        match kw.as_str() {
            "input" => {
                self.bump();
                let item = (|p: &mut Self| {
                    let name = p.name("a signal name")?;
                    p.expect(TokKind::Colon, "`:`")?;
                    let width = p.width()?;
                    Some(Item::Input { name, width })
                })(self);
                self.finish_stmt(m, item);
            }
            "reg" => {
                self.bump();
                let item = (|p: &mut Self| {
                    let name = p.name("a register name")?;
                    p.expect(TokKind::Colon, "`:`")?;
                    let width = p.width()?;
                    p.expect(TokKind::Eq, "`=`")?;
                    let init = p.int("a reset value")?;
                    Some(Item::Reg { name, width, init })
                })(self);
                self.finish_stmt(m, item);
            }
            "const" => {
                self.bump();
                let item = (|p: &mut Self| {
                    let name = p.name("a constant name")?;
                    p.expect(TokKind::Colon, "`:`")?;
                    let width = p.width()?;
                    p.expect(TokKind::Eq, "`=`")?;
                    let value = p.int("a constant value")?;
                    Some(Item::Const { name, width, value })
                })(self);
                self.finish_stmt(m, item);
            }
            "wire" => {
                self.bump();
                let item = (|p: &mut Self| {
                    let name = p.name("a wire name")?;
                    let width = if p.at(&TokKind::Colon) {
                        p.bump();
                        Some(p.width()?)
                    } else {
                        None
                    };
                    p.expect(TokKind::Eq, "`=`")?;
                    let op = p.wire_op()?;
                    Some(Item::Wire { name, width, op })
                })(self);
                self.finish_stmt(m, item);
            }
            "mem" => {
                self.bump();
                let item = (|p: &mut Self| {
                    let raw = p.name("a memory name like `m[16]`")?;
                    let (name, len) = match raw.node.find('[') {
                        Some(br) if raw.node.ends_with(']') => {
                            let base = raw.node[..br].to_string();
                            let digits = &raw.node[br + 1..raw.node.len() - 1];
                            let len: u64 = digits.parse().unwrap_or(0);
                            let (rlo, rhi) = (raw.span.lo as usize, raw.span.hi as usize);
                            let name = Spanned::new(base, Span::new(rlo, rlo + br));
                            let len = Spanned::new(len, Span::new(rlo + br + 1, rhi - 1));
                            (name, len)
                        }
                        _ => {
                            p.error(
                                raw.span,
                                "memory declarations need a length suffix, e.g. `mem m[16] : w8`",
                                "missing `[len]`",
                            );
                            return None;
                        }
                    };
                    p.expect(TokKind::Colon, "`:`")?;
                    let width = p.width()?;
                    let init = if p.at(&TokKind::Eq) {
                        p.bump();
                        Some(p.int("a reset value")?)
                    } else {
                        None
                    };
                    Some(Item::Mem {
                        name,
                        len,
                        width,
                        init,
                    })
                })(self);
                self.finish_stmt(m, item);
            }
            "write" => {
                self.bump();
                let item = (|p: &mut Self| {
                    let mem = p.name("a memory name")?;
                    let en = p.name("a write-enable signal")?;
                    let addr = p.name("an address signal")?;
                    let data = p.name("a data signal")?;
                    Some(Item::Write {
                        mem,
                        en,
                        addr,
                        data,
                    })
                })(self);
                self.finish_stmt(m, item);
            }
            "next" => {
                self.bump();
                let item = (|p: &mut Self| {
                    let reg = p.name("a register name")?;
                    p.expect(TokKind::Arrow, "`<-`")?;
                    let src = p.name("a signal name")?;
                    Some(Item::Next { reg, src })
                })(self);
                self.finish_stmt(m, item);
            }
            "annotations" => {
                self.bump();
                let block = self.annotations_block(kw_span);
                if m.annotations.is_some() {
                    self.error(
                        kw_span,
                        "duplicate `annotations` block",
                        "a module has at most one",
                    );
                } else {
                    m.annotations = block;
                }
            }
            "harness" => {
                self.bump();
                let block = self.harness_block(kw_span);
                if m.harness.is_some() {
                    self.error(
                        kw_span,
                        "duplicate `harness` block",
                        "a module has at most one",
                    );
                } else {
                    m.harness = block;
                }
            }
            other => {
                self.error(
                    kw_span,
                    format!("unknown statement `{other}`"),
                    "expected `input`, `reg`, `const`, `wire`, `mem`, `write`, `next`, `annotations`, or `harness`",
                );
                self.sync_line();
            }
        }
    }

    fn finish_stmt(&mut self, m: &mut Module, item: Option<Item>) {
        match item {
            Some(item) => {
                m.items.push(item);
                self.end_line();
            }
            None => self.sync_line(),
        }
    }

    fn wire_op(&mut self) -> Option<WireOp> {
        let op = self.name("an operator")?;
        let op_span = op.span;
        if let Some(u) = UnOp::ALL.into_iter().find(|u| u.mnemonic() == op.node) {
            let a = self.name("an operand")?;
            return Some(WireOp::Unary { op: u, a });
        }
        if let Some(b) = BinOp::ALL.into_iter().find(|b| b.mnemonic() == op.node) {
            let x = self.name("an operand")?;
            let y = self.name("an operand")?;
            return Some(WireOp::Binary {
                op: b,
                op_span,
                a: x,
                b: y,
            });
        }
        match op.node.as_str() {
            "mux" => {
                let sel = self.name("a select signal")?;
                let a = self.name("an operand")?;
                let b = self.name("an operand")?;
                Some(WireOp::Mux { sel, a, b })
            }
            "slice" => {
                let src = self.name("a source signal")?;
                let hi = self.int("a high bit index")?;
                let lo = self.int("a low bit index")?;
                Some(WireOp::Slice { src, hi, lo })
            }
            "concat" => {
                let hi = self.name("an operand")?;
                let lo = self.name("an operand")?;
                Some(WireOp::Concat { hi, lo })
            }
            "read" => {
                let mem = self.name("a memory name")?;
                let addr = self.name("an address signal")?;
                Some(WireOp::Read { mem, addr })
            }
            other => {
                self.error(
                    op_span,
                    format!("unknown operator `{other}`"),
                    "not an operator",
                );
                None
            }
        }
    }

    /// `( <int> {, <int>} )` — a µFSM state valuation.
    fn tuple(&mut self) -> Option<Spanned<Vec<u64>>> {
        let open = self.expect(TokKind::LParen, "`(`")?;
        let mut vals = Vec::new();
        loop {
            vals.push(self.int("a state value")?.node);
            match &self.peek().kind {
                TokKind::Comma => {
                    self.bump();
                }
                TokKind::RParen => break,
                k => {
                    let found = k.describe();
                    let span = self.peek().span;
                    self.error(
                        span,
                        format!("expected `,` or `)`, found {found}"),
                        "in state tuple",
                    );
                    return None;
                }
            }
        }
        let close = self.bump(); // RParen
        Some(Spanned::new(vals, open.span.join(close.span)))
    }

    /// Names until end-of-line.
    fn name_list(&mut self) -> Vec<Name> {
        let mut out = Vec::new();
        while let TokKind::Ident(s) = &self.peek().kind {
            let s = s.clone();
            let t = self.bump();
            out.push(Spanned::new(s, t.span));
        }
        out
    }

    fn set_once<T>(&mut self, slot: &mut Option<T>, value: Option<T>, field: &str, span: Span) {
        if value.is_none() {
            return;
        }
        if slot.is_some() {
            self.error(
                span,
                format!("duplicate `{field}` field"),
                "already set above",
            );
        } else {
            *slot = value;
        }
    }

    fn annotations_block(&mut self, kw_span: Span) -> Option<AnnBlock> {
        self.expect(TokKind::LBrace, "`{`")?;
        self.end_line();
        let mut blk = AnnBlock {
            span: kw_span,
            ..AnnBlock::default()
        };
        loop {
            self.skip_newlines();
            match &self.peek().kind {
                TokKind::RBrace => {
                    self.bump();
                    break;
                }
                TokKind::Eof => {
                    let span = self.peek().span;
                    self.error(
                        span,
                        "unexpected end of file: unclosed `annotations` block",
                        "expected `}`",
                    );
                    return Some(blk);
                }
                _ => {}
            }
            let Some(field) = self.name("an annotation field") else {
                self.sync_line();
                continue;
            };
            let fspan = field.span;
            match field.node.as_str() {
                "ifr" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.ifr, v, "ifr", fspan);
                    self.end_line();
                }
                "fetch_valid" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.fetch_valid, v, "fetch_valid", fspan);
                    self.end_line();
                }
                "fetch_pc" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.fetch_pc, v, "fetch_pc", fspan);
                    self.end_line();
                }
                "commit" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.commit, v, "commit", fspan);
                    self.end_line();
                }
                "commit_pc" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.commit_pc, v, "commit_pc", fspan);
                    self.end_line();
                }
                "operands" => {
                    blk.operands.extend(self.name_list());
                    self.end_line();
                }
                "arf" => {
                    blk.arf.extend(self.name_list());
                    self.end_line();
                }
                "amem" => {
                    blk.amem.extend(self.name_list());
                    self.end_line();
                }
                "persistent" => {
                    blk.persistent.extend(self.name_list());
                    self.end_line();
                }
                "added_loc" => {
                    let v = self.int("a location count");
                    self.set_once(&mut blk.added_loc, v, "added_loc", fspan);
                    self.end_line();
                }
                "ufsm" => {
                    if let Some(u) = self.ufsm_block() {
                        blk.ufsms.push(u);
                    }
                }
                other => {
                    self.error(
                        fspan,
                        format!("unknown annotation field `{other}`"),
                        "expected `ifr`, `fetch_valid`, `fetch_pc`, `commit`, `commit_pc`, `operands`, `arf`, `amem`, `persistent`, `added_loc`, or `ufsm`",
                    );
                    self.sync_line();
                }
            }
        }
        Some(blk)
    }

    fn ufsm_block(&mut self) -> Option<UfsmBlock> {
        let name = self.name("a ufsm name")?;
        let added = match &self.peek().kind {
            TokKind::Ident(s) if s == "added" => {
                self.bump();
                true
            }
            _ => false,
        };
        self.expect(TokKind::LBrace, "`{`")?;
        self.end_line();
        let mut u = UfsmBlock {
            name,
            added,
            pcr: None,
            vars: Vec::new(),
            idle: Vec::new(),
            states: Vec::new(),
        };
        loop {
            self.skip_newlines();
            match &self.peek().kind {
                TokKind::RBrace => {
                    self.bump();
                    break;
                }
                TokKind::Eof => {
                    let span = self.peek().span;
                    self.error(
                        span,
                        "unexpected end of file: unclosed `ufsm` block",
                        "expected `}`",
                    );
                    return Some(u);
                }
                _ => {}
            }
            let Some(field) = self.name("a ufsm field") else {
                self.sync_line();
                continue;
            };
            let fspan = field.span;
            match field.node.as_str() {
                "pcr" => {
                    let v = self.name("a register name");
                    self.set_once(&mut u.pcr, v, "pcr", fspan);
                    self.end_line();
                }
                "vars" => {
                    u.vars.extend(self.name_list());
                    self.end_line();
                }
                "idle" => {
                    if let Some(t) = self.tuple() {
                        u.idle.push(t);
                        self.end_line();
                    } else {
                        self.sync_line();
                    }
                }
                "state" => {
                    let item = (|p: &mut Self| {
                        let n = p.name("a state name")?;
                        p.expect(TokKind::Eq, "`=`")?;
                        let t = p.tuple()?;
                        Some((n, t))
                    })(self);
                    match item {
                        Some(s) => {
                            u.states.push(s);
                            self.end_line();
                        }
                        None => self.sync_line(),
                    }
                }
                other => {
                    self.error(
                        fspan,
                        format!("unknown ufsm field `{other}`"),
                        "expected `pcr`, `vars`, `idle`, or `state`",
                    );
                    self.sync_line();
                }
            }
        }
        Some(u)
    }

    fn harness_block(&mut self, kw_span: Span) -> Option<HarnessBlock> {
        self.expect(TokKind::LBrace, "`{`")?;
        self.end_line();
        let mut blk = HarnessBlock {
            span: kw_span,
            ..HarnessBlock::default()
        };
        loop {
            self.skip_newlines();
            match &self.peek().kind {
                TokKind::RBrace => {
                    self.bump();
                    break;
                }
                TokKind::Eof => {
                    let span = self.peek().span;
                    self.error(
                        span,
                        "unexpected end of file: unclosed `harness` block",
                        "expected `}`",
                    );
                    return Some(blk);
                }
                _ => {}
            }
            let Some(field) = self.name("a harness field") else {
                self.sync_line();
                continue;
            };
            let fspan = field.span;
            match field.node.as_str() {
                "fetch_instr_input" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.fetch_instr_input, v, "fetch_instr_input", fspan);
                    self.end_line();
                }
                "fetch_valid_input" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.fetch_valid_input, v, "fetch_valid_input", fspan);
                    self.end_line();
                }
                "fetch_fire" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.fetch_fire, v, "fetch_fire", fspan);
                    self.end_line();
                }
                "issue_fire" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.issue_fire, v, "issue_fire", fspan);
                    self.end_line();
                }
                "issue_pc" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.issue_pc, v, "issue_pc", fspan);
                    self.end_line();
                }
                "issue_valid" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.issue_valid, v, "issue_valid", fspan);
                    self.end_line();
                }
                "rs_fields" => {
                    let v = (|p: &mut Self| {
                        let a = p.name("a signal name")?;
                        let b = p.name("a signal name")?;
                        Some((a, b))
                    })(self);
                    self.set_once(&mut blk.rs_fields, v, "rs_fields", fspan);
                    self.end_line();
                }
                "pc" => {
                    let v = self.name("a signal name");
                    self.set_once(&mut blk.pc, v, "pc", fspan);
                    self.end_line();
                }
                "isa" => {
                    blk.isa.extend(self.name_list());
                    self.end_line();
                }
                "type_field" => {
                    let v = (|p: &mut Self| {
                        let hi = p.int("a high bit index")?;
                        let lo = p.int("a low bit index")?;
                        Some((hi, lo))
                    })(self);
                    self.set_once(&mut blk.type_field, v, "type_field", fspan);
                    self.end_line();
                }
                "type_value" => {
                    let item = (|p: &mut Self| {
                        let mn = p.name("a mnemonic")?;
                        let v = p.int("a type value")?;
                        Some((mn, v))
                    })(self);
                    match item {
                        Some(tv) => {
                            blk.type_values.push(tv);
                            self.end_line();
                        }
                        None => self.sync_line(),
                    }
                }
                "max_latency" => {
                    let v = self.int("a cycle count");
                    self.set_once(&mut blk.max_latency, v, "max_latency", fspan);
                    self.end_line();
                }
                "outputs" => {
                    blk.outputs.extend(self.name_list());
                    self.end_line();
                }
                other => {
                    self.error(
                        fspan,
                        format!("unknown harness field `{other}`"),
                        "expected a harness hook, `isa`, `type_field`, `type_value`, `max_latency`, or `outputs`",
                    );
                    self.sync_line();
                }
            }
        }
        Some(blk)
    }
}
