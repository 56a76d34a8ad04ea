//! Lowering: AST → IR, checking widths and types on the way.
//!
//! Runs after [`super::resolve`] and walks the items once, in statement
//! order: each declaration is checked and lowered to its node at once —
//! exactly one node per declaration, the invariant behind byte-identical
//! emit→parse→lower→emit round trips. The `mem`/`read`/`write` sugar
//! expands to register words plus anonymous mux/eq chains. `next` and
//! `write` statements are checked, and then connected, after the walk, in
//! statement order: their operands, and a `write`'s memory, may be
//! declared later.
//!
//! Codes: `E006` bad width, `E007` operand/result width disagreement,
//! `E008` slice out of bounds, `E009` constant or reset value too wide,
//! `E010` memory-port problems, `E011` next-connection problems, `E012`
//! annotation shape problems, `E013` harness shape problems. Every
//! combinational node takes its width, and its operator faults, from the
//! netlist's one width rule (`ir::width_rule`); this pass only renders
//! them.
//!
//! A declaration that fails still lowers at its declared width, so later
//! uses are checked against it. An operand that is undefined, declared
//! later, or failed without a declared width names no node, and the rule
//! checks nothing that reads it: resolve, or the operand's own
//! declaration, already said why. The module is returned, and `W001`
//! reported, only when the report is error-free; the `next`s and write
//! ports are then connected and the IR re-validated, and a failure there
//! is `E014`.
//!
//! Surface names of the reserved shape `_n<digits>` are the emitter's
//! spelling of *anonymous* nodes: lowering drops them from the IR (the
//! node gets `name: None`) and warns `W001` when the digits do not match
//! the node index they land on.

use std::collections::{HashMap, HashSet};

use super::ast::{Item, Module, Name, Spanned, UfsmBlock, WireOp};
use super::resolve::MAX_MEM_LEN;
use crate::annotate::{Annotations, FsmState, NamedState, UFsm};
use crate::diag::{Diagnostic, Report, Span};
use crate::ir::{mask, width_rule, BinOp, Fault, Netlist, NetlistError, Node, Op, SignalId};

/// Harness metadata in netlist-crate terms: hook signals resolved to ids,
/// ISA mnemonics and type encodings kept as strings/values (the `uarch`
/// crate converts them to `Opcode`s; `netlist` cannot see the `isa` crate).
#[derive(Clone, Debug)]
pub struct HarnessData {
    /// The instruction-word input driven by the verification harness.
    pub fetch_instr_input: SignalId,
    /// The fetch-valid input.
    pub fetch_valid_input: SignalId,
    /// 1-bit strobe: a fetch happened this cycle.
    pub fetch_fire: SignalId,
    /// 1-bit strobe: an issue happened this cycle.
    pub issue_fire: SignalId,
    /// PC of the issuing instruction.
    pub issue_pc: SignalId,
    /// 1-bit: issue stage holds a valid instruction.
    pub issue_valid: SignalId,
    /// Source-register fields of the issue-stage instruction.
    pub rs_fields: Option<(SignalId, SignalId)>,
    /// The architectural PC register.
    pub pc: SignalId,
    /// ISA mnemonics, in declaration order.
    pub isa: Vec<String>,
    /// High bit of the opcode type field.
    pub type_field_hi: u8,
    /// Low bit of the opcode type field.
    pub type_field_lo: u8,
    /// Explicit `mnemonic -> type value` encodings.
    pub type_values: Vec<(String, u64)>,
    /// Issue-latency bound for the synthesis procedures.
    pub max_latency: usize,
    /// Extra observable outputs.
    pub outputs: Vec<SignalId>,
}

/// The result of lowering one module.
pub struct LoweredModule {
    /// Module name.
    pub name: String,
    /// The lowered IR.
    pub netlist: Netlist,
    /// Per-node source span (None for sugar-generated nodes).
    pub spans: Vec<Option<Span>>,
    /// §V-A metadata, when an `annotations` block was present.
    pub annotations: Option<Annotations>,
    /// Harness metadata, when a `harness` block was present.
    pub harness: Option<HarnessData>,
}

impl LoweredModule {
    /// The source span of `id`'s declaration, when it has one.
    pub fn span_of(&self, id: SignalId) -> Option<Span> {
        self.spans.get(id.index()).copied().flatten()
    }
}

/// The pass tag the width and shape checks report under.
const TYPECK: &str = "typeck";

/// The stand-in for an operand that names no node: out of range, so the
/// width rule reads it as dangling.
const UNKNOWN: SignalId = SignalId(u32::MAX);

/// An error of the width and shape checks.
fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
    Diagnostic::error(code, TYPECK, message)
}

/// `_n<digits>` — the reserved spelling of anonymous nodes.
fn anonymous_index(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("_n")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A bit index as the IR holds it. An index past `u8` is past every
/// source width too, so saturating keeps an out-of-bounds slice out of
/// bounds.
fn bit_index(i: &Spanned<u64>) -> u8 {
    u8::try_from(i.node).unwrap_or(u8::MAX)
}

/// The error for `what`, signal `n` of `w` bits, where one bit is needed.
fn not_one_bit(code: &'static str, what: &str, n: &Name, w: u8, label: &str) -> Diagnostic {
    error(
        code,
        format!("{what} `{}` must be 1 bit wide, not w{w}", n.node),
    )
    .with_primary(n.span, label)
}

fn missing(span: Span, block: &str, field: &str, code: &'static str) -> Diagnostic {
    error(
        code,
        format!("`{block}` block is missing the required `{field}` field"),
    )
    .with_primary(span, format!("add `{field} ...` inside this block"))
}

/// A lowered `mem`: its word registers and where it was declared.
struct Mem {
    words: Vec<SignalId>,
    span: Span,
}

/// A `next` (register, source) or `write` (memory, enable, address, data)
/// statement, checked and connected after the walk.
enum Port<'m> {
    Next(&'m Name, &'m Name),
    Write([&'m Name; 4]),
}

struct Lowerer<'m, 'r> {
    /// The source text, for quoting a number as written.
    src: &'m str,
    nl: Netlist,
    spans: Vec<Option<Span>>,
    /// The one symbol table: name → its node, whose width is the name's.
    syms: HashMap<String, SignalId>,
    mems: HashMap<String, Mem>,
    /// Memories whose one write port is taken.
    written: HashSet<String>,
    report: &'r mut Report,
    /// `W001`s, reported only when the walk ends error-free.
    w001: Vec<Diagnostic>,
    /// Registers (memory words included) in declaration order, and where
    /// each got its `next` connection.
    regs: Vec<(String, Span)>,
    next_seen: HashMap<String, Span>,
    /// `next` and `write` statements, in statement order.
    ports: Vec<Port<'m>>,
}

impl<'m> Lowerer<'m, '_> {
    /// The node `n` names, or [`UNKNOWN`].
    fn id(&self, n: &Name) -> SignalId {
        self.syms.get(&n.node).copied().unwrap_or(UNKNOWN)
    }

    /// The width of the node `n` names.
    fn width(&self, n: &Name) -> Option<u8> {
        self.nl.width_of(self.id(n))
    }

    /// The source text under `span`: a number as written, even when it
    /// does not fit in 64 bits.
    fn written(&self, span: Span) -> &'m str {
        &self.src[span.lo as usize..span.hi as usize]
    }

    fn check_width(&mut self, w: &Spanned<u64>) -> Option<u8> {
        match u8::try_from(w.node) {
            Ok(width @ 1..=64) => Some(width),
            _ => {
                let written = self.written(w.span);
                self.report.push(
                    error(
                        "E006",
                        format!("width {written} is outside the supported range"),
                    )
                    .with_primary(w.span, "widths must be between w1 and w64"),
                );
                None
            }
        }
    }

    fn check_value_fits(&mut self, value: &Spanned<u64>, width: u8, what: &str) {
        if value.node & !mask(width) != 0 {
            self.report.push(
                error(
                    "E009",
                    format!("{what} {} does not fit in w{width}", value.node),
                )
                .with_primary(
                    value.span,
                    format!("largest w{width} value is {}", mask(width)),
                ),
            );
        }
    }

    fn require_1bit(&mut self, n: &Name, code: &'static str, what: &str, label: &str) {
        if let Some(w) = self.width(n).filter(|&w| w != 1) {
            self.report.push(not_one_bit(code, what, n, w, label));
        }
    }

    /// `E010` when `addr` is too narrow to address all `len` words.
    fn check_covers(&mut self, addr: &Name, mem: &Name, len: usize, mem_span: Span) {
        if let Some(aw) = self
            .width(addr)
            .filter(|&aw| aw < 64 && len as u64 > 1 << aw)
        {
            self.report.push(
                error(
                    "E010",
                    format!(
                        "address `{}` (w{aw}) cannot address all {len} words of `{}`",
                        addr.node, mem.node
                    ),
                )
                .with_primary(addr.span, "address too narrow")
                .with_secondary(mem_span, "memory declared here"),
            );
        }
    }

    /// Whether `src` may be register `reg`'s next state, by the register
    /// width rule. An unknown `src` checks nothing.
    fn may_drive(&self, reg: SignalId, src: SignalId) -> bool {
        let mut ok = true;
        let op = Op::Reg {
            next: Some(src),
            init: 0,
        };
        let width = self.nl.width(reg);
        width_rule(
            &op,
            width,
            |s| self.nl.width_of(s),
            |f| ok &= matches!(f, Fault::Dangling(_)),
        );
        ok
    }

    fn push(
        &mut self,
        name: Option<String>,
        width: u8,
        op: Op,
        span: Span,
    ) -> Result<SignalId, NetlistError> {
        let id = self.nl.push(Node { name, width, op })?;
        self.spans.push(Some(span));
        Ok(id)
    }

    /// Pushes an anonymous combinational node as wide as the width rule
    /// makes it.
    fn derive(&mut self, op: Op, span: Span) -> Result<SignalId, NetlistError> {
        let id = self.nl.push_derived(None, op)?;
        self.spans.push(Some(span));
        Ok(id)
    }

    /// `addr == i`, as an anonymous constant and comparison.
    fn addr_is(&mut self, addr: SignalId, i: usize, span: Span) -> Result<SignalId, NetlistError> {
        let idx = self.push(None, self.nl.width(addr), Op::Const(i as u64), span)?;
        self.derive(Op::Binary(BinOp::Eq, addr, idx), span)
    }

    /// Pushes the node `name` declares, applying the `_n` anonymity rule,
    /// and makes it the name's symbol. A redeclaration (`E003`) lands
    /// anonymous.
    fn push_named(&mut self, name: &Name, width: u8, op: Op) -> Result<SignalId, NetlistError> {
        let next_index = self.nl.len() as u32;
        let ir_name = match anonymous_index(&name.node) {
            Some(idx) => {
                if idx != next_index {
                    self.w001.push(
                        Diagnostic::warning(
                            "W001",
                            "lower",
                            format!(
                                "`{}` uses the reserved anonymous-name shape but lands on node {next_index}",
                                name.node
                            ),
                        )
                        .with_primary(name.span, "names starting with `_n` + digits are reserved for anonymous nodes")
                        .with_note("the canonical emitter will rename this node"),
                    );
                }
                None
            }
            None => Some(name.node.clone()).filter(|n| self.nl.find(n).is_none()),
        };
        let id = self.push(ir_name, width, op, name.span)?;
        self.syms.insert(name.node.clone(), id);
        Ok(id)
    }

    /// Checks and lowers every statement in order, then checks the `next`
    /// and `write` statements, that every register got a `next`, and the
    /// metadata blocks' shape.
    fn walk(&mut self, m: &'m Module) -> Result<(), NetlistError> {
        for item in &m.items {
            self.item(item)?;
        }
        let ports = std::mem::take(&mut self.ports);
        for port in &ports {
            self.check_port(port);
        }
        self.ports = ports;
        for (reg, span) in &self.regs {
            if !self.next_seen.contains_key(reg) {
                self.report.push(
                    error("E011", format!("register `{reg}` has no `next` connection"))
                    .with_primary(*span, "declared here")
                    .with_note("every register needs `next <reg> <- <src>` (or a `write` port for memory words)"),
                );
            }
        }
        self.check_annotations(m);
        self.check_harness(m);
        Ok(())
    }

    fn item(&mut self, item: &'m Item) -> Result<(), NetlistError> {
        match item {
            Item::Input { name, width } => {
                if let Some(w) = self.check_width(width) {
                    self.push_named(name, w, Op::Input)?;
                }
            }
            Item::Reg { name, width, init } => {
                if let Some(w) = self.check_width(width) {
                    self.check_value_fits(init, w, "reset value");
                    let op = Op::Reg {
                        next: None,
                        init: init.node,
                    };
                    self.push_named(name, w, op)?;
                }
                self.regs.push((name.node.clone(), name.span));
            }
            Item::Const { name, width, value } => {
                if let Some(w) = self.check_width(width) {
                    self.check_value_fits(value, w, "constant");
                    self.push_named(name, w, Op::Const(value.node))?;
                }
            }
            Item::Wire { name, width, op } => self.wire(name, width.as_ref(), op)?,
            Item::Mem {
                name,
                len,
                width,
                init,
            } => {
                if len.node == 0 || !len.node.is_power_of_two() || len.node > MAX_MEM_LEN {
                    self.report.push(
                        error(
                            "E010",
                            format!(
                                "memory length {} is not a power of two in 1..={MAX_MEM_LEN}",
                                self.written(len.span)
                            ),
                        )
                        .with_primary(len.span, "unsupported memory length"),
                    );
                    return Ok(());
                }
                let Some(w) = self.check_width(width) else {
                    return Ok(());
                };
                if let Some(init) = init {
                    self.check_value_fits(init, w, "reset value");
                }
                let init = init.as_ref().map_or(0, |i| i.node);
                let mut words = Vec::with_capacity(len.node as usize);
                for i in 0..len.node {
                    let word = Name {
                        node: format!("{}[{i}]", name.node),
                        span: name.span,
                    };
                    words.push(self.push_named(&word, w, Op::Reg { next: None, init })?);
                    self.regs.push((word.node, name.span));
                }
                let mem = Mem {
                    words,
                    span: name.span,
                };
                self.mems.insert(name.node.clone(), mem);
            }
            Item::Write {
                mem,
                en,
                addr,
                data,
            } => self.ports.push(Port::Write([mem, en, addr, data])),
            Item::Next { reg, src } => self.ports.push(Port::Next(reg, src)),
        }
        Ok(())
    }

    /// Checks one `next` or `write` statement once every declaration is
    /// lowered.
    fn check_port(&mut self, port: &Port<'m>) {
        match *port {
            Port::Write([mem, en, addr, data]) => {
                // An unknown memory is undefined: resolve said so.
                let Some(m) = self.mems.get(&mem.node) else {
                    return;
                };
                let (word, len, mem_span) = (m.words[0], m.words.len(), m.span);
                if !self.written.insert(mem.node.clone()) {
                    self.report.push(
                        error(
                            "E010",
                            format!("memory `{}` has more than one write port", mem.node),
                        )
                        .with_primary(mem.span, "second `write` statement")
                        .with_note("a memory array supports a single write port"),
                    );
                    return;
                }
                self.require_1bit(en, "E010", "write enable", "write enables are single-bit");
                self.check_covers(addr, mem, len, mem_span);
                if !self.may_drive(word, self.id(data)) {
                    let (dw, ww) = (self.width(data).unwrap_or_default(), self.nl.width(word));
                    self.report.push(
                        error(
                            "E010",
                            format!(
                                "write data `{}` is w{dw} but `{}` stores w{ww} words",
                                data.node, mem.node
                            ),
                        )
                        .with_primary(data.span, "width mismatch")
                        .with_secondary(mem_span, "memory declared here"),
                    );
                }
                // One write port drives the next of every word.
                for i in 0..len {
                    self.next_seen
                        .insert(format!("{}[{i}]", mem.node), mem.span);
                }
            }
            Port::Next(reg, src) => {
                if let Some(&prev) = self.next_seen.get(&reg.node) {
                    self.report.push(
                        error(
                            "E011",
                            format!(
                                "register `{}` is connected by more than one `next`",
                                reg.node
                            ),
                        )
                        .with_primary(reg.span, "second connection")
                        .with_secondary(prev, "first connected here"),
                    );
                    return;
                }
                self.next_seen.insert(reg.node.clone(), reg.span);
                if let Some(&r) = self.syms.get(&reg.node) {
                    if !self.may_drive(r, self.id(src)) {
                        let (sw, rw) = (self.width(src).unwrap_or_default(), self.nl.width(r));
                        self.report.push(
                            error(
                                "E011",
                                format!(
                                    "`next` source `{}` is w{sw} but register `{}` is w{rw}",
                                    src.node, reg.node
                                ),
                            )
                            .with_primary(src.span, "width mismatch"),
                        );
                    }
                }
            }
        }
    }

    /// Lowers one `wire`: its width, and its faults, come from one width
    /// rule call. With a declared width the node keeps it, even when the
    /// operator yields another width or none.
    fn wire(
        &mut self,
        name: &Name,
        width: Option<&Spanned<u64>>,
        op: &WireOp,
    ) -> Result<(), NetlistError> {
        let declared = width.and_then(|w| self.check_width(w));
        let ir = match op {
            WireOp::Unary { op, a } => Op::Unary(*op, self.id(a)),
            WireOp::Binary { op, a, b, .. } => Op::Binary(*op, self.id(a), self.id(b)),
            WireOp::Mux { sel, a, b } => Op::Mux {
                sel: self.id(sel),
                a: self.id(a),
                b: self.id(b),
            },
            WireOp::Slice { src, hi, lo } => Op::Slice {
                src: self.id(src),
                hi: bit_index(hi),
                lo: bit_index(lo),
            },
            WireOp::Concat { hi, lo } => Op::Concat {
                hi: self.id(hi),
                lo: self.id(lo),
            },
            WireOp::Read { mem, addr } => self.read(name.span, mem, addr)?,
        };
        let mut faults = Vec::new();
        let derived = width_rule(&ir, 0, |s| self.nl.width_of(s), |f| faults.push(f));
        for f in faults {
            if let Some(d) = self.fault(f, op) {
                self.report.push(d);
            }
        }
        if let (Some(d), Some(i), Some(w)) = (declared, derived, width) {
            if d != i {
                self.report.push(
                    error(
                        "E007",
                        format!(
                            "`{}` is declared w{d} but its operator yields w{i}",
                            name.node
                        ),
                    )
                    .with_primary(w.span, "declared width disagrees with the operator"),
                );
            }
        }
        if let Some(w) = declared.or(derived) {
            self.push_named(name, w, ir)?;
        }
        Ok(())
    }

    /// The diagnostic for width-rule fault `f` of `op`, or `None` for a
    /// dangling operand (see the module docs).
    fn fault(&self, f: Fault, op: &WireOp) -> Option<Diagnostic> {
        let w = |n: &Name| self.width(n).unwrap_or_default();
        Some(match (f, op) {
            (Fault::Operands, WireOp::Binary { op_span, a, b, .. }) => error(
                "E007",
                format!(
                    "operand widths disagree: `{}` is w{}, `{}` is w{}",
                    a.node,
                    w(a),
                    b.node,
                    w(b)
                ),
            )
            .with_primary(*op_span, "this operator needs equal widths")
            .with_secondary(a.span, format!("w{}", w(a)))
            .with_secondary(b.span, format!("w{}", w(b))),
            (Fault::Select, WireOp::Mux { sel, .. }) => {
                not_one_bit("E007", "mux select", sel, w(sel), "selects are single-bit")
            }
            (Fault::Operands, WireOp::Mux { a, b, .. }) => error(
                "E007",
                format!(
                    "mux arms disagree: `{}` is w{}, `{}` is w{}",
                    a.node,
                    w(a),
                    b.node,
                    w(b)
                ),
            )
            .with_primary(a.span, format!("this arm is w{}", w(a)))
            .with_secondary(b.span, format!("this arm is w{}", w(b))),
            (Fault::Operands, WireOp::Slice { src, hi, lo }) => error(
                "E008",
                format!(
                    "slice [{}:{}] is out of bounds for `{}` (w{})",
                    hi.node,
                    lo.node,
                    src.node,
                    w(src)
                ),
            )
            .with_primary(
                hi.span.join(lo.span),
                format!("valid bit indices are 0..={}", w(src) - 1),
            ),
            (Fault::Operands, WireOp::Concat { hi, lo }) => error(
                "E006",
                format!("concat of w{} and w{} exceeds w64", w(hi), w(lo)),
            )
            .with_primary(hi.span.join(lo.span), "result is too wide"),
            _ => return None,
        })
    }

    /// Expands `read mem addr` into a chain of word muxes and returns the
    /// full-width slice of it that carries the wire's name: for
    /// multi-word memories the final mux would do, but a single-word
    /// memory needs a fresh alias node. An unknown memory reads as an
    /// unknown signal; an unknown address leaves the chain out.
    fn read(&mut self, span: Span, mem: &Name, addr: &Name) -> Result<Op, NetlistError> {
        let Some(m) = self.mems.get(&mem.node) else {
            return Ok(Op::Slice {
                src: UNKNOWN,
                hi: 0,
                lo: 0,
            });
        };
        let (words, mem_span) = (m.words.clone(), m.span);
        self.check_covers(addr, mem, words.len(), mem_span);
        let mut acc = words[0];
        let addr = self.id(addr);
        if self.nl.width_of(addr).is_some() {
            for (i, &word) in words.iter().enumerate().skip(1) {
                let sel = self.addr_is(addr, i, span)?;
                acc = self.derive(
                    Op::Mux {
                        sel,
                        a: word,
                        b: acc,
                    },
                    span,
                )?;
            }
        }
        Ok(Op::Slice {
            src: acc,
            hi: self.nl.width(acc) - 1,
            lo: 0,
        })
    }

    /// Makes the `next` connections and write-port expansions, in
    /// statement order, once the walk is error-free.
    fn connect(&mut self) -> Result<(), NetlistError> {
        for port in std::mem::take(&mut self.ports) {
            let [mem, en, addr, data] = match port {
                Port::Next(reg, src) => {
                    self.nl.set_reg_next(self.id(reg), self.id(src))?;
                    continue;
                }
                Port::Write(write) => write,
            };
            let words = self.mems[&mem.node].words.clone();
            let (en, addr, data) = (self.id(en), self.id(addr), self.id(data));
            for (i, &word) in words.iter().enumerate() {
                let hit = self.addr_is(addr, i, mem.span)?;
                let sel = self.derive(Op::Binary(BinOp::And, en, hit), mem.span)?;
                let next = self.derive(
                    Op::Mux {
                        sel,
                        a: data,
                        b: word,
                    },
                    mem.span,
                )?;
                self.nl.set_reg_next(word, next)?;
            }
        }
        Ok(())
    }

    fn check_annotations(&mut self, m: &Module) {
        let Some(ann) = &m.annotations else {
            return;
        };
        for (field, slot) in [
            ("ifr", &ann.ifr),
            ("fetch_valid", &ann.fetch_valid),
            ("fetch_pc", &ann.fetch_pc),
            ("commit", &ann.commit),
            ("commit_pc", &ann.commit_pc),
        ] {
            if slot.is_none() {
                self.report
                    .push(missing(ann.span, "annotations", field, "E012"));
            }
        }
        for n in [&ann.fetch_valid, &ann.commit].into_iter().flatten() {
            self.require_1bit(n, "E012", "annotation hook", "expected a single-bit signal");
        }
        for u in &ann.ufsms {
            if u.pcr.is_none() {
                self.report.push(
                    error(
                        "E012",
                        format!("ufsm `{}` is missing its `pcr` field", u.name.node),
                    )
                    .with_primary(
                        u.name.span,
                        "every ufsm names its performing-confirmation register",
                    ),
                );
            }
            if u.vars.is_empty() {
                self.report.push(
                    error("E012", format!("ufsm `{}` declares no `vars`", u.name.node))
                        .with_primary(u.name.span, "state tuples need at least one variable"),
                );
                continue;
            }
            let var_widths: Vec<Option<u8>> = u.vars.iter().map(|v| self.width(v)).collect();
            let arity = u.vars.len();
            let tuples = u.idle.iter().chain(u.states.iter().map(|(_, t)| t));
            for t in tuples {
                if t.node.len() != arity {
                    self.report.push(
                        error(
                            "E012",
                            format!(
                                "state tuple has {} values but ufsm `{}` has {arity} vars",
                                t.node.len(),
                                u.name.node
                            ),
                        )
                        .with_primary(t.span, format!("expected {arity} values")),
                    );
                    continue;
                }
                for (i, (&v, w)) in t.node.iter().zip(&var_widths).enumerate() {
                    if let Some(w) = w {
                        if v & !mask(*w) != 0 {
                            self.report.push(
                                error(
                                    "E009",
                                    format!(
                                        "state value {v} does not fit var `{}` (w{w})",
                                        u.vars[i].node
                                    ),
                                )
                                .with_primary(t.span, format!("component {} is too wide", i + 1)),
                            );
                        }
                    }
                }
            }
        }
    }

    fn check_harness(&mut self, m: &Module) {
        let Some(h) = &m.harness else {
            return;
        };
        if m.annotations.is_none() {
            self.report.push(
                error("E013", "a `harness` block requires an `annotations` block")
                    .with_primary(h.span, "synthesis needs the §V-A metadata too"),
            );
        }
        for (field, missing_it) in [
            ("fetch_instr_input", h.fetch_instr_input.is_none()),
            ("fetch_valid_input", h.fetch_valid_input.is_none()),
            ("fetch_fire", h.fetch_fire.is_none()),
            ("issue_fire", h.issue_fire.is_none()),
            ("issue_pc", h.issue_pc.is_none()),
            ("issue_valid", h.issue_valid.is_none()),
            ("pc", h.pc.is_none()),
            ("type_field", h.type_field.is_none()),
            ("max_latency", h.max_latency.is_none()),
        ] {
            if missing_it {
                self.report.push(missing(h.span, "harness", field, "E013"));
            }
        }
        if h.isa.is_empty() {
            self.report.push(missing(h.span, "harness", "isa", "E013"));
        }
        for n in [
            &h.fetch_valid_input,
            &h.fetch_fire,
            &h.issue_fire,
            &h.issue_valid,
        ]
        .into_iter()
        .flatten()
        {
            self.require_1bit(n, "E013", "harness hook", "expected a single-bit signal");
        }
        if let Some((hi, lo)) = &h.type_field {
            if hi.node < lo.node || hi.node >= 64 {
                self.report.push(
                    error(
                        "E013",
                        format!(
                            "type_field [{}:{}] is not a valid bit range",
                            hi.node, lo.node
                        ),
                    )
                    .with_primary(
                        hi.span.join(lo.span),
                        "expected `type_field <hi> <lo>` with hi >= lo",
                    ),
                );
            }
        }
        if let Some(ml) = &h.max_latency {
            if ml.node == 0 || ml.node > 64 {
                self.report.push(
                    error("E013", format!("max_latency {} is outside 1..=64", ml.node))
                        .with_primary(ml.span, "unreasonable issue-latency bound"),
                );
            }
        }
    }
}

/// Checks and lowers a resolved module (see the module docs).
pub(super) fn run(m: &Module, src: &str, report: &mut Report) -> Option<LoweredModule> {
    let mut lw = Lowerer {
        src,
        nl: Netlist::new(),
        spans: Vec::new(),
        syms: HashMap::new(),
        mems: HashMap::new(),
        written: HashSet::new(),
        report,
        w001: Vec::new(),
        regs: Vec::new(),
        next_seen: HashMap::new(),
        ports: Vec::new(),
    };
    let walked = lw.walk(m);
    if lw.report.has_errors() {
        return None;
    }
    lw.report.diagnostics.append(&mut lw.w001);
    if let Err(e) = walked
        .and_then(|()| lw.connect())
        .and_then(|()| lw.nl.validate())
    {
        lw.report.push(Diagnostic::error(
            "E014",
            "lower",
            format!("internal: lowered netlist failed validation: {e}"),
        ));
        return None;
    }

    // Error-free, so every required field is present and names a node.
    let get = |n: &Option<Name>| lw.id(n.as_ref().expect("a missing field is E012/E013"));
    let annotations = m.annotations.as_ref().map(|ann| Annotations {
        ifr: get(&ann.ifr),
        fetch_valid: get(&ann.fetch_valid),
        fetch_pc: get(&ann.fetch_pc),
        commit: get(&ann.commit),
        commit_pc: get(&ann.commit_pc),
        operand_regs: ann.operands.iter().map(|n| lw.id(n)).collect(),
        arf: ann.arf.iter().map(|n| lw.id(n)).collect(),
        amem: ann.amem.iter().map(|n| lw.id(n)).collect(),
        ufsms: ann.ufsms.iter().map(|u| lower_ufsm(&lw, u)).collect(),
        persistent: ann.persistent.iter().map(|n| lw.id(n)).collect(),
        added_loc: ann.added_loc.as_ref().map(|l| l.node as usize).unwrap_or(0),
    });

    let harness = m.harness.as_ref().map(|h| {
        let (tf_hi, tf_lo) = h.type_field.as_ref().expect("a missing field is E012/E013");
        HarnessData {
            fetch_instr_input: get(&h.fetch_instr_input),
            fetch_valid_input: get(&h.fetch_valid_input),
            fetch_fire: get(&h.fetch_fire),
            issue_fire: get(&h.issue_fire),
            issue_pc: get(&h.issue_pc),
            issue_valid: get(&h.issue_valid),
            rs_fields: h.rs_fields.as_ref().map(|(a, b)| (lw.id(a), lw.id(b))),
            pc: get(&h.pc),
            isa: h.isa.iter().map(|n| n.node.clone()).collect(),
            type_field_hi: tf_hi.node as u8,
            type_field_lo: tf_lo.node as u8,
            type_values: h
                .type_values
                .iter()
                .map(|(mn, v)| (mn.node.clone(), v.node))
                .collect(),
            max_latency: h
                .max_latency
                .as_ref()
                .expect("a missing field is E012/E013")
                .node as usize,
            outputs: h.outputs.iter().map(|n| lw.id(n)).collect(),
        }
    });

    if let Some(ann) = &annotations {
        if let Err(e) = ann.validate(&lw.nl) {
            lw.report.push(Diagnostic::error(
                "E012",
                "lower",
                format!("annotations failed validation: {e}"),
            ));
            return None;
        }
    }

    Some(LoweredModule {
        name: m.name.node.clone(),
        netlist: lw.nl,
        spans: lw.spans,
        annotations,
        harness,
    })
}

fn lower_ufsm(lw: &Lowerer<'_, '_>, u: &UfsmBlock) -> UFsm {
    UFsm {
        name: u.name.node.clone(),
        pcr: lw.id(u.pcr.as_ref().expect("a missing field is E012/E013")),
        vars: u.vars.iter().map(|v| lw.id(v)).collect(),
        idle: u.idle.iter().map(|t| FsmState(t.node.clone())).collect(),
        states: if u.states.is_empty() {
            None
        } else {
            Some(
                u.states
                    .iter()
                    .map(|(n, t)| NamedState {
                        name: n.node.clone(),
                        state: FsmState(t.node.clone()),
                    })
                    .collect(),
            )
        },
        pcr_added: u.added,
    }
}
