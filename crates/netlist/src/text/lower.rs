//! Lowering: AST → IR.
//!
//! Runs only when resolution and type checking produced no errors, so it
//! can assume every name resolves and every width agrees. Each
//! declaration statement lowers to exactly one node, in statement order —
//! the invariant behind byte-identical emit→parse→lower→emit round trips.
//! The `mem`/`read`/`write` sugar expands to register words plus
//! anonymous mux/eq chains (write expansions are deferred to the end of
//! the node table so they may reference later declarations).
//!
//! Surface names of the reserved shape `_n<digits>` are the emitter's
//! spelling of *anonymous* nodes: lowering drops them from the IR (the
//! node gets `name: None`) and warns `W001` when the digits do not match
//! the node index they land on.

use std::collections::HashMap;

use super::ast::{Item, Module, Name, UfsmBlock, WireOp};
use crate::annotate::{Annotations, FsmState, NamedState, UFsm};
use crate::diag::{Diagnostic, Report, Span};
use crate::ir::{BinOp, Netlist, NetlistError, Node, Op, SignalId};

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

/// `_n<digits>` — the reserved spelling of anonymous nodes.
fn anonymous_index(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("_n")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

struct Lowerer<'r> {
    nl: Netlist,
    spans: Vec<Option<Span>>,
    map: HashMap<String, SignalId>,
    /// Memory name → word ids.
    mems: HashMap<String, Vec<SignalId>>,
    report: &'r mut Report,
}

impl Lowerer<'_> {
    /// Pushes a node declared at `span`. `width` is the declared width of
    /// an input, constant or register; `None` derives a combinational
    /// node's width from its operands by the netlist's width rule.
    fn push(
        &mut self,
        name: Option<String>,
        width: Option<u8>,
        op: Op,
        span: Span,
    ) -> Result<SignalId, NetlistError> {
        let id = match width {
            Some(width) => self.nl.push(Node { name, width, op }),
            None => self.nl.push_derived(name, op),
        }?;
        self.spans.push(Some(span));
        Ok(id)
    }

    /// Pushes a named declaration, applying the `_n` anonymity rule.
    fn push_named(
        &mut self,
        name: &Name,
        width: Option<u8>,
        op: Op,
    ) -> Result<SignalId, NetlistError> {
        let next_index = self.nl.len() as u32;
        let ir_name = match anonymous_index(&name.node) {
            Some(idx) => {
                if idx != next_index {
                    self.report.push(
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
            None => Some(name.node.clone()),
        };
        let id = self.push(ir_name, width, op, name.span)?;
        self.map.insert(name.node.clone(), id);
        Ok(id)
    }

    fn get(&self, name: &Name) -> SignalId {
        self.map[&name.node]
    }

    /// Builds the read mux chain for `mem[addr]`.
    fn lower_read(
        &mut self,
        name: &Name,
        mem_name: &str,
        addr: &Name,
    ) -> Result<SignalId, NetlistError> {
        let words = self.mems[mem_name].clone();
        let addr_id = self.get(addr);
        let aw = self.nl.width(addr_id);
        let mut acc = words[0];
        for (i, &word) in words.iter().enumerate().skip(1) {
            let idx = self.push(None, Some(aw), Op::Const(i as u64), name.span)?;
            let sel = self.push(None, None, Op::Binary(BinOp::Eq, addr_id, idx), name.span)?;
            acc = self.push(
                None,
                None,
                Op::Mux {
                    sel,
                    a: word,
                    b: acc,
                },
                name.span,
            )?;
        }
        // The named result node: for multi-word memories the final mux
        // would do, but a single-word memory needs a fresh alias node, so
        // uniformly finish with a full-width slice carrying the name.
        let hi = self.nl.width(acc) - 1;
        self.push_named(
            name,
            None,
            Op::Slice {
                src: acc,
                hi,
                lo: 0,
            },
        )
    }

    /// Expands one `write` statement into per-word next-state muxes.
    fn lower_write(
        &mut self,
        mem: &Name,
        en: &Name,
        addr: &Name,
        data: &Name,
    ) -> Result<(), NetlistError> {
        let words = self.mems[&mem.node].clone();
        let (en_id, addr_id, data_id) = (self.get(en), self.get(addr), self.get(data));
        let aw = self.nl.width(addr_id);
        for (i, &word) in words.iter().enumerate() {
            let idx = self.push(None, Some(aw), Op::Const(i as u64), mem.span)?;
            let hit = self.push(None, None, Op::Binary(BinOp::Eq, addr_id, idx), mem.span)?;
            let sel = self.push(None, None, Op::Binary(BinOp::And, en_id, hit), mem.span)?;
            let next = self.push(
                None,
                None,
                Op::Mux {
                    sel,
                    a: data_id,
                    b: word,
                },
                mem.span,
            )?;
            self.nl.set_reg_next(word, next)?;
        }
        Ok(())
    }

    /// Lowers every declaration in statement order, then the `next`
    /// connections and deferred write-port expansions (both may reference
    /// declarations that came later in the file).
    fn lower_items(&mut self, m: &Module) -> Result<(), NetlistError> {
        let mut writes: Vec<(&Name, &Name, &Name, &Name)> = Vec::new();
        let mut nexts: Vec<(&Name, &Name)> = Vec::new();
        for item in &m.items {
            match item {
                Item::Input { name, width } => {
                    self.push_named(name, Some(width.node as u8), Op::Input)?;
                }
                Item::Reg { name, width, init } => {
                    let op = Op::Reg {
                        next: None,
                        init: init.node,
                    };
                    self.push_named(name, Some(width.node as u8), op)?;
                }
                Item::Const { name, width, value } => {
                    self.push_named(name, Some(width.node as u8), Op::Const(value.node))?;
                }
                Item::Wire { name, op, .. } => {
                    self.lower_wire(name, op)?;
                }
                Item::Mem {
                    name,
                    len,
                    width,
                    init,
                } => {
                    let w = width.node as u8;
                    let init = init.as_ref().map(|i| i.node).unwrap_or(0);
                    let mut words = Vec::with_capacity(len.node as usize);
                    for i in 0..len.node {
                        let word = Name {
                            node: format!("{}[{i}]", name.node),
                            span: name.span,
                        };
                        words.push(self.push_named(
                            &word,
                            Some(w),
                            Op::Reg { next: None, init },
                        )?);
                    }
                    self.mems.insert(name.node.clone(), words);
                }
                Item::Write {
                    mem,
                    en,
                    addr,
                    data,
                } => writes.push((mem, en, addr, data)),
                Item::Next { reg, src } => nexts.push((reg, src)),
            }
        }
        for (reg, src) in nexts {
            self.nl.set_reg_next(self.get(reg), self.get(src))?;
        }
        for (mem, en, addr, data) in writes {
            self.lower_write(mem, en, addr, data)?;
        }
        Ok(())
    }

    fn lower_wire(&mut self, name: &Name, op: &WireOp) -> Result<SignalId, NetlistError> {
        let op = match op {
            WireOp::Unary { op, a, .. } => Op::Unary(*op, self.get(a)),
            WireOp::Binary { op, a, b, .. } => Op::Binary(*op, self.get(a), self.get(b)),
            WireOp::Mux { sel, a, b } => Op::Mux {
                sel: self.get(sel),
                a: self.get(a),
                b: self.get(b),
            },
            WireOp::Slice { src, hi, lo } => Op::Slice {
                src: self.get(src),
                hi: hi.node as u8,
                lo: lo.node as u8,
            },
            WireOp::Concat { hi, lo } => Op::Concat {
                hi: self.get(hi),
                lo: self.get(lo),
            },
            WireOp::Read { mem, addr } => return self.lower_read(name, &mem.node, addr),
        };
        self.push_named(name, None, op)
    }
}

/// Lowers a checked module. `report` receives `W001` warnings and (belt
/// and braces) an `E014` internal error if a node breaks the width rule or
/// the produced IR fails [`Netlist::validate`] — which would be a frontend
/// bug, not a user error.
pub fn run(m: &Module, report: &mut Report) -> Option<LoweredModule> {
    let mut lw = Lowerer {
        nl: Netlist::new(),
        spans: Vec::new(),
        map: HashMap::new(),
        mems: HashMap::new(),
        report,
    };

    if let Err(e) = lw.lower_items(m).and_then(|()| lw.nl.validate()) {
        lw.report.push(Diagnostic::error(
            "E014",
            "lower",
            format!("internal: lowered netlist failed validation: {e}"),
        ));
        return None;
    }

    let annotations = m.annotations.as_ref().map(|ann| Annotations {
        ifr: lw.get(ann.ifr.as_ref().expect("typeck requires ifr")),
        fetch_valid: lw.get(
            ann.fetch_valid
                .as_ref()
                .expect("typeck requires fetch_valid"),
        ),
        fetch_pc: lw.get(ann.fetch_pc.as_ref().expect("typeck requires fetch_pc")),
        commit: lw.get(ann.commit.as_ref().expect("typeck requires commit")),
        commit_pc: lw.get(ann.commit_pc.as_ref().expect("typeck requires commit_pc")),
        operand_regs: ann.operands.iter().map(|n| lw.get(n)).collect(),
        arf: ann.arf.iter().map(|n| lw.get(n)).collect(),
        amem: ann.amem.iter().map(|n| lw.get(n)).collect(),
        ufsms: ann.ufsms.iter().map(|u| lower_ufsm(&lw, u)).collect(),
        persistent: ann.persistent.iter().map(|n| lw.get(n)).collect(),
        added_loc: ann.added_loc.as_ref().map(|l| l.node as usize).unwrap_or(0),
    });

    let harness = m.harness.as_ref().map(|h| {
        let get = |n: &Option<Name>, field: &str| -> SignalId {
            lw.get(
                n.as_ref()
                    .unwrap_or_else(|| panic!("typeck requires {field}")),
            )
        };
        let (tf_hi, tf_lo) = h.type_field.as_ref().expect("typeck requires type_field");
        HarnessData {
            fetch_instr_input: get(&h.fetch_instr_input, "fetch_instr_input"),
            fetch_valid_input: get(&h.fetch_valid_input, "fetch_valid_input"),
            fetch_fire: get(&h.fetch_fire, "fetch_fire"),
            issue_fire: get(&h.issue_fire, "issue_fire"),
            issue_pc: get(&h.issue_pc, "issue_pc"),
            issue_valid: get(&h.issue_valid, "issue_valid"),
            rs_fields: h.rs_fields.as_ref().map(|(a, b)| (lw.get(a), lw.get(b))),
            pc: get(&h.pc, "pc"),
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
                .expect("typeck requires max_latency")
                .node as usize,
            outputs: h.outputs.iter().map(|n| lw.get(n)).collect(),
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

fn lower_ufsm(lw: &Lowerer<'_>, u: &UfsmBlock) -> UFsm {
    UFsm {
        name: u.name.node.clone(),
        pcr: lw.get(u.pcr.as_ref().expect("typeck requires pcr")),
        vars: u.vars.iter().map(|v| lw.get(v)).collect(),
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
