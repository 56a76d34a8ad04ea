//! Netlist lint: a static-analysis pass framework over (possibly
//! not-yet-validated) netlists and their annotations.
//!
//! The paper's synthesis loop is front-loaded with static analysis (§IV:
//! fan-in cones, performing-instruction detection, µFSM enumeration); this
//! module is the corresponding early-warning layer for the reproduction's
//! hand-written DSL designs. Structural bugs that used to surface as
//! confusing model-checking verdicts — a combinational loop panicking deep
//! inside elaboration, a constant-false fetch strobe making every property
//! vacuously unreachable — are reported here as [`Diagnostic`]s before a
//! single SAT call.
//!
//! [`Linter::run`] runs the seven built-in [`LintPass`]es in a fixed order
//! and produces a [`LintReport`]; `--deny-warnings` is applied to the
//! report by [`LintReport::exit_code`]. Passes run on the raw node table,
//! so they work on unvalidated netlists (that is the point: several passes
//! re-audit exactly what `Netlist::validate` would reject, but report *all*
//! violations instead of bailing at the first).

use crate::analysis;
use crate::annotate::Annotations;
use crate::ir::{mask, BinOp, Netlist, Op, SignalId};
use std::collections::{BTreeSet, HashSet, VecDeque};

// The lint suite shares one diagnostic type with the textual frontend
// (`crate::diag`): lint codes are `L001`+, frontend codes `E001`+/`W001`+.
// Findings produced here are spanless; `text::check` attaches source spans
// to them when the netlist came from a file.
pub use crate::diag::{Diagnostic, Report as LintReport, Severity};

/// Everything a pass may inspect: the netlist, optional annotations, the
/// root signals that count as "observed" for dead-logic purposes, and named
/// strobe signals whose constancy indicates a vacuous design.
pub struct LintContext<'a> {
    /// The netlist under analysis (validated or not).
    pub netlist: &'a Netlist,
    /// The design's annotation bundle, when linting a full DUV.
    pub annotations: Option<&'a Annotations>,
    /// Signals that count as outputs: annotation signals, harness hook
    /// signals, anything externally observed. Empty roots disable the
    /// dead-logic pass (nothing can be judged dead).
    pub roots: Vec<SignalId>,
    /// `(label, signal)` pairs of 1-bit strobes that must not be
    /// structurally constant (fetch/commit/issue strobes).
    pub strobes: Vec<(String, SignalId)>,
}

impl<'a> LintContext<'a> {
    /// A context with no annotations, roots, or strobes — structural passes
    /// only.
    pub fn netlist_only(netlist: &'a Netlist) -> Self {
        Self {
            netlist,
            annotations: None,
            roots: Vec::new(),
            strobes: Vec::new(),
        }
    }
}

/// A lint pass: a named analysis producing diagnostics.
pub trait LintPass {
    /// Stable pass name, carried by each of the pass's diagnostics.
    fn name(&self) -> &'static str;
    /// Runs the pass, appending findings to `out`.
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The lint suite: the seven built-in passes, run in a fixed order.
#[derive(Default)]
pub struct Linter;

impl Linter {
    /// The linter with every built-in pass.
    pub fn new() -> Self {
        Self
    }

    /// Runs every built-in pass, in order.
    pub fn run(&self, cx: &LintContext<'_>) -> LintReport {
        let passes: [&dyn LintPass; 7] = [
            &CombLoopPass,
            &UndrivenPass,
            &WidthAuditPass,
            &RegResetPass,
            &DeadLogicPass,
            &UfsmReachPass,
            &AnnotationConstPass,
        ];
        let mut diagnostics = Vec::new();
        for pass in passes {
            pass.run(cx, &mut diagnostics);
        }
        LintReport { diagnostics }
    }
}

// --------------------------------------------------------------------------
// Built-in passes
// --------------------------------------------------------------------------

/// L001: combinational loops, reported with the full cycle path.
pub struct CombLoopPass;

impl LintPass for CombLoopPass {
    fn name(&self) -> &'static str {
        "comb-loop"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        if let Some(cycle) = analysis::find_comb_cycle(cx.netlist) {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "L001",
                pass: self.name(),
                signal: cycle.path.first().copied(),
                message: format!("combinational cycle: {}", cycle.render(cx.netlist)),
                ..Default::default()
            });
        }
    }
}

/// L002/L003: undriven registers and floating (never-read) inputs.
pub struct UndrivenPass;

impl LintPass for UndrivenPass {
    fn name(&self) -> &'static str {
        "undriven"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let nl = cx.netlist;
        let mut read: HashSet<SignalId> = HashSet::new();
        for (_, node) in nl.iter() {
            read.extend(node.op.comb_fanin());
            if let Op::Reg { next: Some(nx), .. } = node.op {
                read.insert(nx);
            }
        }
        for (id, node) in nl.iter() {
            match node.op {
                Op::Reg { next: None, .. } => out.push(Diagnostic {
                    severity: Severity::Error,
                    code: "L002",
                    pass: self.name(),
                    signal: Some(id),
                    message: format!("register `{}` has no next connection", nl.display_name(id)),
                    ..Default::default()
                }),
                Op::Input if !read.contains(&id) && !cx.roots.contains(&id) => {
                    out.push(Diagnostic {
                        severity: Severity::Warning,
                        code: "L003",
                        pass: self.name(),
                        signal: Some(id),
                        message: format!("input `{}` is never read", nl.display_name(id)),
                        ..Default::default()
                    });
                }
                _ => {}
            }
        }
    }
}

/// L004: width-rule audit at every use site. `Netlist::validate` stops at
/// the first violation; this pass reports them all.
pub struct WidthAuditPass;

impl LintPass for WidthAuditPass {
    fn name(&self) -> &'static str {
        "width-audit"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let nl = cx.netlist;
        let mut emit = |id: SignalId, msg: String| {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "L004",
                pass: self.name(),
                signal: Some(id),
                message: msg,
                ..Default::default()
            });
        };
        let w_of = |s: SignalId| -> Option<u8> { (s.index() < nl.len()).then(|| nl.width(s)) };
        for (id, node) in nl.iter() {
            let name = nl.display_name(id);
            // Dangling references are reported once, here, and the width
            // rule is skipped for them.
            let mut dangling = false;
            for src in node.op.comb_fanin() {
                if src.index() >= nl.len() {
                    emit(id, format!("`{name}` references out-of-range signal {src}"));
                    dangling = true;
                }
            }
            if dangling {
                continue;
            }
            match &node.op {
                Op::Input | Op::Reg { .. } => {}
                Op::Const(v) => {
                    if *v & !mask(node.width) != 0 {
                        emit(
                            id,
                            format!(
                                "constant `{name}` value {v:#x} does not fit in {} bits",
                                node.width
                            ),
                        );
                    }
                }
                Op::Unary(op, a) => {
                    let aw = w_of(*a).unwrap();
                    let expect = if op.is_reduction() { 1 } else { aw };
                    if node.width != expect {
                        emit(
                            id,
                            format!(
                                "`{name}` = {op}(...): result width {} != expected {expect}",
                                node.width
                            ),
                        );
                    }
                }
                Op::Binary(op, a, b) => {
                    let (aw, bw) = (w_of(*a).unwrap(), w_of(*b).unwrap());
                    match op {
                        BinOp::Shl | BinOp::Shr => {
                            if node.width != aw {
                                emit(
                                    id,
                                    format!(
                                        "`{name}` = {op}(...): result width {} != operand width {aw}",
                                        node.width
                                    ),
                                );
                            }
                        }
                        _ => {
                            if aw != bw {
                                emit(
                                    id,
                                    format!(
                                        "`{name}` = {op}(...): operand widths {aw} and {bw} differ"
                                    ),
                                );
                            } else {
                                let expect = if op.is_comparison() { 1 } else { aw };
                                if node.width != expect {
                                    emit(
                                        id,
                                        format!(
                                            "`{name}` = {op}(...): result width {} != expected {expect}",
                                            node.width
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                Op::Mux { sel, a, b } => {
                    let (sw, aw, bw) = (w_of(*sel).unwrap(), w_of(*a).unwrap(), w_of(*b).unwrap());
                    if sw != 1 {
                        emit(id, format!("`{name}`: mux select is {sw} bits, not 1"));
                    }
                    if aw != bw || node.width != aw {
                        emit(
                            id,
                            format!(
                                "`{name}`: mux arm widths {aw}/{bw} vs result width {}",
                                node.width
                            ),
                        );
                    }
                }
                Op::Slice { src, hi, lo } => {
                    let sw = w_of(*src).unwrap();
                    if hi < lo || *hi >= sw {
                        emit(
                            id,
                            format!("`{name}`: slice [{hi}:{lo}] out of range for {sw}-bit source"),
                        );
                    } else if node.width != hi - lo + 1 {
                        emit(
                            id,
                            format!(
                                "`{name}`: slice [{hi}:{lo}] yields {} bits but node is {} bits",
                                hi - lo + 1,
                                node.width
                            ),
                        );
                    }
                }
                Op::Concat { hi, lo } => {
                    let (hw, lw) = (w_of(*hi).unwrap(), w_of(*lo).unwrap());
                    if node.width as u16 != hw as u16 + lw as u16 {
                        emit(
                            id,
                            format!(
                                "`{name}`: concat of {hw}+{lw} bits but node is {} bits",
                                node.width
                            ),
                        );
                    }
                }
            }
            // Register next-width rule (init-value fit is the reg-reset
            // pass's business).
            if let Op::Reg { next: Some(nx), .. } = &node.op {
                match w_of(*nx) {
                    None => emit(
                        id,
                        format!("register `{name}` next references out-of-range signal {nx}"),
                    ),
                    Some(nw) if nw != node.width => emit(
                        id,
                        format!(
                            "register `{name}` is {} bits but its next is {nw} bits",
                            node.width
                        ),
                    ),
                    _ => {}
                }
            }
        }
    }
}

/// L005: reset values that do not fit the register's width. In this IR
/// every register *has* a reset value, so "register without reset" means a
/// malformed one — the reset would silently truncate in real RTL.
pub struct RegResetPass;

impl LintPass for RegResetPass {
    fn name(&self) -> &'static str {
        "reg-reset"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let nl = cx.netlist;
        for (id, node) in nl.iter() {
            if let Op::Reg { init, .. } = node.op {
                if init & !mask(node.width) != 0 {
                    out.push(Diagnostic {
                        severity: Severity::Error,
                        code: "L005",
                        pass: self.name(),
                        signal: Some(id),
                        message: format!(
                            "register `{}` reset value {init:#x} does not fit in {} bits",
                            nl.display_name(id),
                            node.width
                        ),
                        ..Default::default()
                    });
                }
            }
        }
    }
}

/// L006: dead logic — signals outside the transitive fan-in (through
/// registers, across cycles) of every root and annotation signal. Skipped
/// when the context supplies no roots.
pub struct DeadLogicPass;

impl LintPass for DeadLogicPass {
    fn name(&self) -> &'static str {
        "dead-logic"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let nl = cx.netlist;
        let mut roots: Vec<SignalId> = cx.roots.clone();
        if let Some(ann) = cx.annotations {
            roots.extend(annotation_signals(ann));
        }
        roots.extend(cx.strobes.iter().map(|(_, s)| *s));
        roots.retain(|s| s.index() < nl.len());
        if roots.is_empty() {
            return;
        }
        // Backward closure over combinational fan-in plus register next
        // edges — the same edge relation as mc's cone-of-influence slice.
        let mut live: HashSet<SignalId> = HashSet::new();
        let mut queue: VecDeque<SignalId> = roots.into_iter().collect();
        while let Some(s) = queue.pop_front() {
            if !live.insert(s) {
                continue;
            }
            let node = nl.node(s);
            queue.extend(node.op.comb_fanin());
            if let Op::Reg { next: Some(nx), .. } = node.op {
                queue.push_back(nx);
            }
        }
        let mut anonymous = 0usize;
        for (id, node) in nl.iter() {
            if live.contains(&id) || matches!(node.op, Op::Const(_)) {
                continue;
            }
            match &node.name {
                Some(name) => out.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "L006",
                    pass: self.name(),
                    signal: Some(id),
                    message: format!("`{name}` drives no root or annotation cone"),
                    ..Default::default()
                }),
                None => anonymous += 1,
            }
        }
        if anonymous > 0 {
            out.push(Diagnostic {
                severity: Severity::Warning,
                code: "L006",
                pass: self.name(),
                signal: None,
                message: format!(
                    "{anonymous} anonymous signal(s) drive no root or annotation cone"
                ),
                ..Default::default()
            });
        }
    }
}

/// L007: µFSM states that no transition function can produce from reset,
/// computed from the annotated state registers' update cones.
pub struct UfsmReachPass;

/// The set of values a register's next-state logic can structurally
/// produce: constant leaves of its mux tree plus its reset value; `None`
/// means unbounded (some leaf is a non-constant expression).
fn producible_values(nl: &Netlist, comb: &[Option<u64>], var: SignalId) -> Option<BTreeSet<u64>> {
    let Op::Reg {
        next: Some(next),
        init,
    } = nl.node(var).op
    else {
        return None;
    };
    let mut vals = BTreeSet::from([init]);
    let mut stack = vec![next];
    let mut seen = HashSet::new();
    while let Some(s) = stack.pop() {
        if !seen.insert(s) {
            continue;
        }
        if s == var {
            continue; // hold: contributes no new value
        }
        if let Some(v) = comb[s.index()] {
            vals.insert(v);
            continue;
        }
        match nl.node(s).op {
            Op::Mux { a, b, .. } => {
                stack.push(a);
                stack.push(b);
            }
            // A full-width slice is the builder's naming alias; follow it.
            Op::Slice { src, hi, lo } if lo == 0 && hi + 1 == nl.width(src) => stack.push(src),
            _ => return None,
        }
    }
    Some(vals)
}

impl LintPass for UfsmReachPass {
    fn name(&self) -> &'static str {
        "ufsm-reach"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(ann) = cx.annotations else { return };
        let nl = cx.netlist;
        let Ok(comb) = analysis::comb_consts(nl) else {
            return; // comb-loop pass already reports the cycle
        };
        for ufsm in &ann.ufsms {
            if ufsm.vars.iter().any(|v| v.index() >= nl.len()) {
                continue; // annotation-consistency pass reports this
            }
            let sets: Vec<Option<BTreeSet<u64>>> = ufsm
                .vars
                .iter()
                .map(|&v| producible_values(nl, &comb, v))
                .collect();
            for st in ufsm.candidate_states(nl) {
                for (vi, set) in sets.iter().enumerate() {
                    let Some(set) = set else { continue };
                    let want = st.state.0[vi];
                    if !set.contains(&want) {
                        out.push(Diagnostic {
                            severity: Severity::Warning,
                            code: "L007",
                            pass: self.name(),
                            signal: Some(ufsm.vars[vi]),
                            message: format!(
                                "µFSM `{}` state `{}` is structurally unreachable: \
                                 var `{}` can only take {:?}, not {want}",
                                ufsm.name,
                                st.name,
                                nl.display_name(ufsm.vars[vi]),
                                set.iter().collect::<Vec<_>>()
                            ),
                            ..Default::default()
                        });
                    }
                }
            }
        }
    }
}

/// L008/L009: annotation consistency — `Annotations::validate` failures
/// plus performing/fetch strobes that are structurally constant (by the
/// sequential constant propagation of [`analysis::seq_consts`]).
pub struct AnnotationConstPass;

impl LintPass for AnnotationConstPass {
    fn name(&self) -> &'static str {
        "annotation-const"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(ann) = cx.annotations else { return };
        let nl = cx.netlist;
        if let Err(e) = ann.validate(nl) {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "L008",
                pass: self.name(),
                signal: None,
                message: format!("inconsistent annotations: {e}"),
                ..Default::default()
            });
            return;
        }
        let Ok(consts) = analysis::seq_consts(nl) else {
            return; // comb-loop pass already reports the cycle
        };
        let mut strobes: Vec<(String, SignalId)> = vec![
            ("fetch_valid".into(), ann.fetch_valid),
            ("commit".into(), ann.commit),
        ];
        strobes.extend(cx.strobes.iter().cloned());
        for (label, sig) in strobes {
            match consts[sig.index()] {
                Some(0) => out.push(Diagnostic {
                    severity: Severity::Error,
                    code: "L009",
                    pass: self.name(),
                    signal: Some(sig),
                    message: format!(
                        "strobe {label} (`{}`) is structurally constant 0 — \
                         every property over it is vacuous",
                        nl.display_name(sig)
                    ),
                    ..Default::default()
                }),
                Some(_) => out.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "L009",
                    pass: self.name(),
                    signal: Some(sig),
                    message: format!(
                        "strobe {label} (`{}`) is structurally constant 1",
                        nl.display_name(sig)
                    ),
                    ..Default::default()
                }),
                None => {}
            }
        }
    }
}

/// Every signal an annotation bundle references — the annotation side of
/// the dead-logic root set.
pub fn annotation_signals(ann: &Annotations) -> Vec<SignalId> {
    let mut out = vec![
        ann.ifr,
        ann.fetch_valid,
        ann.fetch_pc,
        ann.commit,
        ann.commit_pc,
    ];
    out.extend(ann.operand_regs.iter().copied());
    out.extend(ann.arf.iter().copied());
    out.extend(ann.amem.iter().copied());
    out.extend(ann.persistent.iter().copied());
    for f in &ann.ufsms {
        out.push(f.pcr);
        out.extend(f.vars.iter().copied());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{Annotations, FsmState, NamedState, UFsm};
    use crate::build::Builder;
    use crate::ir::Node;

    fn lint(nl: &Netlist) -> LintReport {
        Linter::new().run(&LintContext::netlist_only(nl))
    }

    fn codes(r: &LintReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        let mut b = Builder::new();
        let x = b.input("x", 4);
        let r = b.reg("r", 4, 0);
        let n = b.add(r, x);
        b.set_next(r, n).unwrap();
        let nl = b.finish().unwrap();
        let mut cx = LintContext::netlist_only(&nl);
        cx.roots = vec![nl.find("r").unwrap()];
        let report = Linter::new().run(&cx);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn comb_loop_reported_with_path() {
        let mut nl = Netlist::new();
        nl.push(Node {
            name: Some("a".into()),
            width: 1,
            op: Op::Unary(crate::ir::UnOp::Not, SignalId(1)),
        })
        .unwrap();
        nl.push(Node {
            name: Some("b".into()),
            width: 1,
            op: Op::Unary(crate::ir::UnOp::Not, SignalId(0)),
        })
        .unwrap();
        let report = lint(&nl);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L001")
            .expect("loop reported");
        assert_eq!(d.severity, Severity::Error);
        assert!(
            d.message.contains('a') && d.message.contains('b'),
            "{}",
            d.message
        );
    }

    #[test]
    fn undriven_reg_and_floating_input() {
        let mut b = Builder::new();
        b.reg("orphan", 4, 0); // never connected
        b.input("unused", 1); // never read
        let r = b.reg("ok", 1, 0);
        b.set_next(r, r).unwrap();
        let nl = b.netlist().clone();
        let report = lint(&nl);
        assert!(codes(&report).contains(&"L002"));
        assert!(codes(&report).contains(&"L003"));
        let orphan = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L002")
            .unwrap();
        assert_eq!(orphan.signal, Some(nl.find("orphan").unwrap()));
    }

    #[test]
    fn width_audit_reports_all_violations() {
        // validate() stops at the first mismatch; the lint pass reports
        // both the bad binary op and the bad mux.
        let mut nl = Netlist::new();
        let a = nl
            .push(Node {
                name: Some("a".into()),
                width: 4,
                op: Op::Input,
            })
            .unwrap();
        let b = nl
            .push(Node {
                name: Some("b".into()),
                width: 8,
                op: Op::Input,
            })
            .unwrap();
        nl.push(Node {
            name: Some("bad_add".into()),
            width: 4,
            op: Op::Binary(BinOp::Add, a, b),
        })
        .unwrap();
        nl.push(Node {
            name: Some("bad_mux".into()),
            width: 4,
            op: Op::Mux { sel: b, a, b: a },
        })
        .unwrap();
        let report = lint(&nl);
        let width_errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L004")
            .collect();
        assert_eq!(width_errors.len(), 2, "{}", report.render());
        assert!(nl.validate().is_err());
    }

    #[test]
    fn bad_reset_value_reported() {
        let mut nl = Netlist::new();
        let r = nl
            .push(Node {
                name: Some("r".into()),
                width: 2,
                op: Op::Reg {
                    next: None,
                    init: 9, // does not fit in 2 bits
                },
            })
            .unwrap();
        let _ = r;
        let report = lint(&nl);
        assert!(codes(&report).contains(&"L005"));
        assert!(codes(&report).contains(&"L002"), "also undriven");
        let passes: Vec<_> = report.diagnostics.iter().map(|d| d.pass).collect();
        assert_eq!(
            passes,
            ["undriven", "reg-reset"],
            "passes run in a fixed order"
        );
    }

    #[test]
    fn dead_logic_found_relative_to_roots() {
        let mut b = Builder::new();
        let x = b.input("x", 1);
        let live = b.reg("live", 1, 0);
        b.set_next(live, x).unwrap();
        let dead = b.reg("dead_reg", 1, 0);
        let dn = b.not(dead);
        b.set_next(dead, dn).unwrap();
        let nl = b.finish().unwrap();
        let mut cx = LintContext::netlist_only(&nl);
        cx.roots = vec![nl.find("live").unwrap()];
        let report = Linter::new().run(&cx);
        let dead_diags: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L006")
            .collect();
        assert!(
            dead_diags.iter().any(|d| d.message.contains("dead_reg")),
            "{}",
            report.render()
        );
        // Without roots the pass stays silent.
        let silent = Linter::new().run(&LintContext::netlist_only(&nl));
        assert!(!codes(&silent).contains(&"L006"));
    }

    /// A minimal annotated design: a 2-bit FSM that can only ever produce
    /// values {0, 1} but declares a state at 3.
    fn annotated_fsm() -> (Netlist, Annotations) {
        let mut b = Builder::new();
        let go = b.input("go", 1);
        let pc = b.reg("pc", 4, 0);
        let one4 = b.constant(1, 4);
        let pcn = b.add(pc, one4);
        b.set_next(pc, pcn).unwrap();
        let st = b.reg("st", 2, 0);
        let c1 = b.constant(1, 2);
        let c0 = b.constant(0, 2);
        let stn = b.mux(go, c1, c0);
        b.set_next(st, stn).unwrap();
        let upc = b.reg("upc", 4, 0);
        b.set_next(upc, pc).unwrap();
        let ifr = b.reg("ifr", 8, 0);
        let z8 = b.constant(0, 8);
        b.set_next(ifr, z8).unwrap();
        let fv = b.reg("fetch_valid", 1, 0);
        b.set_next(fv, go).unwrap();
        let commit = b.reg("commit", 1, 0);
        b.set_next(commit, fv).unwrap();
        let cpc = b.reg("commit_pc", 4, 0);
        b.set_next(cpc, pc).unwrap();
        let nl = b.finish().unwrap();
        let f = |n: &str| nl.find(n).unwrap();
        let ann = Annotations {
            ifr: f("ifr"),
            fetch_valid: f("fetch_valid"),
            fetch_pc: f("pc"),
            commit: f("commit"),
            commit_pc: f("commit_pc"),
            operand_regs: vec![],
            arf: vec![],
            amem: vec![],
            persistent: vec![],
            ufsms: vec![UFsm {
                name: "u".into(),
                pcr: f("upc"),
                vars: vec![f("st")],
                idle: vec![FsmState(vec![0])],
                states: Some(vec![
                    NamedState {
                        name: "busy".into(),
                        state: FsmState(vec![1]),
                    },
                    NamedState {
                        name: "ghost".into(),
                        state: FsmState(vec![3]),
                    },
                ]),
                pcr_added: true,
            }],
            added_loc: 0,
        };
        (nl, ann)
    }

    #[test]
    fn unreachable_ufsm_state_flagged() {
        let (nl, ann) = annotated_fsm();
        let mut cx = LintContext::netlist_only(&nl);
        cx.annotations = Some(&ann);
        let report = Linter::new().run(&cx);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L007")
            .expect("ghost state flagged");
        assert!(d.message.contains("ghost"), "{}", d.message);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("busy")),
            "reachable state not flagged: {}",
            report.render()
        );
    }

    #[test]
    fn constant_strobe_flagged_as_error() {
        let (nl, mut ann) = annotated_fsm();
        // Point the commit strobe at a register stuck at 0.
        let mut b = Builder::from_netlist(nl);
        let stuck = b.reg("stuck", 1, 0);
        b.set_next(stuck, stuck).unwrap();
        let nl = b.finish().unwrap();
        ann.commit = nl.find("stuck").unwrap();
        let mut cx = LintContext::netlist_only(&nl);
        cx.annotations = Some(&ann);
        let report = Linter::new().run(&cx);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L009")
            .expect("constant strobe flagged");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("commit"), "{}", d.message);
        assert!(report.has_errors());
    }

    #[test]
    fn deny_warnings_rejects_a_warning_only_report() {
        let mut b = Builder::new();
        b.input("unused", 1);
        let r = b.reg("r", 1, 0);
        b.set_next(r, r).unwrap();
        let nl = b.finish().unwrap();
        let report = lint(&nl);
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.diagnostics[0].pass, "undriven");
        assert_eq!(report.exit_code(false), 0);
        assert_eq!(report.exit_code(true), 2, "--deny-warnings rejects it");
    }
}
