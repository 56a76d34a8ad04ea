//! Netlist lint: a fixed suite of static-analysis passes over (possibly
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
//! [`run`] runs the seven built-in passes in a fixed order and produces a
//! [`LintReport`]; `--deny-warnings` is applied to the report by
//! [`LintReport::exit_code`]. Passes run on the raw node table,
//! so they work on unvalidated netlists. The undriven, width-audit and
//! reg-reset passes read the same width rule as `Netlist::validate`,
//! walking the same per-node faults, but report *all* of them where
//! `validate` stops at the first.

use crate::analysis;
use crate::annotate::Annotations;
use crate::cone::canonical_order;
use crate::ir::{BinOp, Fault, Netlist, Op, SignalId};
use crate::text::HarnessData;
use std::collections::{BTreeSet, HashSet};

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

    /// The context a design or `.nl` module is linted in. With a
    /// verification harness, its hook signals and extra outputs count as
    /// roots, and its fetch and issue strobes must not be structurally
    /// constant; without one, only the annotations join the structural
    /// passes.
    pub fn with_harness(
        netlist: &'a Netlist,
        annotations: Option<&'a Annotations>,
        harness: Option<&HarnessData>,
    ) -> Self {
        let Some(h) = harness else {
            return Self {
                annotations,
                ..Self::netlist_only(netlist)
            };
        };
        let hooks = [
            h.fetch_instr_input,
            h.fetch_valid_input,
            h.fetch_fire,
            h.issue_fire,
            h.issue_pc,
            h.issue_valid,
            h.pc,
        ];
        let rs = h.rs_fields.into_iter().flat_map(|(rs1, rs2)| [rs1, rs2]);
        Self {
            netlist,
            annotations,
            roots: hooks
                .into_iter()
                .chain(rs)
                .chain(h.outputs.iter().copied())
                .collect(),
            strobes: vec![
                ("fetch_fire".to_owned(), h.fetch_fire),
                ("issue_fire".to_owned(), h.issue_fire),
            ],
        }
    }
}

/// Runs the seven built-in passes, in a fixed order, over `cx`.
pub fn run(cx: &LintContext<'_>) -> LintReport {
    let mut diagnostics = Vec::new();
    comb_loop(cx, &mut diagnostics);
    undriven(cx, &mut diagnostics);
    width_audit(cx, &mut diagnostics);
    reg_reset(cx, &mut diagnostics);
    dead_logic(cx, &mut diagnostics);
    ufsm_reach(cx, &mut diagnostics);
    annotation_const(cx, &mut diagnostics);
    LintReport { diagnostics }
}

// --------------------------------------------------------------------------
// Built-in passes
// --------------------------------------------------------------------------

/// L001: combinational loops, reported with the full cycle path.
fn comb_loop(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    if let Some(cycle) = analysis::find_comb_cycle(cx.netlist) {
        out.push(Diagnostic {
            severity: Severity::Error,
            code: "L001",
            pass: "comb-loop",
            signal: cycle.path.first().copied(),
            message: format!("combinational cycle: {}", cycle.render(cx.netlist)),
            ..Default::default()
        });
    }
}

/// L002/L003: undriven registers and floating (never-read) inputs.
fn undriven(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let nl = cx.netlist;
    let mut read: HashSet<SignalId> = HashSet::new();
    for (_, node) in nl.iter() {
        read.extend(node.op.comb_fanin());
        if let Op::Reg { next: Some(nx), .. } = node.op {
            read.insert(nx);
        }
    }
    for (id, node) in nl.iter() {
        if node.op.is_input() && !read.contains(&id) && !cx.roots.contains(&id) {
            out.push(Diagnostic {
                severity: Severity::Warning,
                code: "L003",
                pass: "undriven",
                signal: Some(id),
                message: format!("input `{}` is never read", nl.display_name(id)),
                ..Default::default()
            });
        }
        rule_faults(nl, id, "undriven", out);
    }
}

/// L004: width-rule audit at every use site. `Netlist::validate` stops at
/// the first violation; this pass reports them all.
fn width_audit(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (id, _) in cx.netlist.iter() {
        rule_faults(cx.netlist, id, "width-audit", out);
    }
}

/// L005: reset values that do not fit the register's width. In this IR
/// every register *has* a reset value, so "register without reset" means a
/// malformed one — the reset would silently truncate in real RTL.
fn reg_reset(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (id, _) in cx.netlist.iter() {
        rule_faults(cx.netlist, id, "reg-reset", out);
    }
}

/// Reports the width-rule faults of node `id` that `pass` owns: an
/// unconnected register is the undriven pass's (L002), a reset value that
/// does not fit the reg-reset pass's (L005), and every other fault the
/// width-audit pass's (L004).
fn rule_faults(nl: &Netlist, id: SignalId, pass: &'static str, out: &mut Vec<Diagnostic>) {
    let op = &nl.node(id).op;
    nl.node_faults(id, |f| {
        let (code, owner) = match (f, op) {
            (Fault::Unconnected, _) => ("L002", "undriven"),
            (Fault::Value(_), Op::Reg { .. }) => ("L005", "reg-reset"),
            _ => ("L004", "width-audit"),
        };
        if owner == pass {
            out.push(Diagnostic {
                severity: Severity::Error,
                code,
                pass,
                signal: Some(id),
                message: fault_message(nl, id, f),
                ..Default::default()
            });
        }
    });
}

/// The message for width-rule `fault` of node `id`.
fn fault_message(nl: &Netlist, id: SignalId, fault: Fault) -> String {
    let node = nl.node(id);
    let (name, width) = (nl.display_name(id), node.width);
    let w = |s: &SignalId| nl.width(*s);
    match (fault, &node.op) {
        (Fault::Unconnected, _) => format!("register `{name}` has no next connection"),
        (Fault::Value(v), Op::Reg { .. }) => {
            format!("register `{name}` reset value {v:#x} does not fit in {width} bits")
        }
        (Fault::Value(v), _) => {
            format!("constant `{name}` value {v:#x} does not fit in {width} bits")
        }
        (Fault::Dangling(s), Op::Reg { .. }) => {
            format!("register `{name}` next references out-of-range signal {s}")
        }
        (Fault::Dangling(s), _) => format!("`{name}` references out-of-range signal {s}"),
        (Fault::Width(expect), Op::Unary(op, _)) => {
            format!("`{name}` = {op}(...): result width {width} != expected {expect}")
        }
        (Fault::Width(aw), Op::Binary(op @ (BinOp::Shl | BinOp::Shr), ..)) => {
            format!("`{name}` = {op}(...): result width {width} != operand width {aw}")
        }
        (Fault::Width(expect), Op::Binary(op, ..)) => {
            format!("`{name}` = {op}(...): result width {width} != expected {expect}")
        }
        (Fault::Operands, Op::Binary(op, a, b)) => {
            format!(
                "`{name}` = {op}(...): operand widths {} and {} differ",
                w(a),
                w(b)
            )
        }
        (Fault::Select, Op::Mux { sel, .. }) => {
            format!("`{name}`: mux select is {} bits, not 1", w(sel))
        }
        (_, Op::Mux { a, b, .. }) => {
            format!(
                "`{name}`: mux arm widths {}/{} vs result width {width}",
                w(a),
                w(b)
            )
        }
        (Fault::Operands, Op::Slice { src, hi, lo }) => {
            format!(
                "`{name}`: slice [{hi}:{lo}] out of range for {}-bit source",
                w(src)
            )
        }
        (Fault::Width(expect), Op::Slice { hi, lo, .. }) => {
            format!("`{name}`: slice [{hi}:{lo}] yields {expect} bits but node is {width} bits")
        }
        (_, Op::Concat { hi, lo }) => {
            format!(
                "`{name}`: concat of {}+{} bits but node is {width} bits",
                w(hi),
                w(lo)
            )
        }
        (_, Op::Reg { next: Some(nx), .. }) => {
            format!(
                "register `{name}` is {width} bits but its next is {} bits",
                w(nx)
            )
        }
        _ => unreachable!("{fault:?} cannot arise from {:?}", node.op),
    }
}

/// L006: dead logic — signals outside the transitive fan-in (through
/// registers, across cycles) of every root and annotation signal. Skipped
/// when the context supplies no roots.
fn dead_logic(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
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
    // The live set is the roots' cone: the same backward walk over
    // combinational fan-in and register next edges as mc's
    // cone-of-influence slice.
    let (live, _) = canonical_order(nl, &roots);
    let mut anonymous = 0usize;
    for (id, node) in nl.iter() {
        if live[id.index()].is_some() || matches!(node.op, Op::Const(_)) {
            continue;
        }
        match &node.name {
            Some(name) => out.push(Diagnostic {
                severity: Severity::Warning,
                code: "L006",
                pass: "dead-logic",
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
            pass: "dead-logic",
            signal: None,
            message: format!("{anonymous} anonymous signal(s) drive no root or annotation cone"),
            ..Default::default()
        });
    }
}

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

/// L007: µFSM states that no transition function can produce from reset,
/// computed from the annotated state registers' update cones.
fn ufsm_reach(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
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
                        pass: "ufsm-reach",
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

/// L008/L009: annotation consistency — `Annotations::validate` failures
/// plus performing/fetch strobes that are structurally constant (by the
/// sequential constant propagation of [`analysis::seq_consts`]).
fn annotation_const(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let Some(ann) = cx.annotations else { return };
    let nl = cx.netlist;
    if let Err(e) = ann.validate(nl) {
        out.push(Diagnostic {
            severity: Severity::Error,
            code: "L008",
            pass: "annotation-const",
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
                pass: "annotation-const",
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
                pass: "annotation-const",
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
        run(&LintContext::netlist_only(nl))
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
        let report = run(&cx);
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
        let report = run(&cx);
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
        let silent = run(&LintContext::netlist_only(&nl));
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
        let report = run(&cx);
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
        let report = run(&cx);
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
