//! The eight differential oracles.
//!
//! Each oracle runs one generated design through two *independent*
//! implementations of the same question and reports whether the verdicts
//! agree. The engines share no code on the compared axis: the CDCL solver
//! is checked against a from-scratch DPLL, the model checker against the
//! interpreter-style simulator, symbolic induction against explicit-state
//! fixpoint enumeration, reductions against the unreduced baseline, the
//! IFT taint plane against two-run low-equivalence simulation, the
//! textual frontend (emit → parse → lower) against the in-memory IR, the
//! persistent solver context (assumption-based incremental queries over
//! an extendable unrolling) against fresh one-shot solvers, and the
//! cone-fingerprint-keyed verdict cache (warm re-verification after a
//! random in-place edit) against a fully fresh re-run.
//!
//! Every oracle runs on a [`Case`]: one design, its knobs, and the one
//! reference table of fresh one-shot verdicts that oracles (g) and (h)
//! both compare against, solved once per case on first use.

use crate::dpll::{self, DpllResult};
use crate::gen::BuiltDesign;
use crate::SeededBug;
use mc::{Checker, CoiSlice, InitMode, McConfig, Outcome, Trace, UndeterminedReason, Unrolling};
use netlist::{mask, BinOp, Netlist, Op, SignalId, UnOp};
use sim::Simulator;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which engine pair a case exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// (a) CDCL vs. reference DPLL on the bit-blasted unrolling CNF.
    Sat,
    /// (b) BMC verdicts vs. simulation: witness replay + brute-force reach.
    Bmc,
    /// (c) k-induction proofs vs. explicit-state fixpoint enumeration.
    Induction,
    /// (d) COI / static-prune / cache reductions on vs. off.
    Reductions,
    /// (e) IFT taint covers vs. two-run low-equivalence simulation.
    Ift,
    /// (f) Textual frontend round trip: emit → check → lower must be
    /// diagnostic-free, reproduce the IR structurally, and re-emit
    /// byte-identical text.
    Text,
    /// (g) A property fleet solved through one persistent pooled solver
    /// (assumption-based queries, bound grown in place via
    /// `ensure_bound`) vs. fresh per-query solvers.
    Incremental,
    /// (h) Cone-granular caching: after a random in-place edit, covers
    /// answered from a cone-fingerprint-keyed verdict cache vs. covers
    /// re-solved from scratch on the edited design.
    Cone,
}

impl OracleKind {
    /// All eight oracles, in report order.
    pub const ALL: [OracleKind; 8] = [
        OracleKind::Sat,
        OracleKind::Bmc,
        OracleKind::Induction,
        OracleKind::Reductions,
        OracleKind::Ift,
        OracleKind::Text,
        OracleKind::Incremental,
        OracleKind::Cone,
    ];

    /// Stable lowercase name used in reports and repro files.
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::Sat => "sat",
            OracleKind::Bmc => "bmc",
            OracleKind::Induction => "induction",
            OracleKind::Reductions => "reductions",
            OracleKind::Ift => "ift",
            OracleKind::Text => "text",
            OracleKind::Incremental => "incremental",
            OracleKind::Cone => "cone",
        }
    }

    /// Inverse of [`OracleKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Reference-DPLL clause-scan cap before a case is skipped. With the
/// brute-force cap below, keeps a case well under a millisecond on typical
/// generated sizes while skipping (not hanging on) outliers.
const DPLL_STEP_CAP: u64 = 2_000_000;
/// Brute-force (state, input) expansion cap before a case is skipped.
const BRUTE_CAP: u64 = 300_000;
/// Cycles simulated by the IFT low-equivalence runs.
const IFT_CYCLES: usize = 8;

/// Per-case knobs.
#[derive(Clone, Debug)]
pub struct OracleOpts {
    /// BMC bound (frames `0..bound` are checked).
    pub bound: usize,
    /// A deliberately planted engine defect (tests only).
    pub seeded_bug: Option<SeededBug>,
}

/// Outcome of running one oracle over one design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseResult {
    /// Both engines agree; the string is the canonical verdict line that
    /// feeds the deterministic report.
    Agree(String),
    /// The case was out of budget for the reference engine; nothing was
    /// compared.
    Skipped(&'static str),
    /// The engines disagree — a bug in one of them (or a planted one).
    Mismatch {
        /// The reference engine's verdict.
        expected: String,
        /// The engine-under-test's verdict.
        actual: String,
        /// Human-oriented context (sizes, frame numbers, signal names).
        detail: String,
    },
}

impl CaseResult {
    /// True for [`CaseResult::Mismatch`].
    pub fn is_mismatch(&self) -> bool {
        matches!(self, CaseResult::Mismatch { .. })
    }
}

/// One generated design as every oracle sees it: the design, its knobs,
/// the cover fleet of oracles (g) and (h), and that fleet's fresh one-shot
/// outcomes at `opts.bound`. The incremental oracle's reference leg and
/// the cone oracle's cold leg pose exactly those queries, so the first of
/// the two to run solves them and the other reads the table. A verdict
/// therefore never depends on which oracles share the case, or in what
/// order they run.
pub struct Case {
    design: BuiltDesign,
    opts: OracleOpts,
    fleet: Vec<SignalId>,
    fresh: OnceCell<Vec<Outcome>>,
}

impl Case {
    /// A case of `design` under `opts`; nothing is solved until an oracle
    /// asks.
    pub fn new(design: BuiltDesign, opts: OracleOpts) -> Self {
        let fleet = cover_fleet(&design);
        Self {
            design,
            opts,
            fleet,
            fresh: OnceCell::new(),
        }
    }

    /// Runs one oracle on this case: the one way any oracle is run.
    pub fn run(&self, kind: OracleKind) -> CaseResult {
        let (d, opts) = (&self.design, &self.opts);
        match kind {
            OracleKind::Sat => oracle_sat(d, opts),
            OracleKind::Bmc => oracle_bmc(d, opts),
            OracleKind::Induction => oracle_induction(d, opts),
            OracleKind::Reductions => oracle_reductions(d, opts),
            OracleKind::Ift => oracle_ift(d),
            OracleKind::Text => oracle_text(d),
            OracleKind::Incremental => oracle_incremental(self),
            OracleKind::Cone => oracle_cone(self),
        }
    }

    /// The fleet's fresh one-shot outcomes at `opts.bound`, in fleet
    /// order: one fresh checker per cover, built over one shared
    /// elaboration and dropped after its query, so no two are ever live.
    /// Solved on the first call.
    fn fresh(&self) -> &[Outcome] {
        self.fresh.get_or_init(|| {
            let nl = &self.design.netlist;
            let cfg = bmc_config(self.opts.bound);
            let elab = Arc::new(mc::Elab::new(nl));
            self.fleet
                .iter()
                .map(|&c| Checker::with_elab(nl, cfg, &[], Arc::clone(&elab)).check_cover(c, &[]))
                .collect()
        })
    }
}

/// The BMC configuration of every oracle checker but induction's: frames
/// `0..bound`, with the bound declared complete.
fn bmc_config(bound: usize) -> McConfig {
    McConfig {
        bound,
        bound_is_complete: true,
        try_induction: false,
        ..Default::default()
    }
}

/// Oracle (f): the textual frontend against the in-memory IR. The
/// generated netlist is emitted as canonical text, re-compiled through
/// the full pipeline (lex → parse → resolve → lower → lint),
/// and the result must (1) carry zero diagnostics, (2) be structurally
/// identical to the original, and (3) re-emit byte-identically.
fn oracle_text(d: &BuiltDesign) -> CaseResult {
    let text = netlist::text::emit(&d.netlist);
    let result = netlist::text::check(&text, "<fuzz>");
    if !result.report.is_clean() {
        return CaseResult::Mismatch {
            expected: "0 diagnostics on emitted text".into(),
            actual: result.report.summary(),
            detail: result.report.render(),
        };
    }
    let Some(module) = result.module else {
        return CaseResult::Mismatch {
            expected: "lowered module".into(),
            actual: "no module".into(),
            detail: "clean report but lowering produced nothing".into(),
        };
    };
    if let Err(e) = d.netlist.same_structure(&module.netlist) {
        return CaseResult::Mismatch {
            expected: "structurally identical netlist".into(),
            actual: "structural difference".into(),
            detail: e,
        };
    }
    let text2 = netlist::text::emit(&module.netlist);
    if text != text2 {
        let byte = text
            .bytes()
            .zip(text2.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.len().min(text2.len()));
        return CaseResult::Mismatch {
            expected: format!("byte-identical re-emission ({} bytes)", text.len()),
            actual: format!("{} bytes, first difference at byte {byte}", text2.len()),
            detail: format!(
                "...{}... vs ...{}...",
                &text[byte.saturating_sub(20)..(byte + 20).min(text.len())],
                &text2[byte.saturating_sub(20)..(byte + 20).min(text2.len())]
            ),
        };
    }
    CaseResult::Agree(format!(
        "text roundtrip nodes={} bytes={}",
        d.netlist.len(),
        text.len()
    ))
}

/// Replays a `Reachable` trace cycle-accurately through the simulator:
/// every recorded signal value must match and the cover must fire at some
/// frame. `coi`, when present, restricts the comparison to in-cone
/// signals (out-of-cone model values are unconstrained placeholders).
/// Returns the first frame the cover fired at.
pub fn replay_witness(
    nl: &Netlist,
    trace: &Trace,
    cover: SignalId,
    coi: Option<&CoiSlice>,
) -> Result<usize, String> {
    let mut s = Simulator::new(nl);
    let script = trace.input_script();
    let mut fired = None;
    for (t, frame_inputs) in script.iter().enumerate() {
        for (&sig, &v) in frame_inputs {
            s.set_input(sig, v);
        }
        for (id, _) in nl.iter() {
            if coi.is_some_and(|c| !c.keeps(id)) {
                continue;
            }
            let sim_v = s.value(id);
            let model_v = trace.value(t, id);
            if sim_v != model_v {
                return Err(format!(
                    "frame {t}: {} is {sim_v:#x} in sim but {model_v:#x} in the witness",
                    nl.display_name(id)
                ));
            }
        }
        if fired.is_none() && s.value(cover) != 0 {
            fired = Some(t);
        }
        s.step();
    }
    fired.ok_or_else(|| "cover never fired during witness replay".to_string())
}

/// Explicit-state layered BFS from reset. Checks the cover on every
/// `(state, input)` expansion for frames `0..bound` (`bound == usize::MAX`
/// runs to the reachability fixpoint). Returns `None` when `cap`
/// expansions were exceeded, `Some(Some(t))` when the cover fires at
/// frame `t`, `Some(None)` when it provably cannot within the explored
/// horizon.
fn brute_reach(nl: &Netlist, cover: SignalId, bound: usize, cap: u64) -> Option<Option<usize>> {
    let inputs = nl.inputs();
    let regs = nl.regs();
    let input_bits: u32 = inputs.iter().map(|&i| nl.width(i) as u32).sum();
    if input_bits > 12 {
        return None;
    }
    let mut s = Simulator::new(nl);
    let reset: Vec<u64> = regs.iter().map(|&r| nl.reg_init(r)).collect();
    let mut visited: BTreeSet<Vec<u64>> = BTreeSet::new();
    visited.insert(reset.clone());
    let mut layer: BTreeSet<Vec<u64>> = BTreeSet::new();
    layer.insert(reset);
    let mut expansions = 0u64;
    let mut t = 0usize;
    while t < bound && !layer.is_empty() {
        let mut next_layer = BTreeSet::new();
        for state in &layer {
            for combo in 0..(1u64 << input_bits) {
                expansions += 1;
                if expansions > cap {
                    return None;
                }
                for (i, &r) in regs.iter().enumerate() {
                    s.poke_reg(r, state[i]);
                }
                let mut rest = combo;
                for &input in &inputs {
                    let w = nl.width(input);
                    s.set_input(input, rest & mask(w));
                    rest >>= w;
                }
                if s.value(cover) != 0 {
                    return Some(Some(t));
                }
                s.step();
                let ns: Vec<u64> = regs.iter().map(|&r| s.value(r)).collect();
                if visited.insert(ns.clone()) {
                    next_layer.insert(ns);
                }
            }
        }
        layer = next_layer;
        t += 1;
    }
    Some(None)
}

fn outcome_label(o: &Outcome) -> String {
    match o {
        Outcome::Reachable(_) => "reachable".to_string(),
        Outcome::Unreachable => "unreachable".to_string(),
        Outcome::Undetermined(r) => format!("undet:{}", r.label()),
    }
}

/// (a) CDCL vs. reference DPLL on the exact clause set of the unrolled
/// cover query, captured via the solver's clause log.
fn oracle_sat(d: &BuiltDesign, opts: &OracleOpts) -> CaseResult {
    let mut u = Unrolling::new(&d.netlist, InitMode::Reset);
    u.gate().solver().set_clause_log(true);
    u.extend_to(opts.bound);
    let cover_lits: Vec<sat::Lit> = (0..opts.bound).map(|t| u.lit(t, d.cover)).collect();
    u.gate().add_clause(&cover_lits);
    let true_lit = u.gate().true_lit();
    let num_vars = u.gate().num_vars();
    let cdcl = u.gate().solver().solve();
    let mut clauses = u.gate().solver().take_clause_log();
    // The gate builder's constant-true unit clause predates the log.
    clauses.insert(0, vec![true_lit]);
    // Nothing below needs the unrolling; free it before DPLL runs.
    drop(u);
    let bug = opts.seeded_bug == Some(SeededBug::DpllBadSat);
    let Some(reference) = dpll::solve(num_vars, &clauses, DPLL_STEP_CAP, bug) else {
        return CaseResult::Skipped("dpll-cap");
    };
    let detail = format!("{num_vars} vars, {} clauses", clauses.len());
    match (reference, cdcl) {
        (DpllResult::Sat(model), r) if r.is_sat() => {
            if dpll::model_satisfies(&model, &clauses) {
                CaseResult::Agree("sat".into())
            } else {
                CaseResult::Mismatch {
                    expected: "sat(model-valid)".into(),
                    actual: "sat(model-invalid)".into(),
                    detail,
                }
            }
        }
        (DpllResult::Unsat, r) if r.is_unsat() => CaseResult::Agree("unsat".into()),
        (dp, r) => CaseResult::Mismatch {
            expected: match dp {
                DpllResult::Sat(_) => "sat".into(),
                DpllResult::Unsat => "unsat".into(),
            },
            actual: format!("{r:?}").to_lowercase(),
            detail,
        },
    }
}

/// (b) BMC vs. simulation: `Reachable` witnesses must replay; an
/// `Unreachable`-within-bound verdict must survive exhaustive
/// enumeration of the bounded state space.
fn oracle_bmc(d: &BuiltDesign, opts: &OracleOpts) -> CaseResult {
    let mut chk = Checker::new(&d.netlist, bmc_config(opts.bound));
    if opts.seeded_bug == Some(SeededBug::ForceUnknownMisread) {
        chk.set_fault(UndeterminedReason::FaultInjected);
    }
    let outcome = chk.check_cover(d.cover, &[]);
    let verdict = match &outcome {
        Outcome::Reachable(trace) => {
            return match replay_witness(&d.netlist, trace, d.cover, None) {
                Ok(t) => CaseResult::Agree(format!("reachable@{t}")),
                Err(why) => CaseResult::Mismatch {
                    expected: "replayable witness".into(),
                    actual: "diverging witness".into(),
                    detail: why,
                },
            };
        }
        Outcome::Unreachable => "unreachable",
        Outcome::Undetermined(_) if opts.seeded_bug == Some(SeededBug::ForceUnknownMisread) => {
            // The planted defect: a fault-degraded Unknown misread as a
            // proof of unreachability.
            "unreachable"
        }
        Outcome::Undetermined(_) => return CaseResult::Skipped("undetermined"),
    };
    match brute_reach(&d.netlist, d.cover, opts.bound, BRUTE_CAP) {
        None => CaseResult::Skipped("brute-cap"),
        Some(Some(t)) => CaseResult::Mismatch {
            expected: format!("reachable@{t}"),
            actual: verdict.into(),
            detail: format!(
                "brute-force fires the cover at frame {t} within bound {}",
                opts.bound
            ),
        },
        Some(None) => CaseResult::Agree(verdict.into()),
    }
}

/// (c) k-induction vs. bounded exhaustive enumeration: an
/// induction-backed `Unreachable` is a *global* claim, so it is checked
/// against the full reachability fixpoint, not just the BMC bound.
fn oracle_induction(d: &BuiltDesign, opts: &OracleOpts) -> CaseResult {
    let cfg = McConfig {
        bound: opts.bound,
        bound_is_complete: false,
        try_induction: true,
        induction_depth: 3.min(opts.bound),
        ..Default::default()
    };
    let mut chk = Checker::new(&d.netlist, cfg);
    match chk.check_cover(d.cover, &[]) {
        Outcome::Reachable(trace) => match replay_witness(&d.netlist, &trace, d.cover, None) {
            Ok(t) => CaseResult::Agree(format!("reachable@{t}")),
            Err(why) => CaseResult::Mismatch {
                expected: "replayable witness".into(),
                actual: "diverging witness".into(),
                detail: why,
            },
        },
        Outcome::Unreachable => match brute_reach(&d.netlist, d.cover, usize::MAX, BRUTE_CAP) {
            None => CaseResult::Skipped("brute-cap"),
            Some(Some(t)) => CaseResult::Mismatch {
                expected: format!("reachable@{t}"),
                actual: "unreachable(induction)".into(),
                detail: format!("fixpoint enumeration fires the cover at frame {t}"),
            },
            Some(None) => CaseResult::Agree("unreachable(induction)".into()),
        },
        Outcome::Undetermined(_) => CaseResult::Skipped("induction-failed"),
    }
}

/// (d) Reductions on vs. off: the COI-sliced checker, a repeated query on
/// the same checker (activation cache), and the static constant-cone
/// prune must all report the same verdict kind as the plain checker, and
/// every `Reachable` leg must hand back a replayable witness.
fn oracle_reductions(d: &BuiltDesign, opts: &OracleOpts) -> CaseResult {
    let legs = run_reduction_legs(d, bmc_config(opts.bound));
    let (baseline, _) = &legs[0];
    for (verdict, name) in &legs[1..] {
        if verdict != baseline {
            return CaseResult::Mismatch {
                expected: format!("plain:{baseline}"),
                actual: format!("{name}:{verdict}"),
                detail: "reduction changed the verdict kind".into(),
            };
        }
    }
    CaseResult::Agree(baseline.clone())
}

/// Runs the four reduction legs, returning `(verdict-line, leg-name)`
/// pairs; a failed witness replay is folded into the verdict line so it
/// can never be mistaken for agreement. No two checkers are live at once.
fn run_reduction_legs(d: &BuiltDesign, cfg: McConfig) -> Vec<(String, &'static str)> {
    let mut legs: Vec<(String, &'static str)> = Vec::new();
    // Leg 0: plain checker (the baseline), queried twice — the second
    // query exercises the cover-activation cache.
    let mut plain = Checker::new(&d.netlist, cfg);
    let first = plain.check_cover(d.cover, &[]);
    legs.push((replayed_verdict(&d.netlist, d.cover, &first, None), "plain"));
    let second = plain.check_cover(d.cover, &[]);
    legs.push((
        replayed_verdict(&d.netlist, d.cover, &second, None),
        "cached-requery",
    ));
    // `first` owns its witness; the plain checker is done.
    drop(plain);
    // Leg 2: cone-of-influence slice.
    let elab = Arc::new(mc::Elab::new(&d.netlist));
    let coi = Arc::new(CoiSlice::compute(&d.netlist, &[d.cover]));
    let mut sliced = Checker::with_coi(&d.netlist, cfg, &[], elab, Some(Arc::clone(&coi)));
    let sliced_out = sliced.check_cover(d.cover, &[]);
    let verdict = replayed_verdict(&d.netlist, d.cover, &sliced_out, Some(&coi));
    legs.push((verdict, "coi"));
    // Leg 3: static prune — when the cover's cone contains no input and no
    // register, its reset-time simulated value decides the query without
    // any solver call.
    let cone_has_state = d
        .netlist
        .iter()
        .any(|(id, n)| coi.keeps(id) && (n.op.is_input() || n.op.is_reg()));
    if !cone_has_state {
        let mut s = Simulator::new(&d.netlist);
        let verdict = if s.value(d.cover) != 0 {
            // A constant-true cover fires at frame 0; agree iff the
            // baseline found *a* witness (frame may differ, so compare
            // kind only).
            match &first {
                Outcome::Reachable(_) => legs[0].0.clone(),
                _ => "reachable@0".to_string(),
            }
        } else {
            "unreachable".to_string()
        };
        legs.push((verdict, "static-prune"));
    }
    legs
}

/// Canonical verdict of `cover`'s query on `nl`: a `Reachable` witness
/// must replay (in-cone only when `coi` is given), and its firing frame is
/// folded out so queries with different-but-valid witnesses still compare
/// equal.
fn replayed_verdict(
    nl: &Netlist,
    cover: SignalId,
    outcome: &Outcome,
    coi: Option<&CoiSlice>,
) -> String {
    match outcome {
        Outcome::Reachable(trace) => match replay_witness(nl, trace, cover, coi) {
            Ok(_) => "reachable".to_string(),
            Err(why) => format!("reachable(bad-witness: {why})"),
        },
        _ => outcome_label(outcome),
    }
}

/// The cover fleet of the incremental and cone oracles: the design's cover
/// plus up to seven other 1-bit signals, in id order.
fn cover_fleet(d: &BuiltDesign) -> Vec<SignalId> {
    let mut fleet: Vec<SignalId> = vec![d.cover];
    for (id, _) in d.netlist.iter() {
        if fleet.len() >= 8 {
            break;
        }
        if id != d.cover && d.netlist.width(id) == 1 {
            fleet.push(id);
        }
    }
    fleet
}

/// (e) IFT soundness: any signal whose value differs between two runs
/// that disagree only in the taint source's initial value must carry
/// taint, and no signal outside the static forward closure may ever
/// carry taint.
fn oracle_ift(d: &BuiltDesign) -> CaseResult {
    let regs = d.netlist.regs();
    let Some(&src) = regs.first() else {
        return CaseResult::Skipped("no-register");
    };
    let src_w = d.netlist.width(src);
    let inst = ift::instrument(
        &d.netlist,
        &ift::IftOptions {
            sources: vec![src],
            persistent: vec![],
            blocked: vec![],
        },
    );
    let en = inst
        .source_enable(src)
        .expect("source register has an enable input");
    let reach = ift::taint_reachable(&d.netlist, &[src], &[]);
    // Deterministic per-case input script.
    let inputs = d.netlist.inputs();
    let mut script_rng = prng::Rng::new(0x1f7_0000 ^ d.netlist.len() as u64);
    let script: Vec<Vec<(SignalId, u64)>> = (0..IFT_CYCLES)
        .map(|_| {
            inputs
                .iter()
                .map(|&i| (i, script_rng.next_u64() & mask(d.netlist.width(i))))
                .collect()
        })
        .collect();
    let val_a = 0u64;
    let val_b = mask(src_w);
    let run = |poke: u64| -> Vec<Vec<u64>> {
        let mut s = Simulator::new(&d.netlist);
        s.poke_reg(src, poke);
        script
            .iter()
            .map(|frame| {
                for &(i, v) in frame {
                    s.set_input(i, v);
                }
                let row: Vec<u64> = d.netlist.iter().map(|(id, _)| s.value(id)).collect();
                s.step();
                row
            })
            .collect()
    };
    let rows_a = run(val_a);
    let rows_b = run(val_b);
    // Taint run: instrumented netlist, source poked like run A, enable
    // high in cycle 0 only, no flush.
    let mut ts = Simulator::new(&inst.netlist);
    ts.poke_reg(src, val_a);
    ts.set_input(inst.flush_input, 0);
    let mut taint_rows: Vec<Vec<u64>> = Vec::with_capacity(IFT_CYCLES);
    for (t, frame) in script.iter().enumerate() {
        ts.set_input(en, u64::from(t == 0));
        for &(i, v) in frame {
            ts.set_input(i, v);
        }
        taint_rows.push(
            d.netlist
                .iter()
                .map(|(id, _)| ts.value(inst.taint_of(id)))
                .collect(),
        );
        ts.step();
    }
    for t in 0..IFT_CYCLES {
        for (ix, (id, _)) in d.netlist.iter().enumerate() {
            let differs = rows_a[t][ix] != rows_b[t][ix];
            let tainted = taint_rows[t][ix] != 0;
            if differs && !tainted {
                return CaseResult::Mismatch {
                    expected: "tainted (values diverge)".into(),
                    actual: "untainted".into(),
                    detail: format!(
                        "cycle {t}: {} is {:#x} vs {:#x} across the two runs but carries no taint",
                        d.netlist.display_name(id),
                        rows_a[t][ix],
                        rows_b[t][ix]
                    ),
                };
            }
            if tainted && !reach.contains(&id) {
                return CaseResult::Mismatch {
                    expected: "untainted (outside static closure)".into(),
                    actual: "tainted".into(),
                    detail: format!(
                        "cycle {t}: {} is outside taint_reachable yet tainted",
                        d.netlist.display_name(id)
                    ),
                };
            }
        }
    }
    CaseResult::Agree("ift-sound".into())
}

/// (g) Incremental context vs. fresh solvers: a fleet of cover queries (the
/// design's cover plus up to seven other 1-bit signals) is answered twice
/// — once through one persistent context that first solves the
/// whole fleet at a shallow bound and is then grown in place to the full
/// bound (exercising `begin_batch`, `ensure_bound`, the cover-activation
/// cache flush, and learnt-clause carry-over), and once through a fresh
/// one-shot checker per query at the full bound (the case's reference
/// table). The canonical verdict of every fleet member must match, every
/// `Reachable` leg must hand back a replayable witness, and the pooled
/// context must actually have been reused rather than silently rebuilt.
fn oracle_incremental(case: &Case) -> CaseResult {
    let (d, fleet, bound) = (&case.design, &case.fleet, case.opts.bound);
    // Pooled leg: one persistent context answers the whole fleet at the
    // shallow bound, then again at the full bound after an in-place
    // extension, one accounting batch per query.
    let shallow = (bound / 2).max(1);
    let mut ctx = Checker::new(&d.netlist, bmc_config(0));
    for &c in fleet {
        ctx.begin_batch();
        ctx.ensure_bound(shallow);
        let _ = ctx.check_cover(c, &[]);
    }
    let mut reused = true;
    let pooled: Vec<String> = fleet
        .iter()
        .map(|&c| {
            ctx.begin_batch();
            ctx.ensure_bound(bound);
            reused &= ctx.stats().ctx_reused > 0;
            replayed_verdict(&d.netlist, c, &ctx.check_cover(c, &[]), None)
        })
        .collect();
    // Dropped before the reference table may be solved, so the two never
    // share the heap.
    drop(ctx);
    // Reference leg: a fresh solver per query at the full bound.
    let fresh: Vec<String> = fleet
        .iter()
        .zip(case.fresh())
        .map(|(&c, outcome)| replayed_verdict(&d.netlist, c, outcome, None))
        .collect();
    for ((&c, fresh_v), pooled_v) in fleet.iter().zip(&fresh).zip(&pooled) {
        if fresh_v != pooled_v {
            return CaseResult::Mismatch {
                expected: format!("fresh:{fresh_v}"),
                actual: format!("pooled:{pooled_v}"),
                detail: format!(
                    "cover {} at bound {bound}: the pooled context disagrees with a fresh solver",
                    d.netlist.display_name(c),
                ),
            };
        }
    }
    if !reused {
        return CaseResult::Mismatch {
            expected: "pooled context reused across the fleet".into(),
            actual: "context was rebuilt".into(),
            detail: "a full-bound batch reported ctx_reused == 0".into(),
        };
    }
    let reachable = pooled.iter().filter(|v| v.as_str() == "reachable").count();
    CaseResult::Agree(format!("fleet={} reachable={reachable}", fleet.len()))
}

/// (h) The cone-granular verdict cache vs. fresh re-verification. A cold
/// run (the case's reference table) populates a cache keyed by each
/// cover's canonical cone fingerprint ([`netlist::cone::fingerprint`]); a
/// deterministic in-place edit is then applied; finally each cover of the
/// edited design is solved fresh once, and checked against a warm lookup:
/// a cover whose fingerprint is still on file replays the cached verdict,
/// and a miss takes the fresh verdict, since a cone cache's miss path is
/// that same fresh solve. Every per-cover verdict must agree, and a cached
/// `Reachable` witness must replay in-cone against the *edited* netlist:
/// an unchanged fingerprint claims the cone is bit-for-bit unchanged, so
/// the pre-edit witness is still a witness.
fn oracle_cone(case: &Case) -> CaseResult {
    let (d, fleet) = (&case.design, &case.fleet);
    let cold = case.fresh();
    // Keyed by fingerprint alone, so alpha-equivalent cones share one
    // record — the verdict transfers, but the raw witness is in the
    // *producer* cover's signal ids, so each entry remembers who wrote
    // it and replay goes through the canonical isomorphism.
    let cache: BTreeMap<u64, (SignalId, &Outcome)> = fleet
        .iter()
        .zip(cold)
        .map(|(&c, o)| (netlist::cone::fingerprint(&d.netlist, &[c], &[]), (c, o)))
        .collect();
    // The edit is derived from the design text, so a case replays from
    // its genome alone.
    let text = netlist::text::emit(&d.netlist);
    let mut rng = prng::Rng::new(0xc04e_0000 ^ netlist::Fnv::new().bytes(text.as_bytes()).finish());
    let Some(edited) = random_inplace_edit(&d.netlist, &mut rng) else {
        return CaseResult::Skipped("no-edit-site");
    };
    let edited_elab = Arc::new(mc::Elab::new(&edited));
    let stale = case.opts.seeded_bug == Some(SeededBug::ConeStaleReplay);
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (i, &c) in fleet.iter().enumerate() {
        let fp = netlist::cone::fingerprint(&edited, &[c], &[]);
        let hit: Option<(SignalId, &Outcome)> = if stale {
            // The planted defect: the fingerprint check is skipped and the
            // pre-edit verdict is replayed unconditionally.
            Some((c, &cold[i]))
        } else {
            cache.get(&fp).copied()
        };
        let fresh = {
            let cfg = bmc_config(case.opts.bound);
            let mut chk = Checker::with_elab(&edited, cfg, &[], Arc::clone(&edited_elab));
            replayed_verdict(&edited, c, &chk.check_cover(c, &[]), None)
        };
        let warm = match hit {
            Some((producer, outcome)) => {
                hits += 1;
                match outcome {
                    Outcome::Reachable(trace) => {
                        match replay_witness_canonical(&d.netlist, producer, &edited, c, trace) {
                            Ok(_) => "reachable".to_string(),
                            Err(why) => format!("reachable(stale-witness: {why})"),
                        }
                    }
                    other => outcome_label(other),
                }
            }
            None => {
                misses += 1;
                fresh.clone()
            }
        };
        if warm != fresh {
            return CaseResult::Mismatch {
                expected: format!("fresh:{fresh}"),
                actual: format!("warm:{warm}"),
                detail: format!(
                    "cover {} after an in-place edit: the cone-cached verdict diverges \
                     from a fresh re-run (cone fp {fp:016x}, {})",
                    edited.display_name(c),
                    if hit.is_some() {
                        "cache hit"
                    } else {
                        "cache miss"
                    },
                ),
            };
        }
    }
    CaseResult::Agree(format!(
        "cone fleet={} hits={hits} misses={misses}",
        fleet.len()
    ))
}

/// Replays a cached witness across the canonical isomorphism between two
/// alpha-equivalent cones. The trace was recorded for `producer`'s cone
/// in the pre-edit netlist; the claim is about `cover`'s cone in the
/// edited one — a cache hit promises the two canonical extractions are
/// bit-identical, so witness values translate original → canonical
/// through the producer's extraction map and must reproduce on a
/// simulation of the consumer's extraction. (Replaying by raw signal id
/// would be wrong: alpha-equivalent cones share a fingerprint without
/// sharing ids.) Returns the first frame the canonical target fired at.
fn replay_witness_canonical(
    orig: &Netlist,
    producer: SignalId,
    edited: &Netlist,
    cover: SignalId,
    trace: &Trace,
) -> Result<usize, String> {
    let ex_old = netlist::cone::extract(orig, &[producer]);
    let ex_new = netlist::cone::extract(edited, &[cover]);
    if let Err(e) = ex_old.netlist.same_structure(&ex_new.netlist) {
        return Err(format!(
            "canonical cones differ despite equal fingerprints: {e}"
        ));
    }
    // Canonical id → the producer-side original id the trace recorded.
    let mut inv: Vec<SignalId> = vec![SignalId(0); ex_old.netlist.len()];
    for (o, c) in ex_old.map.iter().enumerate() {
        if let Some(c) = c {
            inv[c.index()] = SignalId(o as u32);
        }
    }
    let mut s = Simulator::new(&ex_new.netlist);
    let frames = trace.input_script().len();
    let mut fired = None;
    for t in 0..frames {
        for (cid, n) in ex_new.netlist.iter() {
            if matches!(n.op, Op::Input) {
                s.set_input(cid, trace.value(t, inv[cid.index()]));
            }
        }
        for (cid, _) in ex_new.netlist.iter() {
            let sim_v = s.value(cid);
            let model_v = trace.value(t, inv[cid.index()]);
            if sim_v != model_v {
                return Err(format!(
                    "frame {t}: canonical node {} is {sim_v:#x} in sim \
                     but {model_v:#x} in the witness",
                    cid.index()
                ));
            }
        }
        if fired.is_none() && s.value(ex_new.targets[0]) != 0 {
            fired = Some(t);
        }
        s.step();
    }
    fired.ok_or_else(|| "cover never fired during canonical witness replay".to_string())
}

/// One deterministic in-place node-op mutation: a binary-operator swap
/// within a width-compatible class, a unary-operator swap, a constant bit
/// flip, or a register reset-value flip. No node is inserted or removed,
/// so every signal id survives the edit — the edit model under which an
/// unchanged cone fingerprint promises a bit-identical cone. `None` when
/// the design offers no legal site.
fn random_inplace_edit(nl: &Netlist, rng: &mut prng::Rng) -> Option<Netlist> {
    const ARITH: [BinOp; 6] = [
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
    ];
    const CMP: [BinOp; 4] = [BinOp::Eq, BinOp::Ne, BinOp::Ult, BinOp::Ule];
    let mut candidates: Vec<(SignalId, Op)> = Vec::new();
    for (id, n) in nl.iter() {
        match &n.op {
            Op::Binary(op, a, b) => {
                let class: &[BinOp] = if ARITH.contains(op) {
                    &ARITH
                } else if CMP.contains(op) {
                    &CMP
                } else {
                    continue;
                };
                for &alt in class {
                    if alt != *op {
                        candidates.push((id, Op::Binary(alt, *a, *b)));
                    }
                }
            }
            Op::Unary(op, a) => {
                let class: &[UnOp] = if op.is_reduction() {
                    &[UnOp::RedOr, UnOp::RedAnd, UnOp::RedXor]
                } else {
                    &[UnOp::Not, UnOp::Neg]
                };
                for &alt in class {
                    if alt != *op {
                        candidates.push((id, Op::Unary(alt, *a)));
                    }
                }
            }
            Op::Const(v) => {
                candidates.push((id, Op::Const(v ^ (1 << rng.range(0, n.width as u64)))));
            }
            Op::Reg {
                next: Some(next),
                init,
            } => {
                candidates.push((
                    id,
                    Op::Reg {
                        next: Some(*next),
                        init: init ^ (1 << rng.range(0, n.width as u64)),
                    },
                ));
            }
            _ => {}
        }
    }
    while !candidates.is_empty() {
        let ix = rng.range_usize(0, candidates.len());
        let (id, op) = candidates.swap_remove(ix);
        if let Ok(edited) = nl.with_op(id, op) {
            return Some(edited);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, case_seed, sample_genome, FuzzConfig};
    use prng::Rng;

    /// Sharing a case changes no verdict: on 256 designs, the eight
    /// oracles run on one case, in report order and in reverse, return
    /// exactly what each returns on a case of its own. Once oracle (g)
    /// has filled the reference table, oracle (h) elaborates only the
    /// edited design: the original's fresh queries are not solved again.
    #[test]
    fn a_shared_case_returns_what_each_oracle_returns_alone() {
        let cfg = FuzzConfig::default();
        let opts = OracleOpts {
            bound: cfg.bound,
            seeded_bug: None,
        };
        for i in 0..256 {
            let genome = sample_genome(&mut Rng::new(case_seed(0x5EED, i)), &cfg.gen);
            let case = || Case::new(build(&genome), opts.clone());
            let alone: Vec<CaseResult> = OracleKind::ALL.iter().map(|&k| case().run(k)).collect();
            let shared = case();
            let together: Vec<CaseResult> = OracleKind::ALL
                .iter()
                .map(|&k| {
                    let before = mc::elaborations_on_this_thread();
                    let result = shared.run(k);
                    if k == OracleKind::Cone {
                        let built = mc::elaborations_on_this_thread() - before;
                        assert!(built <= 1, "design {i}: cone elaborated {built} netlists");
                    }
                    result
                })
                .collect();
            assert_eq!(together, alone, "design {i}");
            let shared = case();
            let mut reversed: Vec<CaseResult> = OracleKind::ALL
                .iter()
                .rev()
                .map(|&k| shared.run(k))
                .collect();
            reversed.reverse();
            assert_eq!(reversed, alone, "design {i}, reverse order");
        }
    }
}
