//! Shared harness utilities for the experiment-regeneration binaries
//! (`src/bin/fig*.rs`, `table*.rs`, `perf.rs`) and the Criterion benches.
//!
//! Every binary regenerates one table or figure of the paper's evaluation;
//! see `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for recorded
//! outputs. Scope is controlled by `SYNTHLC_SCOPE` = `quick` (default) or
//! `full`.

use isa::Opcode;
use mupath::{ContextMode, SynthConfig};
use synthlc::{LeakConfig, LeakageReport, Operand, TxKind, TypedTransmitter};
use uarch::Design;

/// Experiment scope selected via the `SYNTHLC_SCOPE` environment variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Small representative subsets (minutes).
    Quick,
    /// The full representative sweep (an hour-plus on one core).
    Full,
}

/// Reads the scope from the environment.
pub fn scope() -> Scope {
    match std::env::var("SYNTHLC_SCOPE").as_deref() {
        Ok("full") => Scope::Full,
        _ => Scope::Quick,
    }
}

/// The SynthLC configuration for the Fig. 8 sweep at a given scope.
pub fn leak_cfg(design: &Design, scope: Scope) -> (Vec<Opcode>, LeakConfig) {
    let (transponders, transmitters, max_sources) = match scope {
        Scope::Quick => (
            vec![Opcode::Div, Opcode::Lw, Opcode::Sw],
            vec![Opcode::Div, Opcode::Lw, Opcode::Sw],
            Some(3),
        ),
        Scope::Full => (
            vec![
                Opcode::Add,
                Opcode::Mul,
                Opcode::Div,
                Opcode::Lw,
                Opcode::Sw,
                Opcode::Beq,
                Opcode::Jal,
            ],
            vec![
                Opcode::Div,
                Opcode::Mul,
                Opcode::Lw,
                Opcode::Sw,
                Opcode::Beq,
                Opcode::Jalr,
            ],
            Some(3),
        ),
    };
    let cfg = LeakConfig {
        mupath: SynthConfig {
            slots: vec![0, 1],
            context: ContextMode::NoControlFlow,
            bound: 24,
            conflict_budget: Some(2_000_000),
            max_shapes: 64,
        },
        transmitters,
        kinds: vec![
            TxKind::Intrinsic,
            TxKind::DynamicOlder,
            TxKind::DynamicYounger,
        ],
        bound: 22,
        conflict_budget: Some(1_000_000),
        threads: 0,
        budget_pool: None,
        slot_base: 0,
        max_sources,
        coi: true,
        static_prune: true,
        robust: Default::default(),
    };
    let _ = design;
    (transponders, cfg)
}

/// The instruction classes of Fig. 8's row/column grouping: every member
/// of a class shares its representative's datapath, so synthesized
/// signatures generalise to the class.
pub fn class_members(rep: Opcode) -> Vec<Opcode> {
    use Opcode::*;
    match rep {
        Add => vec![
            Add, Sub, And, Or, Xor, Sll, Srl, Slt, Sltu, Addi, Andi, Ori, Xori, Slti, Nop,
        ],
        Mul => vec![Mul, Mulh],
        Div => vec![Div, Divu, Rem, Remu],
        Lw => vec![Lw],
        Sw => vec![Sw],
        Beq => vec![Beq, Bne, Blt, Bge, Bltu, Bgeu],
        Jal => vec![Jal],
        Jalr => vec![Jalr],
        other => vec![other],
    }
}

/// Renders the Fig. 8-style transponder × transmitter matrix.
///
/// Coarse columns: transponder classes. Rows: (transmitter class, typing,
/// operand). Cells: `#` primary leakage, `s` secondary, `.` none.
pub fn render_fig8(report: &LeakageReport) -> String {
    let transponders: Vec<Opcode> = report.transponders.iter().copied().collect();
    // Row space: transmitters seen, by (opcode, kind, operand).
    let mut rows: Vec<TypedTransmitter> = report.transmitters.iter().copied().collect();
    rows.sort();
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "transmitter \\ P"));
    for p in &transponders {
        out.push_str(&format!("{:>7}", p.to_string()));
    }
    out.push('\n');
    for t in rows {
        out.push_str(&format!(
            "{:<18}",
            format!("{}^{}.{}", t.opcode, t.kind, t.operand)
        ));
        for p in &transponders {
            let hit = report
                .signatures_of(*p)
                .iter()
                .any(|s| s.inputs.contains(&t));
            let primary = report
                .signatures_of(*p)
                .iter()
                .any(|s| s.inputs.contains(&t) && s.has_primary);
            let mark = if !hit {
                "."
            } else if primary {
                "#"
            } else {
                "s"
            };
            out.push_str(&format!("{mark:>7}"));
        }
        out.push('\n');
    }
    out.push_str("\nlegend: # leakage with a primary tag, s secondary only, . none\n");
    out
}

/// Renders a per-transponder signature list (Fig. 5 style).
pub fn render_signatures(report: &LeakageReport) -> String {
    let mut out = String::new();
    for s in &report.signatures {
        out.push_str(&format!("{}\n", s.render()));
    }
    out
}

/// Summarises unsafe operands per transmitter class (CT-contract style),
/// expanding representatives to their classes.
pub fn render_ct_expanded(report: &LeakageReport) -> String {
    let mut out = String::new();
    let mut seen = std::collections::BTreeMap::<Opcode, std::collections::BTreeSet<Operand>>::new();
    for t in &report.transmitters {
        for member in class_members(t.opcode) {
            seen.entry(member).or_default().insert(t.operand);
        }
    }
    for (op, operands) in seen {
        let list: Vec<String> = operands.iter().map(|o| o.to_string()).collect();
        out.push_str(&format!("{op}: unsafe({})\n", list.join(", ")));
    }
    out
}
