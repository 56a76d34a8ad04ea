//! Textual netlist frontend: a multi-pass compiler for the `.nl` netlist
//! language, plus the canonical emitter that inverts it.
//!
//! The pipeline is the classic shape — every pass appends to one shared
//! [`Report`] so a single run surfaces everything it
//! can:
//!
//! 1. `lexer` — tokens with byte spans (`E001`),
//! 2. `parser` — span-carrying surface AST (`E002`),
//! 3. `resolve` — duplicate/undefined/use-before-declare names and names
//!    of the wrong kind (`E003`–`E005`, `E010`–`E012`, `W002`),
//! 4. `lower` — one walk that checks widths and shapes (`E006`–`E013`)
//!    and builds the [`Netlist`] IR, every combinational node sized by the
//!    netlist's one width rule; the module, and `W001`, only when the
//!    report is error-free, and `E014` only if `Netlist::validate`
//!    rejects it.
//!
//! [`compile`] is the only caller of those four, which are private; and
//! [`emit`](mod@emit) renders IR (plus optional annotation/harness
//! metadata) back to canonical text. `emit → compile → emit` is
//! byte-identical; the sixth differential-fuzz oracle and
//! `tests/frontend_roundtrip.rs` hold the toolchain to that.
//!
//! [`check`] additionally runs the `L001`–`L009` lint suite on the
//! lowered module, rooted at its `harness` block through the same
//! [`LintContext::with_harness`] constructor built-in designs are linted with,
//! so `.nl` files get the same static analysis as built-in designs.

mod ast;
pub mod emit;
mod lexer;
mod lower;
mod parser;
mod resolve;

pub use emit::{emit_module, surface_name, ModuleText};
pub use lower::{HarnessData, LoweredModule};

use crate::diag::{Report, SourceFile};
use crate::ir::Netlist;
use crate::lint::{self, LintContext};

/// Everything a frontend run produced: the lowered module (absent when
/// errors stopped the pipeline), the diagnostic stream, and the source
/// file for rendering.
pub struct CompileResult {
    /// The lowered module, when compilation got that far.
    pub module: Option<LoweredModule>,
    /// All diagnostics, in pass order.
    pub report: Report,
    /// The input, wrapped for span rendering.
    pub source: SourceFile,
}

/// Runs the frontend pipeline (lex → parse → resolve → lower) on `src`.
/// `file_name` is only used in rendered diagnostics.
pub fn compile(src: &str, file_name: &str) -> CompileResult {
    let mut report = Report::default();
    let toks = lexer::lex(src, &mut report);
    let ast = parser::parse(&toks, &mut report);
    let module = ast.and_then(|m| {
        resolve::run(&m, &mut report);
        lower::run(&m, src, &mut report)
    });
    CompileResult {
        module,
        report,
        source: SourceFile::new(file_name, src),
    }
}

/// [`compile`] plus the `L001`–`L009` lint suite. Lint roots and strobes
/// come from the `harness` block when present, through the same
/// [`LintContext::with_harness`] as built-in designs; otherwise the netlist
/// is linted stand-alone.
/// Lint findings about a declared signal gain that declaration's span.
pub fn check(src: &str, file_name: &str) -> CompileResult {
    let mut out = compile(src, file_name);
    if let Some(module) = &out.module {
        let cx = LintContext::with_harness(
            &module.netlist,
            module.annotations.as_ref(),
            module.harness.as_ref(),
        );
        let lint_report = lint::run(&cx);
        for mut d in lint_report.diagnostics {
            if d.primary.is_none() {
                if let Some(span) = d.signal.and_then(|s| module.span_of(s)) {
                    d = d.with_primary(span, "declared here");
                }
            }
            out.report.push(d);
        }
    }
    out
}

/// Emits a bare netlist (no metadata blocks) as a `module main`. This is
/// the stable fingerprinting surface `mupath` hashes designs through.
pub fn emit(nl: &Netlist) -> String {
    emit_module(&ModuleText {
        name: "main",
        netlist: nl,
        annotations: None,
        harness: None,
    })
}

#[cfg(test)]
mod tests;
