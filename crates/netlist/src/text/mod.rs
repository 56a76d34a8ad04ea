//! Textual netlist frontend: a multi-pass compiler for the `.nl` netlist
//! language, plus the canonical emitter that inverts it.
//!
//! The pipeline is the classic shape — every pass appends to one shared
//! [`Report`] so a single run surfaces everything it
//! can:
//!
//! 1. [`lexer`] — tokens with byte spans (`E001`),
//! 2. [`parser`] — span-carrying surface AST (`E002`),
//! 3. [`resolve`] — duplicate/undefined/use-before-declare names
//!    (`E003`–`E005`, `E011`, `E012`, `W002`),
//! 4. [`typeck`] — width/type inference and checking (`E006`–`E013`),
//! 5. [`lower`] — AST → [`Netlist`] IR, only when error-free (`W001`,
//!    `E014`),
//!
//! and [`emit`](mod@emit) renders IR (plus optional annotation/harness metadata)
//! back to canonical text. `emit → compile → emit` is byte-identical; the
//! sixth differential-fuzz oracle and `tests/frontend_roundtrip.rs` hold
//! the toolchain to that.
//!
//! [`check`] additionally runs the `L001`–`L009` lint suite on the
//! lowered module, so `.nl` files get the same static analysis as
//! built-in designs.

pub mod ast;
pub mod emit;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod resolve;
pub mod typeck;

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

/// Runs the frontend pipeline (lex → parse → resolve → typeck → lower)
/// on `src`. `file_name` is only used in rendered diagnostics.
pub fn compile(src: &str, file_name: &str) -> CompileResult {
    let mut report = Report::default();
    let toks = lexer::lex(src, &mut report);
    let ast = parser::parse(&toks, &mut report);
    let mut module = None;
    if let Some(m) = &ast {
        resolve::run(m, &mut report);
        typeck::run(m, &mut report);
        if !report.has_errors() {
            module = lower::run(m, &mut report);
        }
    }
    CompileResult {
        module,
        report,
        source: SourceFile::new(file_name, src),
    }
}

/// [`compile`] plus the `L001`–`L009` lint suite. Lint roots and strobes
/// come from the `harness` block when present (mirroring how built-in
/// designs are linted); otherwise the netlist is linted stand-alone.
/// Lint findings about a declared signal gain that declaration's span.
pub fn check(src: &str, file_name: &str) -> CompileResult {
    let mut out = compile(src, file_name);
    if let Some(module) = &out.module {
        let cx = match (&module.harness, &module.annotations) {
            (Some(h), ann) => {
                let mut roots = vec![
                    h.fetch_instr_input,
                    h.fetch_valid_input,
                    h.fetch_fire,
                    h.issue_fire,
                    h.issue_pc,
                    h.issue_valid,
                    h.pc,
                ];
                if let Some((rs1, rs2)) = h.rs_fields {
                    roots.extend([rs1, rs2]);
                }
                roots.extend(h.outputs.iter().copied());
                LintContext {
                    netlist: &module.netlist,
                    annotations: ann.as_ref(),
                    roots,
                    strobes: vec![
                        ("fetch_fire".to_owned(), h.fetch_fire),
                        ("issue_fire".to_owned(), h.issue_fire),
                    ],
                }
            }
            (None, ann) => LintContext {
                annotations: ann.as_ref(),
                ..LintContext::netlist_only(&module.netlist)
            },
        };
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

/// A parse failure in the legacy line-oriented API: the first error of
/// the diagnostic stream, reduced to a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the first error.
    pub line: usize,
    /// Its message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

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

/// Parses a netlist from text, discarding metadata blocks and warnings.
///
/// # Errors
/// Returns the first error diagnostic, reduced to [`ParseError`].
pub fn parse(src: &str) -> Result<Netlist, ParseError> {
    let result = compile(src, "<input>");
    match result.module {
        Some(module) if !result.report.has_errors() => Ok(module.netlist),
        _ => {
            let first = result
                .report
                .errors()
                .next()
                .expect("no module implies at least one error");
            let line = first
                .primary
                .as_ref()
                .map(|l| result.source.line_col(l.span.lo).0)
                .unwrap_or(0);
            Err(ParseError {
                line,
                message: first.message.clone(),
            })
        }
    }
}

#[cfg(test)]
mod tests;
