//! Unified diagnostics: one `Diagnostic` type shared by the textual
//! frontend (`E001`+ codes) and the lint suite (`L001`+ codes).
//!
//! The paper's flow assumes a real RTL frontend (Verific/Yosys) whose
//! error reporting users can act on; this module is the reproduction's
//! equivalent. A [`Diagnostic`] carries a stable machine-readable code, a
//! severity, an optional offending [`SignalId`], and — when the input came
//! from a source file — a primary span plus any number of secondary spans,
//! rendered rustc-style with caret snippets by [`Diagnostic::render_in`].
//! [`Report`] aggregates a pass pipeline's findings in emission order and
//! renders them for humans ([`Report::render_in`]) or machines
//! ([`Report::to_json_lines`], the `--diag-json` format).

use crate::ir::SignalId;
use jsonio::Json;
use std::fmt;

/// Diagnostic severity. `Error` diagnostics make downstream tools refuse
/// to run; `Warning`s are advisory unless promoted via deny knobs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Advisory; promotable to `Error` via deny knobs.
    Warning,
    /// Definite problem; downstream tools would panic or produce vacuous
    /// verdicts.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A half-open byte range `[lo, hi)` into a source file.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub lo: u32,
    /// End byte offset (exclusive).
    pub hi: u32,
}

impl Span {
    /// A span covering `lo..hi` (byte offsets; files are far below 4 GiB).
    pub fn new(lo: usize, hi: usize) -> Self {
        Self {
            lo: lo as u32,
            hi: hi as u32,
        }
    }

    /// The smallest span covering both operands.
    pub fn join(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Byte length (at least 1 for rendering purposes).
    pub fn len(&self) -> usize {
        (self.hi.saturating_sub(self.lo)).max(1) as usize
    }

    /// Whether the span is degenerate (`hi <= lo`).
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// A span plus the message attached to it in the rendered snippet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Label {
    /// Where the label points.
    pub span: Span,
    /// Message printed after the underline (may be empty).
    pub message: String,
}

/// One finding: a frontend error, a lint, or anything downstream wants to
/// surface through the same channel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Severity after any deny promotion.
    pub severity: Severity,
    /// Stable machine-readable code (`E001`..., `L001`..., `W001`...).
    pub code: &'static str,
    /// Name of the pass that produced the finding.
    pub pass: &'static str,
    /// The offending signal, when the finding is signal-specific.
    pub signal: Option<SignalId>,
    /// Human-readable description (names already resolved).
    pub message: String,
    /// The span the finding is *about*, underlined with carets.
    pub primary: Option<Label>,
    /// Related locations (first declaration, conflicting operand, ...),
    /// underlined with dashes.
    pub secondary: Vec<Label>,
    /// Free-form `= note:` lines.
    pub notes: Vec<String>,
}

impl Default for Diagnostic {
    fn default() -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code: "",
            pass: "",
            signal: None,
            message: String::new(),
            primary: None,
            secondary: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Diagnostic {
    /// An error-severity diagnostic with no spans attached yet.
    pub fn error(code: &'static str, pass: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            pass,
            message: message.into(),
            ..Default::default()
        }
    }

    /// A warning-severity diagnostic with no spans attached yet.
    pub fn warning(code: &'static str, pass: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            pass,
            message: message.into(),
            ..Default::default()
        }
    }

    /// Attaches the primary span.
    pub fn with_primary(mut self, span: Span, message: impl Into<String>) -> Self {
        self.primary = Some(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Appends a secondary span.
    pub fn with_secondary(mut self, span: Span, message: impl Into<String>) -> Self {
        self.secondary.push(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Appends a `= note:` line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic as a single report line (the spanless
    /// format the lint suite has always used).
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.pass, self.message
        )
    }

    /// Renders the diagnostic with source snippets: header line, `-->`
    /// location, caret-underlined primary span, dash-underlined secondary
    /// spans, and `= note:` lines. Falls back to [`Diagnostic::render`]
    /// when no primary span is attached.
    pub fn render_in(&self, src: &SourceFile) -> String {
        let Some(primary) = &self.primary else {
            return format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        };
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        let (pline, pcol) = src.line_col(primary.span.lo);
        // Gutter width fits the largest line number we will print.
        let max_line = self
            .secondary
            .iter()
            .map(|l| src.line_col(l.span.lo).0)
            .chain([pline])
            .max()
            .unwrap_or(pline);
        let w = max_line.to_string().len();
        let pad = " ".repeat(w);
        out.push_str(&format!("{pad}--> {}:{pline}:{pcol}\n", src.name));
        out.push_str(&format!("{pad} |\n"));
        src.snippet_rows(&mut out, primary, '^', w);
        for sec in &self.secondary {
            src.snippet_rows(&mut out, sec, '-', w);
        }
        for note in &self.notes {
            out.push_str(&format!("{pad} = note: {note}\n"));
        }
        out
    }

    /// The diagnostic as one machine-readable JSON object. Line/column
    /// fields are included when a primary span and a source file are
    /// available.
    pub fn to_json(&self, src: Option<&SourceFile>) -> Json {
        let mut fields = vec![
            ("severity".into(), Json::str(self.severity.to_string())),
            ("code".into(), Json::str(self.code)),
            ("pass".into(), Json::str(self.pass)),
            ("message".into(), Json::str(self.message.clone())),
        ];
        if let (Some(primary), Some(src)) = (&self.primary, src) {
            let (line, col) = src.line_col(primary.span.lo);
            fields.push(("file".into(), Json::str(src.name.clone())));
            fields.push(("line".into(), Json::Int(line as u64)));
            fields.push(("col".into(), Json::Int(col as u64)));
            if !primary.message.is_empty() {
                fields.push(("label".into(), Json::str(primary.message.clone())));
            }
        }
        if let Some(sig) = self.signal {
            fields.push(("signal".into(), Json::Int(sig.0 as u64)));
        }
        if !self.notes.is_empty() {
            fields.push((
                "notes".into(),
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ));
        }
        Json::Obj(fields)
    }
}

/// A named source file with precomputed line starts, for span-to-line/col
/// translation and snippet rendering.
pub struct SourceFile {
    /// Display name (path as the user gave it).
    pub name: String,
    /// Full text.
    pub text: String,
    line_starts: Vec<u32>,
}

impl SourceFile {
    /// Wraps `text` under display name `name`.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        let text: String = text.into();
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        Self {
            name: name.into(),
            text,
            line_starts,
        }
    }

    /// 1-based `(line, column)` of a byte offset.
    pub fn line_col(&self, offset: u32) -> (usize, usize) {
        let offset = offset.min(self.text.len() as u32);
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, (offset - self.line_starts[line]) as usize + 1)
    }

    /// The text of 1-based line `line`, without its newline.
    pub fn line_text(&self, line: usize) -> &str {
        let lo = self.line_starts[line - 1] as usize;
        let hi = self
            .line_starts
            .get(line)
            .map(|&h| h as usize)
            .unwrap_or(self.text.len());
        self.text[lo..hi].trim_end_matches('\n')
    }

    /// Appends the two gutter rows for one label: the source line and the
    /// underline row. Multi-line spans are clamped to their first line.
    fn snippet_rows(&self, out: &mut String, label: &Label, underline: char, w: usize) {
        let (line, col) = self.line_col(label.span.lo);
        let text = self.line_text(line);
        let avail = text.len().saturating_sub(col - 1).max(1);
        let n = label.span.len().min(avail);
        out.push_str(&format!("{line:>w$} | {text}\n"));
        let mut row = format!(
            "{} | {}{}",
            " ".repeat(w),
            " ".repeat(col - 1),
            underline.to_string().repeat(n)
        );
        if !label.message.is_empty() {
            row.push(' ');
            row.push_str(&label.message);
        }
        row.push('\n');
        out.push_str(&row);
    }
}

/// An ordered collection of diagnostics — the result of a frontend
/// compile, a lint run, or both.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Appends one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every finding of another report.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether the run produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether any finding is a warning.
    pub fn has_warnings(&self) -> bool {
        self.warnings().next().is_some()
    }

    /// Renders the full report plus a summary line (spanless format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&self.summary());
        out
    }

    /// Renders the full report with source snippets, one blank line
    /// between diagnostics, ending with the summary line. This is the
    /// golden-tested `check` output format.
    pub fn render_in(&self, src: &SourceFile) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_in(src));
            out.push('\n');
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// One compact JSON object per line — the `--diag-json` output.
    pub fn to_json_lines(&self, src: Option<&SourceFile>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_json(src).render_compact());
            out.push('\n');
        }
        out
    }

    /// The process exit code shared by every static-analysis entry point
    /// (`lint`, `check`): 0 = clean, 2 = warnings rejected under
    /// `--deny-warnings`, 1 = errors.
    pub fn exit_code(&self, deny_warnings: bool) -> u8 {
        if self.has_errors() {
            1
        } else if deny_warnings && self.has_warnings() {
            2
        } else {
            0
        }
    }

    /// The one-line summary (`N errors, M warnings`).
    pub fn summary(&self) -> String {
        format!(
            "{} errors, {} warnings",
            self.errors().count(),
            self.warnings().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_translation() {
        let src = SourceFile::new("t.nl", "abc\ndef\n\nxyz");
        assert_eq!(src.line_col(0), (1, 1));
        assert_eq!(src.line_col(2), (1, 3));
        assert_eq!(src.line_col(4), (2, 1));
        assert_eq!(src.line_col(8), (3, 1));
        assert_eq!(src.line_col(9), (4, 1));
        assert_eq!(src.line_text(2), "def");
        assert_eq!(src.line_text(4), "xyz");
    }

    #[test]
    fn render_in_draws_carets_under_the_span() {
        let src = SourceFile::new("t.nl", "wire y = add x zz\n");
        let d = Diagnostic::error("E004", "resolve", "unknown signal `zz`")
            .with_primary(Span::new(15, 17), "not declared");
        let text = d.render_in(&src);
        assert!(text.contains("error[E004]: unknown signal `zz`"));
        assert!(text.contains("--> t.nl:1:16"));
        assert!(text.contains("1 | wire y = add x zz"));
        assert!(text.contains("|                ^^ not declared"), "{text}");
    }

    #[test]
    fn secondary_spans_and_notes_render() {
        let src = SourceFile::new("t.nl", "input a : w1\ninput a : w2\n");
        let d = Diagnostic::error("E003", "resolve", "duplicate definition of `a`")
            .with_primary(Span::new(19, 20), "redefined here")
            .with_secondary(Span::new(6, 7), "first defined here")
            .with_note("each signal may be declared once");
        let text = d.render_in(&src);
        assert!(text.contains("^ redefined here"), "{text}");
        assert!(text.contains("- first defined here"), "{text}");
        assert!(text.contains("= note: each signal may be declared once"));
    }

    #[test]
    fn json_lines_are_compact_and_stable() {
        let src = SourceFile::new("t.nl", "wire y = add x zz\n");
        let mut r = Report::default();
        r.push(
            Diagnostic::error("E004", "resolve", "unknown signal `zz`")
                .with_primary(Span::new(15, 17), ""),
        );
        let lines = r.to_json_lines(Some(&src));
        assert_eq!(
            lines,
            "{\"severity\":\"error\",\"code\":\"E004\",\"pass\":\"resolve\",\
             \"message\":\"unknown signal `zz`\",\"file\":\"t.nl\",\"line\":1,\"col\":16}\n"
        );
    }

    #[test]
    fn spanless_diag_falls_back_to_one_line() {
        let src = SourceFile::new("t.nl", "x\n");
        let d = Diagnostic::warning("L003", "undriven", "input `u` is never read");
        assert_eq!(
            d.render_in(&src),
            "warning[L003]: input `u` is never read\n"
        );
        assert_eq!(
            d.render(),
            "warning[L003] undriven: input `u` is never read"
        );
    }
}
