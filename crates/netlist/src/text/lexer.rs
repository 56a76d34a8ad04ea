//! Lexer for the netlist language.
//!
//! Produces a flat token stream with byte spans. Lexical errors (stray
//! characters, malformed integers) are reported as `E001` diagnostics and
//! the offending character is skipped, so the parser always receives a
//! well-formed stream terminated by [`TokKind::Eof`].

use crate::diag::{Diagnostic, Report, Span};

/// The kind of a lexed token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier. Includes a folded `[N]` suffix when present, so memory
    /// word names such as `dmem[3]` are single tokens.
    Ident(String),
    /// Unsigned integer literal (decimal or `0x` hex).
    Int(u64),
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `<-`
    Arrow,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// End of a source line (consecutive blank lines are collapsed).
    Newline,
    /// End of input.
    Eof,
}

impl TokKind {
    /// Human-readable description used in `expected X, found Y` messages.
    pub fn describe(&self) -> String {
        match self {
            TokKind::Ident(s) => format!("`{s}`"),
            TokKind::Int(n) => format!("integer `{n}`"),
            TokKind::Colon => "`:`".into(),
            TokKind::Eq => "`=`".into(),
            TokKind::Arrow => "`<-`".into(),
            TokKind::LBrace => "`{`".into(),
            TokKind::RBrace => "`}`".into(),
            TokKind::LParen => "`(`".into(),
            TokKind::RParen => "`)`".into(),
            TokKind::Comma => "`,`".into(),
            TokKind::Newline => "end of line".into(),
            TokKind::Eof => "end of file".into(),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Debug)]
pub struct Token {
    /// What was lexed.
    pub kind: TokKind,
    /// Where it sits in the source.
    pub span: Span,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-'
}

/// Lexes `src` into tokens, appending `E001` diagnostics to `report` for
/// anything unrecognisable. Always returns an `Eof`-terminated stream.
pub fn lex(src: &str, report: &mut Report) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks: Vec<Token> = Vec::new();
    let mut i = 0usize;
    let push = |toks: &mut Vec<Token>, kind: TokKind, lo: usize, hi: usize| {
        toks.push(Token {
            kind,
            span: Span::new(lo, hi),
        });
    };
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' => i += 1,
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'\n' => {
                if !matches!(toks.last().map(|t| &t.kind), Some(TokKind::Newline) | None) {
                    push(&mut toks, TokKind::Newline, i, i + 1);
                }
                i += 1;
            }
            b':' | b'=' | b'{' | b'}' | b'(' | b')' | b',' => {
                let kind = match c {
                    b':' => TokKind::Colon,
                    b'=' => TokKind::Eq,
                    b'{' => TokKind::LBrace,
                    b'}' => TokKind::RBrace,
                    b'(' => TokKind::LParen,
                    b')' => TokKind::RParen,
                    _ => TokKind::Comma,
                };
                push(&mut toks, kind, i, i + 1);
                i += 1;
            }
            b'<' => {
                if i + 1 < b.len() && b[i + 1] == b'-' {
                    push(&mut toks, TokKind::Arrow, i, i + 2);
                    i += 2;
                } else {
                    report.push(
                        Diagnostic::error("E001", "lex", "stray `<`; did you mean `<-`?")
                            .with_primary(Span::new(i, i + 1), "unexpected character"),
                    );
                    i += 1;
                }
            }
            _ if c.is_ascii_digit() => {
                let lo = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let text = &src[lo..i];
                let parsed = if let Some(hex) =
                    text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"))
                {
                    u64::from_str_radix(hex, 16)
                } else {
                    text.parse::<u64>()
                };
                match parsed {
                    Ok(n) => push(&mut toks, TokKind::Int(n), lo, i),
                    Err(_) => {
                        report.push(
                            Diagnostic::error(
                                "E001",
                                "lex",
                                format!("malformed integer literal `{text}`"),
                            )
                            .with_primary(Span::new(lo, i), "not a valid integer")
                            .with_note("literals are decimal or `0x` hex and must fit in 64 bits"),
                        );
                        push(&mut toks, TokKind::Int(0), lo, i);
                    }
                }
            }
            _ if is_ident_start(c) => {
                let lo = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                // Fold a `[digits]` suffix into the identifier so memory
                // words (`dmem[3]`) lex as one name token.
                if i < b.len() && b[i] == b'[' {
                    let mut j = i + 1;
                    while j < b.len() && b[j].is_ascii_digit() {
                        j += 1;
                    }
                    if j > i + 1 && j < b.len() && b[j] == b']' {
                        i = j + 1;
                    }
                }
                push(&mut toks, TokKind::Ident(src[lo..i].to_string()), lo, i);
            }
            _ => {
                let ch = src[i..].chars().next().unwrap_or('?');
                report.push(
                    Diagnostic::error("E001", "lex", format!("unexpected character `{ch}`"))
                        .with_primary(Span::new(i, i + ch.len_utf8()), "not part of the language"),
                );
                i += ch.len_utf8();
            }
        }
    }
    // Terminate the final line so the parser can uniformly expect
    // statement boundaries.
    if !matches!(toks.last().map(|t| &t.kind), Some(TokKind::Newline) | None) {
        push(&mut toks, TokKind::Newline, b.len(), b.len());
    }
    push(&mut toks, TokKind::Eof, b.len(), b.len());
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> (Vec<TokKind>, Report) {
        let mut r = Report::default();
        let toks = lex(src, &mut r);
        (toks.into_iter().map(|t| t.kind).collect(), r)
    }

    #[test]
    fn lexes_declaration_line() {
        let (k, r) = kinds("wire s : w8 = add a b\n");
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(
            k,
            vec![
                TokKind::Ident("wire".into()),
                TokKind::Ident("s".into()),
                TokKind::Colon,
                TokKind::Ident("w8".into()),
                TokKind::Eq,
                TokKind::Ident("add".into()),
                TokKind::Ident("a".into()),
                TokKind::Ident("b".into()),
                TokKind::Newline,
                TokKind::Eof,
            ]
        );
    }

    #[test]
    fn folds_bracket_suffix_and_dashes() {
        let (k, r) = kinds("dmem[12] minicva6-mul");
        assert!(r.is_clean());
        assert_eq!(k[0], TokKind::Ident("dmem[12]".into()));
        assert_eq!(k[1], TokKind::Ident("minicva6-mul".into()));
    }

    #[test]
    fn hex_and_comments_and_blank_lines() {
        let (k, r) = kinds("# header\n\n\nnext pc <- a # trailing\n0x1f");
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(
            k,
            vec![
                TokKind::Ident("next".into()),
                TokKind::Ident("pc".into()),
                TokKind::Arrow,
                TokKind::Ident("a".into()),
                TokKind::Newline,
                TokKind::Int(0x1f),
                TokKind::Newline,
                TokKind::Eof,
            ]
        );
    }

    #[test]
    fn reports_stray_character_with_span() {
        let (_, r) = kinds("wire s = add a @ b\n");
        assert_eq!(r.errors().count(), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "E001");
        assert_eq!(d.primary.as_ref().unwrap().span, Span::new(15, 16));
    }

    #[test]
    fn reports_overflowing_literal() {
        let (k, r) = kinds("const c : w64 = 0xffffffffffffffff1\n");
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.diagnostics[0].code, "E001");
        // Placeholder value keeps the stream parseable.
        assert!(k.contains(&TokKind::Int(0)));
    }
}
