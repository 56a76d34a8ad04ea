//! A minimal hand-rolled JSON reader/writer. The container has no serde;
//! this covers the small fixed schemas the repo emits and consumes: the
//! machine-readable benchmark reports (`BENCH_perf.json`, written through
//! the pretty renderer — objects keep insertion order so reports diff
//! cleanly across runs) and the crash-safe synthesis journal (one compact
//! record per line, read back with [`Json::parse`]).

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite floats only; non-finite values render as `null`.
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Convenience constructor for insertion-ordered objects:
    /// `Json::obj([("k", Json::Int(1))])`.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no trailing newline — the journal's
    /// record-per-line format.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    /// Parses one JSON value from `src` (which must contain nothing else
    /// but whitespace around it). Numbers without `.`/`e` that fit a `u64`
    /// parse as [`Json::Int`]; everything else numeric parses as
    /// [`Json::Num`]. Arrays and objects may nest [`MAX_DEPTH`] deep;
    /// deeper input is an error, not a stack overflow.
    pub fn parse(src: &str) -> Result<Json, ParseError> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                pos,
                what: "trailing garbage after value",
            });
        }
        Ok(value)
    }

    /// The object field named `key`, when this is an object that has one.
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, accepting `Int` and integral `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as a float, accepting `Num` and `Int`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The bool value, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => out.push_str(&format!("{n}")),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, depth, '[', ']', items.iter(), |out, depth, v| {
                v.write(out, depth);
            }),
            Json::Obj(fields) => {
                write_seq(out, depth, '{', '}', fields.iter(), |out, depth, (k, v)| {
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth);
                });
            }
        }
    }
}

/// How deep [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, and the daemon parses untrusted lines.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: byte offset plus a static description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError {
            pos: *pos,
            what: "unrecognized literal",
        })
    }
}

/// Parses one value that may still open `depth` nested arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(ParseError {
            pos: *pos,
            what: "unexpected end of input",
        });
    };
    if matches!(b, b'[' | b'{') && depth == 0 {
        return Err(ParseError {
            pos: *pos,
            what: "arrays/objects nested too deep",
        });
    }
    match b {
        b'n' => expect_lit(bytes, pos, "null").map(|()| Json::Null),
        b't' => expect_lit(bytes, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect_lit(bytes, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            pos: *pos,
                            what: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError {
                        pos: *pos,
                        what: "expected ':' after object key",
                    });
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos, depth - 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(ParseError {
                            pos: *pos,
                            what: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(ParseError {
            pos: *pos,
            what: "unexpected character",
        }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            pos: *pos,
            what: "expected '\"'",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(ParseError {
                pos: *pos,
                what: "unterminated string",
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let Some(&esc) = bytes.get(*pos + 1) else {
                    return Err(ParseError {
                        pos: *pos,
                        what: "unterminated escape",
                    });
                };
                *pos += 2;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError {
                                pos: *pos,
                                what: "bad \\u escape",
                            })?;
                        *pos += 4;
                        // Surrogate pairs don't occur in the journal's own
                        // output; map lone surrogates to the replacement
                        // character rather than failing the record.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    _ => {
                        return Err(ParseError {
                            pos: *pos - 1,
                            what: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // Copy one UTF-8 scalar; the input is a &str so the
                // boundaries are valid by construction.
                let s = &bytes[*pos..];
                let step = match s[0] {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                out.push_str(std::str::from_utf8(&s[..step]).map_err(|_| ParseError {
                    pos: *pos,
                    what: "invalid utf-8",
                })?);
                *pos += step;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number text");
    if !is_float {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
        pos: start,
        what: "malformed number",
    })
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut each: impl FnMut(&mut String, usize, T),
) {
    if items.len() == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth + 1));
        each(out, depth + 1, item);
        if i + 1 < n {
            out.push(',');
        }
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// Line-framed JSON protocol helpers: one compact value per `\n`-terminated
/// line, the framing shared by the crash-safe journal and the `serve`
/// daemon's wire protocol. Reading tolerates interleaved blank lines;
/// anything else malformed is a hard error (a line protocol has no way to
/// resynchronise inside a line).
pub mod jsonl {
    use super::{Json, ParseError};
    use std::io::{BufRead, Write};

    /// Writes `value` as one compact line in a single write and flushes —
    /// on a socket this is what makes the event visible to the peer now,
    /// not at buffer pressure. One write matters: a newline sent on its
    /// own would sit in Nagle's buffer until the peer's delayed ACK.
    pub fn write_line(out: &mut impl Write, value: &Json) -> std::io::Result<()> {
        let mut line = value.render_compact();
        line.push('\n');
        out.write_all(line.as_bytes())?;
        out.flush()
    }

    /// Reads the next non-blank line and parses it. `Ok(None)` at EOF.
    /// A line longer than `max_len` bytes is consumed through its newline
    /// without being buffered, and read as a parse error; so is a line
    /// that is not UTF-8.
    pub fn read_line(
        input: &mut impl BufRead,
        max_len: usize,
    ) -> std::io::Result<Option<Result<Json, ParseError>>> {
        loop {
            let mut line = Vec::new();
            let mut too_long = false;
            let mut at_eof = true;
            loop {
                let buf = match input.fill_buf() {
                    Ok(buf) => buf,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if buf.is_empty() {
                    break;
                }
                at_eof = false;
                let (chunk, ends) = match buf.iter().position(|&b| b == b'\n') {
                    Some(i) => (&buf[..i], true),
                    None => (buf, false),
                };
                too_long |= line.len() + chunk.len() > max_len;
                if !too_long {
                    line.extend_from_slice(chunk);
                }
                let used = chunk.len() + usize::from(ends);
                input.consume(used);
                if ends {
                    break;
                }
            }
            if at_eof {
                return Ok(None);
            }
            if too_long {
                return Ok(Some(Err(ParseError {
                    pos: max_len,
                    what: "line longer than the length cap",
                })));
            }
            let Ok(text) = std::str::from_utf8(&line) else {
                return Ok(Some(Err(ParseError {
                    pos: 0,
                    what: "line is not utf-8",
                })));
            };
            if !text.trim().is_empty() {
                return Ok(Some(Json::parse(text.trim())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn scalars_render_flat() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(42).render(), "42\n");
        assert_eq!(Json::Num(1.5).render(), "1.5\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn containers_indent_and_keep_order() {
        let v = Json::Obj(vec![
            ("z".into(), Json::Int(1)),
            ("a".into(), Json::Arr(vec![Json::Int(2), Json::Int(3)])),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"z\": 1,\n  \"a\": [\n    2,\n    3\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn compact_render_round_trips_through_parse() {
        let v = Json::Obj(vec![
            ("kind".into(), Json::str("verdict")),
            ("ix".into(), Json::Int(7)),
            ("ok".into(), Json::Bool(true)),
            ("t".into(), Json::Num(1.25)),
            ("none".into(), Json::Null),
            (
                "tags".into(),
                Json::Arr(vec![Json::str("a\"b\\c\nd"), Json::Int(0)]),
            ),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn parse_accepts_pretty_output_too() {
        let v = Json::Obj(vec![
            ("z".into(), Json::Int(1)),
            ("a".into(), Json::Arr(vec![Json::Int(2), Json::Int(3)])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_torn_records() {
        for torn in [
            "{\"kind\":\"verdict\",\"ix\":",
            "{\"kind\":\"verd",
            "{\"kind\":\"verdict\"} extra",
            "",
        ] {
            assert!(Json::parse(torn).is_err(), "accepted torn record {torn:?}");
        }
    }

    #[test]
    fn jsonl_round_trips_values_and_skips_blanks() {
        use super::jsonl;
        let a = Json::obj([("op", Json::str("check")), ("ix", Json::Int(3))]);
        let b = Json::Arr(vec![Json::Bool(true), Json::Null]);
        let mut wire = Vec::new();
        jsonl::write_line(&mut wire, &a).unwrap();
        wire.extend_from_slice(b"\n   \n"); // blank keep-alives
        jsonl::write_line(&mut wire, &b).unwrap();
        let mut rd = std::io::BufReader::new(wire.as_slice());
        assert_eq!(jsonl::read_line(&mut rd, 64).unwrap().unwrap().unwrap(), a);
        assert_eq!(jsonl::read_line(&mut rd, 64).unwrap().unwrap().unwrap(), b);
        assert!(
            jsonl::read_line(&mut rd, 64).unwrap().is_none(),
            "EOF is None"
        );
        let mut torn = std::io::BufReader::new(&b"{\"k\":"[..]);
        assert!(
            jsonl::read_line(&mut torn, 64).unwrap().unwrap().is_err(),
            "torn line must surface as a parse error, not EOF"
        );
    }

    #[test]
    fn jsonl_lines_go_out_in_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl std::io::Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        super::jsonl::write_line(&mut w, &Json::obj([("ev", Json::str("done"))])).unwrap();
        assert_eq!(w.0, vec![b"{\"ev\":\"done\"}\n".to_vec()]);
    }

    #[test]
    fn jsonl_skips_over_long_and_non_utf8_lines() {
        use super::jsonl;
        let mut wire = format!("[{}]\n", "1,".repeat(40) + "1").into_bytes();
        wire.extend_from_slice(b"\"\xff\"\n{\"ok\":true}\n");
        let mut rd = std::io::BufReader::with_capacity(8, wire.as_slice());
        let err = jsonl::read_line(&mut rd, 64).unwrap().unwrap().unwrap_err();
        assert_eq!(err.what, "line longer than the length cap");
        let err = jsonl::read_line(&mut rd, 64).unwrap().unwrap().unwrap_err();
        assert_eq!(err.what, "line is not utf-8");
        assert_eq!(
            jsonl::read_line(&mut rd, 64).unwrap().unwrap().unwrap(),
            Json::obj([("ok", Json::Bool(true))]),
            "the reader resynchronises on the next line"
        );
        let exact = "1".repeat(64) + "\n";
        let mut rd = std::io::BufReader::new(exact.as_bytes());
        assert!(
            jsonl::read_line(&mut rd, 64).unwrap().unwrap().is_ok(),
            "a line of exactly the cap is accepted"
        );
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(super::MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(super::MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.pos, err.what),
            (super::MAX_DEPTH, "arrays/objects nested too deep")
        );
        let objects =
            "{\"a\":".repeat(super::MAX_DEPTH + 1) + "1" + &"}".repeat(super::MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(Json::parse(&nested(1 << 20)).is_err());
    }

    #[test]
    fn accessor_helpers_coerce_expected_shapes() {
        assert_eq!(Json::Int(4).as_f64(), Some(4.0));
        assert_eq!(Json::Num(0.5).as_f64(), Some(0.5));
        assert_eq!(Json::str("x").as_f64(), None);
        let o = Json::obj([("a", Json::Int(1))]);
        assert_eq!(o.field("a").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn parse_handles_negative_and_float_numbers() {
        assert_eq!(Json::parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::Num(250.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::Int(u64::MAX)
        );
        assert!(Json::parse("\\u0041").is_err());
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::str("A"));
    }
}
