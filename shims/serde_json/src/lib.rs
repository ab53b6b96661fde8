//! Offline stand-in for `serde_json`.
//!
//! Renders the [`serde`] shim's [`Value`] tree as JSON text, and parses
//! JSON text back into a [`Value`] tree ([`from_str`]) — enough for tools
//! that re-read the run reports the workspace emits. Strings are escaped
//! per RFC 8259; non-finite floats render as `null` (matching upstream's
//! behaviour for `Value::from(f64::NAN)`).
//!
//! Rendering a [`Value`] borrows it (through `Serialize::as_value`); any
//! other type is lowered with `to_value` first. The renderer writes
//! integers from a stack buffer, slices indentation from a constant run of
//! spaces and copies unescaped runs of a string in one piece. Floats keep
//! their `Display` text.

pub use serde::Value;

use std::fmt::Write as _;

/// Serialization or parse error. Rendering is infallible; parsing reports
/// the byte offset where the input stopped being JSON.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(render_root(value, None))
}

/// Serializes `value` as pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(render_root(value, Some(2)))
}

/// Renders a borrowed tree when `value` is one, and lowers it through
/// `to_value` otherwise.
fn render_root<T: serde::Serialize + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut out = String::new();
    match value.as_value() {
        Some(v) => render(v, indent, 0, &mut out),
        None => render(&value.to_value(), indent, 0, &mut out),
    }
    out
}

fn render(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => push_int(*n, false, out),
        Value::I64(n) => push_int(n.unsigned_abs(), *n < 0, out),
        Value::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                escape_into(k, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

/// Writes a decimal integer from a stack buffer (`u64::MAX` has 20
/// digits), with a leading `-` when `negative`.
fn push_int(mut n: u64, negative: bool, out: &mut String) {
    let mut buf = [0u8; 21];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        i -= 1;
        buf[i] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("digits are ascii"));
}

/// The run of spaces indentation is sliced from; deeper levels copy it
/// more than once.
const SPACES: &str = "                                                                ";

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        let mut n = depth * width;
        while n > 0 {
            let run = n.min(SPACES.len());
            out.push_str(&SPACES[..run]);
            n -= run;
        }
    }
}

/// Parses JSON text into a [`Value`] tree.
///
/// Numbers parse as `U64` when non-negative integral, `I64` when negative
/// integral, `F64` otherwise (including `-0`). Integral floats render like
/// integers (`F64(3.0)` as `3`) and so read back as `U64`/`I64`: what
/// round-trips is the text, which renders again byte for byte. Object
/// keys are owned. Duplicate object keys are kept in document order
/// (last-reader-wins is left to the caller, like upstream's
/// `preserve_order` mode).
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.pos += 1; // {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            fields.push((key.into(), self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by \uDC00..DFFF.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.eat("\\u")
                                    .map_err(|_| self.err("unpaired surrogate"))?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let n = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(n)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            match text.parse::<i64>() {
                // `-0` is the text `F64(-0.0)` renders; `I64(0)` would
                // render it back as `0`.
                Ok(0) => return Ok(Value::F64(-0.0)),
                Ok(n) => return Ok(Value::I64(n)),
                Err(_) => {}
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

/// The escape for byte `b` inside a JSON string, or `None` when it is
/// copied as is. Only ASCII bytes are escaped, so runs between escapes
/// always split `str`s on character boundaries.
fn escape_of(b: u8) -> Option<&'static str> {
    const CONTROL: [&str; 32] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
        "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..=0x1F => Some(CONTROL[usize::from(b)]),
        _ => None,
    }
}

/// Writes `s` as a quoted JSON string, copying each run of bytes that
/// needs no escape in one piece.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if let Some(esc) = escape_of(b) {
            out.push_str(&s[run..i]);
            out.push_str(esc);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_agree_on_structure() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a\"b".into())),
            ("xs".into(), Value::Array(vec![Value::U64(1), Value::Null])),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"name":"a\"b","xs":[1,null]}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"name\": \"a\\\"b\""));
        assert!(pretty.ends_with('}'));
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    #[test]
    fn parser_round_trips_rendered_documents() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a\"b\n\u{1}".into())),
            (
                "xs".into(),
                Value::Array(vec![
                    Value::U64(1),
                    Value::I64(-2),
                    Value::F64(2.5),
                    Value::Null,
                    Value::Bool(true),
                ]),
            ),
            ("empty".into(), Value::Object(vec![])),
        ]);
        assert_eq!(from_str(&to_string(&v).unwrap()).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn parser_handles_escapes_and_surrogates() {
        assert_eq!(
            from_str(r#""aA😀\/""#).unwrap(),
            Value::Str("aA\u{1F600}/".into())
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\":}", "01x", "nul", "1 2"] {
            assert!(from_str(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn numbers_partition_like_rendering() {
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
        assert_eq!(from_str("-5").unwrap(), Value::I64(-5));
        assert_eq!(from_str("1e3").unwrap(), Value::F64(1000.0));
    }

    #[test]
    fn integers_at_their_limits() {
        assert_eq!(
            to_string(&Value::I64(i64::MIN)).unwrap(),
            "-9223372036854775808"
        );
        assert_eq!(
            to_string(&Value::I64(i64::MAX)).unwrap(),
            "9223372036854775807"
        );
        assert_eq!(
            to_string(&Value::U64(u64::MAX)).unwrap(),
            "18446744073709551615"
        );
        assert_eq!(to_string(&Value::U64(0)).unwrap(), "0");
        assert_eq!(to_string(&Value::I64(0)).unwrap(), "0");
        assert_eq!(to_string(&Value::I64(-7)).unwrap(), "-7");
        assert_eq!(
            from_str("-9223372036854775808").unwrap(),
            Value::I64(i64::MIN)
        );
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(to_string("a\nb\u{1}").unwrap(), "\"a\\nb\\u0001\"");
        for b in 0u8..0x20 {
            let want = match b {
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                _ => format!("\\u{b:04x}"),
            };
            let s = format!("a{}b", char::from(b));
            assert_eq!(
                to_string(s.as_str()).unwrap(),
                format!("\"a{want}b\""),
                "byte {b:#04x}"
            );
            assert_eq!(
                from_str(&to_string(s.as_str()).unwrap()).unwrap(),
                Value::Str(s)
            );
        }
        assert_eq!(to_string("\"").unwrap(), r#""\"""#);
        assert_eq!(to_string("\\").unwrap(), r#""\\""#);
        assert_eq!(to_string("\"\\\"").unwrap(), r#""\"\\\"""#);
    }

    #[test]
    fn multibyte_utf8_next_to_escapes() {
        let s = "\u{e9}\"\u{1F600}\n\u{4E2D}\\\u{7FF}\u{1}\u{800}";
        let text = to_string(s).unwrap();
        assert_eq!(
            text,
            "\"\u{e9}\\\"\u{1F600}\\n\u{4E2D}\\\\\u{7FF}\\u0001\u{800}\""
        );
        assert_eq!(from_str(&text).unwrap(), Value::Str(s.into()));
        // Escaped keys go through the same path.
        let v = Value::Object(vec![(s.to_string().into(), Value::Null)]);
        assert_eq!(to_string(&v).unwrap(), format!("{{{text}:null}}"));
    }

    #[test]
    fn nesting_deeper_than_the_indent_run() {
        let depth = SPACES.len(); // 2 * depth spaces at the innermost line
        let mut v = Value::U64(1);
        for _ in 0..depth {
            v = Value::Array(vec![v]);
        }
        let text = to_string_pretty(&v).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 * depth + 1);
        for (i, line) in lines.iter().enumerate() {
            let level = i.min(2 * depth - i);
            let want = if i == depth {
                "1"
            } else if i < depth {
                "["
            } else {
                "]"
            };
            assert_eq!(
                *line,
                format!("{}{want}", " ".repeat(2 * level)),
                "line {i}"
            );
        }
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn empty_arrays_and_objects() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![])),
            ("o".into(), Value::Object(vec![])),
            (
                "nested".into(),
                Value::Array(vec![Value::Object(vec![]), Value::Array(vec![])]),
            ),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":[],"o":{},"nested":[{},[]]}"#
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [],\n  \"o\": {},\n  \"nested\": [\n    {},\n    []\n  ]\n}"
        );
        assert_eq!(to_string(&Value::Array(vec![])).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Value::Object(vec![])).unwrap(), "{}");
    }

    #[test]
    fn values_render_the_same_borrowed_or_lowered() {
        struct Wrapped(Value);
        impl serde::Serialize for Wrapped {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let v = Value::Object(vec![("k".into(), Value::Array(vec![Value::I64(-1)]))]);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            to_string_pretty(&Wrapped(v.clone())).unwrap()
        );
        assert_eq!(to_string(&&v).unwrap(), to_string(&Wrapped(v)).unwrap());
    }

    #[test]
    fn negative_zero_reads_back_as_a_float() {
        let z = from_str("-0").unwrap();
        assert!(
            matches!(z, Value::F64(x) if x == 0.0 && x.is_sign_negative()),
            "{z:?}"
        );
        assert_eq!(to_string(&z).unwrap(), "-0");
        assert_eq!(to_string(&Value::F64(-0.0)).unwrap(), "-0");
        assert_eq!(from_str("0").unwrap(), Value::U64(0));
        // Integral floats render like integers and read back as integers.
        assert_eq!(
            from_str(&to_string(&Value::F64(3.0)).unwrap()).unwrap(),
            Value::U64(3)
        );
        assert_eq!(
            from_str(&to_string(&Value::F64(-3.0)).unwrap()).unwrap(),
            Value::I64(-3)
        );
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        /// Characters worth escaping or splitting on: controls, the two
        /// escaped printables, ASCII and 2-, 3- and 4-byte UTF-8.
        const CHARS: [char; 12] = [
            '\u{0}',
            '\u{1f}',
            '\n',
            '\t',
            '"',
            '\\',
            'a',
            ' ',
            '\u{e9}',
            '\u{4e2d}',
            '\u{1F600}',
            '/',
        ];

        fn arb_string(rng: &mut TestRng) -> String {
            (0..rng.below(6))
                .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
                .collect()
        }

        fn arb_f64(rng: &mut TestRng) -> f64 {
            match rng.below(6) {
                0 => -0.0,
                1 => f64::NAN,
                2 => (rng.below(2000) as f64) - 1000.0,
                3 => f64::from_bits(rng.next_u64()),
                _ => (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 1e6,
            }
        }

        fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
            let leaf = depth == 0 || rng.below(3) == 0;
            match rng.below(if leaf { 6 } else { 8 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::U64(rng.next_u64() >> rng.below(64)),
                3 => Value::I64((rng.next_u64() >> rng.below(64)) as i64),
                4 => Value::F64(arb_f64(rng)),
                5 => Value::Str(arb_string(rng)),
                6 => Value::Array(
                    (0..rng.below(4))
                        .map(|_| arb_value(rng, depth - 1))
                        .collect(),
                ),
                _ => Value::Object(
                    (0..rng.below(4))
                        .map(|i| {
                            let key = if i % 2 == 0 {
                                serde::Key::Borrowed("field")
                            } else {
                                serde::Key::Owned(arb_string(rng))
                            };
                            (key, arb_value(rng, depth - 1))
                        })
                        .collect(),
                ),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn rendered_text_survives_a_parse(
                v in proptest::FnStrategy(|rng: &mut TestRng| arb_value(rng, 5)),
            ) {
                let renderers: [fn(&Value) -> Result<String>; 2] = [to_string_pretty, to_string];
                for render in renderers {
                    let text = render(&v).unwrap();
                    let parsed = from_str(&text).map_err(|e| format!("{e}: {text}"))?;
                    prop_assert_eq!(render(&parsed).unwrap(), text);
                }
            }
        }
    }
}
