//! Hand-rolled JSON: a writer for emitting metrics/events and a minimal
//! parser for validating and summarizing what was emitted.
//!
//! The build environment has no crates.io access, so there is no serde;
//! this module implements exactly the JSON subset the observability
//! layer needs. The writer always produces valid UTF-8 JSON (string
//! escaping covers quotes, backslashes, all control characters, and
//! leaves other Unicode untouched); the parser accepts standard JSON
//! including `\uXXXX` escapes and surrogate pairs, which makes
//! writer→parser round trips lossless.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` as the *contents* of a JSON string (no surrounding
/// quotes) into `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a complete JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Formats an `f64` as JSON: finite values in shortest-roundtrip form,
/// non-finite values as `null` (JSON has no NaN/Infinity).
pub fn number_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on an integral f64 prints no decimal point; keep it —
        // JSON numbers need none.
        s
    } else {
        "null".to_string()
    }
}

/// Incremental writer for one JSON object: `{"a":1,"b":"x",…}`.
///
/// Fields are emitted in call order. `finish()` yields the closed
/// object; dropping the builder without finishing discards it.
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl Default for ObjWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a signed integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (`null` for non-finite values).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number_f64(v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON (an object,
    /// array, or literal produced elsewhere). The caller guarantees
    /// validity.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns it.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; integers up to 2⁵³ round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. A `BTreeMap` keeps key iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting [`parse`] accepts: it recurses once per level, so a
/// file of `[`s would overflow the stack. Sidecars nest a few levels.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document (trailing whitespace allowed),
/// nested at most 128 levels deep.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let b = input.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// The value at `pos`, inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err("arrays and objects nest more than 128 levels deep"))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            self.skip_ws();
            let v = self.value(depth)?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let e = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte boundaries are valid).
                    let s = &self.b[self.pos..];
                    let ch_len = match s[0] {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk =
                        std::str::from_utf8(&s[..ch_len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            at: start,
            msg: "malformed number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials_and_controls() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\re\tf\u{08}g\u{0C}h\u{01}i");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i");
        // Non-ASCII passes through unescaped.
        assert_eq!(string("héllo→🎈"), "\"héllo→🎈\"");
    }

    #[test]
    fn obj_writer_builds_objects() {
        let o = ObjWriter::new()
            .str("name", "x\"y")
            .u64("n", 42)
            .i64("d", -7)
            .bool("ok", true)
            .f64("r", 0.5)
            .raw("inner", "{\"a\":1}")
            .finish();
        assert_eq!(
            o,
            "{\"name\":\"x\\\"y\",\"n\":42,\"d\":-7,\"ok\":true,\"r\":0.5,\"inner\":{\"a\":1}}"
        );
        let parsed = parse(&o).expect("writer output parses");
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(parsed.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed.get("inner").and_then(|i| i.get("a")),
            Some(&Json::Num(1.0))
        );
    }

    #[test]
    fn empty_object_and_nested_values_parse() {
        assert_eq!(ObjWriter::new().finish(), "{}");
        let v = parse(" { \"a\" : [ 1 , -2.5e1 , true , null , \"s\" ] } ").expect("parses");
        let arr = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[3], Json::Null);
    }

    #[test]
    fn unicode_escapes_and_surrogates_parse() {
        let v = parse("\"\\u0041\\u00e9\\ud83c\\udf88\"").expect("parses");
        assert_eq!(v, Json::Str("Aé🎈".to_string()));
        assert!(parse("\"\\ud800\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\udc00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = parse("{\"a\":}").expect_err("bad value");
        assert_eq!(e.at, 5);
        assert!(parse("[1,2").is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse("\"\u{01}\"").is_err(), "raw control rejected");
        assert!(e.to_string().contains("byte 5"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number_f64(f64::NAN), "null");
        assert_eq!(number_f64(f64::INFINITY), "null");
        assert_eq!(number_f64(1.5), "1.5");
        assert_eq!(number_f64(3.0), "3");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }
}
