//! A minimal JSON value, writer, and parser.
//!
//! The workspace is offline (vendored-only policy), so instead of serde
//! this module provides the small JSON subset the observability layer
//! needs: a tree value whose object keys keep **insertion order** (so
//! serialized output is stable across runs), a writer producing
//! deterministic text, and a recursive-descent parser for round-trip
//! validation of traces and manifests.
//!
//! Numbers are kept in three exact lanes — `i64`, `u64`, and `f64` — so
//! counters round-trip bit-exactly and floats use Rust's shortest
//! round-trip `Display` form.

use std::fmt;

/// The deepest array/object nesting [`parse`] accepts: the parser
/// recurses once per level, so deeper input is refused, not allowed to
/// exhaust the stack. Traces and manifests nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (anything in `i64` range parses here).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    Uint(u64),
    /// A float (any literal with a `.`, `e`, or `E`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Int(i) if *i >= 0 => Some(*i as u64),
            Self::Uint(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as `f64` if it is any numeric lane.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Int(i) => Some(*i as f64),
            Self::Uint(u) => Some(*u as f64),
            Self::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to compact JSON text (no whitespace), deterministically:
    /// object keys come out in insertion order.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Serialize to 2-space-indented JSON text (for committed
    /// artifacts), trailing newline included.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, &mut out, 0);
        out.push('\n');
        out
    }
}

fn write_pretty(v: &Json, out: &mut String, depth: usize) {
    let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, depth + 1);
                write_pretty(item, out, depth + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(out, depth);
            out.push(']');
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                pad(out, depth + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(item, out, depth + 1);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(out, depth);
            out.push('}');
        }
        _ => write_value(v, out),
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Self::Int(i64::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Self::Uint(v), Self::Int)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Self::from(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Self::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Self::Float(v)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Self::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Self::Null, Into::into)
    }
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Uint(u) => out.push_str(&u.to_string()),
        Json::Float(f) => write_float(*f, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Floats print in Rust's shortest round-trip form, forced to carry a
/// `.` or exponent so the parser puts them back in the float lane.
/// Non-finite values have no JSON representation and become `null`.
fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing non-whitespace and nesting deeper
/// than [`MAX_DEPTH`] are errors.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|b| std::str::from_utf8(b).ok())
                                .and_then(|s| u32::from_str_radix(s, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output; lone surrogates degrade to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if is_float {
            text.parse::<f64>().map(Json::Float).map_err(|e| self.err(e.to_string()))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else {
            text.parse::<u64>().map(Json::Uint).map_err(|e| self.err(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "42", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.5, 1e-9, std::f64::consts::PI, -2.75, 86.4e9] {
            let v = Json::Float(f);
            let back = parse(&v.to_string_compact()).unwrap();
            assert_eq!(back, v, "float {f} did not round-trip");
        }
        // Whole-valued floats keep their lane through a round trip.
        assert_eq!(parse(&Json::Float(2.0).to_string_compact()).unwrap(), Json::Float(2.0));
    }

    #[test]
    fn big_u64_counters_round_trip() {
        let v = Json::from(u64::MAX);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), Json::Uint(u64::MAX));
        let v = Json::from(123u64);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), Json::Int(123));
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let v = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(v.to_string_compact(), "{\"z\":1,\"a\":2}");
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("list", Json::Arr(vec![Json::Null, Json::Bool(true), Json::from("x\n\"y\"")])),
            ("obj", Json::obj([("k", Json::from(-1i64))])),
        ]);
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "tab\t newline\n quote\" backslash\\ control\u{1} unicode\u{e9}";
        let v = Json::from(s);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn whitespace_and_errors() {
        assert_eq!(parse(" { \"a\" : [ 1 , 2 ] } ").unwrap().to_string_compact(), "{\"a\":[1,2]}");
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("42 junk").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        // Far deeper input fails the same way instead of overflowing the
        // stack, objects included.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\":3,\"f\":1.5,\"s\":\"x\",\"b\":true,\"a\":[1]}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn pretty_printing_round_trips() {
        let v = parse("{\"a\":[1,2,{\"b\":null}],\"c\":{},\"d\":[]}").unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.ends_with('\n'));
        assert!(pretty.contains("  \"a\": ["));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string_compact(), "null");
    }
}
