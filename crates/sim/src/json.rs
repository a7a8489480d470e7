//! A small, dependency-free JSON representation, parser and printer.
//!
//! The simulator must build with no network access, so it cannot rely on
//! `serde_json` for its machine-readable interfaces (`ssdsim --json`,
//! `--config`, `ssdsimd --json`, trace files). This module provides the
//! subset of JSON the repository needs: a tree value type, a strict
//! recursive-descent parser, and compact/pretty printers.
//!
//! Integers are kept exact: numeric literals without a fraction or
//! exponent parse into [`JsonValue::U64`]/[`JsonValue::I64`] so 64-bit
//! counters and seeds survive a round trip that an `f64`-only model would
//! corrupt above 2^53.
//!
//! # Example
//!
//! ```
//! use jitgc_sim::json::JsonValue;
//!
//! let v = JsonValue::parse(r#"{"iops": 1200.5, "ops": 18446744073709551615}"#).unwrap();
//! assert_eq!(v.get("ops").unwrap().as_u64(), Some(u64::MAX));
//! assert_eq!(v.get("iops").unwrap().as_f64(), Some(1200.5));
//! ```

use std::fmt;

/// A parsed JSON document (or a document being built for printing).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// A fractional or exponent-form number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved when printing.
    Object(Vec<(String, JsonValue)>),
}

/// A parse or extraction failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed construct.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object key.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the key when it is absent.
    pub fn req(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// Reads a required non-negative integer key.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the key when it is absent or not a
    /// non-negative integer.
    pub fn req_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| JsonError::new(format!("`{key}` must be an integer")))
    }

    /// Reads a required number key; integer literals convert.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the key when it is absent or not a
    /// number.
    pub fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.req(key)?
            .as_f64()
            .ok_or_else(|| JsonError::new(format!("`{key}` must be a number")))
    }

    /// Reads a required bool key.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the key when it is absent or not a
    /// bool.
    pub fn req_bool(&self, key: &str) -> Result<bool, JsonError> {
        self.req(key)?
            .as_bool()
            .ok_or_else(|| JsonError::new(format!("`{key}` must be a bool")))
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a float; integer literals convert.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::F64(v) => Some(v),
            JsonValue::U64(v) => Some(v as f64),
            JsonValue::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Compact single-line rendering.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::U64(v) => {
                out.push_str(&v.to_string());
            }
            JsonValue::I64(v) => {
                out.push_str(&v.to_string());
            }
            JsonValue::F64(v) => render_f64(out, *v),
            JsonValue::String(s) => render_string(out, s),
            JsonValue::Array(items) => {
                render_seq(out, indent, depth, items.len(), '[', ']', |out, i, d| {
                    items[i].render(out, indent, d);
                });
            }
            JsonValue::Object(fields) => {
                render_seq(out, indent, depth, fields.len(), '{', '}', |out, i, d| {
                    let (key, value) = &fields[i];
                    render_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent, d);
                });
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::U64(u64::from(v))
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        if v >= 0 {
            JsonValue::U64(v as u64)
        } else {
            JsonValue::I64(v)
        }
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}
impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// Incremental object builder so call sites read like a field list.
///
/// # Example
///
/// ```
/// use jitgc_sim::json::ObjectBuilder;
///
/// let v = ObjectBuilder::new().field("a", 1u64).field("b", true).build();
/// assert_eq!(v.to_compact(), r#"{"a":1,"b":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjectBuilder(Vec<(String, JsonValue)>);

impl ObjectBuilder {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        ObjectBuilder::default()
    }

    /// Appends one key/value pair.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.0)
    }
}

fn render_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is the shortest representation that round-trips; ensure a
        // fraction marker so the value re-parses as F64.
        let s = format!("{v:?}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; null is the conventional substitute.
        out.push_str("null");
    }
}

fn render_string(out: &mut String, s: &str) {
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

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` and a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always on a char boundary).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::I64(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| JsonError::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::U64(42));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::I64(-7));
        assert_eq!(JsonValue::parse("2.5").unwrap(), JsonValue::F64(2.5));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::F64(1000.0));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
    }

    #[test]
    fn u64_integers_are_exact() {
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_compact(), "18446744073709551615");
    }

    #[test]
    fn typed_readers_name_the_key() {
        let v = JsonValue::parse(r#"{"n": 7, "x": 0.5, "b": true, "neg": -1}"#).unwrap();
        assert_eq!(v.req_u64("n"), Ok(7));
        assert_eq!(v.req_f64("x"), Ok(0.5));
        assert_eq!(v.req_f64("n"), Ok(7.0));
        assert_eq!(v.req_bool("b"), Ok(true));
        let err = |r: Result<(), JsonError>| r.unwrap_err().to_string();
        assert!(err(v.req_u64("neg").map(drop)).contains("`neg` must be an integer"));
        assert!(err(v.req_u64("x").map(drop)).contains("`x` must be an integer"));
        assert!(err(v.req_f64("b").map(drop)).contains("`b` must be a number"));
        assert!(err(v.req_bool("n").map(drop)).contains("`n` must be a bool"));
        assert!(err(v.req_u64("absent").map(drop)).contains("missing field `absent`"));
    }

    #[test]
    fn parses_nested_structures() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": {"d": false}}"#;
        let v = JsonValue::parse(text).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nquote\"back\\slash\ttab\u{8}\u{1f600}";
        let rendered = JsonValue::String(original.into()).to_compact();
        let back = JsonValue::parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn parses_surrogate_pair() {
        let v = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"\\q\"", "{} x"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn pretty_print_shape() {
        let v = ObjectBuilder::new()
            .field("x", 1u64)
            .field("y", vec![1u64, 2])
            .build();
        assert_eq!(
            v.to_pretty(),
            "{\n  \"x\": 1,\n  \"y\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn compact_round_trips() {
        let v = ObjectBuilder::new()
            .field("name", "jit")
            .field("ratio", 0.125)
            .field("n", 3u64)
            .field("neg", -9i64)
            .field("flag", true)
            .field("none", JsonValue::Null)
            .field("list", vec![0u64, 1])
            .build();
        let back = JsonValue::parse(&v.to_compact()).unwrap();
        assert_eq!(back, v);
        let back_pretty = JsonValue::parse(&v.to_pretty()).unwrap();
        assert_eq!(back_pretty, v);
    }

    #[test]
    fn floats_always_reparse_as_floats() {
        let rendered = JsonValue::F64(3.0).to_compact();
        assert_eq!(rendered, "3.0");
        assert_eq!(JsonValue::parse(&rendered).unwrap(), JsonValue::F64(3.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::F64(f64::NAN).to_compact(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn req_reports_missing_field() {
        let v = JsonValue::parse("{}").unwrap();
        let err = v.req("seed").unwrap_err();
        assert!(err.to_string().contains("seed"));
    }

    #[test]
    fn option_conversion() {
        assert_eq!(JsonValue::from(None::<u64>), JsonValue::Null);
        assert_eq!(JsonValue::from(Some(3u64)), JsonValue::U64(3));
    }
}
