//! Minimal, dependency-free JSON: a canonical emitter and a small
//! recursive-descent parser.
//!
//! The workspace has no external crates, so instead of a serde derive
//! this module hand-rolls [`Value::parse`], [`escape`] and the codec of
//! the one type that crosses a process boundary: [`MessageSpec`], the
//! element of a recorded trace file. The emitted form is canonical (fixed
//! key order, no whitespace) so byte-equality of two traces implies value
//! equality.
//!
//! # Examples
//!
//! ```
//! use rmb_types::json::Value;
//! use rmb_types::{MessageSpec, NodeId};
//!
//! let m = MessageSpec::new(NodeId::new(0), NodeId::new(3), 16).at(100);
//! let v = Value::parse(&m.to_json()).unwrap();
//! assert_eq!(MessageSpec::from_value(&v).unwrap(), m);
//! ```

use crate::ids::NodeId;
use crate::message::MessageSpec;
use std::fmt;

/// Parse error: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON document.
///
/// Integers are kept exact (`i128` covers every `u64`/`i64` the workspace
/// emits); anything with a fraction or exponent becomes [`Value::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer without fraction or exponent.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, with a helpful error.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key).ok_or_else(|| JsonError {
            at: 0,
            message: format!("missing field `{key}`"),
        })
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The value as an `f64` (integers widen; precision loss accepted).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => {
                self.eat("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    let s = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

const fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b < 0xe0 => 2,
        b if b < 0xf0 => 3,
        _ => 4,
    }
}

/// Escapes a string for embedding in a JSON document (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn bad(message: &str) -> JsonError {
    JsonError {
        at: 0,
        message: message.to_string(),
    }
}

impl MessageSpec {
    /// Canonical JSON encoding (fixed key order, no whitespace): one
    /// element of a recorded trace file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"source\":{},\"destination\":{},\"data_flits\":{},\"inject_at\":{}}}",
            self.source.index(),
            self.destination.index(),
            self.data_flits,
            self.inject_at
        )
    }

    /// Reconstructs a spec from a parsed [`to_json`](Self::to_json)
    /// object.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when a field is missing or out of range.
    pub fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(MessageSpec {
            source: NodeId::new(
                v.field("source")?
                    .as_u32()
                    .ok_or_else(|| bad("source: expected u32"))?,
            ),
            destination: NodeId::new(
                v.field("destination")?
                    .as_u32()
                    .ok_or_else(|| bad("destination: expected u32"))?,
            ),
            data_flits: v
                .field("data_flits")?
                .as_u32()
                .ok_or_else(|| bad("data_flits: expected u32"))?,
            inject_at: v
                .field("inject_at")?
                .as_u64()
                .ok_or_else(|| bad("inject_at: expected u64"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -42 ").unwrap(), Value::Int(-42));
        assert_eq!(Value::parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(
            Value::parse("\"a\\nb\"").unwrap(),
            Value::Str("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse("{\"a\": [1, 2, {\"b\": false}], \"c\": null}").unwrap();
        let arr = v.get("a").unwrap();
        match arr {
            Value::Arr(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b"), Some(&Value::Bool(false)));
            }
            _ => panic!("expected array"),
        }
        assert_eq!(v.get("c"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"open").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let s = "he said \"hi\"\n\ttab\\done";
        let enc = escape(s);
        assert_eq!(Value::parse(&enc).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn message_spec_round_trip() {
        let m = MessageSpec::new(NodeId::new(7), NodeId::new(2), 33).at(900);
        let v = Value::parse(&m.to_json()).unwrap();
        assert_eq!(MessageSpec::from_value(&v).unwrap(), m);
    }
}
