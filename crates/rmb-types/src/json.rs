//! Minimal, dependency-free JSON encoding for the types experiments
//! serialize.
//!
//! The workspace runs in hermetic environments with no external crates, so
//! instead of a serde derive this module hand-rolls a canonical emitter and
//! a small recursive-descent parser for exactly the types that cross a
//! process boundary: [`RmbConfig`], [`MessageSpec`], [`DeliveredMessage`]
//! and the identifier newtypes. The emitted form is canonical (fixed key
//! order, no whitespace) so byte-equality of two reports implies value
//! equality.
//!
//! # Examples
//!
//! ```
//! use rmb_types::json::{FromJson, ToJson};
//! use rmb_types::{MessageSpec, NodeId};
//!
//! let m = MessageSpec::new(NodeId::new(0), NodeId::new(3), 16).at(100);
//! let s = m.to_json();
//! assert_eq!(MessageSpec::from_json(&s).unwrap(), m);
//! ```

use crate::config::{AckMode, InsertionPolicy, RmbConfig};
use crate::ids::{BusIndex, NodeId, RequestId};
use crate::message::{DeliveredMessage, MessageSpec};
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

    /// The value as a `u16`.
    pub fn as_u16(&self) -> Option<u16> {
        self.as_u64().and_then(|v| u16::try_from(v).ok())
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

/// Types with a canonical JSON form.
pub trait ToJson {
    /// Canonical (fixed key order, no whitespace) JSON encoding.
    fn to_json(&self) -> String;
}

/// Types parseable from their canonical JSON form.
pub trait FromJson: Sized {
    /// Parses the canonical encoding produced by [`ToJson::to_json`].
    fn from_json(s: &str) -> Result<Self, JsonError>;

    /// Reconstructs the value from an already-parsed [`Value`].
    fn from_value(v: &Value) -> Result<Self, JsonError>;
}

fn bad(message: &str) -> JsonError {
    JsonError {
        at: 0,
        message: message.to_string(),
    }
}

impl ToJson for NodeId {
    fn to_json(&self) -> String {
        self.index().to_string()
    }
}

impl FromJson for NodeId {
    fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_value(&Value::parse(s)?)
    }
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        v.as_u32()
            .map(NodeId::new)
            .ok_or_else(|| bad("NodeId: expected u32"))
    }
}

impl ToJson for BusIndex {
    fn to_json(&self) -> String {
        self.index().to_string()
    }
}

impl FromJson for BusIndex {
    fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_value(&Value::parse(s)?)
    }
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        v.as_u16()
            .map(BusIndex::new)
            .ok_or_else(|| bad("BusIndex: expected u16"))
    }
}

impl ToJson for MessageSpec {
    fn to_json(&self) -> String {
        format!(
            "{{\"source\":{},\"destination\":{},\"data_flits\":{},\"inject_at\":{}}}",
            self.source.index(),
            self.destination.index(),
            self.data_flits,
            self.inject_at
        )
    }
}

impl FromJson for MessageSpec {
    fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_value(&Value::parse(s)?)
    }
    fn from_value(v: &Value) -> Result<Self, JsonError> {
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

impl ToJson for DeliveredMessage {
    fn to_json(&self) -> String {
        format!(
            "{{\"request\":{},\"spec\":{},\"requested_at\":{},\"circuit_at\":{},\"delivered_at\":{},\"refusals\":{}}}",
            self.request.get(),
            self.spec.to_json(),
            self.requested_at,
            self.circuit_at,
            self.delivered_at,
            self.refusals
        )
    }
}

impl FromJson for DeliveredMessage {
    fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_value(&Value::parse(s)?)
    }
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(DeliveredMessage {
            request: RequestId::new(
                v.field("request")?
                    .as_u64()
                    .ok_or_else(|| bad("request: expected u64"))?,
            ),
            spec: MessageSpec::from_value(v.field("spec")?)?,
            requested_at: v
                .field("requested_at")?
                .as_u64()
                .ok_or_else(|| bad("requested_at: expected u64"))?,
            circuit_at: v
                .field("circuit_at")?
                .as_u64()
                .ok_or_else(|| bad("circuit_at: expected u64"))?,
            delivered_at: v
                .field("delivered_at")?
                .as_u64()
                .ok_or_else(|| bad("delivered_at: expected u64"))?,
            refusals: v
                .field("refusals")?
                .as_u32()
                .ok_or_else(|| bad("refusals: expected u32"))?,
        })
    }
}

impl ToJson for RmbConfig {
    fn to_json(&self) -> String {
        let insertion = match self.insertion {
            InsertionPolicy::TopBusOnly => "\"top_bus_only\"",
            InsertionPolicy::AnyFreeBus => "\"any_free_bus\"",
        };
        let head_timeout = match self.head_timeout {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        let ack_mode = match self.ack_mode {
            AckMode::PerFlit => "\"per_flit\"".to_string(),
            AckMode::Windowed { window } => format!("{{\"windowed\":{window}}}"),
            AckMode::Unlimited => "\"unlimited\"".to_string(),
        };
        format!(
            "{{\"nodes\":{},\"buses\":{},\"compaction\":{},\"early_compaction\":{},\"insertion\":{},\"head_timeout\":{},\"ack_mode\":{},\"node\":{{\"max_concurrent_sends\":{},\"max_concurrent_receives\":{},\"retry_backoff\":{}}}}}",
            self.nodes().get(),
            self.buses(),
            self.compaction,
            self.early_compaction,
            insertion,
            head_timeout,
            ack_mode,
            self.node.max_concurrent_sends,
            self.node.max_concurrent_receives,
            self.node.retry_backoff
        )
    }
}

impl FromJson for RmbConfig {
    fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_value(&Value::parse(s)?)
    }
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        let n = v
            .field("nodes")?
            .as_u32()
            .ok_or_else(|| bad("nodes: expected u32"))?;
        let k = v
            .field("buses")?
            .as_u16()
            .ok_or_else(|| bad("buses: expected u16"))?;
        let node = v.field("node")?;
        let mut b = RmbConfig::builder(n, k)
            .compaction(
                v.field("compaction")?
                    .as_bool()
                    .ok_or_else(|| bad("compaction: expected bool"))?,
            )
            .early_compaction(
                v.field("early_compaction")?
                    .as_bool()
                    .ok_or_else(|| bad("early_compaction: expected bool"))?,
            )
            .insertion(match v.field("insertion")?.as_str() {
                Some("top_bus_only") => InsertionPolicy::TopBusOnly,
                Some("any_free_bus") => InsertionPolicy::AnyFreeBus,
                _ => return Err(bad("insertion: unknown policy")),
            })
            .ack_mode(match v.field("ack_mode")? {
                Value::Str(s) if s == "per_flit" => AckMode::PerFlit,
                Value::Str(s) if s == "unlimited" => AckMode::Unlimited,
                obj @ Value::Obj(_) => AckMode::Windowed {
                    window: obj
                        .field("windowed")?
                        .as_u32()
                        .ok_or_else(|| bad("windowed: expected u32"))?,
                },
                _ => return Err(bad("ack_mode: unknown mode")),
            })
            .max_concurrent_sends(
                node.field("max_concurrent_sends")?
                    .as_u32()
                    .ok_or_else(|| bad("max_concurrent_sends: expected u32"))?,
            )
            .max_concurrent_receives(
                node.field("max_concurrent_receives")?
                    .as_u32()
                    .ok_or_else(|| bad("max_concurrent_receives: expected u32"))?,
            )
            .retry_backoff(
                node.field("retry_backoff")?
                    .as_u64()
                    .ok_or_else(|| bad("retry_backoff: expected u64"))?,
            );
        if let Some(t) = match v.field("head_timeout")? {
            Value::Null => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or_else(|| bad("head_timeout: expected u64"))?,
            ),
        } {
            b = b.head_timeout(t);
        }
        b.build().map_err(|e| bad(&format!("invalid config: {e}")))
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
        assert_eq!(MessageSpec::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn delivered_round_trip() {
        let d = DeliveredMessage {
            request: RequestId::new(u64::MAX),
            spec: MessageSpec::new(NodeId::new(0), NodeId::new(1), 4),
            requested_at: 10,
            circuit_at: 25,
            delivered_at: 40,
            refusals: 2,
        };
        assert_eq!(DeliveredMessage::from_json(&d.to_json()).unwrap(), d);
    }

    #[test]
    fn config_round_trip_all_modes() {
        let plain = RmbConfig::new(16, 4).unwrap();
        assert_eq!(RmbConfig::from_json(&plain.to_json()).unwrap(), plain);

        let fancy = RmbConfig::builder(64, 8)
            .compaction(false)
            .early_compaction(true)
            .insertion(InsertionPolicy::AnyFreeBus)
            .head_timeout(77)
            .ack_mode(AckMode::Windowed { window: 5 })
            .retry_backoff(9)
            .max_concurrent_sends(2)
            .max_concurrent_receives(3)
            .build()
            .unwrap();
        assert_eq!(RmbConfig::from_json(&fancy.to_json()).unwrap(), fancy);

        let per_flit = RmbConfig::builder(8, 2)
            .ack_mode(AckMode::PerFlit)
            .build()
            .unwrap();
        assert_eq!(RmbConfig::from_json(&per_flit.to_json()).unwrap(), per_flit);
    }
}
