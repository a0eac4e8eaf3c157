//! A minimal, self-contained JSON value model, writer, and parser.
//!
//! Only what the record store needs — objects, arrays, strings (with full
//! escape handling), numbers, booleans, and null — implemented here so the
//! workspace carries no external JSON dependency.

use std::error::Error;
use std::fmt;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use puftestbed::store::json::{parse, JsonValue};
///
/// let v = parse(r#"{"ok": true, "xs": [1, 2.5, "three"]}"#)?;
/// let obj = v.as_object().unwrap();
/// assert_eq!(obj[0].0, "ok");
/// assert_eq!(obj[1].1.as_array().unwrap().len(), 3);
/// # Ok::<(), puftestbed::store::json::ParseJsonError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-integral (or out-of-integer-range) JSON number, stored as `f64`.
    Number(f64),
    /// A non-negative integer, stored exactly. `u64` round-trips losslessly
    /// where `f64` would silently lose precision above 2^53.
    UInt(u64),
    /// A negative integer, stored exactly.
    Int(i64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, with insertion order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number as `f64`, if this is any numeric variant. Integers above
    /// 2^53 lose precision here; use [`as_u64`](Self::as_u64) or
    /// [`as_i64`](Self::as_i64) for exact conversions.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact `u64` value, if this is a numeric variant representing a
    /// non-negative integer that fits. Floats qualify only when integral and
    /// exactly representable (|n| < 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            JsonValue::Number(n) => exact_integral_f64(*n).and_then(|i| u64::try_from(i).ok()),
            _ => None,
        }
    }

    /// The exact `i64` value, if this is a numeric variant representing an
    /// integer that fits. Floats qualify only when integral and exactly
    /// representable (|n| < 2^53).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::UInt(n) => i64::try_from(*n).ok(),
            JsonValue::Int(n) => Some(*n),
            JsonValue::Number(n) => exact_integral_f64(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// The exact integer behind `n`, if `n` is integral and within the range
/// where `f64` represents every integer exactly (|n| < 2^53).
fn exact_integral_f64(n: f64) -> Option<i64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if n.fract() == 0.0 && n.abs() < EXACT {
        Some(n as i64)
    } else {
        None
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::UInt(n) => write!(f, "{n}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Error from [`parse`], with the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for ParseJsonError {}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns [`ParseJsonError`] on any syntax error, on trailing garbage, and
/// on arrays and objects nested deeper than 128 levels.
pub fn parse(input: &str) -> Result<JsonValue, ParseJsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a bound a line of `[`s overflows the
/// stack; every document the workspace writes nests a few levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseJsonError {
        ParseJsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseJsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a json value")),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, ParseJsonError>,
    ) -> Result<JsonValue, ParseJsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseJsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseJsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not paired here; record stores
                            // never emit them.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        // Plain integer literals are kept exact; `f64` is only the fallback
        // for fractions, exponents, and magnitudes beyond 64-bit range.
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| ParseJsonError {
                offset: start,
                message: "invalid number".to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse("\"hi\"").unwrap(),
            JsonValue::String("hi".to_string())
        );
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#" { "a" : [1, {"b": null}], "c": "" } "#).unwrap();
        assert_eq!(v.get("c"), Some(&JsonValue::String(String::new())));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let original = JsonValue::String("a\"b\\c\nd\te\u{0001}f/é".to_string());
        let text = original.to_string();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            parse(r#""Aé""#).unwrap(),
            JsonValue::String("Aé".to_string())
        );
    }

    #[test]
    fn display_round_trips_structures() {
        let v = JsonValue::Object(vec![
            ("n".into(), JsonValue::Number(3.25)),
            ("i".into(), JsonValue::UInt(7)),
            (
                "arr".into(),
                JsonValue::Array(vec![JsonValue::Bool(false), JsonValue::Null]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
        // Integral numbers print without a decimal point.
        assert!(text.contains("\"i\":7"));
    }

    #[test]
    fn extreme_integers_stay_exact() {
        // Above 2^53 an f64 detour would corrupt the low bits.
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max).unwrap(), JsonValue::UInt(u64::MAX));
        assert_eq!(parse(&max).unwrap().to_string(), max);
        let min = i64::MIN.to_string();
        assert_eq!(parse(&min).unwrap(), JsonValue::Int(i64::MIN));
        assert_eq!(parse(&min).unwrap().to_string(), min);
        // Beyond u64/i64 range, integers degrade to f64 rather than failing.
        assert!(matches!(
            parse("99999999999999999999999999").unwrap(),
            JsonValue::Number(_)
        ));
    }

    #[test]
    fn exact_accessors_reject_lossy_conversions() {
        assert_eq!(JsonValue::UInt(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(JsonValue::UInt(u64::MAX).as_i64(), None);
        assert_eq!(JsonValue::Int(-1).as_u64(), None);
        assert_eq!(JsonValue::Int(-1).as_i64(), Some(-1));
        assert_eq!(JsonValue::Number(2.0).as_u64(), Some(2));
        assert_eq!(JsonValue::Number(2.5).as_u64(), None);
        assert_eq!(JsonValue::Number(1e300).as_i64(), None);
        assert_eq!(JsonValue::Number(-3.0).as_i64(), Some(-3));
        assert_eq!(JsonValue::Bool(true).as_u64(), None);
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "{a: 1}",
            "tru",
            "\"\\q\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let parsed = parse(&nested(MAX_DEPTH)).unwrap();
        let mut value = &parsed;
        for _ in 1..MAX_DEPTH {
            value = &value.as_array().unwrap()[0];
        }
        assert_eq!(value, &JsonValue::Array(vec![]));
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting deeper than 128 levels");
        assert_eq!(err.offset, MAX_DEPTH);
        // Unclosed and far past the cap: an error, not a stack overflow.
        for deep in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.to_string().contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(parse("[ ]").unwrap().to_string(), "[]");
    }
}
