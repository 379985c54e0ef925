//! The workspace's one JSON codec: a small recursive value model, its
//! parser and the string escaper.
//!
//! The workspace is dependency-free by design (no serde). The telemetry
//! documents, the batch run log and the CLI's `--json` output all read
//! and write JSON through this module.
//!
//! Integers are kept exact: a number without fraction or exponent
//! parses as `UInt`/`Int` (full 64-bit range), everything else as
//! `Float`.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer literal (exact).
    UInt(u64),
    /// Negative integer literal (exact).
    Int(i64),
    /// Any number with a fraction or exponent.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing garbage is an
    /// error).
    ///
    /// # Errors
    ///
    /// The first syntax problem, with its byte offset, on malformed
    /// input.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
        expect_end(b, &mut pos)?;
        Ok(v)
    }

    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `f64` for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Escapes `s` as a JSON string literal (with quotes) into `out`.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Deepest nesting of arrays and objects the parser accepts. Deeper
/// input is an error rather than a stack overflow: parsed documents may
/// come from outside the program.
const MAX_DEPTH: usize = 128;

/// A parse failure: what was wrong and the byte offset it was found at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What was wrong, without the offset (e.g. `unterminated string`).
    pub what: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

fn err(at: usize, what: impl Into<String>) -> JsonError {
    JsonError {
        at,
        what: what.into(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected {:?}", c as char)))
    }
}

fn expect_end(b: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    skip_ws(b, pos);
    if *pos == b.len() {
        Ok(())
    } else {
        Err(err(*pos, "trailing data"))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays
/// and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "bad literal"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                let Some(&e) = b.get(*pos) else {
                    return Err(err(*pos, "unterminated escape"));
                };
                *pos += 1;
                match e {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'b' => s.push('\u{8}'),
                    b'f' => s.push('\u{c}'),
                    b'u' => {
                        let code = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        let c =
                            char::from_u32(code).ok_or_else(|| err(*pos, "bad \\u code point"))?;
                        s.push(c);
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                if let Ok(chunk) = std::str::from_utf8(&b[start..*pos]) {
                    s.push_str(chunk);
                }
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if text.is_empty() || text == "-" {
        return Err(err(start, "bad number"));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(i) = stripped.parse::<i64>() {
                return Ok(JsonValue::Int(-i));
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| err(start, format!("bad number {text:?}")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"a": [1, -2, 3.5, "x\n", true, null], "b": {"c": 18446744073709551615}}"#,
        )
        .unwrap();
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1], JsonValue::Int(-2));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(a[3].as_str(), Some("x\n"));
        assert_eq!(a[4].as_bool(), Some(true));
        assert_eq!(a[5], JsonValue::Null);
        // u64::MAX survives exactly — the reason this module exists.
        let c = v.get("b").and_then(|b| b.get("c")).unwrap();
        assert_eq!(c.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        let back = JsonValue::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn unicode_passes_through() {
        let v = JsonValue::parse(r#""héllo é""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo é"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let e = JsonValue::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert_eq!(e.what, format!("nesting deeper than {MAX_DEPTH} levels"));
        assert!(JsonValue::parse(&"{\"k\": ".repeat(200_000)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&deepest).is_ok());
    }

    #[test]
    fn last_duplicate_key_wins() {
        let v = JsonValue::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(2));
    }
}
