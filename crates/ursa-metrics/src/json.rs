//! The workspace's one hand-rolled JSON layer: string escaping and number
//! rendering for the emitters (run manifests, Chrome traces) and a
//! minimal parser for the reader (`ursa-bench diff`). No dependencies, so
//! the build stays offline.

use std::fmt::Write as _;

/// Escapes a string for embedding between double quotes in a JSON document.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON value: the shortest text that parses back to
/// the same number, `null` for NaN and the infinities (which JSON cannot
/// represent).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Object view (field list in document order).
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects the parser accepts. The
/// parser recurses once per level, so a bound keeps a hostile document
/// from overflowing the stack; run manifests nest about 4 deep.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed input,
/// including arrays and objects nested deeper than 128 levels.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => {
            *pos += 1;
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
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number {s:?} at byte {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    let start = *pos;
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through). Decode at most its four bytes, so parsing stays
                // linear in the document's length.
                let window = &b[*pos..b.len().min(*pos + 4)];
                let valid = match std::str::from_utf8(window) {
                    Ok(s) => s,
                    Err(e) => std::str::from_utf8(&window[..e.valid_up_to()]).unwrap_or(""),
                };
                let ch = valid
                    .chars()
                    .next()
                    .ok_or_else(|| format!("invalid UTF-8 at byte {pos}"))?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_numbers_roundtrip_through_the_parser() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        let text = "x\ty\"z\r\u{1}é—🦀é";
        let doc = format!("\"{}\"", esc(text));
        assert_eq!(parse_json(&doc).unwrap().as_str(), Some(text));
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(300.0), "300");
        for x in [0.1 + 0.2, -2.5e-9, 6.5e6, 1e300] {
            assert_eq!(parse_json(&num(x)).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn parser_handles_escapes_nesting_and_errors() {
        let v = parse_json(r#"{"a": [1, -2.5e3, "x\ty\"z"], "b": {"c": null, "d": true}}"#)
            .expect("valid json");
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\ty\"z"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    /// Input that ends early says where: the end of input's offset, or
    /// where the string it cut short opened.
    #[test]
    fn truncated_input_errors_carry_a_byte_offset() {
        assert_eq!(
            parse_json("[1, "),
            Err("unexpected end of input at byte 4".into())
        );
        assert_eq!(
            parse_json(""),
            Err("unexpected end of input at byte 0".into())
        );
        assert_eq!(
            parse_json(r#"{"a": "b"#),
            Err("unterminated string starting at byte 6".into())
        );
        assert_eq!(
            parse_json(r#"{"ab"#),
            Err("unterminated string starting at byte 1".into())
        );
    }

    /// Nesting stops at the limit with an error, however deep the input:
    /// 200 000 open brackets return an error instead of overflowing the
    /// stack, and exactly `MAX_DEPTH` levels still parse.
    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(200_000);
        assert_eq!(
            parse_json(&deep),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        let err = parse_json(&objects).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        let limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&limit).is_ok());
        let over = format!("[{limit}]");
        assert!(parse_json(&over).is_err());
    }
}
