//! Hand-rolled JSON: a writer replacing the `serde`/`serde_json` pair
//! for the bench harness's JSONL result files and the server's response
//! lines, and the workspace's one reader — [`parse_flat_object`], for
//! the two line formats that are read back (trace JSONL, the server's
//! request lines).
//!
//! The output is byte-compatible with what `serde_json::to_string`
//! produced for the same derives: objects keyed by field name in
//! declaration order, `Duration` as `{"secs":…,"nanos":…}`, `Option`
//! as `null`/value, `Vec` as arrays. Two deliberate divergences:
//! non-finite floats serialize as `null` instead of erroring, and
//! integral floats print without a trailing `.0` (both are valid JSON;
//! no consumer parses the result files back into typed structs — the
//! trace JSONL codec in [`crate::trace`] is a separate, round-tripping
//! format).
//!
//! Deriving: [`impl_to_json!`](crate::impl_to_json) lists a struct's
//! fields once, mirroring what `#[derive(Serialize)]` read from the
//! definition:
//!
//! ```
//! use ipregel::impl_to_json;
//! struct Point { x: u32, y: u32 }
//! impl_to_json!(Point { x, y });
//! let mut s = String::new();
//! ipregel::json::ToJson::write_json(&Point { x: 1, y: 2 }, &mut s);
//! assert_eq!(s, r#"{"x":1,"y":2}"#);
//! ```

use std::time::Duration;

/// Types that can write themselves as a JSON value.
pub trait ToJson {
    /// Append this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);

    /// The value as a standalone JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! to_json_display_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(itoa_buf(&mut [0u8; 40], i128::from(*self)));
            }
        }
    )*};
}

/// Format an integer without the formatting machinery (hot JSONL path).
fn itoa_buf(buf: &mut [u8; 40], mut v: i128) -> &str {
    let neg = v < 0;
    let mut i = buf.len();
    loop {
        i -= 1;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let digit = (v % 10).unsigned_abs() as u8;
        buf[i] = b'0' + digit;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if neg {
        i -= 1;
        buf[i] = b'-';
    }
    // SAFETY-FREE: digits and '-' are ASCII, always valid UTF-8.
    std::str::from_utf8(&buf[i..]).expect("ascii digits")
}

to_json_display_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        (*self as u64).write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // Rust's shortest round-trip formatting; always a valid
            // JSON number for finite values.
            out.push_str(&format!("{self}"));
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for f32 {
    fn write_json(&self, out: &mut String) {
        f64::from(*self).write_json(out);
    }
}

impl ToJson for Duration {
    /// serde's layout for `Duration`: `{"secs":…,"nanos":…}`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"secs\":");
        self.as_secs().write_json(out);
        out.push_str(",\"nanos\":");
        self.subsec_nanos().write_json(out);
        out.push('}');
    }
}

/// JSON string escaping: the two mandatory classes (`"`/`\`) plus
/// control characters; everything else passes through as UTF-8.
fn write_escaped(s: &str, out: &mut String) {
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

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.write_json(out),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// Implement [`ToJson`] for a struct by listing its fields in
/// declaration order — the replacement for `#[derive(Serialize)]`.
#[macro_export]
macro_rules! impl_to_json {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                out.push('{');
                let mut __first = true;
                $(
                    if !__first {
                        out.push(',');
                    }
                    #[allow(unused_assignments)]
                    {
                        __first = false;
                    }
                    out.push('"');
                    out.push_str(stringify!($field));
                    out.push_str("\":");
                    $crate::json::ToJson::write_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Flat-object reader
// ---------------------------------------------------------------------------

/// A value in a flat JSON object: the scalar shapes the workspace's two
/// line formats (the trace JSONL codec and the server's wire protocol)
/// use. Callers keep their own typed field accessors over it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string, escapes decoded.
    Str(String),
    /// A number written as plain digits that fits a `u64`, kept exact.
    Int(u64),
    /// Any other number: signed, fractional, exponent, or past `u64`.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
}

/// Parse one flat JSON object (string/number/bool values, no nesting).
/// Rejects duplicate keys, trailing garbage, and any structural error
/// with a positioned message.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let mut fields: Vec<(String, Value)> = Vec::new();

    let err = |pos: usize, what: &str| Err(format!("{what} at byte {pos}"));

    skip_ws(bytes, &mut pos);
    if pos >= bytes.len() || bytes[pos] != b'{' {
        return err(pos, "expected '{'");
    }
    pos += 1;
    skip_ws(bytes, &mut pos);
    if pos < bytes.len() && bytes[pos] == b'}' {
        pos += 1;
    } else {
        loop {
            skip_ws(bytes, &mut pos);
            let key = parse_string(line, bytes, &mut pos)?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            skip_ws(bytes, &mut pos);
            if pos >= bytes.len() || bytes[pos] != b':' {
                return err(pos, "expected ':'");
            }
            pos += 1;
            skip_ws(bytes, &mut pos);
            let value = parse_value(line, bytes, &mut pos)?;
            fields.push((key, value));
            skip_ws(bytes, &mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return err(pos, "expected ',' or '}'"),
            }
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err(pos, "trailing garbage");
    }
    Ok(fields)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(line: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    match bytes.get(*pos) {
        Some(b'"') => parse_string(line, bytes, pos).map(Value::Str),
        Some(b't') if line[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if line[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'-' | b'0'..=b'9') => parse_number(line, bytes, pos),
        _ => Err(format!("expected a string, number, or boolean at byte {pos}", pos = *pos)),
    }
}

fn parse_number(line: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = &line[start..*pos];
    // Plain digits stay exact — a `u64` does not survive an `f64`.
    if token.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Value::Int(n));
        }
    }
    token.parse::<f64>().map(Value::Num).map_err(|_| format!("malformed number at byte {start}"))
}

/// Decode the four hex digits of a `\u` escape whose `u` is at `pos`.
fn hex4(line: &str, pos: usize) -> Result<u32, String> {
    let hex = line.get(pos + 1..pos + 5).ok_or_else(|| "truncated \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("malformed \\u escape {hex:?}"))
}

fn parse_string(line: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let unit = hex4(line, *pos)?;
                        *pos += 4;
                        // JSON encodes non-BMP characters as a UTF-16
                        // surrogate pair of \u escapes; a high half
                        // must combine with an immediately-following
                        // low half before it is a scalar value.
                        let code = if (0xD800..=0xDBFF).contains(&unit) {
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(format!(
                                    "high surrogate \\u{unit:04x} not followed by a \\u low surrogate"
                                ));
                            }
                            let low = hex4(line, *pos + 2)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(format!(
                                    "\\u{unit:04x}\\u{low:04x} is not a valid surrogate pair"
                                ));
                            }
                            *pos += 6;
                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            unit
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?,
                        );
                    }
                    other => return Err(format!("unknown escape '\\{}'", other as char)),
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are always sound to find).
                let ch_len = line[*pos..].chars().next().map_or(1, char::len_utf8);
                out.push_str(&line[*pos..*pos + ch_len]);
                *pos += ch_len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Outer {
        name: &'static str,
        seconds: f64,
        took: Duration,
        maybe: Option<u32>,
        series: Vec<u64>,
        flag: bool,
    }
    impl_to_json!(Outer { name, seconds, took, maybe, series, flag });

    #[test]
    fn struct_encoding_matches_serde_layout() {
        let v = Outer {
            name: "ba\"se\\line\n",
            seconds: 1.5,
            took: Duration::new(3, 250),
            maybe: None,
            series: vec![1, 2, 3],
            flag: true,
        };
        assert_eq!(
            v.to_json(),
            r#"{"name":"ba\"se\\line\n","seconds":1.5,"took":{"secs":3,"nanos":250},"maybe":null,"series":[1,2,3],"flag":true}"#
        );
    }

    #[test]
    fn integers_cover_extremes() {
        assert_eq!(u64::MAX.to_json(), "18446744073709551615");
        assert_eq!(i64::MIN.to_json(), "-9223372036854775808");
        assert_eq!(0u32.to_json(), "0");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!((-0.0f64).to_json(), "-0");
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!("\u{1}".to_json(), "\"\\u0001\"");
    }

    #[test]
    fn escapes_round_trip() {
        let obj = parse_flat_object(r#"{"op":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(obj[0].1, Value::Str("a\"b\\c\ndA".to_string()));
    }

    #[test]
    fn surrogate_pairs_decode() {
        // A standard JSON encoder writes non-BMP characters as \u
        // surrogate pairs; U+1F600 is the 😀 emoji.
        let obj = parse_flat_object(r#"{"op":"\ud83d\ude00"}"#).unwrap();
        assert_eq!(obj[0].1, Value::Str("\u{1F600}".to_string()));
        // Pair in the middle of other text, plus a plain BMP escape.
        let obj = parse_flat_object(r#"{"op":"a\ud83d\ude00b\u0041"}"#).unwrap();
        assert_eq!(obj[0].1, Value::Str("a\u{1F600}bA".to_string()));
    }

    #[test]
    fn lone_or_mismatched_surrogates_are_typed_errors() {
        for bad in [
            r#"{"op":"\ud83d"}"#,        // lone high, end of string
            r#"{"op":"\ud83dxx"}"#,      // high not followed by \u
            r#"{"op":"\ud83dA"}"#,      // high followed by non-escape
            r#"{"op":"\ud83d\u0041"}"#,  // high followed by a BMP escape
            r#"{"op":"\ud83d\ud83d"}"#,  // high followed by high
            r#"{"op":"\ude00"}"#,        // lone low
            r#"{"op":"\ud83d\u"#,        // truncated low escape
        ] {
            assert!(parse_flat_object(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
