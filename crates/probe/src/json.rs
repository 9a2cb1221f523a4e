//! The workspace's one JSON codec: a value type, a hardened parser and a
//! writer.
//!
//! The workspace is deliberately dependency-free, so it carries its own
//! JSON layer rather than pulling in serde. Three surfaces share it: the
//! serve wire (`ssp-serve`), bench artifacts and `BENCH_history.jsonl`
//! (`ssp-bench`), and probe traces ([`crate::Trace`]). The parser is
//! written for a *hostile* wire: it is recursive-descent with an explicit
//! nesting-depth cap (a 10 kB `[[[[…` bomb must return a parse error, not
//! blow the worker's stack), rejects trailing garbage, and never panics on
//! any byte sequence. The writer escapes control characters and maps
//! non-finite numbers to `null` (JSON has no `NaN`), and `f64` values are
//! emitted with Rust's shortest-round-trip formatting so energies survive
//! a response→parse cycle bit for bit. Unsigned integer literals that an
//! `f64` cannot hold exactly (above 2^53) parse as [`Json::UInt`], so trace
//! counters and nanosecond stamps survive a round trip for every `u64`.

use std::fmt::Write as _;

/// Maximum nesting depth the parser will follow before bailing out with a
/// typed error. Deep enough for any legitimate request (the protocol nests
/// 3 levels), shallow enough that adversarial input cannot overflow the
/// stack.
const MAX_DEPTH: usize = 64;

/// 2^53: every integer up to here is an exact `f64`.
const EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number, as `f64`.
    Num(f64),
    /// An unsigned integer literal past 2^53 that an `f64` would round.
    /// The parser produces it only for those; every other number is a
    /// [`Json::Num`].
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, later duplicates win on lookup is NOT
    /// guaranteed — [`Json::get`] returns the first match.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number ([`Json::UInt`] rounds to
    /// the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a single-line JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `s` as a quoted JSON string literal, escaped as the writer escapes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(s, &mut out);
    out
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected a value at byte {start}"));
    }
    let slice = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    let n: f64 = slice
        .parse()
        .map_err(|_| format!("bad number '{slice}' at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number '{slice}' at byte {start}"));
    }
    // Only integers past 2^53 can round; keep those exact when they fit.
    if n >= EXACT_F64_INT && slice.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(u) = slice.parse::<u64>() {
            if u as f64 as u128 != u as u128 {
                return Ok(Json::UInt(u));
            }
        }
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pair: a high surrogate must be followed
                        // by `\uDC00..DFFF`; anything else is replaced.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let lo = parse_hex4(bytes, *pos + 3)?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    *pos += 6;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            Some(_) => {
                // Copy a run of plain bytes at once. The run starts and ends
                // at ASCII bytes of a &str, so it is valid UTF-8; validating
                // only the run keeps long strings linear, not quadratic.
                let start = *pos;
                while matches!(bytes.get(*pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                    *pos += 1;
                }
                let run =
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 string")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    if at + 4 > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let s = std::str::from_utf8(&bytes[at..at + 4]).map_err(|_| "non-utf8 \\u escape")?;
    u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_basic_shapes() {
        for text in [
            r#"{"a":1,"b":[true,false,null],"c":"x\ny","d":{"e":-2.5e3}}"#,
            r#"{"a": [1, -2.5, 3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#,
            "[9007199254740993,18446744073709551615,18446744073709551616]",
            "[]",
            "{}",
            r#""just a string""#,
            "3.141592653589793",
        ] {
            let v = parse(text).unwrap();
            let re = parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, re, "{text}");
        }
    }

    #[test]
    fn f64_survives_a_write_parse_cycle_exactly() {
        for x in [1.0 / 3.0, 6.02e23, -0.1, f64::MIN_POSITIVE, 1e308] {
            let v = Json::Num(x);
            let back = parse(&v.to_string_compact()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn long_strings_round_trip() {
        // Revalidating the rest of the input per character would take
        // minutes on a string this long; decoding must stay linear.
        let s = "é".repeat(1 << 19);
        let v = parse(&Json::Str(s.clone()).to_string_compact()).unwrap();
        assert_eq!(v.as_str(), Some(s.as_str()));
    }

    #[test]
    fn depth_bomb_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(10_000);
        assert!(parse(&bomb).is_err());
        let bomb2 = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&bomb2).unwrap_err().contains("nesting"));
    }

    #[test]
    fn hostile_inputs_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "nulll x",
            "1 2",
            "[1,2",
            "{} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"ctrl \u{0}\"",
            "NaN",
            "1e999",
            "--3",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_incl_surrogates() {
        assert_eq!(parse(r#""A😀""#).unwrap().as_str().unwrap(), "A😀");
        // Lone high surrogate → replacement character, not a panic.
        assert_eq!(parse(r#""\ud83d""#).unwrap().as_str().unwrap(), "\u{FFFD}");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":3,"s":"x","b":true,"a":[1],"f":2.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        let nested = parse(r#"{"a": [1, -2.5, 3e2], "b": {"c": "x\ny", "d": true}}"#).unwrap();
        assert_eq!(
            nested.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(300.0)
        );
        assert_eq!(
            nested.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(nested.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn integers_past_2_pow_53_stay_exact() {
        let big = (1u64 << 53) + 1;
        let v = parse(&format!("[{big},{},9007199254740992,1e16]", u64::MAX)).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Json::UInt(big));
        assert_eq!(items[0].as_u64(), Some(big));
        assert_eq!(items[1].as_u64(), Some(u64::MAX));
        // Integers an f64 holds exactly, and non-literal forms, stay Num.
        assert_eq!(items[2], Json::Num(9007199254740992.0));
        assert_eq!(items[3], Json::Num(1e16));
        assert_eq!(
            v.to_string_compact(),
            format!("[{big},{},9007199254740992,10000000000000000]", u64::MAX)
        );
        // Past u64 there is nothing exact to keep: the f64 reading stands.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::Num(18446744073709551616.0)
        );
    }
}
