//! A minimal JSON reader.
//!
//! The vendored `serde` compat crate only *writes* JSON; nothing in the
//! workspace could read serialized data back until this module. It
//! parses the subset our own writers emit (objects, arrays, strings
//! with `\uXXXX` escapes, f64 numbers, booleans, null) into a [`Json`]
//! tree. Object keys keep insertion order — the writers emit fields in
//! declaration order and the bench-schema guard checks against that.
//!
//! Used by the `trace-analyze` binary (reading telemetry JSONL) and by
//! `ert-testkit`'s bench-schema guard (reading committed
//! `BENCH_*.json`). Deliberately strict: trailing garbage, unpaired
//! surrogates, and malformed numbers are errors, not best-effort
//! repairs — a trace that fails to parse should fail loudly.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64, which covers every value our writers
    /// produce — they never emit integers above 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// ```
    /// use ert_obs::Json;
    /// let v = Json::parse(r#"{"a":[1,2],"b":"x"}"#).unwrap();
    /// assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    /// assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
    /// ```
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (None for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64, if numeric, non-negative, and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields in source order, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
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
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        // Surrogate pair?
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("unpaired surrogate".to_string());
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_string());
                            }
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(code).ok_or("invalid \\u escape")?
                        };
                        out.push(ch);
                    }
                    other => return Err(format!("invalid escape \\{}", *other as char)),
                }
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole code point.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if *pos + 4 > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let text = std::str::from_utf8(&bytes[*pos..*pos + 4]).map_err(|e| e.to_string())?;
    *pos += 4;
    u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape {text:?}"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e2 ").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_preserving_key_order() {
        let v = Json::parse(r#"{"b":1,"a":{"x":[1,2,3],"y":null}}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(
            v.get("a")
                .unwrap()
                .get("x")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(v.get("a").unwrap().get("y"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_own_writer_output() {
        // What the compat serde writer emits must parse back.
        let line = serde::json::to_string(&vec![1.5f64, 0.25]);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_f64(), Some(1.5));
        let mut s = String::new();
        serde::json::write_escaped(&mut s, "a\"b\\c\nd");
        let quoted = Json::parse(&s).unwrap();
        assert_eq!(quoted.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""Aé😀\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀\t"));
        assert_eq!(Json::parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
    }
}
