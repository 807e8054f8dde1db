//! Minimal deterministic JSON: a value tree, a compact writer, and a
//! recursive-descent parser.
//!
//! The workspace deliberately carries no serializer dependency (see
//! `vendor/README.md`), and the experiment engine needs byte-stable
//! artefacts: object keys keep insertion order, and numbers are printed
//! with Rust's shortest-round-trip float formatting, so equal values
//! always produce equal bytes.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order (determinism).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder starting empty.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field (panics on non-objects: builder misuse, not data).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialization (no whitespace); `to_string()` comes with it.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's Display for f64 is shortest-round-trip: deterministic and
        // exact on re-parse.
        let _ = write!(out, "{x}");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        o.map(Into::into).unwrap_or(Json::Null)
    }
}

/// Why a document did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed input, described with its byte offset.
    Syntax(String),
    /// A `\u` escape at byte `offset` names one half of a UTF-16
    /// surrogate pair, and the other half does not follow it.
    LoneSurrogate { code: u16, offset: usize },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::LoneSurrogate { code, offset } => {
                write!(f, "unpaired surrogate \\u{code:04x} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(msg: String) -> Self {
        JsonError::Syntax(msg)
    }
}

impl From<&str> for JsonError {
    fn from(msg: &str) -> Self {
        JsonError::Syntax(msg.into())
    }
}

/// Parse a JSON document. Returns `Err` with a byte offset on malformed
/// input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}").into());
    }
    Ok(v)
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
        Err(format!("expected {:?} at offset {}", c as char, pos).into())
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}").into()),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}").into()),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}").into())
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let at = *pos - 1;
                        let code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        let lone = JsonError::LoneSurrogate { code: code as u16, offset: at };
                        let code = match code {
                            // A high half joins the low half escaped next.
                            0xd800..=0xdbff => {
                                let low = match b.get(*pos + 1..*pos + 3) {
                                    Some(b"\\u") => hex4(b, *pos + 3)?,
                                    _ => return Err(lone),
                                };
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return Err(lone);
                                }
                                *pos += 6;
                                0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                            }
                            0xdc00..=0xdfff => return Err(lone),
                            _ => code,
                        };
                        s.push(char::from_u32(code).expect("a scalar value: no surrogate"));
                    }
                    _ => return Err(format!("bad escape at offset {pos}").into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote or
                // escape. Both are ASCII, so the run ends on a char boundary
                // and each byte is validated once.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                s.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// The number the four hex digits at `b[at..]` spell.
fn hex4(b: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at offset {at}").into());
    }
    Ok(hex.iter().fold(0, |acc, &h| acc * 16 + (h as char).to_digit(16).unwrap()))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map_err(|e| format!("bad number at offset {start}: {e}").into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compound_value() {
        let v = Json::obj()
            .field("name", "fig2")
            .field("jobs", 4u64)
            .field("ok", true)
            .field("missing", Json::Null)
            .field(
                "curve",
                Json::Arr(vec![
                    Json::obj().field("phases", 1.5).field("cov", 0.25),
                    Json::obj()
                        .field("phases", 2.0)
                        .field("cov", Json::Num(1e-9)),
                ]),
            );
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        // Byte-stable: serializing the parse result reproduces the text.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.1, 1.0 / 3.0, 2.0f64.powi(-40), 123456.789, -0.0625] {
            let text = Json::Num(x).to_string();
            let back = parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap(), x, "text {text}");
        }
    }

    #[test]
    fn strings_escape() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_ascii_strings_roundtrip() {
        for text in ["é", "日本", "🎉", "a é 日本 🎉 z", "\"é\\日\n🎉"] {
            let v = Json::Str(text.into());
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{text:?}");
        }
        assert_eq!(parse(r#""\u00e9\u65e5""#).unwrap(), Json::Str("é日".into()));
    }

    #[test]
    fn unicode_escape_needs_four_hex_digits() {
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u041""#).is_err());
        assert!(parse(r#""\u 041""#).is_err());
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn surrogate_pairs_join_into_one_char() {
        assert_eq!(parse(r#""\ud83c\udf89""#).unwrap(), Json::Str("🎉".into()));
        assert_eq!(parse(r#""a\uD83D\uDE00z""#).unwrap(), Json::Str("a😀z".into()));
        let v = parse(r#""\ud83c\udf89""#).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn lone_surrogate_halves_are_refused() {
        let lone = |code, offset| Err(JsonError::LoneSurrogate { code, offset });
        assert_eq!(parse(r#""\ud83c""#), lone(0xd83c, 1));
        assert_eq!(parse(r#""ab\udf89\ud83c""#), lone(0xdf89, 3));
        // A high half followed by anything but a low half's escape.
        assert_eq!(parse(r#""\ud83c\u0041""#), lone(0xd83c, 1));
        assert_eq!(parse(r#""\ud83c\ud83c""#), lone(0xd83c, 1));
        assert_eq!(parse(r#""\ud83c\n""#), lone(0xd83c, 1));
        assert_eq!(parse(r#""\ud83cx""#), lone(0xd83c, 1));
        assert!(parse(r#""\ud83c\udf8""#).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"a": [1, 2.5], "b": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert!(v.get("zzz").is_none());
    }
}
