//! Minimal JSON value, writer, parser and strict member accessors.
//!
//! The offline build has no `serde_json` (external dependencies resolve
//! to the shims in `shims/`), so the exporters hand-write JSON and every
//! reader of an on-disk document parses it back here. The parser takes
//! the subset the formats use — objects, arrays, escaped strings, finite
//! numbers, booleans, null — and refuses the rest, including a number
//! that overflows to ±∞ (`1e309`), a repeated key (`"ranks":1,"ranks":2`
//! must not read as two ranks) and nesting past [`MAX_DEPTH`].
//!
//! **One accessor set.** The ledger, archive, history and shard
//! run-directory readers read members only through [`field`],
//! [`str_field`], [`real_field`] (`null`, how [`number`] writes NaN/±∞,
//! reads back as NaN), [`count_field`] / [`as_count`] (an integer in
//! 0..=2⁵³), [`optional_count_field`] (`null` is `None`), [`bool_field`]
//! and [`array_field`]. A missing or mistyped member is a [`FieldError`]
//! naming its dotted path, never a default.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value if this is an object member, else `None`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The f64 if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The str if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The slice if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Escapes `s` into a JSON string literal (with quotes).
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Writes an `f64` as JSON: finite values plainly, non-finite as `null`
/// (JSON has no NaN/Inf).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trippable form Rust offers.
        let s = format!("{v}");
        s
    } else {
        "null".to_string()
    }
}

/// Serialises a [`JsonValue`] back to compact JSON text. Object keys
/// come out in `BTreeMap` order, numbers in their shortest
/// round-trippable form, non-finite numbers as `null` — so
/// `parse(dump(v))` round-trips for everything JSON can represent.
pub fn dump(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => number(*n),
        JsonValue::String(s) => escape_string(s),
        JsonValue::Array(items) => {
            let body: Vec<String> = items.iter().map(dump).collect();
            format!("[{}]", body.join(","))
        }
        JsonValue::Object(members) => {
            let body: Vec<String> =
                members.iter().map(|(k, v)| format!("{}:{}", escape_string(k), dump(v))).collect();
            format!("{{{}}}", body.join(","))
        }
    }
}

/// The deepest nesting [`parse`] accepts: ten times the six levels of the
/// deepest document a writer produces (a ledger's residual bucket pair),
/// and far below the recursive parser's stack limit.
pub const MAX_DEPTH: usize = 64;

/// A parse failure with byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser { text: input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// A member that is missing or not what its reader requires, named by
/// its dotted path (`meta.ranks`, `entries[3].residuals.max`); `?` turns
/// it into the `String` errors of the ledger, archive and history readers.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldError {
    /// Dotted path of the member.
    pub path: String,
    /// What the member should be, e.g. `"a count"`; `None` when absent.
    pub expected: Option<&'static str>,
}

impl FieldError {
    /// The member at `path` is not `expected`.
    pub fn new(path: &str, expected: &'static str) -> FieldError {
        FieldError { path: path.to_string(), expected: Some(expected) }
    }

    /// The same error for a value embedded at `parent` (a ledger row as
    /// `entries[0]`); an error about the value itself has the empty path.
    pub fn within(self, parent: &str) -> FieldError {
        let path = match self.path.as_str() {
            "" => parent.to_string(),
            path => format!("{parent}.{path}"),
        };
        FieldError { path, ..self }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.expected {
            None => write!(f, "missing field {:?}", self.path),
            Some(expected) => write!(f, "field {:?} is not {expected}", self.path),
        }
    }
}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// The required member `path` of object `v`: the key is the path's last
/// dotted segment, the whole path is what an error names.
pub fn field<'a>(v: &'a JsonValue, path: &str) -> Result<&'a JsonValue, FieldError> {
    let key = path.rsplit('.').next().unwrap_or(path);
    v.get(key).ok_or_else(|| FieldError { path: path.to_string(), expected: None })
}

/// A required string member.
pub fn str_field<'a>(v: &'a JsonValue, path: &str) -> Result<&'a str, FieldError> {
    field(v, path)?.as_str().ok_or_else(|| FieldError::new(path, "a string"))
}

/// A required number; `null` — how [`number`] writes a non-finite one —
/// reads back as NaN.
pub fn real_field(v: &JsonValue, path: &str) -> Result<f64, FieldError> {
    match field(v, path)? {
        JsonValue::Null => Ok(f64::NAN),
        n => n.as_f64().ok_or_else(|| FieldError::new(path, "a number")),
    }
}

/// `v` (found at `path`) as a count: an integer in 0..=2⁵³, which an
/// `f64` holds exactly — `3.5` is not truncated, `-1` is not clamped.
pub fn as_count(v: &JsonValue, path: &str) -> Result<u64, FieldError> {
    let n = v.as_f64().filter(|n| (0.0..=9_007_199_254_740_992.0).contains(n) && n.fract() == 0.0);
    n.map(|n| n as u64).ok_or_else(|| FieldError::new(path, "a count"))
}

/// A required count member (see [`as_count`]).
pub fn count_field(v: &JsonValue, path: &str) -> Result<u64, FieldError> {
    as_count(field(v, path)?, path)
}

/// A required member that is a count or `null` (`None`).
pub fn optional_count_field(v: &JsonValue, path: &str) -> Result<Option<u64>, FieldError> {
    match field(v, path)? {
        JsonValue::Null => Ok(None),
        n => as_count(n, path).map(Some),
    }
}

/// A required boolean member.
pub fn bool_field(v: &JsonValue, path: &str) -> Result<bool, FieldError> {
    match field(v, path)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(FieldError::new(path, "a boolean")),
    }
}

/// A required array member, each element read by `read`; an error inside
/// element `i` is named under `path[i]`.
pub fn array_field<'a, T>(
    v: &'a JsonValue,
    path: &str,
    read: impl Fn(&'a JsonValue) -> Result<T, FieldError>,
) -> Result<Vec<T>, FieldError> {
    let items = field(v, path)?.as_array().ok_or_else(|| FieldError::new(path, "an array"))?;
    let items = items.iter().enumerate();
    items.map(|(i, item)| read(item).map_err(|e| e.within(&format!("{path}[{i}]")))).collect()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { message: msg.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal, expected {lit}")))
        }
    }

    /// A value inside `depth` open objects and arrays.
    fn value(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(ParseError { message: format!("duplicate key {key:?}"), offset: at });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy up to the next quote or escape; both are ASCII, so the
            // run ends on a character boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                _ => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("bad escape sequence")),
                },
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        match s.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            Ok(_) => Err(ParseError { message: format!("{s:?} is not finite"), offset: start }),
            Err(_) => Err(ParseError { message: format!("bad number {s:?}"), offset: start }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#)
            .expect("parse");
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn escape_round_trips() {
        let original = "quote\" slash\\ newline\n tab\t control\u{1} unicode\u{3b1}";
        let escaped = escape_string(original);
        let v = parse(&escaped).expect("parse");
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn overflowing_numbers_are_refused_not_read_as_infinity() {
        for text in ["1e309", "-1e309", "[1e400]", r#"{"ranks":1e999}"#] {
            let err = parse(text).expect_err(text);
            assert!(err.message.contains("not finite"), "{text}: {err}");
        }
        assert_eq!(parse("1.7976931348623157e308"), Ok(JsonValue::Number(f64::MAX)));
        assert_eq!(parse("1e-400"), Ok(JsonValue::Number(0.0)), "underflow is finite");
    }

    #[test]
    fn a_repeated_key_is_refused_not_resolved() {
        let err = parse(r#"{"meta":{"ranks":1,"ranks":2}}"#).expect_err("duplicate");
        assert!(err.message.contains("duplicate key \"ranks\""), "{err}");
        assert_eq!(err.offset, 19, "the offset is the repeat's");
        assert!(parse(r#"{"a":{"k":1},"b":{"k":2}}"#).is_ok(), "one key per object");
    }

    #[test]
    fn nesting_is_refused_past_max_depth_not_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.message.contains("deeper than 64"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn accessors_name_the_dotted_path_of_what_is_wrong() {
        let doc = parse(
            r#"{"meta":{"ranks":2,"level":"full"},"n":null,"c":3.5,"m":-1,"b":true,"xs":[7]}"#,
        )
        .unwrap();
        let meta = field(&doc, "meta").unwrap();
        assert_eq!(count_field(meta, "meta.ranks"), Ok(2));
        assert_eq!(str_field(meta, "meta.level"), Ok("full"));
        assert!(real_field(&doc, "n").unwrap().is_nan(), "null reads back as NaN");
        assert_eq!(optional_count_field(&doc, "n"), Ok(None));
        assert_eq!(bool_field(&doc, "b"), Ok(true));
        let err = |r: Result<u64, FieldError>| r.unwrap_err().to_string();
        assert_eq!(err(count_field(meta, "meta.rows")), r#"missing field "meta.rows""#);
        assert_eq!(err(count_field(&doc, "c")), r#"field "c" is not a count"#);
        assert_eq!(err(count_field(&doc, "m")), r#"field "m" is not a count"#);
        assert_eq!(err(count_field(meta, "meta.level")), r#"field "meta.level" is not a count"#);
        assert!(as_count(&JsonValue::Number(1e300), "big").is_err(), "beyond 2^53");
        assert_eq!(
            str_field(&doc, "b").unwrap_err().within("entries[1]").to_string(),
            r#"field "entries[1].b" is not a string"#
        );
        let err = String::from(bool_field(&doc, "xs").unwrap_err());
        assert_eq!(err, r#"field "xs" is not a boolean"#);
        let elements = array_field(&doc, "xs", |x| as_count(x, "").map(|n| n + 1));
        assert_eq!(elements, Ok(vec![8]));
        let refused = array_field(&doc, "xs", |x| str_field(x, "id")).unwrap_err();
        assert_eq!(refused.to_string(), r#"missing field "xs[0].id""#);
        let text = |x: &JsonValue| x.as_str().map(str::len).ok_or(FieldError::new("", "a string"));
        let refused = array_field(&doc, "xs", text);
        assert_eq!(refused.unwrap_err().to_string(), r#"field "xs[0]" is not a string"#);
        let refused = array_field(&doc, "b", |_| Ok(())).unwrap_err();
        assert_eq!(refused.to_string(), r#"field "b" is not an array"#);
    }

    #[test]
    fn dump_round_trips_through_parse() {
        let text = r#"{"a":[1,2.5,-300],"b":{"c":"x\ny","d":true,"e":null},"z":"q\"uote"}"#;
        let v = parse(text).expect("parse");
        let dumped = dump(&v);
        assert_eq!(parse(&dumped).expect("reparse"), v);
        assert_eq!(dumped, text, "compact form is canonical");
    }
}
