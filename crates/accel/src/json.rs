//! The workspace's one JSON codec. Every file the system reads or writes
//! goes through it: scenario files, job requests and service events,
//! what-if recordings, sweep results and checkpoints, trace exports.
//!
//! The workspace builds without registry dependencies, so the codec is
//! small and in-tree. Reading is a recursive-descent parser into a
//! [`Value`] tree. It tracks the line of every key, keeps number tokens
//! verbatim (so `u64` seeds and `{:?}`-printed `f64`s round-trip
//! losslessly), accepts every JSON string escape including `\uXXXX`
//! surrogate pairs, and rejects raw control characters inside strings.
//!
//! Decoding goes through [`Fields`], which records which keys a caller
//! consumed. [`Fields::finish`] turns every leftover key into a typed
//! unknown-field error naming the key and its line, so every format is
//! strict: an unknown key is a hard error, never silently ignored.
//!
//! Writing happens at each format's call site, because field order is
//! part of each format's byte-exact contract. Two helpers keep the
//! writers consistent: [`esc`] escapes a string and [`num`] prints an
//! `f64` in its shortest round-trip form.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. Every format in the
/// workspace nests a few levels; the bound keeps hostile input from
/// exhausting the stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers keep their raw token so integer and
/// float interpretation is decided by the consumer, losslessly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The raw number token (e.g. `0.001`, `5000000000.0`, `53`).
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    /// Key → (value, line of the key), in document order.
    Obj(Vec<(String, Value, usize)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// What reading or decoding a document can fail with. Every variant
/// names a line; `Display` gives the message alone, so each format's own
/// error type can place the line in its own words.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Malformed JSON, or a value of the wrong type.
    Malformed { line: usize, msg: String },
    /// A required key is absent from the object opened at `line`.
    MissingField { field: String, line: usize },
    /// A key no decoder consumed: a typo, or a newer format.
    UnknownField { field: String, line: usize },
}

impl JsonError {
    /// The 1-based line the error points at.
    pub fn line(&self) -> usize {
        match self {
            JsonError::Malformed { line, .. }
            | JsonError::MissingField { line, .. }
            | JsonError::UnknownField { line, .. } => *line,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Malformed { msg, .. } => f.write_str(msg),
            JsonError::MissingField { field, .. } => write!(f, "missing field '{field}'"),
            JsonError::UnknownField { field, .. } => {
                write!(f, "unknown field '{field}' (a typo, or a newer format?)")
            }
        }
    }
}

impl std::error::Error for JsonError {}

fn err(line: usize, msg: impl Into<String>) -> JsonError {
    JsonError::Malformed {
        line,
        msg: msg.into(),
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, line: usize) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            line,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| err(self.line, "unexpected end of input"))
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        let got = self.peek()?;
        if got != b {
            return Err(err(
                self.line,
                format!("expected '{}', found '{}'", b as char, got as char),
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// The input from `start` to the cursor. Both ends sit next to ASCII
    /// bytes, which are always UTF-8 boundaries.
    fn since(&self, start: usize) -> Result<&'a str, JsonError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| err(self.line, "token splits a UTF-8 sequence"))
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(err(
                self.line,
                format!("unexpected character '{}'", other as char),
            )),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, JsonError>) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(err(
                self.line,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(err(self.line, format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = self.since(start)?;
        // Validate now so consumers can parse the token infallibly later.
        raw.parse::<f64>()
            .map_err(|_| err(self.line, format!("malformed number '{raw}'")))?;
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy each run of plain characters in one piece.
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(self.since(start)?);
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(err(self.line, "unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => {
                    return Err(err(
                        self.line,
                        format!("raw control character U+{b:04X} in string"),
                    ))
                }
            }
        }
    }

    /// One escape sequence, the backslash already consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(&e) = self.bytes.get(self.pos) else {
            return Err(err(self.line, "unterminated escape"));
        };
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // A high surrogate must be followed by an escaped low one.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(err(self.line, format!("unpaired surrogate '\\u{hi:04x}'")));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(err(self.line, format!("unpaired surrogate '\\u{hi:04x}'")));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                char::from_u32(code)
                    .ok_or_else(|| err(self.line, format!("unpaired surrogate '\\u{code:04x}'")))?
            }
            other => {
                return Err(err(
                    self.line,
                    format!("unsupported escape '\\{}'", other.escape_ascii()),
                ))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| err(self.line, "'\\u' needs four hex digits"))?;
        self.pos += 4;
        Ok(digits
            .iter()
            .fold(0, |n, &d| n * 16 + (d as char).to_digit(16).unwrap_or(0)))
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(err(
                        self.line,
                        format!("expected ',' or ']', found '{}'", other as char),
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        let mut fields = Vec::new();
        self.members(&mut fields)?;
        Ok(Value::Obj(fields))
    }

    /// An object's members, pushed as they parse, so a caller still has
    /// the ones before an error.
    fn members(&mut self, fields: &mut Vec<(String, Value, usize)>) -> Result<(), JsonError> {
        self.eat(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key_line = self.line;
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            if fields.iter().any(|(k, _, _)| *k == key) {
                return Err(err(key_line, format!("duplicate field '{key}'")));
            }
            fields.push((key, value, key_line));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(err(
                        self.line,
                        format!("expected ',' or '}}', found '{}'", other as char),
                    ))
                }
            }
        }
    }
}

/// Parse one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    parse_line(text, 1)
}

/// Parse one JSON document that starts on line `line` of a larger input
/// (one record of a JSONL file), so errors and key lines name the line
/// in that input.
pub fn parse_line(text: &str, line: usize) -> Result<Value, JsonError> {
    let mut p = Parser::new(text, line);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err(p.line, "trailing characters after document"));
    }
    Ok(v)
}

/// The members of the object `text` opens, up to the first error: enough
/// to name a record that is malformed or cut off after its name. Empty
/// when `text` does not open an object.
pub fn leading_members(text: &str) -> Vec<(String, Value, usize)> {
    let mut fields = Vec::new();
    let _complete = Parser::new(text, 1).members(&mut fields);
    fields
}

/// An object being decoded: consumed keys are crossed off, and
/// [`Fields::finish`] reports whatever is left as unknown fields.
pub struct Fields {
    entries: Vec<(String, Value, usize)>,
    taken: Vec<bool>,
    /// Line of the opening object, for missing-field context.
    pub line: usize,
}

impl Fields {
    /// Wrap a value that must be an object.
    pub fn of(value: Value, what: &str, line: usize) -> Result<Self, JsonError> {
        match value {
            Value::Obj(entries) => {
                let taken = vec![false; entries.len()];
                Ok(Self {
                    entries,
                    taken,
                    line,
                })
            }
            other => Err(err(
                line,
                format!("{what} must be an object, found {}", other.type_name()),
            )),
        }
    }

    /// Consume a key, if present, moving its value out. Returns the value
    /// and the line it appeared on.
    pub fn take(&mut self, key: &str) -> Option<(Value, usize)> {
        let i = self.entries.iter().position(|(k, _, _)| k == key)?;
        self.taken[i] = true;
        let (_, v, line) = &mut self.entries[i];
        Some((std::mem::replace(v, Value::Null), *line))
    }

    /// Consume a key that must be present.
    pub fn require(&mut self, key: &str) -> Result<(Value, usize), JsonError> {
        let line = self.line;
        self.take(key).ok_or_else(|| JsonError::MissingField {
            field: key.to_string(),
            line,
        })
    }

    /// Consume a required string, named by its key in errors.
    pub fn str(&mut self, key: &str) -> Result<String, JsonError> {
        as_str(self.require(key)?, key)
    }

    /// Consume a required boolean, named by its key in errors.
    pub fn bool(&mut self, key: &str) -> Result<bool, JsonError> {
        as_bool(self.require(key)?, key)
    }

    /// Consume a required number, named by its key in errors.
    pub fn f64(&mut self, key: &str) -> Result<f64, JsonError> {
        as_f64(self.require(key)?, key)
    }

    /// Consume a required integer, named by its key in errors.
    pub fn int<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, JsonError> {
        as_int(self.require(key)?, key)
    }

    /// Consume an optional key through `decode`, named by the key in errors.
    pub fn opt<T>(
        &mut self,
        key: &str,
        decode: fn((Value, usize), &str) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        self.take(key).map(|v| decode(v, key)).transpose()
    }

    /// Error on any key no caller consumed, naming the first offender and
    /// the line it appears on.
    pub fn finish(self) -> Result<(), JsonError> {
        match self.entries.iter().zip(&self.taken).find(|(_, &t)| !t) {
            Some(((key, _, line), _)) => Err(JsonError::UnknownField {
                field: key.clone(),
                line: *line,
            }),
            None => Ok(()),
        }
    }
}

fn wrong_type(line: usize, field: &str, want: &str, got: &Value) -> JsonError {
    err(
        line,
        format!("field '{field}' must be {want}, found {}", got.type_name()),
    )
}

/// Decode helpers: each names the field in its error.
pub fn as_str((v, line): (Value, usize), field: &str) -> Result<String, JsonError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(wrong_type(line, field, "a string", &other)),
    }
}

pub fn as_bool((v, line): (Value, usize), field: &str) -> Result<bool, JsonError> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(wrong_type(line, field, "a boolean", &other)),
    }
}

/// Finite only: no writer can put an infinity back as JSON.
pub fn as_f64((v, line): (Value, usize), field: &str) -> Result<f64, JsonError> {
    match v {
        Value::Num(raw) => raw
            .parse()
            .ok()
            .filter(|x: &f64| x.is_finite())
            .ok_or_else(|| err(line, format!("field '{field}' must be a finite number"))),
        other => Err(wrong_type(line, field, "a number", &other)),
    }
}

/// A number that may be written as `null`.
pub fn as_opt_f64((v, line): (Value, usize), field: &str) -> Result<Option<f64>, JsonError> {
    match v {
        Value::Null => Ok(None),
        v => as_f64((v, line), field).map(Some),
    }
}

pub fn as_int<T: std::str::FromStr>(
    (v, line): (Value, usize),
    field: &str,
) -> Result<T, JsonError> {
    match v {
        Value::Num(raw) => raw.parse().map_err(|_| {
            err(
                line,
                format!("field '{field}' must be a non-negative integer, got '{raw}'"),
            )
        }),
        other => Err(wrong_type(line, field, "a number", &other)),
    }
}

/// Escape a string for embedding in JSON output: `"` and `\`, `\n`,
/// `\t` and `\r` by name, and every other character below U+0020 as
/// `\u00XX`. Everything else, including `/` and non-ASCII, is written as
/// is.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `{:?}` on f64 is the shortest representation that parses back to the
/// identical bits, which is what makes every format's round trip
/// lossless.
pub fn num(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_with_line_tracking() {
        let text = "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": [true, null, \"x\"]\n  }\n}";
        let v = parse(text).unwrap();
        let Value::Obj(fields) = v else {
            panic!("object")
        };
        assert_eq!(fields[0].0, "a");
        assert_eq!(fields[0].2, 2);
        assert_eq!(fields[1].2, 3);
        let Value::Obj(inner) = &fields[1].1 else {
            panic!("inner object")
        };
        assert_eq!(inner[0].2, 4);
        // A record of a larger input counts lines from where it starts.
        assert_eq!(parse_line("{\"a\": }", 7).unwrap_err().line(), 7);
    }

    #[test]
    fn numbers_keep_their_raw_tokens() {
        let v = parse("{\"x\": 0.30000000000000004, \"y\": 18446744073709551615}").unwrap();
        let Value::Obj(fields) = v else {
            panic!("object")
        };
        assert_eq!(fields[0].1, Value::Num("0.30000000000000004".into()));
        // u64::MAX survives verbatim (f64 would round it).
        let Value::Num(raw) = &fields[1].1 else {
            panic!("number")
        };
        assert_eq!(raw.parse::<u64>().unwrap(), u64::MAX);
    }

    #[test]
    fn malformed_documents_name_their_line() {
        for (text, line) in [
            ("{\"a\": }", 1),
            ("{\n\"a\": 1\n\"b\": 2}", 3),
            ("{\"a\": 1} x", 1),
            ("{\n  \"a\": tru\n}", 2),
            ("{\n\"a\": \"x\ny\"}", 2),
            ("[\"\\ud800\"]", 1),
            ("[\"\\udc00\"]", 1),
            ("[\"\\u12\"]", 1),
            ("\n\n[\"\\q\"]", 3),
        ] {
            match parse(text) {
                Err(JsonError::Malformed { line: l, .. }) => assert_eq!(l, line, "{text}"),
                other => panic!("{text}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn numbers_decode_only_when_finite() {
        let num = |raw: &str| (Value::Num(raw.into()), 1);
        assert_eq!(as_f64(num("2.5e-3"), "x"), Ok(2.5e-3));
        let e = as_f64(num("1e999"), "x").unwrap_err();
        assert!(e.to_string().contains("finite"), "{e}");
        assert_eq!(
            as_int::<u64>(num("18446744073709551615"), "x"),
            Ok(u64::MAX)
        );
    }

    #[test]
    fn leading_members_stop_at_the_first_error() {
        let keys = |text: &str| -> Vec<String> {
            leading_members(text)
                .into_iter()
                .map(|(k, _, _)| k)
                .collect()
        };
        assert_eq!(keys("{\"a\":1,\"b\":\"x\"}"), ["a", "b"]);
        assert_eq!(keys("{\"a\":1,\"b\":\"x\",\"c\":"), ["a", "b"]);
        assert_eq!(keys("{\"a\":1,\"b\":\"x"), ["a"]);
        assert!(keys("[1]").is_empty());
        assert!(keys("").is_empty());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let e = parse(&deep(1 << 20)).unwrap_err();
        assert!(e.to_string().contains("nesting"), "{e}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(e.to_string().contains("duplicate field 'a'"), "{e}");
    }

    #[test]
    fn every_string_escape_is_read() {
        let v = parse(r#"["a\"b\\c\/d\b\f\n\r\t\u0001\u00e9\ud83d\ude00"]"#).unwrap();
        assert_eq!(
            v,
            Value::Arr(vec![Value::Str("a\"b\\c/d\u{8}\u{c}\n\r\t\u{1}é😀".into())])
        );
    }

    #[test]
    fn esc_round_trips_every_control_character() {
        let s: String = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain(['"', '\\', '/', '\u{2028}', '😀'])
            .collect();
        let written = esc(&s);
        assert!(written.bytes().all(|b| b >= 0x20), "{written:?}");
        assert_eq!(parse(&format!("\"{written}\"")).unwrap(), Value::Str(s));
        assert_eq!(esc("a\"b\\c\nd\u{1f}"), "a\\\"b\\\\c\\nd\\u001f");
    }

    #[test]
    fn unknown_and_missing_fields_name_their_line() {
        let v = parse("{\n  \"known\": 1,\n  \"mystery\": 2\n}").unwrap();
        let mut f = Fields::of(v, "test", 1).unwrap();
        assert_eq!(f.take("known").unwrap(), (Value::Num("1".into()), 2));
        assert_eq!(
            f.require("absent").unwrap_err(),
            JsonError::MissingField {
                field: "absent".into(),
                line: 1
            }
        );
        assert_eq!(
            f.finish().unwrap_err(),
            JsonError::UnknownField {
                field: "mystery".into(),
                line: 3
            }
        );
    }
}
