//! Minimal JSON writer helpers and recursive-descent parser.
//!
//! The build environment has no `serde_json`, so the observability layer
//! hand-writes its JSON and carries its own parser. It is the one parser
//! behind every JSON input in the tree: `vmsim run` checks every artifact
//! it writes and fails loudly on malformed output, run journals and the
//! serve admission journal are replayed through it, and manifests and the
//! serve line protocol are read with it. The writer never produces
//! NaN/infinite numbers (they are mapped to `null`).
//!
//! # Accepted grammar
//!
//! [`parse`] accepts exactly RFC 8259 JSON text:
//!
//! * one value, optionally surrounded by `' '`, `\t`, `\n` and `\r`;
//! * numbers in the RFC form `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`
//!   (`-0` and `1E+2` are valid; `01`, `1.`, `-.5` and `1.e5` are not),
//!   read as the nearest `f64`;
//! * strings with the escapes `\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`,
//!   `\t` and `\uXXXX`. An escaped UTF-16 surrogate pair (`\ud83d\ude00`)
//!   decodes to its one scalar; a lone surrogate decodes to U+FFFD. A raw
//!   control character (U+0000–U+001F) inside a string is an error.
//!
//! [`validate`] runs the same parser over a sink that builds nothing: it
//! accepts and rejects exactly what [`parse`] does, with the same error
//! position and message, but allocates no tree. The artifact writer uses
//! it for every document whose values it does not need, such as each line
//! of a trace.
//!
//! # Linear time
//!
//! Parsing and writing are linear in the text's length. The parser copies
//! a string's unescaped bytes a run at a time (up to the next `"`, `\` or
//! control byte) rather than one character at a time, so a journal entry
//! carrying megabytes of escaped trace JSONL parses in milliseconds.
//! [`write_str`] likewise copies each run of bytes that needs no escape in
//! one piece.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_obj(&self) -> bool {
        matches!(self, Json::Obj(_))
    }
}

/// Parse error with byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    document::<Tree>(input)
}

/// Check that `input` is one JSON document, exactly as [`parse`] would,
/// without building it: `validate(s)` is `parse(s).map(drop)`, with the
/// same error position and message.
pub fn validate(input: &str) -> Result<(), ParseError> {
    document::<Check>(input)
}

fn document<S: Sink>(input: &str) -> Result<S::Value, ParseError> {
    let mut p = Parser::<S> {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        sink: std::marker::PhantomData,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// What the parser makes of the values it recognises. The parser owns the
/// grammar; a sink only assembles: [`Tree`] builds a [`Json`] and
/// [`Check`] builds nothing, so both accept and reject exactly the same
/// inputs.
trait Sink {
    type Value;
    /// A string under construction (also an object key).
    type Str: Default;
    type Arr: Default;
    type Obj: Default;
    fn push_text(s: &mut Self::Str, text: &str);
    fn push_char(s: &mut Self::Str, c: char);
    fn string(s: Self::Str) -> Self::Value;
    fn push_item(arr: &mut Self::Arr, value: Self::Value);
    fn array(arr: Self::Arr) -> Self::Value;
    fn push_field(obj: &mut Self::Obj, key: Self::Str, value: Self::Value);
    fn object(obj: Self::Obj) -> Self::Value;
    /// `null`, `true` or `false`.
    fn literal(value: Json) -> Self::Value;
    /// A number whose text matched the RFC grammar; `None` if it does not
    /// convert.
    fn number(text: &str) -> Option<Self::Value>;
}

/// Builds the [`Json`] tree.
struct Tree;

impl Sink for Tree {
    type Value = Json;
    type Str = String;
    type Arr = Vec<Json>;
    type Obj = Vec<(String, Json)>;
    fn push_text(s: &mut String, text: &str) {
        s.push_str(text);
    }
    fn push_char(s: &mut String, c: char) {
        s.push(c);
    }
    fn string(s: String) -> Json {
        Json::Str(s)
    }
    fn push_item(arr: &mut Vec<Json>, value: Json) {
        arr.push(value);
    }
    fn array(arr: Vec<Json>) -> Json {
        Json::Arr(arr)
    }
    fn push_field(obj: &mut Vec<(String, Json)>, key: String, value: Json) {
        obj.push((key, value));
    }
    fn object(obj: Vec<(String, Json)>) -> Json {
        Json::Obj(obj)
    }
    fn literal(value: Json) -> Json {
        value
    }
    fn number(text: &str) -> Option<Json> {
        text.parse::<f64>().ok().map(Json::Num)
    }
}

/// Builds nothing: [`validate`]'s sink.
struct Check;

impl Sink for Check {
    type Value = ();
    type Str = ();
    type Arr = ();
    type Obj = ();
    fn push_text((): &mut (), _: &str) {}
    fn push_char((): &mut (), _: char) {}
    fn string((): ()) {}
    fn push_item((): &mut (), (): ()) {}
    fn array((): ()) {}
    fn push_field((): &mut (), (): (), (): ()) {}
    fn object((): ()) {}
    fn literal(_: Json) {}
    fn number(_: &str) -> Option<()> {
        // Every text the grammar admits converts to an `f64` (a huge
        // exponent saturates to infinity rather than failing).
        Some(())
    }
}

struct Parser<'a, S> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    sink: std::marker::PhantomData<S>,
}

impl<S: Sink> Parser<'_, S> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<S::Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(S::literal(value))
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<S::Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(S::string(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<S::Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = S::Obj::default();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(S::object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            S::push_field(&mut fields, key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(S::object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<S::Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = S::Arr::default();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(S::array(items));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            S::push_item(&mut items, item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(S::array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<S::Str, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = S::Str::default();
        loop {
            // Copy the run of plain bytes up to the next delimiter in one
            // go. Every delimiter is ASCII, so the run ends on a char
            // boundary of the input `&str`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            S::push_text(&mut out, &self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let simple = match self.peek() {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'b') => Some('\u{0008}'),
                        Some(b'f') => Some('\u{000C}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        Some(b'u') => None,
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    self.pos += 1;
                    let decoded = match simple {
                        Some(c) => c,
                        None => char::from_u32(self.unicode_escape()?).unwrap_or('\u{FFFD}'),
                    };
                    S::push_char(&mut out, decoded);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape whose `\u` is consumed. A high
    /// surrogate directly followed by an escaped low surrogate combines
    /// with it into one scalar; any other surrogate is returned as is and
    /// decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<u32, ParseError> {
        let code = self.hex4()?;
        if !(0xD800..0xDC00).contains(&code) || !self.bytes[self.pos..].starts_with(b"\\u") {
            return Ok(code);
        }
        let high_end = self.pos;
        self.pos += 2;
        let low = self.hex4()?;
        if (0xDC00..0xE000).contains(&low) {
            Ok(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
        } else {
            // Not a pair: the next escape decodes on its own.
            self.pos = high_end;
            Ok(code)
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<S::Value, ParseError> {
        let start = self.pos;
        let invalid = ParseError {
            pos: start,
            msg: "invalid number",
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(invalid);
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid);
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid);
            }
        }
        S::number(&self.input[start..self.pos]).ok_or(invalid)
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

/// Append `s` to `out` as a JSON string literal (with surrounding quotes):
/// each run of bytes that needs no escape in one piece, then each escape
/// sequence. Only ASCII bytes are escaped, so every run is whole UTF-8.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let code;
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                code = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                std::str::from_utf8(&code).expect("an ASCII escape")
            }
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(escaped);
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append `v` in decimal: the digits `format!("{v}")` gives, without
/// going through `core::fmt`.
pub fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

/// Append an `f64` as a JSON number; non-finite values become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is the shortest round-trip representation.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": "x"}], "c": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn unicode_escape_decodes() {
        assert_eq!(parse("\"\\u0041b\"").unwrap().as_str(), Some("Ab"));
        assert_eq!(parse("\"é\"").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn escaped_surrogate_pair_decodes_to_one_scalar() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(
            parse("\"a\\uD834\\uDD1Eb\"").unwrap().as_str(),
            Some("a\u{1D11E}b")
        );
        // Lone surrogates still decode to the replacement character, and
        // an escape after an unpaired high surrogate decodes on its own.
        assert_eq!(parse("\"\\ud83d\"").unwrap().as_str(), Some("\u{FFFD}"));
        assert_eq!(parse("\"\\ude00x\"").unwrap().as_str(), Some("\u{FFFD}x"));
        assert_eq!(
            parse("\"\\ud83d\\u0041\"").unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        assert_eq!(
            parse("\"\\ud83d\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{FFFD}\u{1F600}")
        );
        let err = parse("\"\\ud83d\\u00zz\"").unwrap_err();
        assert_eq!((err.pos, err.msg), (11, "invalid \\u escape"));
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for byte in 0u8..0x20 {
            let doc = format!("{{\"k\": \"ab{}c\"}}", byte as char);
            let err = parse(&doc).unwrap_err();
            assert_eq!(
                err,
                ParseError {
                    pos: 9,
                    msg: "unescaped control character in string"
                },
                "byte {byte:#04x}"
            );
        }
        // Escaped, they are fine; DEL is not a control character in JSON.
        assert_eq!(
            parse("\"\\u001f\\t\x7f\"").unwrap().as_str(),
            Some("\u{1f}\t\x7f")
        );
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01", "-01", "00", "1.", "-.5", "1.e5", "-", "1e", "1e+", "+1", "-a",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.pos, 0, "{bad}");
            assert!(
                matches!(err.msg, "invalid number" | "expected a JSON value"),
                "{bad}: {err}"
            );
        }
        assert_eq!(
            parse("[1.]").unwrap_err(),
            ParseError {
                pos: 1,
                msg: "invalid number"
            }
        );
        for (good, value) in [
            ("-0", -0.0f64),
            ("0", 0.0),
            ("1E+2", 100.0),
            ("1e-2", 0.01),
            ("-0.5", -0.5),
            ("10.25E2", 1025.0),
            ("0e0", 0.0),
        ] {
            let parsed = parse(good).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), value.to_bits(), "{good}");
        }
    }

    #[test]
    fn multi_mebibyte_trace_string_parses_in_linear_time() {
        use crate::trace::{Event, EventKind};
        use std::time::{Duration, Instant};

        // Trace JSONL as a journal `events` field carries it: after
        // `write_str`, an escaped quote every few bytes.
        let mut text = String::new();
        let mut op = 0u64;
        while text.len() < 4 << 20 {
            let kind = match op % 3 {
                0 => EventKind::PageFault {
                    pid: 1,
                    vpn: op * 7,
                    gfn: op * 13,
                    huge: false,
                },
                1 => EventKind::PtWalk {
                    levels: 24,
                    cycles: op % 997,
                    pwc_hits: 2,
                },
                _ => EventKind::ReservationHit {
                    pid: 1,
                    vpn: op * 7,
                    gfn: op * 13 + 1,
                },
            };
            text.push_str(&Event { op, kind }.to_json());
            text.push('\n');
            op += 1;
        }
        let mut doc = String::new();
        write_str(&mut doc, &text);

        let start = Instant::now();
        let back = parse(&doc).expect("escaped trace parses");
        let elapsed = start.elapsed();
        assert!(back.as_str() == Some(text.as_str()), "decoded text differs");
        assert!(
            elapsed < Duration::from_secs(10),
            "parsing {} bytes took {elapsed:?}",
            doc.len()
        );
    }

    #[test]
    fn non_finite_writes_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, 1.5);
        assert_eq!(out, "1.5");
    }
}
