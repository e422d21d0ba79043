//! Round-trip properties of the JSON writer and parser: every string
//! `write_str` emits parses back to itself, bare or as a field of a
//! journal-shaped object line, and every finite `f64` survives
//! `write_f64` bit for bit. Two more properties pin the fast paths to
//! their plain definitions: `validate` accepts and rejects exactly what
//! `parse` does, with the same error, and `write_str` (and its streaming
//! twin `write_str_to`) emit what a char-by-char escaper would.

use proptest::prelude::*;
use vmsim_obs::json::{self, Json};

/// Characters from the whole scalar range, weighted towards the ones the
/// writer escapes: quotes, backslashes, control characters, and astral
/// characters (which the reader must not split).
fn any_char() -> impl Strategy<Value = char> {
    let scalar = |range: std::ops::RangeInclusive<u32>| {
        range
            .prop_filter("a Unicode scalar value", |&c| char::from_u32(c).is_some())
            .prop_map(|c| char::from_u32(c).expect("filtered to scalars"))
    };
    prop_oneof![
        2 => scalar(0..=0x10_FFFF),
        2 => scalar(0..=0x7F),
        1 => scalar(0..=0x1F),
        1 => prop_oneof![Just('"'), Just('\\'), Just('/')],
        1 => scalar(0x1_0000..=0x10_FFFF),
    ]
}

fn any_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..64).prop_map(|chars| chars.into_iter().collect())
}

/// Text drawn mostly from JSON's own alphabet, so that arbitrary strings
/// reach deep into the grammar instead of failing at byte 0.
fn json_ish_text() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"{}[]:,\"\\/ \t\n\r0123456789-+.eEtruefalsnubfx";
    let json_char = (0..ALPHABET.len()).prop_map(|i| char::from(ALPHABET[i]));
    prop::collection::vec(prop_oneof![6 => json_char, 1 => any_char()], 0..48)
        .prop_map(|chars| chars.into_iter().collect())
}

/// A deterministic generator of valid JSON documents: every value kind,
/// every escape (including surrogate pairs and lone surrogates), every
/// number form, and whitespace between tokens.
struct DocGen(u64);

impl DocGen {
    fn below(&mut self, n: u64) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }

    fn ws(&mut self, out: &mut String) {
        for _ in 0..self.below(3) {
            out.push_str(self.pick(&[" ", "\t", "\n", "\r"]));
        }
    }

    fn digits(&mut self, out: &mut String, first_nonzero: bool) {
        let n = 1 + self.below(3);
        for i in 0..n {
            let low = u64::from(first_nonzero && i == 0);
            out.push(char::from(b'0' + (low + self.below(10 - low)) as u8));
        }
    }

    fn number(&mut self, out: &mut String) {
        if self.below(2) == 0 {
            out.push('-');
        }
        if self.below(3) == 0 {
            out.push('0');
        } else {
            self.digits(out, true);
        }
        if self.below(2) == 0 {
            out.push('.');
            self.digits(out, false);
        }
        if self.below(3) == 0 {
            out.push_str(self.pick(&["e", "E", "e+", "E-", "e-"]));
            self.digits(out, false);
        }
    }

    fn string(&mut self, out: &mut String) {
        out.push('"');
        for _ in 0..self.below(8) {
            match self.below(6) {
                0 => out.push_str(
                    self.pick(&["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"]),
                ),
                1 => {
                    let code = self.below(0x1_0000);
                    out.push_str(&format!("\\u{code:04X}"));
                }
                2 => out.push_str(self.pick(&["\\ud83d\\ude00", "\\uD834\\uDD1E", "\\ud83d"])),
                3 => out.push_str(self.pick(&["é", "\u{1F600}", "\u{7f}", "中"])),
                _ => out.push_str(self.pick(&["a", "op", "event", "page_fault", " ", "0"])),
            }
        }
        out.push('"');
    }

    fn value(&mut self, out: &mut String, depth: u32) {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => out.push_str(self.pick(&["null", "true", "false"])),
            1 => self.number(out),
            2 | 3 => self.string(out),
            kind => {
                let (open, close) = if kind == 4 { ('[', ']') } else { ('{', '}') };
                out.push(open);
                self.ws(out);
                for i in 0..self.below(4) {
                    if i > 0 {
                        out.push(',');
                        self.ws(out);
                    }
                    if kind == 5 {
                        self.string(out);
                        self.ws(out);
                        out.push(':');
                        self.ws(out);
                    }
                    self.value(out, depth - 1);
                    self.ws(out);
                }
                out.push(close);
            }
        }
    }

    fn document(seed: u64) -> String {
        let mut gen = DocGen(seed | 1);
        let mut out = String::new();
        gen.ws(&mut out);
        gen.value(&mut out, 3);
        gen.ws(&mut out);
        out
    }
}

/// The escaper `write_str` replaced, one char at a time: the reference
/// for its output.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
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
    out
}

fn round_trip_f64(v: f64) -> f64 {
    let mut out = String::new();
    json::write_f64(&mut out, v);
    json::parse(&out)
        .unwrap_or_else(|e| panic!("{out} does not parse: {e}"))
        .as_f64()
        .expect("a number")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bare_strings_round_trip(s in any_text()) {
        let mut out = String::new();
        json::write_str(&mut out, &s);
        prop_assert_eq!(json::parse(&out), Ok(Json::Str(s)));
    }

    #[test]
    fn journal_fields_round_trip(events in any_text(), series in any_text()) {
        let mut line = String::from(
            "{\"key\": \"00000000deadbeef\", \"cell\": 3, \"attempts\": 1, \
             \"truncated\": false, \"run\": {\"benchmark\": \"gcc\", \"cycles\": 12345}, \
             \"events\": ",
        );
        json::write_str(&mut line, &events);
        line.push_str(", \"series\": ");
        json::write_str(&mut line, &series);
        line.push_str(", \"crc\": \"0123456789abcdef\"}");
        let doc = json::parse(&line).expect("journal-shaped line parses");
        prop_assert_eq!(doc.get("events"), Some(&Json::Str(events)));
        prop_assert_eq!(doc.get("series"), Some(&Json::Str(series)));
        prop_assert_eq!(doc.get("cell").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn finite_f64_round_trips(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        prop_assert_eq!(round_trip_f64(v).to_bits(), bits);
    }

    #[test]
    fn write_str_matches_a_char_by_char_escaper(s in any_text()) {
        let mut out = String::from("prefix");
        json::write_str(&mut out, &s);
        let expected = reference_escape(&s);
        prop_assert_eq!(&out["prefix".len()..], expected.as_str());
        let mut streamed = Vec::new();
        json::write_str_to(&mut streamed, &s).expect("writing to a Vec cannot fail");
        prop_assert_eq!(streamed, expected.into_bytes());
    }

    #[test]
    fn validate_agrees_with_parse_on_arbitrary_text(s in any_text(), t in json_ish_text()) {
        prop_assert_eq!(json::validate(&s), json::parse(&s).map(drop));
        prop_assert_eq!(json::validate(&t), json::parse(&t).map(drop));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn validate_agrees_with_parse_on_mutated_documents(
        seed in any::<u64>(),
        at in any::<usize>(),
        byte in prop_oneof![
            any::<u8>(),
            (0..16usize).prop_map(|i| b"{}[]:,\"\\ 0-.eEun"[i]),
        ],
    ) {
        let doc = DocGen::document(seed);
        prop_assert_eq!(json::validate(&doc), Ok(()), "{}", doc);
        prop_assert!(json::parse(&doc).is_ok(), "{}", doc);
        let mut bytes = doc.into_bytes();
        let i = at % bytes.len();
        bytes[i] = byte;
        let text = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(json::validate(&text), json::parse(&text).map(drop), "{}", text);
    }
}

#[test]
fn f64_edge_values_round_trip() {
    for v in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1e21,
        1e-7,
    ] {
        assert_eq!(round_trip_f64(v).to_bits(), v.to_bits(), "{v:?}");
    }
}
