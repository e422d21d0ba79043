//! Round-trip properties of the JSON writer and parser: every string
//! `write_str` emits parses back to itself, bare or as a field of a
//! journal-shaped object line, and every finite `f64` survives
//! `write_f64` bit for bit.

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
