//! Property tests for the hand-rolled JSON layer: arbitrary strings —
//! including control characters, quotes, backslashes and astral-plane
//! code points — must survive escape → JSONL line → parse unchanged,
//! and every emitted line must stay a single line. Hostile input never
//! panics `parse` or `certify`.

mod hostile;

use hostile::{arb_string, mutate, TRACE};
use proptest::collection::vec;
use proptest::prelude::*;
use shard_obs::json::{parse, string, Json};
use shard_obs::{certify, EventSink};

/// One certificate of each property [`TRACE`] witnesses.
const CERTS: [&str; 3] = [
    "{\"schema\":\"shard-cert/v1\",\"property\":\"transitivity\",\"low\":0,\"mid\":1,\"top\":2}",
    "{\"schema\":\"shard-cert/v1\",\"property\":\"k_completeness\",\"index\":2,\"missed\":1}",
    "{\"schema\":\"shard-cert/v1\",\"property\":\"delay_bound\",\"seer\":2,\"missed\":0,\"bound\":21}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn string_escape_round_trips(s in arb_string()) {
        let encoded = string(&s);
        let decoded = parse(&encoded).expect("escaped string parses");
        prop_assert_eq!(decoded.as_str(), Some(s.as_str()));
    }

    #[test]
    fn escaped_strings_never_break_jsonl_framing(s in arb_string()) {
        let encoded = string(&s);
        prop_assert!(!encoded.contains('\n'), "raw newline in {encoded:?}");
        prop_assert!(!encoded.contains('\r'), "raw CR in {encoded:?}");
    }

    #[test]
    fn event_lines_round_trip_arbitrary_fields(k in arb_string(), v in arb_string()) {
        let sink = EventSink::in_memory();
        sink.event("prop").str(&k, &v).str("tail", "end").emit();
        let text = sink.drain_to_string();
        prop_assert_eq!(text.lines().count(), 1, "one event, one line");
        let obj = parse(text.lines().next().expect("line")).expect("line parses");
        prop_assert_eq!(obj.get("event").and_then(Json::as_str), Some("prop"));
        // NB: if the generated key collides with "event" or "tail" the
        // writer emits a duplicate key; JSON parsers keep the last one,
        // so only assert on the generated key when it is distinct.
        if k != "event" && k != "tail" {
            prop_assert_eq!(obj.get(&k).and_then(Json::as_str), Some(v.as_str()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_text_never_panics_the_parsers(
        (a, b) in (arb_string(), arb_string()),
        seed in 0usize..3,
        edits in vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..6),
    ) {
        let (trace, cert) = (mutate(TRACE, &edits), mutate(CERTS[seed], &edits));
        let pairs = [(a.as_str(), b.as_str()), (TRACE, &a), (&trace, CERTS[seed]), (TRACE, &cert)];
        for (trace, cert) in pairs {
            let _ = parse(cert);
            let _ = certify(trace, cert);
        }
        let _ = parse(trace.lines().nth(seed).unwrap_or_default());
    }
}

#[test]
fn nesting_past_the_cap_is_refused_without_overflowing_the_stack() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nested(128)).is_ok());
    assert!(parse(&nested(129)).unwrap_err().msg.contains("128 levels"));
    let deep = "[".repeat(1_000_000);
    assert!(parse(&deep).is_err());
    assert!(certify(TRACE, &deep).unwrap_err().contains("128 levels"));
}
