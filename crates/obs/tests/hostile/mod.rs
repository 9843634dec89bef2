//! Hostile-input generators for the parser property tests. `shard-core`
//! includes this file by path: it depends on `shard-obs`, not back.

use proptest::collection::vec;
use proptest::prelude::*;

/// A well-formed trace: the document mutations start from.
pub const TRACE: &str = concat!(
    "{\"event\":\"txn\",\"i\":0,\"t\":0,\"missed\":[]}\n",
    "{\"event\":\"txn\",\"i\":1,\"t\":10,\"missed\":[]}\n",
    "{\"event\":\"txn\",\"i\":2,\"t\":20,\"missed\":[0]}\n",
);
/// The mutation dictionary, space-separated: JSON punctuation, extreme
/// numbers, broken escapes, multi-byte characters and a line break.
const TOKENS: &str =
    "{ } [ ] \" : , 0 - . e 1e999 -1 2.5 18446744073709551615 \\ \\u \\ud800 null \n é 🎈 [[[[";

/// `doc` with each edit `(at, token, cut)` applied in turn: `cut % 3`
/// characters at `at` replaced by a dictionary token (none when `cut %
/// 4 == 3`). Positions and tokens wrap.
pub fn mutate(doc: &str, edits: &[(u32, u32, u32)]) -> String {
    let tokens: Vec<&str> = TOKENS.split(' ').collect();
    let mut chars: Vec<char> = doc.chars().collect();
    for &(at, token, cut) in edits {
        let at = at as usize % (chars.len() + 1);
        let end = (at + cut as usize % 3).min(chars.len());
        let token = if cut % 4 == 3 {
            ""
        } else {
            tokens[token as usize % tokens.len()]
        };
        chars.splice(at..end, token.chars());
    }
    chars.into_iter().collect()
}

/// Arbitrary (often hostile) Unicode strings. The vendored proptest
/// shim has no `String` strategy, so build one from raw code points,
/// biased toward the troublesome low range (controls, quote, backslash).
pub fn arb_string() -> impl Strategy<Value = String> {
    vec(any::<u32>(), 0..40).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|c| char::from_u32(c % 0x110000).or(char::from_u32(c % 0x80)))
            .collect()
    })
}
