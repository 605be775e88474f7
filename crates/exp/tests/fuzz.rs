//! Fuzz properties for the spec decoders: arbitrary bytes (decoded as lossy
//! UTF-8) and token soup built from spec fragments must make
//! [`fedms_exp::toml::parse`] and [`SweepSpec::parse`] return `Ok` or a
//! typed error — never panic.

use fedms_exp::{toml, SweepSpec};
use proptest::prelude::*;

/// Short grammar fragments: structural tokens, multibyte characters and
/// scalar values.
const SYMBOLS: &[&str] = &[
    "[", "]", "=", "\"", "#", "\\", "\n", "\r\n", ",", " ", ":", ";", "é", "Ω", "🦀", "\u{0}",
    "[]", "0", "1", "-1", "2.5", "1e3", "1e999", "nan", "true", "false", "[1, 2]", "\"mean\"",
];

/// Longer fragments: table headers, keys, compound values, and a
/// `threat_schedule` value with its own grammar.
const PHRASES: &[&str] = &[
    "[experiment]\n",
    "[base]\n",
    "[grid]\n",
    "name = \"f\"\n",
    "scale = \"tiny\"\n",
    "rounds = ",
    "seeds = [",
    "filter = ",
    "attack = ",
    "byzantine = ",
    "epsilon = ",
    "upload = ",
    "threat_schedule = \"",
    "1..: compromise=1, attack=zero",
    "5..3: partition=0|1",
    "..: corrupt=",
    "\"trimmed:matched\"",
    "\"multikrum:2:4\"",
    "\"redundant:\"",
    "[0.0, 0.5]",
    "9223372036854775808",
];

/// Draws 0..48 fragments and concatenates them.
fn soup() -> impl Strategy<Value = String> {
    let n = SYMBOLS.len() + PHRASES.len();
    proptest::collection::vec(0..n, 0..48).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| SYMBOLS.get(i).unwrap_or_else(|| &PHRASES[i - SYMBOLS.len()]))
            .copied()
            .collect()
    })
}

/// A header that gets the soup past the `[experiment]` checks, so it
/// reaches the `[base]`/`[grid]` value decoders and grid expansion.
const PREFIX: &str = "[experiment]\nname = \"fuzz\"\nscale = \"tiny\"\nrounds = 2\n";

/// Both decoders on one input: each returns, whatever the verdict.
fn decode(text: &str) {
    let _ = toml::parse(text);
    let _ = SweepSpec::parse(text);
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        decode(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(text in soup()) {
        decode(&text);
    }

    #[test]
    fn token_soup_under_a_valid_header_never_panics(
        text in soup(),
        table in 0usize..3,
    ) {
        let table = ["", "[base]\n", "[grid]\n"][table];
        decode(&format!("{PREFIX}{table}{text}"));
    }
}
