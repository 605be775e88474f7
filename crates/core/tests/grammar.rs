//! Fuzz and round-trip properties for the textual config vocabulary: the
//! four kind grammars, the threat-schedule grammar and the key table.
//! Arbitrary bytes and token soup must give `Ok` or a typed error, never a
//! panic; every kind's `Display` form must parse back to the same value.

use fedms_attacks::{AttackKind, ClientAttackKind};
use fedms_core::{FedMsConfig, FilterKind};
use fedms_sim::{ThreatSchedule, UploadStrategy};
use proptest::prelude::*;

/// Grammar fragments: kind names, separators, directives, numbers that
/// overflow or are not finite, whitespace and multibyte characters.
const TOKENS: &[&str] = &[
    "noise",
    "random",
    "sign_flip",
    "label_flip",
    "benign",
    "zero",
    "ipm",
    "amplify",
    "trimmed",
    "adaptive",
    "multikrum",
    "krum",
    "mean",
    "redundant",
    "sparse",
    "matched",
    ":",
    "::",
    "..",
    ";",
    ",",
    "|",
    "=",
    " ",
    "\t",
    "compromise=",
    "attack=",
    "partition=",
    "corrupt=",
    "0",
    "1",
    "-1",
    "2.5",
    "-10",
    "1e999",
    "nan",
    "inf",
    "18446744073709551616",
    "é",
    "🦀",
    "\u{0}",
    "",
];

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

fn bytes() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..=255, 0..64).prop_map(|b| String::from_utf8_lossy(&b).into())
}

/// Every decoder on one input, with small B and P for the filter's
/// `matched` shorthand; each returns, whatever the verdict.
fn decode(text: &str, b: usize, p: usize, key: usize) {
    let _ = ThreatSchedule::parse(text);
    let _ = AttackKind::parse(text);
    let _ = ClientAttackKind::parse(text);
    let _ = FilterKind::parse(text, b, p);
    let _ = UploadStrategy::parse(text);
    let key = FedMsConfig::KEYS[key % FedMsConfig::KEYS.len()].name;
    let _ = FedMsConfig::tiny(0).apply_keys([(key, text)]);
    let _ = FedMsConfig::tiny(0).apply_keys([(text, "1")]);
}

/// A finite float from raw bits.
fn finite32(bits: u64) -> f32 {
    let x = f32::from_bits(bits as u32);
    if x.is_finite() {
        x
    } else {
        1.5
    }
}

fn attack(i: usize, bits: (u64, u64)) -> AttackKind {
    let (a, b) = (finite32(bits.0), finite32(bits.1));
    match AttackKind::DEFAULTS[i % AttackKind::DEFAULTS.len()] {
        AttackKind::Noise { .. } => AttackKind::Noise { std: a },
        AttackKind::Random { .. } => AttackKind::Random { lo: a, hi: b },
        AttackKind::Safeguard { .. } => AttackKind::Safeguard { gamma: a },
        AttackKind::Backward { .. } => AttackKind::Backward { delay: bits.0 as usize },
        AttackKind::SignFlip { .. } => AttackKind::SignFlip { scale: a },
        AttackKind::Alie { .. } => AttackKind::Alie { z: a },
        AttackKind::Ipm { .. } => AttackKind::Ipm { epsilon: a },
        bare => bare,
    }
}

fn client_attack(i: usize, bits: (u64, u64)) -> ClientAttackKind {
    let (a, b) = (finite32(bits.0), finite32(bits.1));
    match ClientAttackKind::DEFAULTS[i % ClientAttackKind::DEFAULTS.len()] {
        ClientAttackKind::SignFlip { .. } => ClientAttackKind::SignFlip { scale: a },
        ClientAttackKind::Noise { .. } => ClientAttackKind::Noise { std: a },
        ClientAttackKind::Random { .. } => ClientAttackKind::Random { lo: a, hi: b },
        ClientAttackKind::Amplify { .. } => ClientAttackKind::Amplify { factor: a },
        ClientAttackKind::LabelFlip { .. } => {
            ClientAttackKind::LabelFlip { offset: bits.0 as usize }
        }
    }
}

fn filter(i: usize, bits: (u64, u64)) -> FilterKind {
    let (n, m) = (bits.0 as usize, bits.1 as usize);
    let beta = f64::from_bits(bits.0);
    match FilterKind::DEFAULTS[i % FilterKind::DEFAULTS.len()] {
        FilterKind::TrimmedMean { .. } => {
            FilterKind::TrimmedMean { beta: if beta.is_finite() { beta } else { 0.25 } }
        }
        FilterKind::AdaptiveTrimmedMean { .. } => FilterKind::AdaptiveTrimmedMean { trim: n },
        FilterKind::Krum { .. } => FilterKind::Krum { f: n },
        FilterKind::MultiKrum { .. } => FilterKind::MultiKrum { f: n, m },
        FilterKind::Bulyan { .. } => FilterKind::Bulyan { f: n },
        FilterKind::CenteredClip { .. } => FilterKind::CenteredClip { tau: finite32(bits.1) },
        FilterKind::NormBound { .. } => FilterKind::NormBound { factor: finite32(bits.1) },
        bare => bare,
    }
}

fn upload(i: usize, k: u64) -> UploadStrategy {
    match UploadStrategy::DEFAULTS[i % UploadStrategy::DEFAULTS.len()] {
        UploadStrategy::Redundant(_) => UploadStrategy::Redundant(k as usize),
        bare => bare,
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(text in bytes(), b in 0usize..12, p in 0usize..12, key in 0usize..64) {
        decode(&text, b, p, key);
    }

    #[test]
    fn token_soup_never_panics(text in soup(), b in 0usize..12, p in 0usize..12, key in 0usize..64) {
        decode(&text, b, p, key);
    }

    #[test]
    fn display_round_trips_every_kind(
        i in 0usize..64,
        bits in (0u64..=u64::MAX, 0u64..=u64::MAX),
    ) {
        let a = attack(i, bits);
        prop_assert_eq!(AttackKind::parse(&a.to_string()), Ok(a));
        let c = client_attack(i, bits);
        prop_assert_eq!(ClientAttackKind::parse(&c.to_string()), Ok(c));
        let f = filter(i, bits);
        prop_assert_eq!(FilterKind::parse(&f.to_string(), 0, 0), Ok(f));
        let u = upload(i, bits.0);
        prop_assert_eq!(UploadStrategy::parse(&u.to_string()), Ok(u));
    }

    #[test]
    fn the_key_table_takes_the_display_forms(i in 0usize..64, bits in (0u64..=u64::MAX, 0u64..=u64::MAX)) {
        let mut cfg = FedMsConfig::tiny(0);
        let (a, c, f, u) = (attack(i, bits), client_attack(i, bits), filter(i, bits), upload(i, bits.0));
        let texts = [a.to_string(), c.to_string(), f.to_string(), u.to_string()];
        let keys = ["attack", "client_attack", "filter", "upload"];
        prop_assert!(cfg.apply_keys(keys.iter().zip(&texts)).is_ok());
        prop_assert_eq!((cfg.attack, cfg.client_attack, cfg.filter, cfg.upload), (a, c, f, u));
    }
}
