//! Fuzzes the two checkpoint decoders with untrusted input: a snapshot
//! whose lengths were tampered with must make `restore` (and, if it is
//! accepted, the next round) return a typed error or `Ok`, never panic;
//! arbitrary text fed to the JSON decoder for `FedMsConfig` and `Snapshot`
//! must come back as an error, never a panic or a stack overflow.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use fedms::{FedMsConfig, Snapshot, Tensor};
use proptest::prelude::*;

/// A federation whose snapshot carries every piece of evolving state: a
/// history-dependent Byzantine server (attack history), a straggler
/// (outboxes), recovery (per-server suspicion) and the B̂ estimator
/// (scores and trim).
fn config() -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(41);
    cfg.apply_keys([
        ("byzantine", "1"),
        ("attack", "safeguard"),
        ("filter", "adaptive:matched"),
        ("estimate_b", "true"),
        ("straggler_servers", "1"),
        ("straggler_delay", "2"),
        ("retry_budget", "2"),
        ("failover", "true"),
        ("proceed_degraded", "true"),
    ])
    .expect("valid keys");
    cfg
}

/// The untampered snapshot after three rounds, and its JSON text.
fn base() -> &'static (Snapshot, String) {
    static BASE: OnceLock<(Snapshot, String)> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut engine = config().build_engine().expect("engine");
        engine.run(3).expect("three rounds");
        let snap = engine.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        (snap, json)
    })
}

/// Picks from a list by a drawn index.
fn pick<T: Copy>(options: &[T], draw: usize) -> T {
    options[draw % options.len()]
}

/// A length near `len`: zero, one off either way, doubled, or unrelated.
fn near(len: usize, draw: usize) -> usize {
    pick(&[0, 1, len.saturating_sub(1), len + 1, 2 * len, 7], draw)
}

fn vector(len: usize) -> Tensor {
    Tensor::from_vec(vec![0.5; len], &[len]).expect("flat tensor")
}

/// Applies one length mutation (`what` picks the field, `at` the entity,
/// `draw` the new length or value).
fn mutate(snap: &mut Snapshot, what: u8, at: usize, draw: usize) {
    let dim = snap.model_pool.first().map_or(1, Tensor::len);
    let servers = snap.server_state.len().max(1);
    match what {
        0 => snap.round = pick(&[0, 1, 1_000, usize::MAX / 2, usize::MAX], draw),
        1 => snap.model_refs.resize(near(snap.model_refs.len(), draw), 0),
        2 => {
            let (i, pool) = (at % snap.model_refs.len().max(1), snap.model_pool.len() as u32);
            if let Some(r) = snap.model_refs.get_mut(i) {
                *r = pick(&[u32::MAX, pool, 1], draw);
            }
        }
        3 => {
            let i = at % snap.model_pool.len().max(1);
            if let Some(m) = snap.model_pool.get_mut(i) {
                *m = vector(near(dim, draw));
            }
        }
        4 => snap.model_pool.truncate(near(snap.model_pool.len(), draw)),
        5 => {
            let len = near(servers, draw);
            snap.server_state.resize_with(len, || (Vec::new(), None, Vec::new()));
        }
        6..=9 => {
            let Some((history, last, outbox)) = snap.server_state.get_mut(at % servers) else {
                return;
            };
            match what {
                6 => history.push(vector(near(dim, draw))),
                7 => match history.first_mut() {
                    Some(h) => *h = vector(near(dim, draw)),
                    None => history.resize_with(near(70, draw), || vector(dim)),
                },
                8 => *last = Some(vector(near(dim, draw))),
                _ => outbox.push(vector(near(dim, draw))),
            }
        }
        10 => snap.estimator_scores.resize(near(servers, draw), 1.0),
        11 => snap.estimator_trim = pick(&[0, servers, usize::MAX], draw),
        12 => snap.recovery_state.resize(near(servers, draw), u32::MAX),
        13 => {
            // The dense version-1 layout, with a mismatched client count or
            // model size.
            snap.version = 1;
            let k = snap.model_refs.len();
            snap.client_models = (0..near(k, at)).map(|_| vector(near(dim, draw))).collect();
        }
        _ => snap.version = pick(&[0, 3, u32::MAX], draw),
    }
}

/// Restores `snap` into a fresh engine and, if accepted, runs two rounds.
/// Returns the panic message if anything panicked.
fn restore_and_step(snap: &Snapshot) -> Option<String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = config().build_engine().expect("engine");
        if engine.restore(snap).is_ok() {
            for _ in 0..2 {
                if engine.step_round(true).is_err() {
                    break;
                }
            }
        }
    }));
    outcome.err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn untampered_snapshot_restores_and_continues() {
    let (snap, _) = base();
    assert!(!snap.estimator_scores.is_empty(), "the estimator state is exercised");
    assert!(!snap.recovery_state.is_empty(), "the recovery state is exercised");
    assert!(snap.server_state.iter().any(|s| !s.0.is_empty()), "attack history is exercised");
    assert!(snap.server_state.iter().any(|s| !s.2.is_empty()), "an outbox is exercised");
    let mut engine = config().build_engine().unwrap();
    engine.restore(snap).unwrap();
    engine.step_round(true).unwrap();
}

proptest! {
    #[test]
    fn tampered_snapshot_never_panics(
        edits in proptest::collection::vec((0u8..15, 0usize..64, 0usize..64), 1..4),
    ) {
        let mut snap = base().0.clone();
        for &(what, at, draw) in &edits {
            mutate(&mut snap, what, at, draw);
        }
        let panic = restore_and_step(&snap);
        prop_assert!(panic.is_none(), "edits {edits:?} panicked: {panic:?}");
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_json_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::from_str::<FedMsConfig>(&text);
        let _ = serde_json::from_str::<Snapshot>(&text);
    }

    #[test]
    fn corrupted_snapshot_json_is_an_error_or_restores(
        cut in 0usize..4096,
        flips in proptest::collection::vec((0usize..1_000_000, 0u8..12), 0..6),
    ) {
        // Truncate and splice JSON punctuation into a real snapshot, then
        // push whatever still decodes through restore and two rounds.
        let (_, json) = base();
        let mut bytes = json.as_bytes().to_vec();
        bytes.truncate(bytes.len() - cut.min(bytes.len()) / 8);
        for &(pos, tok) in &flips {
            if !bytes.is_empty() {
                let i = pos % bytes.len();
                bytes[i] = b"[]{}\",:-0e9n"[usize::from(tok)];
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(snap) = serde_json::from_str::<Snapshot>(&text) {
            let panic = restore_and_step(&snap);
            prop_assert!(panic.is_none(), "decoded snapshot panicked: {panic:?}");
        }
    }

    #[test]
    fn json_token_soup_never_panics(
        tokens in proptest::collection::vec(0usize..24, 0..64),
    ) {
        const SOUP: [&str; 24] = [
            "{", "}", "[", "]", ",", ":", "\"clients\"", "\"servers\"", "\"version\"",
            "\"round\"", "\"server_state\"", "\"model_pool\"", "\"shape\"", "\"data\"",
            "null", "true", "-1", "0", "1e999", "18446744073709551616", "0.5",
            "\"\\ud800\"", "\"\\u+0041\"", "\"Mlp\"",
        ];
        let text: String = tokens.iter().map(|&t| SOUP[t]).collect();
        let _ = serde_json::from_str::<FedMsConfig>(&text);
        let _ = serde_json::from_str::<Snapshot>(&text);
    }
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let text = open.repeat(100_000);
        assert!(serde_json::from_str::<FedMsConfig>(&text).is_err());
        assert!(serde_json::from_str::<Snapshot>(&text).is_err());
    }
}

#[test]
fn tensor_whose_shape_disagrees_with_its_data_is_rejected() {
    // A pool tensor claiming more elements than it carries.
    let (snap, json) = base();
    let dim = snap.model_pool[0].len();
    let tampered =
        json.replacen(&format!("\"shape\":[{dim}]"), &format!("\"shape\":[{}]", dim + 1), 1);
    assert_ne!(&tampered, json, "the shape literal was found");
    match serde_json::from_str::<Snapshot>(&tampered) {
        Err(_) => {}
        Ok(bad) => {
            let mut engine = config().build_engine().unwrap();
            assert!(engine.restore(&bad).is_err(), "an inconsistent tensor must not restore");
        }
    }
}
