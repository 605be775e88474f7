//! Backend-parity suite.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Bit-exactness of the default path.** The `ScalarBackend` is the
//!    code that predates the backend abstraction, moved verbatim; a full
//!    engine run must stay byte-identical to the pre-refactor engine. The
//!    digests below were recorded from the engine *before* the backend
//!    subsystem was introduced, so any arithmetic drift in the default
//!    path — reordered reductions, changed scratch-buffer contents,
//!    different iteration order — fails these tests.
//! 2. **Statistical parity of the optimized path.** `BlockedBackend`
//!    reassociates reductions (blocked/multi-accumulator kernels), so it
//!    is *not* bit-identical; it must instead track the scalar accuracy
//!    trajectory within a stated tolerance on the same federation.

use fedms::core::fnv1a64;
use fedms::{FedMsConfig, ModelSpec};

/// Canonical byte serialization of a run: the full `RunResult` JSON.
/// Accuracy/loss are f32s formatted by serde_json's shortest-roundtrip
/// float printer, so equal digests mean bit-equal trajectories.
fn run_digest(cfg: &FedMsConfig) -> u64 {
    let result = cfg.run().expect("engine run");
    let json = serde_json::to_string(&result).expect("serialize RunResult");
    fnv1a64(json.as_bytes())
}

/// A tiny MLP federation with Byzantine servers and the paper's filter —
/// exercises linear layers, softmax-CE loss, SGD, and trimmed-mean
/// aggregation end to end.
fn mlp_cfg() -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(7);
    cfg.byzantine_count = 1;
    cfg.parallel = true; // client-parallel phases are bit-identical
    cfg
}

/// A miniature MobileNet federation — exercises conv/depthwise-conv
/// forward/backward (im2col/col2im) through the engine.
fn nano_cfg() -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(11);
    cfg.clients = 4;
    cfg.rounds = 2;
    cfg.model = ModelSpec::MobileNetNano(fedms::MobileNetNanoConfig {
        in_channels: 1,
        in_h: 4,
        in_w: 4,
        stem_channels: 4,
        blocks: vec![(2, 4, 1)],
        num_classes: 4,
    });
    cfg
}

/// Digest of `mlp_cfg()` recorded on the pre-backend engine.
const MLP_DIGEST: u64 = 3679570173011649185;
/// Digest of `nano_cfg()` recorded on the pre-backend engine.
const NANO_DIGEST: u64 = 4397706935609085444;

#[test]
fn scalar_backend_mlp_run_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        run_digest(&mlp_cfg()),
        MLP_DIGEST,
        "default (scalar) MLP trajectory drifted from the pre-backend engine"
    );
}

#[test]
fn scalar_backend_conv_run_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        run_digest(&nano_cfg()),
        NANO_DIGEST,
        "default (scalar) conv trajectory drifted from the pre-backend engine"
    );
}

/// The Table II federation (192-64-10 MLP, K = 50, P = 10, B = 2 random)
/// cut to three rounds. Its 64-wide hidden layer fills whole register
/// tiles of the scalar `matmul_transb`, which the 16-8-4 `mlp_cfg()`
/// never reaches.
fn paper_cfg() -> FedMsConfig {
    let mut cfg = FedMsConfig::paper_defaults(5).expect("Table II defaults");
    cfg.byzantine_count = 2;
    cfg.attack = fedms::AttackKind::Random { lo: -10.0, hi: 10.0 };
    cfg.rounds = 3;
    cfg
}

/// Runs `cfg` at one and at four worker threads and checks both against
/// `want`, a digest recorded on the engine before the register-tiled
/// `matmul_transb`, the parameter-only input-layer backward and
/// in-worker local evaluation.
fn assert_pinned(cfg: FedMsConfig, want: u64) {
    for threads in [1, 4] {
        let mut cfg = cfg.clone();
        cfg.threads = threads;
        assert_eq!(run_digest(&cfg), want, "paper-shape run at {threads} threads drifted");
    }
}

// Each variant reaches a different split between clients scored in the
// training worker and clients scored from the model bank.

#[test]
fn scalar_paper_run_is_pinned() {
    assert_pinned(paper_cfg(), 2662055324864312957);
}

#[test]
fn scalar_paper_run_with_partial_participation_is_pinned() {
    let mut cfg = paper_cfg();
    cfg.participation = 0.5;
    assert_pinned(cfg, 17937274482929980022);
}

#[test]
fn scalar_paper_run_with_cohort_is_pinned() {
    let mut cfg = paper_cfg();
    cfg.cohort = 20;
    assert_pinned(cfg, 5949373850137305160);
}

#[test]
fn scalar_paper_run_with_eval_clients_is_pinned() {
    let mut cfg = paper_cfg();
    cfg.eval_clients = 10;
    assert_pinned(cfg, 14394701002492551081);
}

#[test]
fn scalar_paper_run_with_byzantine_clients_is_pinned() {
    let mut cfg = paper_cfg();
    cfg.byzantine_clients = 2;
    assert_pinned(cfg, 11213814088305680755);
}

#[test]
fn scalar_paper_run_with_sparse_evaluation_is_pinned() {
    let mut cfg = paper_cfg();
    cfg.eval_every = 2;
    assert_pinned(cfg, 7278204534709100162);
}

#[test]
fn scalar_paper_run_scoring_filtered_models_is_pinned() {
    let mut cfg = paper_cfg();
    cfg.eval_after_local = false;
    assert_pinned(cfg, 12164203726352988639);
}

/// Full-engine statistical parity: the blocked backend must track the
/// scalar accuracy/loss trajectory on the same federation. Its kernels
/// reassociate f32 reductions, so runs are not bit-identical — but over a
/// short run the drift stays far below the accuracy scale.
#[cfg(feature = "backend-blocked")]
mod blocked {
    use super::{mlp_cfg, nano_cfg};
    use fedms::{BackendKind, FedMsConfig};

    fn trajectories(cfg: &FedMsConfig) -> (Vec<f32>, Vec<f32>) {
        let scalar = cfg.run().expect("scalar run");
        let mut blocked_cfg = cfg.clone();
        blocked_cfg.backend = BackendKind::Blocked;
        let blocked = blocked_cfg.run().expect("blocked run");
        let acc = |r: &fedms::RunResult| -> Vec<f32> {
            r.rounds.iter().map(|m| m.mean_accuracy).collect()
        };
        (acc(&scalar), acc(&blocked))
    }

    fn assert_tracks(cfg: &FedMsConfig, tol: f32) {
        let (scalar, blocked) = trajectories(cfg);
        assert_eq!(scalar.len(), blocked.len(), "evaluation cadence must agree");
        assert!(!scalar.is_empty(), "run must evaluate at least once");
        for (round, (s, b)) in scalar.iter().zip(blocked.iter()).enumerate() {
            assert!(
                (s - b).abs() <= tol,
                "accuracy diverged at eval {round}: scalar {s}, blocked {b}"
            );
        }
    }

    #[test]
    fn blocked_backend_tracks_scalar_mlp_accuracy() {
        assert_tracks(&mlp_cfg(), 0.1);
    }

    #[test]
    fn blocked_backend_tracks_scalar_conv_accuracy() {
        assert_tracks(&nano_cfg(), 0.1);
    }
}
