//! Versioned bit-exact checkpointing of a running federation.

use fedms_tensor::Tensor;
use serde::{Deserialize, Serialize};

use super::SimulationEngine;
use crate::{Result, RunResult, Server, SimError};

/// The snapshot layout produced by this build; [`SimulationEngine::restore`]
/// accepts this version and the dense version-1 layout, and rejects
/// anything else with [`SimError::SnapshotVersion`].
///
/// Version history:
/// * **1** — dense `client_models`: one tensor per client.
/// * **2** — interned model bank: `model_pool` (distinct vectors) +
///   `model_refs` (one `u32` per client). Snapshot size scales with the
///   number of *distinct* client states, which cohort-sampled
///   million-client runs keep far below `K`.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A bit-exact checkpoint of a running federation: everything that evolves
/// during training and is not re-derivable from the configuration.
///
/// Because every stochastic stream in the engine is a pure function of
/// `(seed, round, entity)`, restoring a snapshot into a freshly built
/// engine (same config, datasets and adversaries) and continuing produces
/// results identical to the uninterrupted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]). Serde-defaulted to
    /// 0, so snapshots that predate versioning are explicitly rejected by
    /// [`SimulationEngine::restore`] rather than silently reinterpreted.
    #[serde(default)]
    pub version: u32,
    /// Completed rounds.
    pub round: usize,
    /// Every client's flat model vector, in client order (version-1
    /// layout; empty in version-2 snapshots, which carry the interned
    /// bank instead).
    #[serde(default)]
    pub client_models: Vec<Tensor>,
    /// The distinct model vectors referenced by `model_refs` (version-2
    /// layout).
    #[serde(default)]
    pub model_pool: Vec<Tensor>,
    /// One index into `model_pool` per client, in client order (version-2
    /// layout).
    #[serde(default)]
    pub model_refs: Vec<u32>,
    /// Per-server evolving state: (attack history, last aggregate,
    /// straggler outbox).
    pub server_state: Vec<(Vec<Tensor>, Option<Tensor>, Vec<Tensor>)>,
    /// Metrics recorded so far.
    pub result: RunResult,
    /// The recovery layer's cross-round state (per-server delivery records
    /// steering failover); empty when recovery is disabled, so snapshots
    /// from older builds restore cleanly.
    #[serde(default)]
    pub recovery_state: Vec<u32>,
    /// The online B̂ estimator's per-server suspicion scores; empty when
    /// the estimator is disabled (and in snapshots from older builds,
    /// which restore cleanly with a fresh estimator).
    #[serde(default)]
    pub estimator_scores: Vec<f64>,
    /// The estimator's current trim level, paired with `estimator_scores`.
    #[serde(default)]
    pub estimator_trim: usize,
}

impl SimulationEngine {
    /// Captures a bit-exact checkpoint of the federation's evolving state.
    pub fn snapshot(&self) -> Snapshot {
        let outboxes = self.transport.state_snapshot();
        let (model_pool, model_refs) = self.store.bank_parts();
        Snapshot {
            version: SNAPSHOT_VERSION,
            round: self.round,
            client_models: Vec::new(),
            model_pool,
            model_refs,
            server_state: self
                .servers
                .iter()
                .map(Server::state_snapshot)
                .zip(outboxes)
                .map(|((history, last), outbox)| (history, last, outbox))
                .collect(),
            result: self.result.clone(),
            recovery_state: self.transport.recovery_state(),
            estimator_scores: self
                .estimator
                .as_ref()
                .map(|e| e.scores().to_vec())
                .unwrap_or_default(),
            estimator_trim: self.estimator.as_ref().map(|e| e.trim()).unwrap_or(0),
        }
    }

    /// Restores a checkpoint taken from an engine with the same
    /// configuration, datasets and adversaries. Continuing afterwards is
    /// bit-identical to the uninterrupted run. Both the current interned
    /// layout and the dense version-1 layout are accepted (a v1 snapshot's
    /// models are interned on the way in).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotVersion`] for a snapshot written with an
    /// unknown layout version, and [`SimError::BadConfig`] if the
    /// snapshot's entity counts, model or server-state sizes, estimator or
    /// recovery state lengths do not match this engine, or its round is
    /// beyond [`u32::MAX`]. Nothing is changed when it fails.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<()> {
        let dim = self.store.model_len();
        match snapshot.version {
            1 => {
                if snapshot.client_models.len() != self.store.num_clients() {
                    return Err(SimError::BadConfig(format!(
                        "snapshot has {} clients, engine has {}",
                        snapshot.client_models.len(),
                        self.store.num_clients()
                    )));
                }
                if !snapshot.client_models.iter().all(|m| is_model_vector(m, dim)) {
                    return Err(SimError::BadConfig(
                        "snapshot model size does not match the engine's model".into(),
                    ));
                }
            }
            SNAPSHOT_VERSION => {
                if snapshot.model_refs.len() != self.store.num_clients() {
                    return Err(SimError::BadConfig(format!(
                        "snapshot has {} clients, engine has {}",
                        snapshot.model_refs.len(),
                        self.store.num_clients()
                    )));
                }
                if !snapshot.model_pool.iter().all(|m| is_model_vector(m, dim)) {
                    return Err(SimError::BadConfig(
                        "snapshot model size does not match the engine's model".into(),
                    ));
                }
                if snapshot.model_refs.iter().any(|&r| r as usize >= snapshot.model_pool.len()) {
                    return Err(SimError::BadConfig(
                        "snapshot model reference out of range of its model pool".into(),
                    ));
                }
            }
            other => {
                return Err(SimError::SnapshotVersion { found: other, expected: SNAPSHOT_VERSION });
            }
        }
        if snapshot.server_state.len() != self.servers.len() {
            return Err(SimError::BadConfig(format!(
                "snapshot has {} servers, engine has {}",
                snapshot.server_state.len(),
                self.servers.len()
            )));
        }
        for (s, (history, last, outbox)) in snapshot.server_state.iter().enumerate() {
            if !history.iter().chain(last).chain(outbox).all(|m| is_model_vector(m, dim)) {
                return Err(SimError::BadConfig(format!(
                    "snapshot state of server {s} holds a model whose size does not match the \
                     engine's model"
                )));
            }
        }
        // Both lists are empty when their layer is off (and in snapshots
        // from older builds); otherwise they hold one entry per server.
        for (what, len) in [
            ("estimator scores", snapshot.estimator_scores.len()),
            ("recovery records", snapshot.recovery_state.len()),
        ] {
            if len != 0 && len != self.servers.len() {
                return Err(SimError::BadConfig(format!(
                    "snapshot has {len} {what}, engine has {} servers",
                    self.servers.len()
                )));
            }
        }
        // Later rounds do arithmetic on the round number; no real run gets
        // near this bound.
        if snapshot.round > u32::MAX as usize {
            return Err(SimError::BadConfig(format!(
                "snapshot round {} is beyond the supported {}",
                snapshot.round,
                u32::MAX
            )));
        }
        if snapshot.version == 1 {
            self.store.restore_dense(&snapshot.client_models);
        } else {
            self.store.restore_parts(snapshot.model_pool.clone(), snapshot.model_refs.clone());
        }
        let mut outboxes = Vec::with_capacity(snapshot.server_state.len());
        for (server, (history, last, outbox)) in
            self.servers.iter_mut().zip(snapshot.server_state.iter())
        {
            server.restore_state(history.clone(), last.clone());
            outboxes.push(outbox.clone());
        }
        self.transport.restore_state(outboxes);
        self.transport.restore_recovery_state(snapshot.recovery_state.clone());
        if let Some(estimator) = self.estimator.as_mut() {
            // Pre-estimator snapshots carry no scores; a fresh estimator is
            // the right state for them.
            if !snapshot.estimator_scores.is_empty() {
                estimator.restore(snapshot.estimator_scores.clone(), snapshot.estimator_trim);
            }
        }
        self.round = snapshot.round;
        self.result = snapshot.result.clone();
        Ok(())
    }
}

/// Whether `t` is a flat model vector of `len` coordinates. A decoded
/// tensor's shape and data are separate fields, so both are checked.
fn is_model_vector(t: &Tensor, len: usize) -> bool {
    t.len() == len && t.dims() == [len]
}
