//! The one-valued compute-backend field of the configs.
//!
//! Every tensor and NN hot path calls the free kernels in
//! [`crate::kernels`] directly; there is one kernel set and so nothing to
//! select. [`BackendKind`] survives only as a serialized config field: the
//! round benchmark reads `backend` off its configs, and
//! `FedMsConfig::stable_hash` hashes the serialized config, so removing the
//! field would re-key every recorded sweep trial.

/// The compute backend a config names. It has one value, the default.
///
/// Kept for two readers: the round benchmark, which prints and forwards
/// the field, and the config hash behind every sweep trial id, which
/// covers its serialized form (`"backend":"Scalar"`). A config naming any
/// other backend fails to deserialize.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize, Hash,
)]
pub enum BackendKind {
    /// The scalar kernels of [`crate::kernels`].
    #[default]
    Scalar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_and_rejects_other_backends() {
        assert_eq!(BackendKind::default(), BackendKind::Scalar);
        let json = serde_json::to_string(&BackendKind::Scalar).unwrap();
        assert_eq!(json, "\"Scalar\"");
        let back: BackendKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, BackendKind::Scalar);
        assert!(serde_json::from_str::<BackendKind>("\"Blocked\"").is_err());
    }
}
