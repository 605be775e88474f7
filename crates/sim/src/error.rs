//! Error type for the simulator.

use std::fmt;

use fedms_aggregation::AggError;
use fedms_attacks::AttackError;
use fedms_data::DataError;
use fedms_nn::NnError;
use fedms_tensor::TensorError;

use crate::net::WireError;

/// Errors produced while constructing or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Tensor-level failure.
    Tensor(TensorError),
    /// Model/training failure.
    Nn(NnError),
    /// Dataset/partitioning failure.
    Data(DataError),
    /// Aggregation-rule failure.
    Agg(AggError),
    /// Attack failure.
    Attack(AttackError),
    /// Invalid simulation configuration.
    BadConfig(String),
    /// A client received too few server models to filter safely.
    ///
    /// Raised when faults leave a client with `P' ≤ 2B` surviving models:
    /// the trimmed-mean filter can no longer guarantee an honest majority
    /// per coordinate, so the round aborts with a typed error instead of
    /// silently aggregating a possibly Byzantine-dominated sample.
    DegradedQuorum {
        /// Round in which the quorum was lost.
        round: usize,
        /// The client whose view degraded.
        client: usize,
        /// Number of server models that actually arrived (`P'`).
        received: usize,
        /// The strict lower bound `2B`: safety needs `received > needed`.
        needed: usize,
        /// The federation's full server count `P`, so operators can see how
        /// badly the view degraded (`received` of `total` survived).
        total: usize,
        /// The online estimator's current trim level `β̂·P`, when the
        /// adaptive defence is running: tells operators whether the
        /// estimator over-trimmed or servers actually died.
        beta_hat: Option<usize>,
        /// Index of the active threat epoch when the quorum was lost, if a
        /// dynamic threat schedule was driving the run.
        threat_epoch: Option<usize>,
    },
    /// A checkpoint was written with a different [`crate::Snapshot`]
    /// layout version than this build produces
    /// ([`crate::SNAPSHOT_VERSION`]). Raised by
    /// [`crate::SimulationEngine::restore`] instead of silently
    /// reinterpreting an incompatible layout.
    SnapshotVersion {
        /// Version recorded in the snapshot (0 for pre-versioning files).
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A network frame failed to decode (see [`crate::net::WireError`]).
    Wire(WireError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Tensor(e) => write!(f, "tensor error: {e}"),
            SimError::Nn(e) => write!(f, "model error: {e}"),
            SimError::Data(e) => write!(f, "data error: {e}"),
            SimError::Agg(e) => write!(f, "aggregation error: {e}"),
            SimError::Attack(e) => write!(f, "attack error: {e}"),
            SimError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            SimError::DegradedQuorum {
                round,
                client,
                received,
                needed,
                total,
                beta_hat,
                threat_epoch,
            } => {
                write!(
                    f,
                    "round {round}: client {client} received only {received} of {total} server \
                     models but Byzantine tolerance needs more than {needed}"
                )?;
                if let Some(trim) = beta_hat {
                    write!(f, " (estimator trimming {trim} per side)")?;
                }
                if let Some(epoch) = threat_epoch {
                    write!(f, " (threat epoch {epoch} active)")?;
                }
                Ok(())
            }
            SimError::SnapshotVersion { found, expected } => write!(
                f,
                "snapshot has layout version {found} but this build reads \
                 version {expected}"
            ),
            SimError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Tensor(e) => Some(e),
            SimError::Nn(e) => Some(e),
            SimError::Data(e) => Some(e),
            SimError::Agg(e) => Some(e),
            SimError::Attack(e) => Some(e),
            SimError::Wire(e) => Some(e),
            SimError::BadConfig(_)
            | SimError::DegradedQuorum { .. }
            | SimError::SnapshotVersion { .. } => None,
        }
    }
}

impl From<WireError> for SimError {
    fn from(e: WireError) -> Self {
        SimError::Wire(e)
    }
}

impl From<TensorError> for SimError {
    fn from(e: TensorError) -> Self {
        SimError::Tensor(e)
    }
}

impl From<NnError> for SimError {
    fn from(e: NnError) -> Self {
        SimError::Nn(e)
    }
}

impl From<DataError> for SimError {
    fn from(e: DataError) -> Self {
        SimError::Data(e)
    }
}

impl From<AggError> for SimError {
    fn from(e: AggError) -> Self {
        SimError::Agg(e)
    }
}

impl From<AttackError> for SimError {
    fn from(e: AttackError) -> Self {
        SimError::Attack(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e: SimError = TensorError::Empty("x").into();
        assert!(e.to_string().contains("tensor"));
        assert!(e.source().is_some());
        assert!(SimError::BadConfig("k".into()).source().is_none());
    }

    #[test]
    fn degraded_quorum_display_names_parties() {
        let e = SimError::DegradedQuorum {
            round: 7,
            client: 3,
            received: 4,
            needed: 4,
            total: 10,
            beta_hat: None,
            threat_epoch: None,
        };
        let msg = e.to_string();
        assert!(msg.contains("round 7"));
        assert!(msg.contains("client 3"));
        assert!(msg.contains("4 of 10"));
        assert!(!msg.contains("estimator"));
        assert!(!msg.contains("threat epoch"));
        assert!(e.source().is_none());
    }

    #[test]
    fn degraded_quorum_display_reports_threat_context() {
        let e = SimError::DegradedQuorum {
            round: 7,
            client: 3,
            received: 4,
            needed: 4,
            total: 10,
            beta_hat: Some(2),
            threat_epoch: Some(1),
        };
        let msg = e.to_string();
        assert!(msg.contains("estimator trimming 2 per side"));
        assert!(msg.contains("threat epoch 1 active"));
    }

    #[test]
    fn snapshot_version_display_names_versions() {
        let e = SimError::SnapshotVersion { found: 0, expected: 1 };
        let msg = e.to_string();
        assert!(msg.contains("version 0"));
        assert!(msg.contains("version 1"));
        assert!(e.source().is_none());
    }

    #[test]
    fn conversions_compile() {
        let _: SimError = NnError::NoForwardCache("l").into();
        let _: SimError = DataError::BadConfig("d".into()).into();
        let _: SimError = AggError::Empty.into();
        let _: SimError = AttackError::BadParameter("p".into()).into();
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
