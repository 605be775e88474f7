//! Error type for the Fed-MS core.

use std::fmt;

use fedms_aggregation::AggError;
use fedms_attacks::AttackError;
use fedms_data::DataError;
use fedms_nn::NnError;
use fedms_sim::SimError;
use fedms_tensor::TensorError;

/// Errors produced while configuring or running Fed-MS.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Simulator failure.
    Sim(SimError),
    /// Dataset failure.
    Data(DataError),
    /// Aggregation failure.
    Agg(AggError),
    /// Attack failure.
    Attack(AttackError),
    /// Model failure.
    Nn(NnError),
    /// Tensor failure.
    Tensor(TensorError),
    /// Invalid Fed-MS configuration.
    BadConfig(String),
    /// A config key that is unknown or whose value does not parse.
    BadKey {
        /// The key, as spelled in [`FedMsConfig::KEYS`](crate::FedMsConfig::KEYS).
        key: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Agg(e) => write!(f, "aggregation error: {e}"),
            CoreError::Attack(e) => write!(f, "attack error: {e}"),
            CoreError::Nn(e) => write!(f, "model error: {e}"),
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            CoreError::BadKey { key, reason } => write!(f, "bad `{key}`: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Data(e) => Some(e),
            CoreError::Agg(e) => Some(e),
            CoreError::Attack(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Tensor(e) => Some(e),
            CoreError::BadConfig(_) | CoreError::BadKey { .. } => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<AggError> for CoreError {
    fn from(e: AggError) -> Self {
        CoreError::Agg(e)
    }
}

impl From<AttackError> for CoreError {
    fn from(e: AttackError) -> Self {
        CoreError::Attack(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e: CoreError = AggError::Empty.into();
        assert!(e.to_string().contains("aggregation"));
        assert!(e.source().is_some());
        assert!(CoreError::BadConfig("x".into()).source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
