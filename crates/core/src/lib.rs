//! Fed-MS: Byzantine fault tolerant federated edge learning with multiple
//! servers.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Qi, Ma, Zou, Yuan, Li, Yu — ICDCS 2024). It assembles the substrates of
//! the workspace into the Fed-MS algorithm:
//!
//! * **multiple parameter servers** with a minority of Byzantine ones
//!   ([`fedms_sim::Topology`]),
//! * **sparse uploading** — each client uploads its local model to one
//!   uniformly random server, keeping communication at single-server-FL
//!   levels ([`fedms_sim::UploadStrategy::Sparse`]),
//! * the **trimmed-mean model filter** `Def(·)` each client applies to the
//!   `P` (possibly tampered) global models it receives
//!   ([`fedms_aggregation::TrimmedMean`]).
//!
//! The entry point is [`FedMsConfig`]: describe the federation, the attack
//! and the filter, then [`FedMsConfig::run`] executes the experiment and
//! returns the per-round accuracy series — the data behind Figures 2, 3
//! and 5 of the paper.
//!
//! The [`theory`] module implements Theorem 1's convergence bound in closed
//! form together with a convex-quadratic federated simulator that validates
//! the `O(1/T)` rate empirically.
//!
//! # Example
//!
//! ```no_run
//! use fedms_core::{FedMsConfig, FilterKind};
//! use fedms_attacks::AttackKind;
//!
//! // 50 clients, 10 servers, 2 Byzantine running the Random attack,
//! // defended by the paper's β = 0.2 trimmed-mean filter.
//! let mut cfg = FedMsConfig::paper_defaults(42)?;
//! cfg.byzantine_count = 2;
//! cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
//! cfg.filter = FilterKind::TrimmedMean { beta: 0.2 };
//! cfg.rounds = 60;
//! let result = cfg.run()?;
//! println!("final accuracy: {:?}", result.final_accuracy());
//! # Ok::<(), fedms_core::CoreError>(())
//! ```

mod config;
mod error;
mod filter;
pub mod hash;
mod keys;
pub mod theory;

pub use config::{FedMsConfig, TransportKind};
pub use error::CoreError;
pub use fedms_aggregation::EstimatorPolicy;
pub use fedms_sim::ThreatSchedule;
pub use fedms_tensor::BackendKind;
pub use filter::FilterKind;
pub use hash::{fnv1a64, fnv1a64_hex};
pub use keys::{ConfigKey, ValueKind};

/// Crate-wide `Result` alias using [`CoreError`].
pub type Result<T> = std::result::Result<T, CoreError>;
