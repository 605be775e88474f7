//! Static configuration of a simulation run.

use fedms_aggregation::EstimatorPolicy;
use fedms_nn::LrSchedule;
use fedms_tensor::BackendKind;
use serde::{Deserialize, Serialize};

use crate::{
    ModelSpec, RecoveryPolicy, Result, SimError, ThreatSchedule, Topology, UploadStrategy,
};

/// Static configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Client/server counts and the Byzantine set.
    pub topology: Topology,
    /// The training model all clients share.
    pub model: ModelSpec,
    /// Client→server upload strategy (the paper uses sparse).
    pub upload: UploadStrategy,
    /// Local SGD iterations per round (the paper's `E`, set to 3).
    pub local_epochs: usize,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Learning-rate schedule, indexed by global step `t·E + i`.
    pub schedule: LrSchedule,
    /// Root seed; every stochastic component derives from it.
    pub seed: u64,
    /// Evaluate every `eval_every` rounds (the final round is always
    /// evaluated). Must be ≥ 1.
    pub eval_every: usize,
    /// Number of clients whose local models are averaged for the accuracy
    /// metric (0 = all clients). The paper averages all 50.
    pub eval_clients: usize,
    /// Train clients on multiple threads (bit-identical to sequential).
    pub parallel: bool,
    /// Worker-thread count for the client-parallel phases when `parallel`
    /// is on: 0 picks one thread per available core. Results are
    /// bit-identical across thread counts.
    #[serde(default)]
    pub threads: usize,
    /// When true (the paper's protocol), accuracy is measured on the
    /// clients' *local* models right after local training; when false, on
    /// the post-filter models at the end of the round. Under strong
    /// heterogeneity (small `D_α`) local models are biased toward their
    /// shard's classes, which is exactly the effect Figure 5 reports.
    pub eval_after_local: bool,
    /// Transport recovery policy (retries, backoff, failover). Disabled by
    /// default, which leaves delivery bit-identical to a bare
    /// [`crate::LocalTransport`].
    #[serde(default)]
    pub recovery: RecoveryPolicy,
    /// Per-round cohort size: each round uniformly samples this many
    /// clients (without replacement, from its own `"CHRT"` seed stream) to
    /// train, upload, receive and filter; everyone else keeps their banked
    /// model. 0 (the default) or any value ≥ `K` runs the full federation
    /// every round, bit-identical to the pre-cohort engine. Round memory
    /// scales with the cohort, not `K` — the knob that makes
    /// million-client federations simulable.
    #[serde(default)]
    pub cohort: usize,
    /// Dynamic threat schedule: per-round epochs that compromise honest
    /// servers mid-run, partition links and corrupt frames (see
    /// [`ThreatSchedule`]). The trivial schedule (the default) leaves the
    /// engine bit-identical to a build without the threat layer.
    #[serde(default)]
    pub threat: ThreatSchedule,
    /// Online Byzantine-count estimator feeding the adaptive trimmed-mean
    /// filter a per-round `β̂` (see
    /// [`fedms_aggregation::EstimatorPolicy`]). Disabled by default, which
    /// keeps the statically configured filter bit-identically in charge.
    #[serde(default)]
    pub estimator: EstimatorPolicy,
    /// The compute backend, which has one value: every client runs the
    /// kernels of [`fedms_tensor::kernels`]. Kept, like
    /// `FedMsConfig::backend`, for configs and callers that name it.
    #[serde(default)]
    pub backend: BackendKind,
}

impl EngineConfig {
    /// The paper's federated-learning settings (Table II): `K = 50`
    /// clients, `P = 10` servers, `E = 3` local iterations, sparse upload.
    /// The Byzantine set is empty here; callers add attacks per experiment.
    pub fn paper_defaults(seed: u64) -> Result<Self> {
        Ok(EngineConfig {
            topology: Topology::new(50, 10, [])?,
            model: ModelSpec::default_mlp(),
            upload: UploadStrategy::Sparse,
            local_epochs: 3,
            batch_size: 32,
            schedule: LrSchedule::Constant(0.1),
            seed,
            eval_every: 1,
            eval_clients: 0,
            parallel: true,
            threads: 0,
            eval_after_local: true,
            recovery: RecoveryPolicy::disabled(),
            cohort: 0,
            threat: ThreatSchedule::none(),
            estimator: EstimatorPolicy::default(),
            backend: BackendKind::Scalar,
        })
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.local_epochs == 0 {
            return Err(SimError::BadConfig("local_epochs must be positive".into()));
        }
        if self.batch_size == 0 {
            return Err(SimError::BadConfig("batch_size must be positive".into()));
        }
        if self.eval_every == 0 {
            return Err(SimError::BadConfig("eval_every must be positive".into()));
        }
        self.schedule.validate().map_err(SimError::from)?;
        self.recovery.validate()?;
        let byz: Vec<usize> = self.topology.byzantine_ids().collect();
        self.threat.validate(self.topology.num_servers(), &byz)?;
        self.estimator.validate().map_err(SimError::BadConfig)?;
        Ok(())
    }
}
