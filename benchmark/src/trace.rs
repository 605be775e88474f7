//! Tracing from outside the engine: delegating wrappers around the
//! client-side filter ([`AggregationRule`]) and the delivery substrate
//! ([`Transport`]) record one span per call into a shared [`Recorder`],
//! and [`build_traced`] assembles an engine from the same public pieces
//! `FedMsConfig::build_engine` uses, with the wrappers installed.
//!
//! The wrappers forward every trait method, defaulted ones included, so a
//! traced run is bit-identical to an untraced one; the benchmark checks
//! this by comparing model digests.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fedms::aggregation::MeanAccumulator;
use fedms::sim::{Broadcast, Delivery, DeliveryOutcome, Partitions, Upload};
use fedms::tensor::pool::BufferPool;
use fedms::tensor::rng::derive_seed;
use fedms::{
    AggregationRule, CommStats, DirichletPartitioner, EngineConfig, FaultPlan, FedMsConfig,
    LocalTransport, NetStats, NetThreat, NetTransport, ResilientTransport, SimulationEngine,
    Tensor, Topology, Transport, TransportKind, UploadReport,
};

use crate::BoxError;

/// What a span covered.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One `Def(·)` application.
    Filter,
    /// `send_upload`, `send_upload_tracked` or `route_upload`.
    Upload,
    /// `take_inbox`.
    Inbox,
    /// `broadcast`.
    Broadcast,
    /// `drain_deliveries` or `drain_deliveries_pooled`.
    Drain,
    /// Any other transport call (round bookkeeping, aggregate release,
    /// counters).
    TransportOther,
}

/// One recorded call, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the call was.
    pub kind: Kind,
    /// Wrapper entry.
    pub start: u64,
    /// Wrapper exit.
    pub end: u64,
    /// Time inside the delegated call alone (excludes the wrapper's own
    /// bookkeeping, such as view hashing).
    pub busy: u64,
    /// Filter calls: the multiset key of the input views.
    pub key: u64,
    /// Filter calls: output coordinates. Drains: payload bytes delivered.
    pub amount: u64,
}

/// Shared sink of spans and wire counters.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    net: Mutex<Option<NetStats>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            net: Mutex::new(None),
        })
    }

    /// `at` in nanoseconds since the recorder's origin.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        lock(&self.spans).push(span);
    }

    /// Takes every span recorded since the last call.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }

    /// The wire counters of the last traced transport after its latest
    /// round, if it has a wire.
    pub fn net(&self) -> Option<NetStats> {
        *lock(&self.net)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a traced call panicked while holding the recorder")
}

/// Hashes a view word by word over `f32::to_bits`, two coordinates per
/// 64-bit step.
fn view_hash(view: &Tensor) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let data = view.as_slice();
    let mut h = (data.len() as u64).wrapping_mul(K);
    let mut pairs = data.chunks_exact(2);
    for pair in &mut pairs {
        let w = u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for x in pairs.remainder() {
        h = (h ^ u64::from(x.to_bits())).wrapping_mul(K).rotate_left(29);
    }
    h
}

/// Order-independent key of a filter call's input multiset.
fn multiset_key(views: &[Tensor]) -> u64 {
    let mut hashes: Vec<u64> = views.iter().map(view_hash).collect();
    hashes.sort_unstable();
    hashes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &v| (h ^ v).wrapping_mul(0x0000_0100_0000_01B3))
}

/// A delegating client-side filter that records one [`Kind::Filter`] span
/// per application.
pub struct TracedRule {
    inner: Box<dyn AggregationRule>,
    rec: Arc<Recorder>,
}

impl AggregationRule for TracedRule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aggregate(&self, models: &[Tensor]) -> fedms::aggregation::Result<Tensor> {
        let start = Instant::now();
        let key = multiset_key(models);
        let t0 = Instant::now();
        let out = self.inner.aggregate(models);
        let busy = t0.elapsed();
        let amount = out.as_ref().map_or(0, |t| t.len() as u64);
        self.rec.push(Span {
            kind: Kind::Filter,
            start: self.rec.ns(start),
            end: self.rec.ns(Instant::now()),
            busy: busy.as_nanos() as u64,
            key,
            amount,
        });
        out
    }

    fn make_accumulator(&self) -> Option<MeanAccumulator> {
        self.inner.make_accumulator()
    }
}

/// Reads the wire counters of a transport stack, if it has a wire.
type NetProbe<T> = Box<dyn Fn(&T) -> Option<NetStats> + Send>;

/// A delegating transport that records one span per call.
pub struct TracedTransport<T: Transport> {
    inner: T,
    rec: Arc<Recorder>,
    net: NetProbe<T>,
}

impl<T: Transport> TracedTransport<T> {
    fn span<R>(&mut self, kind: Kind, call: impl FnOnce(&mut T) -> R) -> R {
        let start = Instant::now();
        let out = call(&mut self.inner);
        let end = Instant::now();
        self.rec.push(Span {
            kind,
            start: self.rec.ns(start),
            end: self.rec.ns(end),
            busy: end.duration_since(start).as_nanos() as u64,
            key: 0,
            amount: 0,
        });
        out
    }

    fn drain(&mut self, call: impl FnOnce(&mut T) -> Vec<Delivery>) -> Vec<Delivery> {
        let start = Instant::now();
        let out = call(&mut self.inner);
        let end = Instant::now();
        let bytes: usize = out.iter().map(|d| d.model.len() * std::mem::size_of::<f32>()).sum();
        self.rec.push(Span {
            kind: Kind::Drain,
            start: self.rec.ns(start),
            end: self.rec.ns(end),
            busy: end.duration_since(start).as_nanos() as u64,
            key: 0,
            amount: bytes as u64,
        });
        out
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.span(Kind::TransportOther, |t| t.begin_round(round, model_len));
    }

    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        self.span(Kind::Upload, |t| t.send_upload(upload))
    }

    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        self.span(Kind::Upload, |t| t.send_upload_tracked(upload))
    }

    fn supports_streaming(&self) -> bool {
        self.inner.supports_streaming()
    }

    fn route_upload(&mut self, client: usize, server: usize) -> Option<DeliveryOutcome> {
        self.span(Kind::Upload, |t| t.route_upload(client, server))
    }

    fn set_round_recipients(&mut self, recipients: usize) {
        self.inner.set_round_recipients(recipients);
    }

    fn server_online(&self, server: usize) -> bool {
        self.inner.server_online(server)
    }

    fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>) {
        self.span(Kind::TransportOther, |t| t.release_aggregate(server, aggregate))
    }

    fn broadcast(&mut self, message: Broadcast) -> fedms::sim::Result<()> {
        self.span(Kind::Broadcast, |t| t.broadcast(message))
    }

    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        self.span(Kind::Inbox, |t| t.take_inbox(server))
    }

    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        self.drain(|t| t.drain_deliveries(client))
    }

    fn drain_deliveries_pooled(&mut self, client: usize, pool: &BufferPool) -> Vec<Delivery> {
        self.drain(|t| t.drain_deliveries_pooled(client, pool))
    }

    fn take_comm(&mut self) -> CommStats {
        let comm = self.span(Kind::TransportOther, |t| t.take_comm());
        *lock(&self.rec.net) = (self.net)(&self.inner);
        comm
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> fedms::sim::Result<()> {
        self.inner.install_fault_plan(plan)
    }

    fn fault_plan(&self) -> &FaultPlan {
        self.inner.fault_plan()
    }

    fn set_upload_drop_rate(&mut self, rate: f64) -> fedms::sim::Result<()> {
        self.inner.set_upload_drop_rate(rate)
    }

    fn set_net_threat(&mut self, threat: NetThreat) {
        self.inner.set_net_threat(threat);
    }

    fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.inner.restore_state(outboxes);
    }

    fn recovery_state(&self) -> Vec<u32> {
        self.inner.recovery_state()
    }

    fn restore_recovery_state(&mut self, state: Vec<u32>) {
        self.inner.restore_recovery_state(state);
    }
}

/// Wall time of each construction step of a traced build.
#[derive(Debug, Clone, Copy)]
pub struct BuildTimes {
    /// Synthetic dataset generation.
    pub generate: Duration,
    /// Dirichlet or procedural partitioning.
    pub partition: Duration,
    /// `SimulationEngine::with_store`.
    pub engine_new: Duration,
}

/// A traced engine plus what the benchmark's per-layer microbenches need
/// from its construction.
pub struct TracedBuild {
    /// The engine, with the traced filter and transport installed.
    pub engine: SimulationEngine,
    /// Construction step times.
    pub times: BuildTimes,
    /// The training split, in the model's input layout.
    pub train: fedms::Dataset,
    /// The test split, in the model's input layout.
    pub test: fedms::Dataset,
    /// Sample indices of the first few clients.
    pub shards: Vec<Vec<usize>>,
}

/// Clients whose shards [`build_traced`] keeps for the per-client
/// microbenches.
pub const SHARDS_KEPT: usize = 16;

/// Builds the engine `cfg.build_engine()` would build, from the same
/// public pieces and seed labels, with the filter wrapped in
/// [`TracedRule`] and the transport stack in [`TracedTransport`].
///
/// # Errors
///
/// Propagates construction errors; rejects configurations with Byzantine
/// clients, which no workload uses.
pub fn build_traced(cfg: &FedMsConfig, rec: &Arc<Recorder>) -> Result<TracedBuild, BoxError> {
    cfg.validate()?;
    if cfg.byzantine_clients > 0 {
        return Err("the traced build does not replicate Byzantine clients".into());
    }
    let t = Instant::now();
    let (train, test) = cfg.dataset.generate(derive_seed(cfg.seed, &[0xDA7A]))?;
    let generate = t.elapsed();

    let t = Instant::now();
    let partitions = if cfg.shard_samples > 0 {
        Partitions::uniform(
            cfg.clients,
            train.len(),
            cfg.shard_samples,
            derive_seed(cfg.seed, &[0x9A97]),
        )?
    } else {
        Partitions::explicit(DirichletPartitioner::new(cfg.dirichlet_alpha)?.partition(
            &train,
            cfg.clients,
            derive_seed(cfg.seed, &[0x9A97]),
        )?)
    };
    let partition = t.elapsed();
    let shards = (0..cfg.clients.min(SHARDS_KEPT)).map(|k| partitions.shard_indices(k)).collect();

    let topology = Topology::with_random_byzantine(
        cfg.clients,
        cfg.servers,
        cfg.byzantine_count,
        derive_seed(cfg.seed, &[0xB42]),
    )?;
    let mut attacks = Vec::new();
    for id in topology.byzantine_ids() {
        let attack = if cfg.equivocate {
            cfg.attack.build_equivocating(derive_seed(cfg.seed, &[0xEC, id as u64]))?
        } else {
            cfg.attack.build()?
        };
        attacks.push((id, attack));
    }
    let engine_config = EngineConfig {
        topology,
        model: cfg.model.clone(),
        upload: cfg.upload,
        local_epochs: cfg.local_epochs,
        batch_size: cfg.batch_size,
        schedule: cfg.schedule,
        seed: cfg.seed,
        eval_every: cfg.eval_every,
        eval_clients: cfg.eval_clients,
        parallel: cfg.parallel,
        threads: cfg.threads,
        eval_after_local: cfg.eval_after_local,
        recovery: cfg.recovery,
        cohort: cfg.cohort,
        threat: cfg.threat.clone(),
        estimator: cfg.estimator,
        backend: cfg.backend,
    };
    let filter = Box::new(TracedRule { inner: cfg.filter.build()?, rec: Arc::clone(rec) });
    let t = Instant::now();
    let mut engine = SimulationEngine::with_store(
        engine_config,
        &train,
        &test,
        partitions,
        filter,
        cfg.server_filter.build()?,
        attacks,
        Vec::new(),
    )?;
    let engine_new = t.elapsed();
    engine.set_participation(cfg.participation)?;
    let transport = match cfg.transport {
        TransportKind::Local => finish_transport(
            cfg,
            LocalTransport::new(cfg.seed, cfg.clients, cfg.servers),
            |_| None,
            rec,
        )?,
        TransportKind::Net => finish_transport(
            cfg,
            NetTransport::new(cfg.seed, cfg.clients, cfg.servers, cfg.net_model),
            |t| Some(t.net_stats()),
            rec,
        )?,
    };
    engine.set_transport(transport);
    engine.set_record_diagnostics(cfg.record_diagnostics);

    let flat = cfg.model.wants_flat_input();
    let (train, test) = if flat { (train.flattened(), test.flattened()) } else { (train, test) };
    Ok(TracedBuild {
        engine,
        times: BuildTimes { generate, partition, engine_new },
        train,
        test,
        shards,
    })
}

/// Configures a base transport as `FedMsConfig::build_engine` does
/// (channel loss, sampled fault plan, recovery decorator) and wraps the
/// finished stack in a [`TracedTransport`].
fn finish_transport<T: Transport + 'static>(
    cfg: &FedMsConfig,
    mut base: T,
    net: fn(&T) -> Option<NetStats>,
    rec: &Arc<Recorder>,
) -> Result<Box<dyn Transport>, BoxError> {
    base.set_upload_drop_rate(cfg.upload_drop_rate)?;
    if !cfg.fault.is_trivial() {
        base.install_fault_plan(FaultPlan::sample(&cfg.fault, cfg.servers, cfg.seed)?)?;
    }
    let rec = Arc::clone(rec);
    if cfg.recovery.is_disabled() {
        Ok(Box::new(TracedTransport { inner: base, rec, net: Box::new(net) }))
    } else {
        let stack =
            ResilientTransport::new(base, cfg.recovery, cfg.seed, cfg.clients, cfg.servers)?;
        let net: NetProbe<ResilientTransport<T>> = Box::new(move |t| net(t.inner()));
        Ok(Box::new(TracedTransport { inner: stack, rec, net }))
    }
}
