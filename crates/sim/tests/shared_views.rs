//! Filter once per distinct view: the memoized filter phase against an
//! unshared oracle, and the number of `Def(·)` applications it makes.
//!
//! The built-in carriers hand every recipient of a payload a clone of one
//! `Arc`, and the filter phase runs `Def(·)` once per distinct ordered
//! sequence of payload pointers. [`Unshared`] re-wraps every delivery in a
//! freshly allocated `Arc`, so no two clients share a pointer and every
//! client is filtered on its own — the per-client engine. Two guarantees
//! are pinned here:
//!
//! 1. **Oracle** — the sharing engine's snapshot is byte-identical to the
//!    unshared one at 1 and 4 worker threads, on Local and Net, under
//!    equivocation, under downlink omission + duplicates + recovery, and
//!    for a cohort larger than one filter block.
//! 2. **Call count** — a fault-free round applies the filter exactly once,
//!    an equivocating round once per cohort client, and the `Filtered`
//!    events still name every cohort client with the displacement a
//!    per-client computation gives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fedms_aggregation::{AggregationRule, EstimatorPolicy, MeanAccumulator, TrimmedMean};
use fedms_attacks::AttackKind;
use fedms_data::SynthVisionConfig;
use fedms_nn::LrSchedule;
use fedms_sim::{
    Broadcast, CommStats, DegradedMode, Delivery, DeliveryOutcome, EngineConfig, FaultPlan,
    LocalTransport, ModelSpec, NetModel, NetThreat, NetTransport, Partitions, RecoveryPolicy,
    ResilientTransport, Result, RoundEvent, ServerFault, SimulationEngine, ThreatSchedule,
    Topology, Transport, Upload, UploadReport, UploadStrategy,
};
use fedms_tensor::pool::BufferPool;
use fedms_tensor::Tensor;

const SEED: u64 = 11;

/// Forwards every [`Transport`] method, but hands each delivery out in a
/// freshly allocated `Arc` holding a copy of its payload.
struct Unshared<T>(T);

impl<T: Transport> Transport for Unshared<T> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.0.begin_round(round, model_len);
    }
    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        self.0.send_upload(upload)
    }
    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        self.0.send_upload_tracked(upload)
    }
    fn supports_streaming(&self) -> bool {
        self.0.supports_streaming()
    }
    fn route_upload(&mut self, client: usize, server: usize) -> Option<DeliveryOutcome> {
        self.0.route_upload(client, server)
    }
    fn set_round_recipients(&mut self, recipients: usize) {
        self.0.set_round_recipients(recipients);
    }
    fn server_online(&self, server: usize) -> bool {
        self.0.server_online(server)
    }
    fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>) {
        self.0.release_aggregate(server, aggregate)
    }
    fn broadcast(&mut self, message: Broadcast) -> Result<()> {
        self.0.broadcast(message)
    }
    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        self.0.take_inbox(server)
    }
    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        self.0
            .drain_deliveries(client)
            .into_iter()
            .map(|d| Delivery { model: Arc::new(Tensor::clone(&d.model)), ..d })
            .collect()
    }
    fn drain_deliveries_pooled(&mut self, client: usize, _pool: &BufferPool) -> Vec<Delivery> {
        self.drain_deliveries(client)
    }
    fn take_comm(&mut self) -> CommStats {
        self.0.take_comm()
    }
    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        self.0.install_fault_plan(plan)
    }
    fn fault_plan(&self) -> &FaultPlan {
        self.0.fault_plan()
    }
    fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()> {
        self.0.set_upload_drop_rate(rate)
    }
    fn set_net_threat(&mut self, threat: NetThreat) {
        self.0.set_net_threat(threat);
    }
    fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
        self.0.state_snapshot()
    }
    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.0.restore_state(outboxes);
    }
    fn recovery_state(&self) -> Vec<u32> {
        self.0.recovery_state()
    }
    fn restore_recovery_state(&mut self, state: Vec<u32>) {
        self.0.restore_recovery_state(state);
    }
}

/// A client-side filter that counts its applications.
struct Counting {
    inner: TrimmedMean,
    calls: Arc<AtomicUsize>,
}

impl AggregationRule for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn aggregate(&self, models: &[Tensor]) -> fedms_aggregation::Result<Tensor> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.aggregate(models)
    }
    fn make_accumulator(&self) -> Option<MeanAccumulator> {
        self.inner.make_accumulator()
    }
}

#[derive(Clone, Copy)]
enum Carrier {
    Local,
    Net(fn() -> NetModel),
}

/// One federation shape plus the delivery stack it runs over.
#[derive(Clone)]
struct Scenario {
    clients: usize,
    servers: usize,
    byzantine: usize,
    cohort: usize,
    equivocate: bool,
    carrier: Carrier,
    faults: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    rounds: usize,
}

impl Scenario {
    /// `K = 50`, `P = 10`, `B = 2` random servers, fault-free, over the
    /// local transport.
    fn paper() -> Self {
        Scenario {
            clients: 50,
            servers: 10,
            byzantine: 2,
            cohort: 0,
            equivocate: false,
            carrier: Carrier::Local,
            faults: None,
            recovery: RecoveryPolicy::disabled(),
            rounds: 3,
        }
    }

    fn cohort_size(&self) -> usize {
        if self.cohort == 0 {
            self.clients
        } else {
            self.cohort
        }
    }

    /// Downlink omission and duplicates repaired by retries, riding out
    /// what stays below quorum.
    fn lossy(self) -> Self {
        Scenario {
            faults: Some(FaultPlan {
                server_faults: vec![ServerFault::None; self.servers],
                downlink_omission: 0.3,
                duplicate_rate: 0.3,
            }),
            recovery: RecoveryPolicy {
                retry_budget: 1,
                failover: true,
                on_degraded: DegradedMode::Proceed,
                ..RecoveryPolicy::disabled()
            },
            ..self
        }
    }

    /// Builds the engine with a counting filter and this scenario's
    /// transport stack, unshared if asked.
    fn engine(&self, threads: usize, unshared: bool) -> (SimulationEngine, Arc<AtomicUsize>) {
        let (train, test) = SynthVisionConfig::small().generate(3).unwrap();
        let topology =
            Topology::with_random_byzantine(self.clients, self.servers, self.byzantine, SEED)
                .unwrap();
        let attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
        let attacks = topology
            .byzantine_ids()
            .map(|id| {
                let built = if self.equivocate {
                    attack.build_equivocating(id as u64)
                } else {
                    attack.build()
                };
                (id, built.unwrap())
            })
            .collect();
        let config = EngineConfig {
            topology,
            model: ModelSpec::Mlp { widths: vec![16, 8, 4] },
            upload: UploadStrategy::Sparse,
            local_epochs: 1,
            batch_size: 4,
            schedule: LrSchedule::Constant(0.05),
            seed: SEED,
            eval_every: 1,
            eval_clients: 8,
            parallel: threads > 1,
            threads,
            eval_after_local: false,
            recovery: self.recovery,
            cohort: self.cohort,
            threat: ThreatSchedule::none(),
            estimator: EstimatorPolicy::default(),
            backend: fedms_tensor::BackendKind::Scalar,
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let filter = Counting { inner: TrimmedMean::new(0.2).unwrap(), calls: Arc::clone(&calls) };
        let partitions = Partitions::uniform(self.clients, train.len(), 8, SEED).unwrap();
        let mut engine = SimulationEngine::with_store(
            config,
            &train,
            &test,
            partitions,
            Box::new(filter),
            Box::new(fedms_aggregation::Mean::new()),
            attacks,
            Vec::new(),
        )
        .unwrap();
        let (k, p) = (self.clients, self.servers);
        engine.set_transport(match self.carrier {
            Carrier::Local => self.stack(LocalTransport::new(SEED, k, p), unshared),
            Carrier::Net(model) => self.stack(NetTransport::new(SEED, k, p, model()), unshared),
        });
        (engine, calls)
    }

    fn stack<T: Transport + 'static>(&self, mut base: T, unshared: bool) -> Box<dyn Transport> {
        if let Some(plan) = &self.faults {
            base.install_fault_plan(plan.clone()).unwrap();
        }
        if self.recovery.is_disabled() {
            return boxed(base, unshared);
        }
        let resilient =
            ResilientTransport::new(base, self.recovery, SEED, self.clients, self.servers).unwrap();
        boxed(resilient, unshared)
    }

    /// Runs the scenario, returning the snapshot bytes, the filter calls
    /// and the `Filtered` events.
    fn run(&self, threads: usize, unshared: bool) -> (String, usize, Vec<RoundEvent>) {
        let (mut engine, calls) = self.engine(threads, unshared);
        engine.enable_event_log(1 << 20);
        engine.run(self.rounds).unwrap();
        let filtered = engine.event_log().unwrap().of_kind("filter").into_iter().cloned().collect();
        let snapshot = serde_json::to_string(&engine.snapshot()).unwrap();
        (snapshot, calls.load(Ordering::Relaxed), filtered)
    }

    /// The sharing engine matches the unshared oracle byte for byte, at 1
    /// and 4 worker threads.
    fn assert_matches_oracle(&self) {
        let (reference, _, _) = self.run(1, true);
        for threads in [1, 4] {
            for unshared in [false, true] {
                let (snapshot, _, _) = self.run(threads, unshared);
                assert!(
                    snapshot == reference,
                    "threads={threads} unshared={unshared} diverged from the oracle"
                );
            }
        }
    }
}

/// Boxes a finished transport stack, behind [`Unshared`] if asked.
fn boxed<T: Transport + 'static>(t: T, unshared: bool) -> Box<dyn Transport> {
    if unshared {
        Box::new(Unshared(t))
    } else {
        Box::new(t)
    }
}

#[test]
fn paper_shape_on_local_matches_the_unshared_oracle() {
    Scenario::paper().assert_matches_oracle();
}

#[test]
fn net_transport_matches_the_unshared_oracle() {
    Scenario { carrier: Carrier::Net(NetModel::ideal), ..Scenario::paper() }
        .assert_matches_oracle();
}

#[test]
fn equivocation_matches_the_unshared_oracle() {
    Scenario { byzantine: 3, equivocate: true, ..Scenario::paper() }.assert_matches_oracle();
}

#[test]
fn omission_duplicates_and_recovery_match_the_unshared_oracle() {
    Scenario::paper().lossy().assert_matches_oracle();
    Scenario { carrier: Carrier::Net(NetModel::edge), ..Scenario::paper().lossy() }
        .assert_matches_oracle();
}

/// `cohort = 520` spans three filter blocks, so memo entries made in the
/// first block serve clients drained in the later ones. Under equivocation
/// every unshared view is a fresh allocation with its own content, so an
/// address freed after one block and recycled in the next would surface
/// as a wrong (stale) memo hit.
#[test]
fn cohort_spanning_filter_blocks_matches_the_unshared_oracle() {
    let s = Scenario {
        clients: 600,
        servers: 4,
        byzantine: 1,
        cohort: 520,
        rounds: 2,
        ..Scenario::paper()
    };
    s.assert_matches_oracle();
    let (_, calls, _) = s.run(4, false);
    assert_eq!(calls, s.rounds, "one distinct view per round across all blocks");
    Scenario { equivocate: true, ..s }.assert_matches_oracle();
}

#[test]
fn fault_free_rounds_filter_once() {
    for carrier in [Carrier::Local, Carrier::Net(NetModel::ideal)] {
        let s = Scenario { carrier, ..Scenario::paper() };
        for threads in [1, 4] {
            let (_, calls, _) = s.run(threads, false);
            assert_eq!(calls, s.rounds, "threads={threads}: one filter call per round");
        }
    }
}

#[test]
fn equivocating_rounds_filter_every_cohort_client() {
    let s = Scenario { byzantine: 3, equivocate: true, ..Scenario::paper() };
    let (_, calls, _) = s.run(4, false);
    assert_eq!(calls, s.rounds * s.cohort_size());
}

/// On a lossy run the clients split into several views; the `Filtered`
/// events still name every cohort client once per round, with exactly the
/// displacement the unshared (per-client) engine computes.
#[test]
fn filtered_events_match_a_per_client_recomputation() {
    let s = Scenario { clients: 12, servers: 4, byzantine: 1, ..Scenario::paper() }.lossy();
    let (_, calls, shared) = s.run(1, false);
    let (_, oracle_calls, per_client) = s.run(1, true);
    assert_eq!(shared.len(), s.rounds * s.cohort_size());
    for round in 0..s.rounds {
        let clients: Vec<usize> = shared
            .iter()
            .filter_map(|e| match e {
                RoundEvent::Filtered { round: r, client, .. } if *r == round => Some(*client),
                _ => None,
            })
            .collect();
        assert_eq!(clients, (0..s.clients).collect::<Vec<_>>(), "round {round}");
    }
    assert_eq!(shared, per_client, "displacements differ from the per-client engine");
    assert!(calls < oracle_calls, "sharing saved no filter call ({calls} vs {oracle_calls})");
}
