//! The message layer: typed protocol messages over a [`Transport`].
//!
//! Fed-MS's round is an explicit message-passing protocol — sparse uploads
//! to one random PS, per-server aggregation, all-server dissemination,
//! client-side filtering. This module makes the messages and their fates
//! first-class:
//!
//! * [`Upload`] / [`Broadcast`] — the two protocol message types,
//! * [`DeliveryOutcome`] / [`Delivery`] — what actually happened to each
//!   message on the wire,
//! * [`Transport`] — the delivery substrate the
//!   [`crate::SimulationEngine`]'s phase pipeline runs over,
//! * [`LocalTransport`] — the seed-deterministic in-process implementation.
//!
//! `LocalTransport` only moves data: per-server inboxes and a queue of
//! disseminations, each payload wrapped in an [`Arc`] once when it is
//! queued so every drain hands out shared handles, never per-client
//! copies. Every fault decision — crash silence, straggler
//! outboxes, uplink channel loss, downlink omission and duplication — and
//! all [`CommStats`] accounting belong to the crate's single `LinkFate`
//! (`link.rs`, DESIGN.md §7), which `crate::net::NetTransport` owns too,
//! so the engine and its phases never touch a fault branch or a byte
//! counter directly. Alternate delivery models drop in by implementing
//! [`Transport`] and handing the implementation to
//! [`crate::SimulationEngine::set_transport`].
//!
//! Determinism: every fate is a pure function of `(seed, round, link)`
//! drawn in the order the `LinkFate` docs state; a trivial plan draws
//! nothing and is bit-identical to no plan at all.

use std::sync::Arc;

use fedms_tensor::pool::BufferPool;
use fedms_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::link::{delegate_to_fate, push_copies, LinkFate};
use crate::net::NetModel;
use crate::recovery::UploadReport;
use crate::threat::NetThreat;
use crate::{CommStats, FaultPlan, Result, SimError};

/// What a server sends out in the dissemination stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Dissemination {
    /// The same model is broadcast to every client.
    Broadcast(Tensor),
    /// Client `k` receives `models[k]` (equivocating Byzantine server).
    PerClient(Vec<Tensor>),
}

impl Dissemination {
    /// Validates that the dissemination covers `num_clients` clients.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for a per-client dissemination that
    /// does not name every client.
    pub fn check_coverage(&self, num_clients: usize) -> Result<()> {
        if let Dissemination::PerClient(ms) = self {
            if ms.len() != num_clients {
                return Err(SimError::BadConfig(format!(
                    "per-client dissemination covers {} of {num_clients} clients",
                    ms.len()
                )));
            }
        }
        Ok(())
    }
}

/// A queued [`Dissemination`] as the carriers hold it: each payload is
/// wrapped in an [`Arc`] once — one per broadcast, one per client slot of
/// an equivocating one — so every drain hands out [`Arc::clone`]s. Two
/// deliveries sharing a pointer are therefore bit-identical by
/// construction, which is what lets the filter phase run `Def(·)` once per
/// distinct view.
#[derive(Debug)]
pub(crate) enum SharedDissemination {
    /// One payload shared by every client.
    Broadcast(Arc<Tensor>),
    /// Client `k` receives `models[k]`.
    PerClient(Vec<Arc<Tensor>>),
}

impl From<Dissemination> for SharedDissemination {
    fn from(d: Dissemination) -> Self {
        match d {
            Dissemination::Broadcast(m) => SharedDissemination::Broadcast(Arc::new(m)),
            Dissemination::PerClient(ms) => {
                SharedDissemination::PerClient(ms.into_iter().map(Arc::new).collect())
            }
        }
    }
}

impl SharedDissemination {
    /// The handle delivered to `client_id`; `None` for a per-client
    /// dissemination that does not cover it (coverage is validated when a
    /// broadcast is queued, so carriers treat a miss as an upstream bug).
    pub(crate) fn for_client(&self, client_id: usize) -> Option<&Arc<Tensor>> {
        match self {
            SharedDissemination::Broadcast(m) => Some(m),
            SharedDissemination::PerClient(ms) => ms.get(client_id),
        }
    }
}

/// One client→server model upload (Algorithm 1 line 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Upload {
    /// Sender client id.
    pub client: usize,
    /// Destination server id.
    pub server: usize,
    /// The (possibly client-attack-tampered) local model.
    pub model: Tensor,
}

/// One server→clients dissemination message.
#[derive(Debug, Clone, PartialEq)]
pub struct Broadcast {
    /// Sender server id.
    pub server: usize,
    /// The disseminated model(s); per-client when the server equivocates.
    pub model: Dissemination,
}

/// The realized fate of one protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryOutcome {
    /// The message arrived this round.
    Delivered,
    /// Lost in transit: uplink channel loss or a crashed recipient.
    Dropped,
    /// Delivered twice — the duplicate is a second, separately accounted
    /// transmission. The filter phase suppresses the repeat (first delivery
    /// wins), so duplication costs bandwidth but never filter weight.
    Duplicated,
    /// Held back by a straggler pipeline; the payload surfaces (stale) in a
    /// later round, or never if the pipeline is still warming up.
    Delayed,
}

/// One realized server→client delivery on the downlink.
///
/// The payload is a shared handle: the built-in carriers wrap each queued
/// dissemination once and hand every recipient an [`Arc::clone`] of it,
/// so a fault-free round moves `P` payloads, not `K × P` copies. Pointer
/// equality implies bit equality; the converse need not hold (a recovery
/// retransmission carries its own handle).
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The originating server.
    pub server: usize,
    /// The delivered model, shared with every other recipient of the same
    /// payload.
    pub model: Arc<Tensor>,
    /// [`DeliveryOutcome::Delivered`] for a first copy,
    /// [`DeliveryOutcome::Duplicated`] for a fault-injected repeat.
    /// Duplicates never count toward the filter quorum and are suppressed
    /// before filtering.
    pub outcome: DeliveryOutcome,
}

/// The delivery substrate one federated round runs over.
///
/// The engine's phase pipeline is written purely against this trait:
/// uploads go in via [`Transport::send_upload`], per-server inboxes come
/// back out via [`Transport::take_inbox`], disseminations are queued with
/// [`Transport::broadcast`] and realized per client with
/// [`Transport::drain_deliveries`]. Fault realization (who is crashed,
/// which pipeline straggles, which links lose or duplicate messages) and
/// all [`CommStats`] accounting live behind the implementation.
pub trait Transport: Send {
    /// A short name for banners and diagnostics (e.g. `"local"`).
    fn name(&self) -> &'static str;

    /// Starts a new round: clears per-round buffers and counters and
    /// re-derives the round's RNG streams. `model_len` is the parameter
    /// count used for byte accounting.
    fn begin_round(&mut self, round: usize, model_len: usize);

    /// Routes one client→server upload and returns its realized fate
    /// ([`DeliveryOutcome::Delivered`] or [`DeliveryOutcome::Dropped`]).
    /// The sender pays for the attempt either way.
    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome;

    /// Routes one upload and reports its attempt-level history. Plain
    /// transports make exactly one attempt; a recovering transport (see
    /// [`crate::ResilientTransport`]) may retry, back off and fail over,
    /// and reports how the exchange actually went.
    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        let server = upload.server;
        UploadReport::direct(self.send_upload(upload), server)
    }

    /// Whether this transport can route uploads *without* taking ownership
    /// of the payload ([`Transport::route_upload`]), letting the caller
    /// stream the model straight into a running aggregate instead of
    /// queueing it in the server inbox. Recovery layers that may need to
    /// retransmit a payload later keep the default `false`.
    fn supports_streaming(&self) -> bool {
        false
    }

    /// Routes one client→server upload *by reference*: performs exactly
    /// the accounting and channel-loss draws of [`Transport::send_upload`]
    /// but never stores the payload, returning the realized fate so the
    /// caller can fold a delivered model into a streaming aggregate
    /// itself. Returns `None` on transports that do not support streaming
    /// (see [`Transport::supports_streaming`]); callers must then fall
    /// back to [`Transport::send_upload`].
    fn route_upload(&mut self, client: usize, server: usize) -> Option<DeliveryOutcome> {
        let _ = (client, server);
        None
    }

    /// Declares how many clients actually receive this round's
    /// disseminations (a sampled cohort may be far smaller than the
    /// federation). Affects download accounting only; transports that do
    /// not track per-recipient costs may ignore it. Reset to the full
    /// federation by [`Transport::begin_round`].
    fn set_round_recipients(&mut self, recipients: usize) {
        let _ = recipients;
    }

    /// Whether `server` can participate this round (a crashed server
    /// cannot).
    fn server_online(&self, server: usize) -> bool;

    /// Passes a freshly computed aggregate through the server's delivery
    /// pipeline. A healthy pipeline returns it unchanged
    /// ([`DeliveryOutcome::Delivered`]); a straggler pipeline returns the
    /// aggregate from `delay` rounds ago, or `None` while still filling
    /// (both [`DeliveryOutcome::Delayed`]).
    fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>);

    /// Queues one server's dissemination for delivery to every client.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the dissemination does not cover
    /// every client.
    fn broadcast(&mut self, message: Broadcast) -> Result<()>;

    /// Takes the uplink inbox of `server`: the uploads that actually
    /// arrived this round, in send order.
    fn take_inbox(&mut self, server: usize) -> Vec<Tensor>;

    /// Realizes the downlink for `client`: every queued dissemination, in
    /// broadcast order, minus omissions, plus duplicates. Each client sees
    /// its own realization of a lossy downlink.
    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery>;

    /// [`Transport::drain_deliveries`] with a buffer pool for carriers
    /// that materialize payloads. Value-transparent: the deliveries are
    /// bit-identical to the unpooled drain. Deliveries are shared
    /// [`Arc`] handles, so no built-in carrier uses the pool and the
    /// engine calls [`Transport::drain_deliveries`]; the method stays
    /// because out-of-tree delegating transports (the round benchmark's
    /// tracer among them) forward it, and goes with the next shrink of
    /// this trait. The default ignores the pool.
    fn drain_deliveries_pooled(&mut self, client: usize, pool: &BufferPool) -> Vec<Delivery> {
        let _ = pool;
        self.drain_deliveries(client)
    }

    /// Takes the communication counters accumulated since
    /// [`Transport::begin_round`].
    fn take_comm(&mut self) -> CommStats;

    /// Installs a benign-fault schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the plan does not fit the
    /// federation (see [`FaultPlan::validate`]).
    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()>;

    /// The active fault schedule (trivial by default).
    fn fault_plan(&self) -> &FaultPlan;

    /// Sets the probability that any single upload message is lost in
    /// transit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] unless `0 ≤ rate < 1`.
    fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()>;

    /// Installs this round's network-layer threat (link partitions, frame
    /// corruption) from the dynamic [`crate::ThreatSchedule`]. Effective
    /// from the next [`Transport::begin_round`]. Only transports with an
    /// actual wire ([`crate::net::NetTransport`]) realize it; the default
    /// ignores it — [`LocalTransport`] models no network, so there is no
    /// link to cut or frame to corrupt. Decorators must forward it.
    fn set_net_threat(&mut self, threat: NetThreat) {
        let _ = threat;
    }

    /// The evolving cross-round state (per-server straggler outboxes,
    /// oldest first) for bit-exact checkpointing.
    fn state_snapshot(&self) -> Vec<Vec<Tensor>>;

    /// Restores the evolving state captured by
    /// [`Transport::state_snapshot`].
    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>);

    /// The recovery layer's evolving cross-round state (per-server
    /// delivery records steering failover), for bit-exact checkpointing.
    /// Empty for transports without a recovery layer.
    fn recovery_state(&self) -> Vec<u32> {
        Vec::new()
    }

    /// Restores the state captured by [`Transport::recovery_state`]. A
    /// no-op for transports without a recovery layer.
    fn restore_recovery_state(&mut self, _state: Vec<u32>) {}
}

/// The seed-deterministic in-process transport.
///
/// Reproduces the paper's synchronous, reliable network by default; with a
/// [`FaultPlan`] installed it realizes crash silence, straggler delays and
/// lossy/duplicating downlinks exactly as described in DESIGN.md §6, with
/// every random draw a pure function of `(seed, round, link)`. It models
/// no wire: its fate runs under [`NetModel::ideal`] and it ignores
/// [`Transport::set_net_threat`].
pub struct LocalTransport {
    fate: LinkFate,
    inboxes: Vec<Vec<Tensor>>,
    /// This round's disseminations, `(server, payloads)` in broadcast
    /// order.
    queued: Vec<(usize, SharedDissemination)>,
}

impl std::fmt::Debug for LocalTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalTransport")
            .field("round", &self.fate.round())
            .field("servers", &self.inboxes.len())
            .field("faulty", &!self.fate.fault_plan().is_trivial())
            .finish()
    }
}

impl LocalTransport {
    /// Creates a fault-free transport for a `num_clients` × `num_servers`
    /// federation, deriving all channel randomness from `seed`.
    pub fn new(seed: u64, num_clients: usize, num_servers: usize) -> Self {
        LocalTransport {
            fate: LinkFate::new(seed, num_clients, num_servers, NetModel::ideal()),
            inboxes: vec![Vec::new(); num_servers],
            queued: Vec::new(),
        }
    }
}

impl Transport for LocalTransport {
    fn name(&self) -> &'static str {
        "local"
    }

    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.fate.begin_round(round, model_len);
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        self.queued.clear();
    }

    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        let (outcome, _) = self.fate.uplink(upload.client, upload.server);
        if outcome == DeliveryOutcome::Delivered {
            self.inboxes[upload.server].push(upload.model);
        }
        outcome
    }

    fn supports_streaming(&self) -> bool {
        true
    }

    fn route_upload(&mut self, client: usize, server: usize) -> Option<DeliveryOutcome> {
        Some(self.fate.uplink(client, server).0)
    }

    fn broadcast(&mut self, message: Broadcast) -> Result<()> {
        self.fate.admit_broadcast(&message)?;
        self.queued.push((message.server, message.model.into()));
        Ok(())
    }

    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        std::mem::take(&mut self.inboxes[server])
    }

    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        let mut out = Vec::with_capacity(self.queued.len());
        for (server, diss) in &self.queued {
            // Coverage is validated when the broadcast is queued, so a miss
            // here means an upstream bug; skip rather than panic.
            let Some(model) = diss.for_client(client) else {
                debug_assert!(false, "queued dissemination misses client {client}");
                continue;
            };
            push_copies(&mut out, *server, self.fate.downlink(*server, client), model);
        }
        out
    }

    delegate_to_fate!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(seed: u64) -> LocalTransport {
        let mut t = LocalTransport::new(seed, 4, 3);
        t.begin_round(0, 2);
        t
    }

    fn up(client: usize, server: usize, v: f32) -> Upload {
        Upload { client, server, model: Tensor::from_slice(&[v, v]) }
    }

    #[test]
    fn reliable_uplink_delivers_in_order() {
        let mut t = plain(1);
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Delivered);
        assert_eq!(t.send_upload(up(2, 1, 2.0)), DeliveryOutcome::Delivered);
        let inbox = t.take_inbox(1);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].as_slice(), &[1.0, 1.0]);
        assert_eq!(inbox[1].as_slice(), &[2.0, 2.0]);
        assert!(t.take_inbox(1).is_empty(), "inbox is drained once");
        let comm = t.take_comm();
        assert_eq!(comm.upload_messages, 2);
        assert_eq!(comm.upload_bytes, 2 * 4 * 2);
        assert_eq!(comm.dropped_uploads, 0);
        assert_eq!(t.name(), "local");
        assert!(t.fault_plan().is_trivial());
    }

    #[test]
    fn broadcast_checks_coverage_and_accounts() {
        let mut t = plain(1);
        let bad = Broadcast {
            server: 0,
            model: Dissemination::PerClient(vec![Tensor::from_slice(&[1.0, 1.0]); 3]),
        };
        assert!(t.broadcast(bad).is_err());
        let good = Broadcast {
            server: 0,
            model: Dissemination::Broadcast(Tensor::from_slice(&[1.0, 1.0])),
        };
        t.broadcast(good).unwrap();
        for k in 0..4 {
            let d = t.drain_deliveries(k);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].server, 0);
            assert_eq!(d[0].outcome, DeliveryOutcome::Delivered);
        }
        let comm = t.take_comm();
        // One broadcast to 4 clients, nothing lost or duplicated.
        assert_eq!(comm.download_messages, 4);
        assert_eq!(comm.download_bytes, 4 * 4 * 2);
        assert_eq!(comm.dropped_downloads + comm.duplicated_downloads, 0);
    }

    #[test]
    fn for_client_is_checked_not_panicking() {
        let d = SharedDissemination::from(Dissemination::PerClient(vec![
            Tensor::from_slice(&[1.0]);
            2
        ]));
        assert!(d.for_client(1).is_some());
        assert!(d.for_client(5).is_none());
        let b = SharedDissemination::from(Dissemination::Broadcast(Tensor::from_slice(&[2.0])));
        assert_eq!(b.for_client(99).unwrap().as_slice(), &[2.0]);
    }
}
