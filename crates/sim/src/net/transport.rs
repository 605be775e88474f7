//! [`NetTransport`]: concurrent message-passing over in-process channels.
//!
//! Unlike [`crate::LocalTransport`] — a synchronous bookkeeping structure —
//! this transport actually *moves messages between threads*: every server
//! runs as its own actor consuming length-prefixed
//! [`Frame`](crate::net::Frame)s from a bounded channel (backpressure: a
//! sender that outruns a server blocks), and one downlink-router actor
//! stores the decoded disseminations — each payload wrapped in an `Arc`
//! once, at decode — and hands each client shared handles on request. Uploads to the same server are coalesced into
//! `Frame::UploadBatch` frames (flushed at the batch bound or when the
//! inbox is taken), which is where the frames/s vs bytes/s trade-off of
//! the bench lives.
//!
//! Determinism: message *content* and *fate* never depend on thread
//! scheduling. Every fate — loss, crash, partition, straggling, deadline,
//! duplication — is decided on the calling thread by the crate's single
//! `LinkFate` (`link.rs`), the same one `LocalTransport` uses, in protocol
//! order; the actors only carry what it selected. Server inboxes sort
//! stably by modelled arrival time, so under [`NetModel::ideal`] (all
//! delays zero) the inbox order is send order and a round is
//! message-for-message and counter-for-counter identical to
//! `LocalTransport` (property-tested in `crates/sim/tests/net.rs`). Under
//! a non-trivial model, stragglers and deadline misses *emerge* from the
//! delay arithmetic instead of being injected by a [`FaultPlan`]. The one
//! fate of this carrier's own is threat-scheduled frame corruption
//! (`"CRPT"` stream), which only a real wire can suffer.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use fedms_tensor::rng::rng_for;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

use crate::link::{delegate_to_fate, push_copies, LinkFate};
use crate::net::model::NetModel;
use crate::net::wire::{decode_frame, encode_frame, BatchedUpload, Frame, WireError};
use crate::recovery::UploadReport;
use crate::threat::NetThreat;
use crate::transport::{
    Broadcast, Delivery, DeliveryOutcome, SharedDissemination, Transport, Upload,
};
use crate::{CommStats, FaultPlan, Result};

/// Default uploads coalesced per frame.
const DEFAULT_COALESCE: usize = 8;
/// Default bound of each actor channel (frames in flight before the
/// sender blocks).
const DEFAULT_CHANNEL_BOUND: usize = 64;
/// RNG label for threat-injected frame corruption ("CRPT").
const CORRUPT_LABEL: u64 = 0x43_52_50_54;

/// Frame-level traffic counters of a [`NetTransport`] (cumulative since
/// construction; the round benchmark's `net.frames` and `net.frame_mb`
/// metrics read them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames placed on any channel.
    pub frames_sent: u64,
    /// Encoded bytes placed on any channel (length prefixes included).
    pub frame_bytes: u64,
    /// Frames that carried more than one coalesced upload.
    pub coalesced_batches: u64,
    /// Frames corrupted in flight by the active threat schedule (each one
    /// surfaces as a typed [`WireError`] at the receiver).
    pub corrupted_frames: u64,
}

/// An actor's answer: the items it holds plus the first decode error it
/// met since the last reply.
struct Reply<T> {
    items: Vec<T>,
    error: Option<WireError>,
}

enum ServerMsg {
    Begin { round: usize },
    Frame(Vec<u8>),
    TakeInbox { reply: Sender<Reply<Tensor>> },
    Shutdown,
}

enum RouterMsg {
    Begin {
        round: usize,
    },
    Frame(Vec<u8>),
    /// Hand out `client`'s downlink: `copies[i]` deliveries of the `i`-th
    /// stored dissemination, as the fate decided.
    Drain {
        client: usize,
        copies: Vec<usize>,
        reply: Sender<Reply<Delivery>>,
    },
    Shutdown,
}

/// One server's uplink actor: decodes incoming frames into an inbox,
/// ordered stably by modelled arrival time (ties keep receive order, which
/// equals send order — bounded mpsc channels are FIFO).
fn server_actor(rx: Receiver<ServerMsg>) {
    let mut round = 0usize;
    let mut entries: Vec<(u64, Tensor)> = Vec::new();
    let mut error: Option<WireError> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            ServerMsg::Begin { round: r } => {
                round = r;
                entries.clear();
                error = None;
            }
            ServerMsg::Frame(bytes) => match decode_frame(&bytes) {
                Ok((Frame::Upload { round: r, arrival_ms, model, .. }, _))
                    if r as usize == round =>
                {
                    entries.push((arrival_ms, model));
                }
                Ok((Frame::UploadBatch { round: r, uploads, .. }, _)) if r as usize == round => {
                    for u in uploads {
                        entries.push((u.arrival_ms, u.model));
                    }
                }
                // Stale (previous-round) or non-uplink frames are dropped;
                // channel FIFO ordering makes them unreachable from this
                // crate, but a TCP peer could replay one.
                Ok(_) => {}
                Err(e) => {
                    error.get_or_insert(e);
                }
            },
            ServerMsg::TakeInbox { reply } => {
                let mut taken = std::mem::take(&mut entries);
                // Stable: equal arrival times keep send order, so the ideal
                // model reproduces LocalTransport's send-order inbox.
                taken.sort_by_key(|&(arrival, _)| arrival);
                let items = taken.into_iter().map(|(_, m)| m).collect();
                let _ = reply.send(Reply { items, error: error.take() });
            }
            ServerMsg::Shutdown => break,
        }
    }
}

/// The downlink router actor: stores the decoded disseminations of the
/// round as shared payloads and hands out whatever the fate selected for
/// each client.
fn router_actor(rx: Receiver<RouterMsg>) {
    let mut round = 0usize;
    let mut queued: Vec<(usize, SharedDissemination)> = Vec::new();
    let mut error: Option<WireError> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            RouterMsg::Begin { round: r } => {
                round = r;
                queued.clear();
                error = None;
            }
            RouterMsg::Frame(bytes) => match decode_frame(&bytes) {
                Ok((Frame::Broadcast { round: r, server, model }, _)) if r as usize == round => {
                    queued.push((server as usize, model.into()));
                }
                Ok(_) => {}
                Err(e) => {
                    error.get_or_insert(e);
                }
            },
            RouterMsg::Drain { client, copies, reply } => {
                debug_assert_eq!(copies.len(), queued.len(), "fate and router disagree");
                let mut items = Vec::with_capacity(queued.len());
                for ((server, diss), &n) in queued.iter().zip(&copies) {
                    // Coverage is validated at broadcast; skip, not panic.
                    let Some(m) = diss.for_client(client) else {
                        debug_assert!(false, "queued dissemination misses client {client}");
                        continue;
                    };
                    push_copies(&mut items, *server, n, m);
                }
                let _ = reply.send(Reply { items, error: error.take() });
            }
            RouterMsg::Shutdown => break,
        }
    }
}

struct PendingUpload {
    client: usize,
    arrival_ms: u64,
    model: Tensor,
}

/// The concurrent in-process transport: per-server uplink actors and a
/// downlink router exchanging versioned wire frames over bounded channels,
/// under a seed-deterministic [`NetModel`].
pub struct NetTransport {
    seed: u64,
    fate: LinkFate,
    coalesce: usize,
    /// Per-frame corruption draws ("CRPT" stream); only instantiated while
    /// the threat's `corrupt_rate > 0`, so a trivial threat costs no RNG.
    corrupt_rng: Option<StdRng>,
    uplinks: Vec<SyncSender<ServerMsg>>,
    router: SyncSender<RouterMsg>,
    handles: Vec<JoinHandle<()>>,
    /// Per-server coalescing buffers, flushed at the batch bound or on
    /// `take_inbox`.
    pending: Vec<Vec<PendingUpload>>,
    /// Senders of this round's disseminations that reached the router
    /// intact, in its storage order.
    routed: Vec<usize>,
    stats: NetStats,
    wire_error: Option<WireError>,
}

impl std::fmt::Debug for NetTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTransport")
            .field("round", &self.fate.round())
            .field("servers", &self.uplinks.len())
            .field("ideal", &self.fate.model().is_ideal())
            .finish()
    }
}

impl NetTransport {
    /// Creates a transport for a `num_clients` × `num_servers` federation
    /// under `model`, spawning one uplink actor per server plus the
    /// downlink router, with default coalescing and channel bounds.
    pub fn new(seed: u64, num_clients: usize, num_servers: usize, model: NetModel) -> Self {
        Self::with_options(
            seed,
            num_clients,
            num_servers,
            model,
            DEFAULT_COALESCE,
            DEFAULT_CHANNEL_BOUND,
        )
    }

    /// [`NetTransport::new`] with explicit tuning: `coalesce` uploads per
    /// frame (≥ 1; 1 disables batching) and `channel_bound` frames in
    /// flight per actor before senders block (backpressure).
    pub fn with_options(
        seed: u64,
        num_clients: usize,
        num_servers: usize,
        model: NetModel,
        coalesce: usize,
        channel_bound: usize,
    ) -> Self {
        let bound = channel_bound.max(1);
        let mut uplinks = Vec::with_capacity(num_servers);
        let mut handles = Vec::with_capacity(num_servers + 1);
        for _ in 0..num_servers {
            let (tx, rx) = sync_channel(bound);
            uplinks.push(tx);
            handles.push(std::thread::spawn(move || server_actor(rx)));
        }
        let (router, router_rx) = sync_channel(bound);
        handles.push(std::thread::spawn(move || router_actor(router_rx)));
        NetTransport {
            seed,
            fate: LinkFate::new(seed, num_clients, num_servers, model),
            coalesce: coalesce.max(1),
            corrupt_rng: None,
            uplinks,
            router,
            handles,
            pending: (0..num_servers).map(|_| Vec::new()).collect(),
            routed: Vec::new(),
            stats: NetStats::default(),
            wire_error: None,
        }
    }

    /// The active network model.
    pub fn model(&self) -> &NetModel {
        self.fate.model()
    }

    /// Cumulative frame-level traffic counters.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Takes the first wire decode error surfaced by any actor since the
    /// last call, if one occurred. A healthy run never produces one.
    pub fn take_wire_error(&mut self) -> Option<WireError> {
        self.wire_error.take()
    }

    /// Encodes `frame` and realizes threat-scheduled corruption: with
    /// probability `corrupt_rate` one deterministic-random bit of the
    /// frame's version field is flipped in transit, so the receiver decodes
    /// a typed [`WireError::Version`] and the whole payload is lost to the
    /// round — the error emerges from the wire, not from injection at the
    /// inbox. Returns the bytes and whether they were corrupted.
    fn encode(&mut self, frame: &Frame) -> (Vec<u8>, bool) {
        let mut bytes = encode_frame(frame);
        self.stats.frames_sent += 1;
        self.stats.frame_bytes += bytes.len() as u64;
        let rate = self.fate.net_threat().corrupt_rate;
        let Some(rng) = &mut self.corrupt_rng else {
            return (bytes, false);
        };
        if bytes.len() < 6 || !rng.gen_bool(rate) {
            return (bytes, false);
        }
        // The version field is bytes 4..6 of the encoded frame; flipping
        // any of its 16 bits guarantees a decode-time version mismatch.
        let bit = rng.gen_range(0..16usize);
        bytes[4 + bit / 8] ^= 1 << (bit % 8);
        self.stats.corrupted_frames += 1;
        (bytes, true)
    }

    fn flush_uplink(&mut self, server: usize) {
        if self.pending[server].is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending[server]);
        let round = self.fate.round() as u32;
        let frame = if pending.len() == 1 {
            let u = pending.into_iter().next().expect("len checked");
            Frame::Upload {
                round,
                client: u.client as u32,
                server: server as u32,
                arrival_ms: u.arrival_ms,
                model: u.model,
            }
        } else {
            self.stats.coalesced_batches += 1;
            Frame::UploadBatch {
                round,
                server: server as u32,
                uploads: pending
                    .into_iter()
                    .map(|u| BatchedUpload {
                        client: u.client as u32,
                        arrival_ms: u.arrival_ms,
                        model: u.model,
                    })
                    .collect(),
            }
        };
        let (bytes, _) = self.encode(&frame);
        // A send can only fail if the actor died, which only happens at
        // shutdown; losing the frame then is fine.
        let _ = self.uplinks[server].send(ServerMsg::Frame(bytes));
    }

    fn send_net_upload(&mut self, upload: Upload) -> (DeliveryOutcome, u64) {
        let (outcome, arrival) = self.fate.uplink(upload.client, upload.server);
        if outcome == DeliveryOutcome::Delivered {
            self.pending[upload.server].push(PendingUpload {
                client: upload.client,
                arrival_ms: arrival,
                model: upload.model,
            });
            if self.pending[upload.server].len() >= self.coalesce {
                self.flush_uplink(upload.server);
            }
        }
        (outcome, arrival)
    }

    /// Waits for an actor's reply, keeping its first decode error. A dead
    /// actor (only possible at shutdown) yields nothing.
    fn collect<T>(&mut self, rx: Receiver<Reply<T>>) -> Vec<T> {
        let Ok(reply) = rx.recv() else {
            return Vec::new();
        };
        if let Some(e) = reply.error {
            self.wire_error.get_or_insert(e);
        }
        reply.items
    }
}

impl Transport for NetTransport {
    fn name(&self) -> &'static str {
        "net"
    }

    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.fate.begin_round(round, model_len);
        for s in 0..self.uplinks.len() {
            self.pending[s].clear();
            let _ = self.uplinks[s].send(ServerMsg::Begin { round });
        }
        self.routed.clear();
        let _ = self.router.send(RouterMsg::Begin { round });
        self.corrupt_rng = (self.fate.net_threat().corrupt_rate > 0.0)
            .then(|| rng_for(self.seed, &[CORRUPT_LABEL, round as u64]));
    }

    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        self.send_net_upload(upload).0
    }

    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        let server = upload.server;
        let (outcome, arrival) = self.send_net_upload(upload);
        UploadReport {
            elapsed_ms: arrival,
            deadline_missed: outcome == DeliveryOutcome::Delayed,
            ..UploadReport::direct(outcome, server)
        }
    }

    // `supports_streaming` stays `false`: a networked transport must move
    // the payload itself, so the engine uses buffered per-server inboxes
    // (and the recovery decorator composes unchanged on top).

    fn broadcast(&mut self, message: Broadcast) -> Result<()> {
        self.fate.admit_broadcast(&message)?;
        let server = message.server;
        let frame = Frame::Broadcast {
            round: self.fate.round() as u32,
            server: server as u32,
            model: message.model,
        };
        let (bytes, corrupted) = self.encode(&frame);
        // A corrupted frame never decodes, so the router will not store it.
        if !corrupted {
            self.routed.push(server);
        }
        let _ = self.router.send(RouterMsg::Frame(bytes));
        Ok(())
    }

    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        self.flush_uplink(server);
        let (tx, rx) = channel();
        if self.uplinks[server].send(ServerMsg::TakeInbox { reply: tx }).is_err() {
            return Vec::new();
        }
        self.collect(rx)
    }

    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        let copies = self.routed.iter().map(|&s| self.fate.downlink(s, client)).collect();
        let (tx, rx) = channel();
        if self.router.send(RouterMsg::Drain { client, copies, reply: tx }).is_err() {
            return Vec::new();
        }
        self.collect(rx)
    }

    fn set_net_threat(&mut self, threat: NetThreat) {
        self.fate.set_net_threat(threat);
    }

    delegate_to_fate!();
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        for tx in &self.uplinks {
            let _ = tx.send(ServerMsg::Shutdown);
        }
        let _ = self.router.send(RouterMsg::Shutdown);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Dissemination;

    fn up(client: usize, server: usize, v: f32) -> Upload {
        Upload { client, server, model: Tensor::from_slice(&[v, v]) }
    }

    #[test]
    fn ideal_round_delivers_in_send_order() {
        let mut t = NetTransport::new(1, 4, 3, NetModel::ideal());
        t.begin_round(0, 2);
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Delivered);
        assert_eq!(t.send_upload(up(2, 1, 2.0)), DeliveryOutcome::Delivered);
        let inbox = t.take_inbox(1);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].as_slice(), &[1.0, 1.0]);
        assert_eq!(inbox[1].as_slice(), &[2.0, 2.0]);
        assert!(t.take_inbox(1).is_empty());
        let comm = t.take_comm();
        assert_eq!(comm.upload_messages, 2);
        assert_eq!(comm.upload_bytes, 2 * 4 * 2);
        assert!(t.take_wire_error().is_none());
    }

    #[test]
    fn coalescing_batches_frames_without_changing_delivery() {
        let mut batched = NetTransport::with_options(1, 8, 2, NetModel::ideal(), 4, 16);
        let mut single = NetTransport::with_options(1, 8, 2, NetModel::ideal(), 1, 16);
        for t in [&mut batched, &mut single] {
            t.begin_round(0, 2);
            for k in 0..8 {
                t.send_upload(up(k, 0, k as f32));
            }
        }
        let b = batched.take_inbox(0);
        let s = single.take_inbox(0);
        assert_eq!(b, s, "coalescing must not change inbox content or order");
        assert!(batched.net_stats().coalesced_batches > 0);
        assert!(batched.net_stats().frames_sent < single.net_stats().frames_sent);
        assert!(batched.net_stats().frame_bytes < single.net_stats().frame_bytes);
    }

    #[test]
    fn tight_deadline_produces_delayed_uploads_without_a_fault_plan() {
        // 2-parameter model = 8 bytes; at 1 byte/ms that is 8 ms transfer
        // against a 5 ms deadline: every upload misses, produced purely by
        // the network model.
        let model = NetModel { bytes_per_ms: 1, deadline_ms: 5, ..NetModel::ideal() };
        let mut t = NetTransport::new(1, 4, 2, model);
        t.begin_round(0, 2);
        let report = t.send_upload_tracked(up(0, 0, 1.0));
        assert_eq!(report.outcome, DeliveryOutcome::Delayed);
        assert!(report.deadline_missed);
        assert!(report.elapsed_ms > 5);
        assert!(t.take_inbox(0).is_empty());
        let comm = t.take_comm();
        assert_eq!(comm.deadline_misses, 1);
        assert_eq!(comm.dropped_uploads, 1);
    }

    #[test]
    fn broadcast_and_drain_roundtrip_with_coverage_check() {
        let mut t = NetTransport::new(1, 4, 2, NetModel::ideal());
        t.begin_round(0, 2);
        let short = Broadcast {
            server: 0,
            model: Dissemination::PerClient(vec![Tensor::from_slice(&[1.0, 1.0]); 2]),
        };
        assert!(t.broadcast(short).is_err());
        t.broadcast(Broadcast {
            server: 1,
            model: Dissemination::Broadcast(Tensor::from_slice(&[2.0, 2.0])),
        })
        .unwrap();
        for k in 0..4 {
            let d = t.drain_deliveries(k);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].server, 1);
            assert_eq!(d[0].model.as_slice(), &[2.0, 2.0]);
        }
        let comm = t.take_comm();
        assert_eq!(comm.download_messages, 4);
    }

    #[test]
    fn partitioned_server_is_unreachable_both_ways() {
        let mut t = NetTransport::new(1, 4, 3, NetModel::ideal());
        t.set_net_threat(NetThreat { partitioned: vec![1], corrupt_rate: 0.0 });
        t.begin_round(0, 2);
        // Uplink: dropped at the sender, the server stays online (it is
        // up, just unreachable — unlike a crash).
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Dropped);
        assert!(t.server_online(1));
        assert_eq!(t.send_upload(up(0, 2, 1.0)), DeliveryOutcome::Delivered);
        assert!(t.take_inbox(1).is_empty());
        assert_eq!(t.take_inbox(2).len(), 1);
        // Downlink: its dissemination never leaves the router.
        for s in [1usize, 2] {
            t.broadcast(Broadcast {
                server: s,
                model: Dissemination::Broadcast(Tensor::from_slice(&[s as f32, 0.0])),
            })
            .unwrap();
        }
        let d = t.drain_deliveries(0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].server, 2);
        let comm = t.take_comm();
        assert_eq!(comm.dropped_uploads, 1);
        assert!(comm.dropped_downloads >= 1);
        // Healing the partition restores both directions.
        t.set_net_threat(NetThreat::default());
        t.begin_round(1, 2);
        assert_eq!(t.send_upload(up(0, 1, 9.0)), DeliveryOutcome::Delivered);
        assert_eq!(t.take_inbox(1).len(), 1);
        assert!(t.take_wire_error().is_none());
    }

    #[test]
    fn corrupted_frames_surface_typed_version_errors() {
        let mut t = NetTransport::new(7, 4, 2, NetModel::ideal());
        t.set_net_threat(NetThreat { partitioned: vec![], corrupt_rate: 1.0 });
        t.begin_round(0, 2);
        // Every uplink frame is corrupted: the payload is lost to the
        // round and the actor reports a typed version error.
        assert_eq!(t.send_upload(up(0, 0, 1.0)), DeliveryOutcome::Delivered);
        assert!(t.take_inbox(0).is_empty());
        match t.take_wire_error() {
            Some(WireError::Version { expected, .. }) => {
                assert_eq!(expected, crate::net::FRAME_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // Downlink frames corrupt the same way.
        t.broadcast(Broadcast {
            server: 1,
            model: Dissemination::Broadcast(Tensor::from_slice(&[2.0, 2.0])),
        })
        .unwrap();
        assert!(t.drain_deliveries(0).is_empty());
        assert!(matches!(t.take_wire_error(), Some(WireError::Version { .. })));
        assert_eq!(t.net_stats().corrupted_frames, 2);
    }

    #[test]
    fn corruption_draws_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut t = NetTransport::new(seed, 4, 2, NetModel::ideal());
            t.set_net_threat(NetThreat { partitioned: vec![], corrupt_rate: 0.5 });
            let mut survivors = Vec::new();
            for round in 0..6 {
                t.begin_round(round, 2);
                for k in 0..4 {
                    t.send_upload(up(k, 0, k as f32));
                }
                survivors.push(t.take_inbox(0).len());
                t.take_wire_error();
                t.take_comm();
            }
            (survivors, t.net_stats().corrupted_frames)
        };
        assert_eq!(run(3), run(3));
        let (survivors, corrupted) = run(3);
        assert!(corrupted > 0, "rate 0.5 over 24 uploads must corrupt something");
        assert!(survivors.iter().any(|&n| n > 0), "and some frames must survive");
    }
}
