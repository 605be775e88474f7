//! [`LinkFate`]: the one place a protocol message's fate is decided.
//!
//! Every carrier — [`crate::LocalTransport`]'s in-memory queues,
//! [`crate::net::NetTransport`]'s actor channels, any later one — asks a
//! `LinkFate` what happens to each message and then only moves data. The
//! fate owns the round state (round, model length, download recipients),
//! the benign [`FaultPlan`], the uplink drop rate, the [`NetModel`]
//! (`ideal()` for an in-memory carrier), the [`NetThreat`], the straggler
//! outboxes and all [`CommStats`] accounting.
//!
//! Draw order. Randomness comes from two per-round streams, `"DROP"` for
//! uplink channel loss and `"OMIT"` for downlink omission and duplication,
//! each instantiated only when its probability is non-zero, plus the pure
//! per-link `NetModel` delays. Carriers call the fate in protocol order
//! (uploads in send order, downlinks per drained client in broadcast
//! order), and each link resolves as follows:
//!
//! * uplink: account the attempt, draw channel loss, drop on crash or
//!   partition, then check the modelled arrival against the deadline;
//! * downlink: a partitioned server's message is dropped before any draw;
//!   otherwise the omission draw, then the deadline check, then — only for
//!   a delivered message — the duplicate draw.
//!
//! A trivial configuration draws nothing, so it is bit-identical to a run
//! without faults, and the same `(seed, round, link)` always meets the
//! same fate whichever carrier moves it.

use std::collections::VecDeque;
use std::sync::Arc;

use fedms_tensor::rng::rng_for;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

use crate::net::NetModel;
use crate::recovery::{downlink_id, uplink_id};
use crate::threat::NetThreat;
use crate::transport::{Broadcast, Delivery, DeliveryOutcome};
use crate::{CommStats, FaultPlan, Result, SimError};

/// RNG label for uplink channel loss ("DROP").
const DROP_LABEL: u64 = 0x44_52_4F_50;
/// RNG label for downlink omission and duplication ("OMIT").
const OMIT_LABEL: u64 = 0x4F_4D_49_54;

/// The fault realization and accounting shared by every carrier.
pub(crate) struct LinkFate {
    seed: u64,
    num_clients: usize,
    num_servers: usize,
    model: NetModel,
    fault_plan: FaultPlan,
    upload_drop_rate: f64,
    net_threat: NetThreat,
    round: usize,
    model_len: usize,
    /// Clients receiving this round's disseminations (download
    /// accounting); the full federation unless a smaller cohort is
    /// declared.
    recipients: usize,
    /// A cohort size declared *before* the round opened, applied by the
    /// next [`LinkFate::begin_round`] instead of being silently reset.
    pending_recipients: Option<usize>,
    /// Whether a round is open (between `begin_round` and `take_comm`).
    round_open: bool,
    drop_rng: Option<StdRng>,
    downlink_rng: Option<StdRng>,
    /// Aggregates awaiting delayed dissemination per server, oldest first.
    /// Persists across rounds (checkpointed state).
    outboxes: Vec<VecDeque<Tensor>>,
    comm: CommStats,
}

impl LinkFate {
    /// A fault-free fate for a `num_clients` × `num_servers` federation
    /// under `model`, deriving all randomness from `seed`.
    pub(crate) fn new(seed: u64, num_clients: usize, num_servers: usize, model: NetModel) -> Self {
        LinkFate {
            seed,
            num_clients,
            num_servers,
            model,
            fault_plan: FaultPlan::none(),
            upload_drop_rate: 0.0,
            net_threat: NetThreat::default(),
            round: 0,
            model_len: 0,
            recipients: num_clients,
            pending_recipients: None,
            round_open: false,
            drop_rng: None,
            downlink_rng: None,
            outboxes: vec![VecDeque::new(); num_servers],
            comm: CommStats::new(),
        }
    }

    pub(crate) fn round(&self) -> usize {
        self.round
    }

    pub(crate) fn model(&self) -> &NetModel {
        &self.model
    }

    pub(crate) fn net_threat(&self) -> &NetThreat {
        &self.net_threat
    }

    /// Opens `round`: resets the counters, applies a pre-declared cohort
    /// and re-derives the round's loss streams.
    pub(crate) fn begin_round(&mut self, round: usize, model_len: usize) {
        self.round = round;
        self.model_len = model_len;
        self.comm = CommStats::new();
        self.round_open = true;
        self.recipients =
            self.pending_recipients.take().map_or(self.num_clients, |n| n.min(self.num_clients));
        self.drop_rng =
            (self.upload_drop_rate > 0.0).then(|| rng_for(self.seed, &[DROP_LABEL, round as u64]));
        self.downlink_rng = self
            .fault_plan
            .lossy_downlink()
            .then(|| rng_for(self.seed, &[OMIT_LABEL, round as u64]));
    }

    /// Declares this round's download recipients; between rounds the
    /// declaration waits for the next [`LinkFate::begin_round`].
    pub(crate) fn set_recipients(&mut self, recipients: usize) {
        if self.round_open {
            self.recipients = recipients.min(self.num_clients);
        } else {
            self.pending_recipients = Some(recipients);
        }
    }

    pub(crate) fn server_online(&self, server: usize) -> bool {
        !self.fault_plan.is_crashed(server, self.round)
    }

    /// The fate of one upload attempt and its modelled arrival time in
    /// virtual ms. The sender pays for the attempt either way; a deadline
    /// miss is [`DeliveryOutcome::Delayed`] and lost to the round.
    pub(crate) fn uplink(&mut self, client: usize, server: usize) -> (DeliveryOutcome, u64) {
        self.comm.record_uploads(1, self.model_len);
        // The channel draw happens regardless of the recipient's health, so
        // a crash or partition perturbs no other link's draw.
        let lost = self.drop_rng.as_mut().is_some_and(|rng| rng.gen_bool(self.upload_drop_rate));
        if lost
            || self.fault_plan.is_crashed(server, self.round)
            || self.net_threat.is_partitioned(server)
        {
            self.comm.record_dropped_upload();
            return (DeliveryOutcome::Dropped, 0);
        }
        let link = uplink_id(client, server);
        let arrival = self.model.link_delay_ms(self.seed, self.round, link, self.payload_bytes());
        if self.model.misses_deadline(arrival) {
            self.comm.record_dropped_upload();
            self.comm.record_deadline_miss();
            return (DeliveryOutcome::Delayed, arrival);
        }
        (DeliveryOutcome::Delivered, arrival)
    }

    /// Passes a fresh aggregate through `server`'s delivery pipeline. The
    /// delay is the injected straggler delay plus the model's emergent
    /// processing lag; a delayed pipeline releases the aggregate from
    /// `delay` rounds ago, or nothing while it fills.
    pub(crate) fn release(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>) {
        let delay = self.fault_plan.straggler_delay(server).unwrap_or(0)
            + self.model.server_lag_rounds(self.seed, self.round, server);
        if delay == 0 {
            return (DeliveryOutcome::Delivered, Some(aggregate));
        }
        let outbox = &mut self.outboxes[server];
        outbox.push_back(aggregate);
        (DeliveryOutcome::Delayed, if outbox.len() > delay { outbox.pop_front() } else { None })
    }

    /// Checks that a dissemination covers every client and accounts its
    /// fan-out to this round's recipients.
    pub(crate) fn admit_broadcast(&mut self, message: &Broadcast) -> Result<()> {
        message.model.check_coverage(self.num_clients)?;
        self.comm.record_downloads(self.recipients as u64, self.model_len);
        Ok(())
    }

    /// The fate of one server→client dissemination: how many copies arrive
    /// (0 = lost, 1, or 2 = duplicated). See the module docs for the
    /// draw order.
    pub(crate) fn downlink(&mut self, server: usize, client: usize) -> usize {
        // A partitioned server's message never traverses the link: dropped
        // before any draw, so surviving links' draws are unaffected.
        let omission = self.fault_plan.downlink_omission;
        if self.net_threat.is_partitioned(server)
            || (omission > 0.0
                && self.downlink_rng.as_mut().is_some_and(|rng| rng.gen_bool(omission)))
        {
            self.comm.record_dropped_download();
            return 0;
        }
        let link = downlink_id(server, client);
        let arrival = self.model.link_delay_ms(self.seed, self.round, link, self.payload_bytes());
        if self.model.misses_deadline(arrival) {
            self.comm.record_dropped_download();
            self.comm.record_deadline_miss();
            return 0;
        }
        let duplicate = self.fault_plan.duplicate_rate;
        if duplicate > 0.0 && self.downlink_rng.as_mut().is_some_and(|rng| rng.gen_bool(duplicate))
        {
            // Delivered twice, and the network carried it twice.
            self.comm.record_duplicated_download(self.model_len);
            return 2;
        }
        1
    }

    fn payload_bytes(&self) -> u64 {
        (self.model_len * 4) as u64
    }

    pub(crate) fn take_comm(&mut self) -> CommStats {
        self.round_open = false;
        std::mem::take(&mut self.comm)
    }

    pub(crate) fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        plan.validate(self.num_servers)?;
        self.fault_plan = plan;
        Ok(())
    }

    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    pub(crate) fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()> {
        if !(rate.is_finite() && (0.0..1.0).contains(&rate)) {
            return Err(SimError::BadConfig(format!("drop rate must be in [0, 1), got {rate}")));
        }
        self.upload_drop_rate = rate;
        Ok(())
    }

    pub(crate) fn set_net_threat(&mut self, threat: NetThreat) {
        self.net_threat = threat;
    }

    pub(crate) fn outboxes(&self) -> Vec<Vec<Tensor>> {
        self.outboxes.iter().map(|q| q.iter().cloned().collect()).collect()
    }

    pub(crate) fn restore_outboxes(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.outboxes = outboxes.into_iter().map(VecDeque::from).collect();
    }
}

/// Appends the `copies` deliveries [`LinkFate::downlink`] realized for one
/// dissemination: the first [`DeliveryOutcome::Delivered`], a second
/// [`DeliveryOutcome::Duplicated`] — each a shared handle on `model`.
pub(crate) fn push_copies(
    out: &mut Vec<Delivery>,
    server: usize,
    copies: usize,
    model: &Arc<Tensor>,
) {
    for copy in 0..copies {
        let outcome =
            if copy == 0 { DeliveryOutcome::Delivered } else { DeliveryOutcome::Duplicated };
        out.push(Delivery { server, model: Arc::clone(model), outcome });
    }
}

/// Implements the [`crate::Transport`] methods that are pure link fate by
/// delegating to the carrier's `fate: LinkFate` field.
macro_rules! delegate_to_fate {
    () => {
        fn set_round_recipients(&mut self, recipients: usize) {
            self.fate.set_recipients(recipients);
        }

        fn server_online(&self, server: usize) -> bool {
            self.fate.server_online(server)
        }

        fn release_aggregate(
            &mut self,
            server: usize,
            aggregate: Tensor,
        ) -> (DeliveryOutcome, Option<Tensor>) {
            self.fate.release(server, aggregate)
        }

        fn take_comm(&mut self) -> CommStats {
            self.fate.take_comm()
        }

        fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
            self.fate.install_fault_plan(plan)
        }

        fn fault_plan(&self) -> &FaultPlan {
            self.fate.fault_plan()
        }

        fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()> {
            self.fate.set_upload_drop_rate(rate)
        }

        fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
            self.fate.outboxes()
        }

        fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
            self.fate.restore_outboxes(outboxes);
        }
    };
}
pub(crate) use delegate_to_fate;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Dissemination;
    use crate::ServerFault;

    fn fate(clients: usize, servers: usize, plan: FaultPlan, model: NetModel) -> LinkFate {
        let mut f = LinkFate::new(9, clients, servers, model);
        f.install_fault_plan(plan).unwrap();
        f.begin_round(0, 2);
        f
    }

    fn broadcast(server: usize) -> Broadcast {
        Broadcast { server, model: Dissemination::Broadcast(Tensor::from_slice(&[1.0, 1.0])) }
    }

    /// A model under which every 8-byte transmission misses its deadline.
    fn late() -> NetModel {
        NetModel { bytes_per_ms: 1, deadline_ms: 5, ..NetModel::ideal() }
    }

    #[test]
    fn crashed_recipient_drops_uploads_and_sender_still_pays() {
        let plan = FaultPlan {
            server_faults: vec![ServerFault::None, ServerFault::Crash { round: 1 }],
            ..FaultPlan::default()
        };
        let mut f = fate(4, 3, plan, NetModel::ideal());
        assert_eq!(f.uplink(0, 1), (DeliveryOutcome::Delivered, 0));
        assert!(f.server_online(1));
        f.begin_round(1, 2);
        assert_eq!(f.uplink(0, 1).0, DeliveryOutcome::Dropped);
        assert!(!f.server_online(1));
        let comm = f.take_comm();
        assert_eq!(comm.upload_messages, 1);
        assert_eq!(comm.upload_bytes, 4 * 2);
        assert_eq!(comm.dropped_uploads, 1);
    }

    #[test]
    fn straggler_pipeline_delays_by_exactly_d_rounds() {
        let plan = FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay: 2 }],
            ..FaultPlan::default()
        };
        let mut f = fate(4, 3, plan, NetModel::ideal());
        // delay = 2: rounds 0 and 1 release nothing, round t ≥ 2 releases
        // the aggregate from round t − 2.
        assert_eq!(f.release(0, Tensor::from_slice(&[0.0])), (DeliveryOutcome::Delayed, None));
        assert_eq!(f.release(0, Tensor::from_slice(&[1.0])), (DeliveryOutcome::Delayed, None));
        let (o, m) = f.release(0, Tensor::from_slice(&[2.0]));
        assert_eq!(o, DeliveryOutcome::Delayed);
        assert_eq!(m.unwrap().as_slice(), &[0.0]);
        // A healthy server's aggregate flows straight through.
        let (o, m) = f.release(1, Tensor::from_slice(&[7.0]));
        assert_eq!(o, DeliveryOutcome::Delivered);
        assert_eq!(m.unwrap().as_slice(), &[7.0]);
    }

    #[test]
    fn server_lag_delays_aggregates_without_a_fault_plan() {
        let model = NetModel { server_lag_ms: 500, round_ms: 100, ..NetModel::ideal() };
        let mut f = LinkFate::new(3, 4, 1, model);
        let mut delayed = 0;
        for round in 0..12 {
            f.begin_round(round, 1);
            if f.release(0, Tensor::from_slice(&[round as f32])).0 == DeliveryOutcome::Delayed {
                delayed += 1;
            }
        }
        assert!(delayed > 0, "a 5-round mean lag must delay some aggregate in 12 rounds");
    }

    #[test]
    fn outboxes_roundtrip_through_snapshots() {
        let plan = FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay: 3 }, ServerFault::None],
            ..FaultPlan::default()
        };
        let mut f = fate(4, 2, plan.clone(), NetModel::ideal());
        f.release(0, Tensor::from_slice(&[7.0]));
        let state = f.outboxes();
        assert_eq!(state[0].len(), 1);
        let mut restored = fate(4, 2, plan, NetModel::ideal());
        restored.restore_outboxes(state.clone());
        assert_eq!(restored.outboxes(), state);
        // The restored pipeline continues where the original left off.
        assert!(restored.release(0, Tensor::from_slice(&[8.0])).1.is_none());
        assert!(restored.release(0, Tensor::from_slice(&[9.0])).1.is_none());
        let out = restored.release(0, Tensor::from_slice(&[10.0])).1.unwrap();
        assert_eq!(out.as_slice(), &[7.0]);
    }

    #[test]
    fn deque_outbox_matches_vec_remove_semantics() {
        // Bit-exactness of the VecDeque straggler pipeline against the old
        // `Vec::remove(0)` reference over a mixed push/pop schedule.
        let delay = 3usize;
        let plan = FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay }],
            ..FaultPlan::default()
        };
        let mut f = fate(4, 1, plan, NetModel::ideal());
        let mut reference: Vec<Vec<f32>> = Vec::new();
        for i in 0..32 {
            let v = (i * 7 % 13) as f32;
            reference.push(vec![v]);
            let expected = (reference.len() > delay).then(|| reference.remove(0));
            let (o, m) = f.release(0, Tensor::from_slice(&[v]));
            assert_eq!(o, DeliveryOutcome::Delayed);
            assert_eq!(m.map(|m| m.as_slice().to_vec()), expected);
        }
        assert_eq!(f.outboxes()[0].len(), delay);
    }

    #[test]
    fn lossy_downlink_realizes_per_client_and_accounts() {
        let plan =
            FaultPlan { downlink_omission: 0.4, duplicate_rate: 0.4, ..FaultPlan::default() };
        let mut f = fate(16, 2, plan, NetModel::ideal());
        let (mut delivered, mut duplicated) = (0u64, 0u64);
        for s in 0..2 {
            f.admit_broadcast(&broadcast(s)).unwrap();
        }
        for k in 0..16 {
            for s in 0..2 {
                match f.downlink(s, k) {
                    0 => {}
                    1 => delivered += 1,
                    _ => {
                        delivered += 1;
                        duplicated += 1;
                    }
                }
            }
        }
        let comm = f.take_comm();
        assert!(comm.dropped_downloads > 0, "40% omission must drop something");
        assert!(duplicated > 0, "40% duplication must duplicate something");
        assert_eq!(comm.duplicated_downloads, duplicated);
        assert_eq!(comm.download_messages, 2 * 16 + duplicated);
        assert_eq!(delivered, 2 * 16 - comm.dropped_downloads);
    }

    #[test]
    fn recipients_declared_before_begin_round_survive_the_reset() {
        // Regression: `begin_round` used to reset `recipients` back to the
        // full federation, silently overcounting downlink bytes whenever
        // the cohort was declared first.
        let mut f = LinkFate::new(1, 8, 2, NetModel::ideal());
        f.set_recipients(3);
        f.begin_round(0, 2);
        f.admit_broadcast(&broadcast(0)).unwrap();
        let comm = f.take_comm();
        assert_eq!(comm.download_messages, 3, "pre-round cohort must not be reset");
        assert_eq!(comm.download_bytes, 3 * 4 * 2);
        // The declaration is consumed: the next round reverts to the full
        // federation unless declared again.
        f.begin_round(1, 2);
        f.admit_broadcast(&broadcast(0)).unwrap();
        assert_eq!(f.take_comm().download_messages, 8);
        // Declared mid-round (the engine's order) it still applies directly.
        f.begin_round(2, 2);
        f.set_recipients(5);
        f.admit_broadcast(&broadcast(0)).unwrap();
        assert_eq!(f.take_comm().download_messages, 5);
    }

    #[test]
    fn validation_of_plan_and_drop_rate() {
        let mut f = LinkFate::new(1, 4, 3, NetModel::ideal());
        let oversized =
            FaultPlan { server_faults: vec![ServerFault::None; 5], ..FaultPlan::default() };
        assert!(f.install_fault_plan(oversized).is_err());
        assert!(f.set_upload_drop_rate(1.0).is_err());
        assert!(f.set_upload_drop_rate(-0.1).is_err());
        assert!(f.set_upload_drop_rate(f64::NAN).is_err());
        assert!(f.set_upload_drop_rate(0.5).is_ok());
        assert!(f.fault_plan().is_trivial());
        let short = Broadcast {
            server: 0,
            model: Dissemination::PerClient(vec![Tensor::from_slice(&[1.0, 1.0]); 3]),
        };
        assert!(f.admit_broadcast(&short).is_err(), "coverage is checked at admission");
    }

    #[test]
    fn partition_drops_before_any_draw() {
        // Server 0 partitioned: its links must consume no draw, so server
        // 1's fates match a run that never offers server 0 at all.
        let plan =
            FaultPlan { downlink_omission: 0.5, duplicate_rate: 0.5, ..FaultPlan::default() };
        let mut cut = fate(32, 2, plan.clone(), NetModel::ideal());
        cut.set_net_threat(NetThreat { partitioned: vec![0], corrupt_rate: 0.0 });
        let mut alone = fate(32, 2, plan, NetModel::ideal());
        for k in 0..32 {
            assert_eq!(cut.downlink(0, k), 0);
            assert_eq!(cut.downlink(1, k), alone.downlink(1, k), "client {k}");
        }
        assert_eq!(cut.uplink(0, 0).0, DeliveryOutcome::Dropped);
        assert_eq!(cut.take_comm().dropped_downloads, 32 + alone.take_comm().dropped_downloads);
    }

    #[test]
    fn omission_draw_precedes_the_deadline_check() {
        // Every surviving message misses the deadline, yet the omission
        // draws are still taken: the deadline misses are exactly the links
        // an ideal-model fate on the same stream delivers.
        let plan = FaultPlan { downlink_omission: 0.5, ..FaultPlan::default() };
        let mut strict = fate(32, 1, plan.clone(), late());
        let mut ideal = fate(32, 1, plan, NetModel::ideal());
        for k in 0..32 {
            let before = strict.comm.deadline_misses;
            assert_eq!(strict.downlink(0, k), 0);
            let missed = strict.comm.deadline_misses - before;
            assert_eq!(missed, ideal.downlink(0, k) as u64, "client {k}");
        }
        let misses = strict.take_comm().deadline_misses;
        assert!(misses > 0 && misses < 32, "omission must split the links, got {misses}");
    }

    #[test]
    fn duplicate_is_drawn_only_after_a_delivery() {
        // Reference stream: one omission draw per link, and a duplicate
        // draw only for a link that survived it.
        let plan =
            FaultPlan { downlink_omission: 0.5, duplicate_rate: 0.5, ..FaultPlan::default() };
        let mut f = fate(64, 1, plan.clone(), NetModel::ideal());
        let mut rng = rng_for(9, &[OMIT_LABEL, 0]);
        for k in 0..64 {
            let expected = if rng.gen_bool(0.5) { 0 } else { 1 + usize::from(rng.gen_bool(0.5)) };
            assert_eq!(f.downlink(0, k), expected, "client {k}");
        }
        // A deadline miss is not a delivery either: the same omission
        // outcomes follow whether or not duplication is on.
        let mut with_dup = fate(64, 1, plan.clone(), late());
        let mut without = fate(64, 1, FaultPlan { duplicate_rate: 0.0, ..plan }, late());
        for k in 0..64 {
            with_dup.downlink(0, k);
            without.downlink(0, k);
            assert_eq!(with_dup.comm.deadline_misses, without.comm.deadline_misses, "client {k}");
        }
    }
}
