//! The edge-side parameter-server entity.
//!
//! A [`Server`] is pure protocol logic: it aggregates whatever uploads the
//! transport put in its inbox and produces a [`Dissemination`] — honestly,
//! or through its Byzantine attack. Delivery concerns (crash silence,
//! straggler delays, message loss) live in [`crate::transport`], not here.

use fedms_aggregation::AggregationRule;
use fedms_attacks::{AttackContext, ServerAttack};
use fedms_tensor::rng::rng_for;
use fedms_tensor::Tensor;

use crate::transport::Dissemination;
use crate::Result;

/// One edge parameter server (Algorithm 1 lines 1–5): averages the client
/// uploads it receives, then disseminates — honestly, or through its
/// Byzantine [`ServerAttack`].
pub struct Server {
    id: usize,
    attack: Option<Box<dyn ServerAttack>>,
    history: Vec<Tensor>,
    last_aggregate: Option<Tensor>,
    seed: u64,
    max_history: usize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("id", &self.id)
            .field("byzantine", &self.attack.is_some())
            .field("history_len", &self.history.len())
            .finish()
    }
}

impl Server {
    /// Creates a benign server.
    pub fn benign(id: usize, seed: u64) -> Self {
        Server {
            id,
            attack: None,
            history: Vec::new(),
            last_aggregate: None,
            seed,
            max_history: 64,
        }
    }

    /// Creates a Byzantine server mounting `attack`.
    pub fn byzantine(id: usize, attack: Box<dyn ServerAttack>, seed: u64) -> Self {
        let mut s = Server::benign(id, seed);
        s.attack = Some(attack);
        s
    }

    /// This server's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether this server is Byzantine.
    pub fn is_byzantine(&self) -> bool {
        self.attack.is_some()
    }

    /// Replaces this server's behaviour mid-run: `Some(attack)` compromises
    /// it, `None` heals it back to benign. Used by the dynamic threat
    /// schedule ([`crate::ThreatSchedule`]); the attack history is kept so
    /// adaptive attacks (Backward, ALIE) see the honest past immediately.
    pub(crate) fn set_attack(&mut self, attack: Option<Box<dyn ServerAttack>>) {
        self.attack = attack;
    }

    /// Aggregation stage: combines the received local models with `rule`
    /// (the paper's benign servers use the plain mean,
    /// `a_{t+1}^i = 1/|N_i| Σ w_{t,E}^k`; a robust rule here extends Fed-MS
    /// to Byzantine *clients*). A server that received nothing this round
    /// (possible under sparse upload) re-uses its previous aggregate,
    /// falling back to `fallback` (the initial model) in round 0.
    ///
    /// # Errors
    ///
    /// Propagates aggregation shape errors.
    pub fn aggregate(
        &mut self,
        received: &[Tensor],
        fallback: &Tensor,
        rule: &dyn AggregationRule,
    ) -> Result<Tensor> {
        let agg = if received.is_empty() {
            self.last_aggregate.clone().unwrap_or_else(|| fallback.clone())
        } else {
            rule.aggregate(received)?
        };
        self.last_aggregate = Some(agg.clone());
        Ok(agg)
    }

    /// Installs an aggregate computed *outside* the server (the engine's
    /// streaming accumulator path), with the same state effect as
    /// [`Server::aggregate`]: the value becomes this server's
    /// `last_aggregate` fallback for future empty rounds.
    pub(crate) fn install_aggregate(&mut self, agg: Tensor) -> Tensor {
        self.last_aggregate = Some(agg.clone());
        agg
    }

    /// Dissemination stage: a benign server broadcasts `aggregate`
    /// unchanged; a Byzantine server tampers with it (per client if the
    /// attack equivocates). The *true* aggregate is appended to the attack
    /// history either way (the adversary knows the honest state).
    ///
    /// # Errors
    ///
    /// Propagates attack errors.
    pub fn disseminate(
        &mut self,
        aggregate: &Tensor,
        round: usize,
        num_clients: usize,
    ) -> Result<Dissemination> {
        let out = match &self.attack {
            None => Dissemination::Broadcast(aggregate.clone()),
            Some(attack) => {
                let ctx = AttackContext::new(round, self.id, aggregate, &self.history, num_clients);
                // Attack randomness is a pure function of
                // (seed, server, round), which makes dissemination
                // replayable from a checkpoint.
                let mut rng = rng_for(self.seed, &[0x53_52_56, self.id as u64, round as u64]); // "SRV"
                if attack.is_equivocating() {
                    let mut per_client = Vec::with_capacity(num_clients);
                    for k in 0..num_clients {
                        per_client.push(attack.tamper_for(&ctx, k, &mut rng)?);
                    }
                    Dissemination::PerClient(per_client)
                } else {
                    Dissemination::Broadcast(attack.tamper(&ctx, &mut rng)?)
                }
            }
        };
        self.history.push(aggregate.clone());
        if self.history.len() > self.max_history {
            self.history.remove(0);
        }
        Ok(out)
    }

    /// Number of past aggregates retained for the adaptive adversary.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Snapshot of the evolving state (attack history, last aggregate) for
    /// checkpointing. The straggler outbox lives in the transport
    /// ([`crate::Transport::state_snapshot`]).
    pub(crate) fn state_snapshot(&self) -> (Vec<Tensor>, Option<Tensor>) {
        (self.history.clone(), self.last_aggregate.clone())
    }

    /// Restores the evolving state from a checkpoint.
    pub(crate) fn restore_state(&mut self, history: Vec<Tensor>, last: Option<Tensor>) {
        self.history = history;
        self.last_aggregate = last;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_aggregation::Mean;
    use fedms_attacks::{Equivocation, RandomAttack, SignFlipAttack};

    #[test]
    fn benign_aggregate_is_mean() {
        let mut s = Server::benign(0, 1);
        let models = vec![Tensor::from_slice(&[1.0]), Tensor::from_slice(&[3.0])];
        let agg = s.aggregate(&models, &Tensor::zeros(&[1]), &Mean::new()).unwrap();
        assert_eq!(agg.as_slice(), &[2.0]);
        assert!(!s.is_byzantine());
    }

    #[test]
    fn robust_server_rule_trims_client_garbage() {
        let mut s = Server::benign(0, 1);
        let mut models = vec![Tensor::from_slice(&[1.0]); 4];
        models.push(Tensor::from_slice(&[1e9]));
        let rule = fedms_aggregation::TrimmedMean::new(0.2).unwrap();
        let agg = s.aggregate(&models, &Tensor::zeros(&[1]), &rule).unwrap();
        assert_eq!(agg.as_slice(), &[1.0]);
    }

    #[test]
    fn empty_round_reuses_previous() {
        let mut s = Server::benign(0, 1);
        let fallback = Tensor::from_slice(&[9.0]);
        let mean = Mean::new();
        // Round 0 with nothing received → fallback (initial model).
        let a0 = s.aggregate(&[], &fallback, &mean).unwrap();
        assert_eq!(a0.as_slice(), &[9.0]);
        // Aggregate something, then go empty again → previous aggregate.
        s.aggregate(&[Tensor::from_slice(&[4.0])], &fallback, &mean).unwrap();
        let a2 = s.aggregate(&[], &fallback, &mean).unwrap();
        assert_eq!(a2.as_slice(), &[4.0]);
    }

    #[test]
    fn benign_dissemination_is_identity_broadcast() {
        let mut s = Server::benign(2, 1);
        let agg = Tensor::from_slice(&[1.0, 2.0]);
        let d = s.disseminate(&agg, 0, 5).unwrap();
        assert_eq!(d, Dissemination::Broadcast(agg));
        assert_eq!(s.history_len(), 1);
    }

    #[test]
    fn byzantine_dissemination_tampers() {
        let mut s = Server::byzantine(1, Box::new(SignFlipAttack::new(1.0).unwrap()), 1);
        let agg = Tensor::from_slice(&[2.0]);
        let d = s.disseminate(&agg, 0, 3).unwrap();
        assert_eq!(d, Dissemination::Broadcast(Tensor::from_slice(&[-2.0])));
        assert!(s.is_byzantine());
    }

    #[test]
    fn history_feeds_adaptive_attacks() {
        let mut s =
            Server::byzantine(1, Box::new(fedms_attacks::BackwardAttack::paper_default()), 1);
        let fallback = Tensor::zeros(&[1]);
        let mean = Mean::new();
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            let agg = s.aggregate(&[Tensor::from_slice(&[v])], &fallback, &mean).unwrap();
            s.disseminate(&agg, 0, 1).unwrap();
        }
        // Next dissemination should replay the aggregate from 2 rounds ago.
        let agg = s.aggregate(&[Tensor::from_slice(&[5.0])], &fallback, &mean).unwrap();
        let d = s.disseminate(&agg, 4, 1).unwrap();
        assert_eq!(d, Dissemination::Broadcast(Tensor::from_slice(&[3.0])));
    }

    #[test]
    fn equivocating_server_sends_distinct_models() {
        let attack = Equivocation::new(RandomAttack::default_range(), 3);
        let mut s = Server::byzantine(0, Box::new(attack), 1);
        let agg = Tensor::zeros(&[8]);
        let d = s.disseminate(&agg, 0, 4).unwrap();
        match &d {
            Dissemination::PerClient(ms) => {
                assert_eq!(ms.len(), 4);
                assert_ne!(ms[0], ms[1]);
            }
            Dissemination::Broadcast(_) => panic!("expected per-client dissemination"),
        }
        assert!(d.check_coverage(4).is_ok());
        assert!(d.check_coverage(5).is_err());
    }

    #[test]
    fn state_survives_snapshot_roundtrip() {
        let mut s = Server::benign(0, 1);
        let fallback = Tensor::zeros(&[1]);
        let mean = Mean::new();
        let agg = s.aggregate(&[Tensor::from_slice(&[4.0])], &fallback, &mean).unwrap();
        s.disseminate(&agg, 0, 1).unwrap();
        let (history, last) = s.state_snapshot();
        let mut restored = Server::benign(0, 1);
        restored.restore_state(history, last);
        assert_eq!(restored.history_len(), 1);
        // The restored server re-uses the restored aggregate when starved.
        let a = restored.aggregate(&[], &fallback, &mean).unwrap();
        assert_eq!(a.as_slice(), &[4.0]);
    }

    #[test]
    fn history_is_bounded() {
        let mut s = Server::benign(0, 1);
        let fallback = Tensor::zeros(&[1]);
        let mean = Mean::new();
        for i in 0..200 {
            let agg = s.aggregate(&[Tensor::from_slice(&[i as f32])], &fallback, &mean).unwrap();
            s.disseminate(&agg, i, 1).unwrap();
        }
        assert!(s.history_len() <= 64);
    }
}
