//! The composable phases of one federated round.
//!
//! [`crate::SimulationEngine::step_round`] is a thin orchestrator over the
//! functions in this module, each of which implements exactly one stage of
//! Algorithm 1 against a narrow context struct:
//!
//! 1. [`local_train`] — local SGD on the active clients (lines 8–10),
//!    scoring each evaluated client on the test split where it trained
//!    when the round measures local accuracy,
//! 2. [`upload`] — client-attack tampering + sparse upload over the
//!    [`Transport`] (line 11),
//! 3. [`aggregate`] — per-server aggregation of whatever arrived, passed
//!    through the server's delivery pipeline (lines 3–4),
//! 4. [`disseminate`] — (possibly Byzantine) dissemination, queued on the
//!    transport (line 5),
//! 5. [`filter`] — per-client realization of the downlink and the
//!    `Def(·)` filter, run once per distinct view (lines 12–13).
//!
//! The phases never touch fault realization or message accounting — both
//! live behind the [`Transport`] — and they never share mutable state
//! except through their contexts, so ablating, reordering (where the
//! protocol allows) or instrumenting a single stage is a local change.
//!
//! Memory model: the phases read clients through a
//! [`crate::store::ClientStore`] and only ever materialize the *cohort*
//! (this round's sampled clients). Training rehydrates one client per
//! worker at a time; uploads stream into per-server accumulators when the
//! transport supports it; filtering drains downlinks in fixed-size blocks
//! as shared [`Arc`] handles on the transport's queued payloads, runs
//! `Def(·)` once per distinct view, and materializes each view into
//! [`BufferPool`] tensors only inside the worker filtering it. At no point
//! does the pipeline hold more than `O(cohort × dim)` trained vectors plus
//! `threads × P × dim` materialized views; the handles themselves cost a
//! pointer each.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use fedms_aggregation::{AggregationRule, Mean, MeanAccumulator};
use fedms_attacks::{ClientAttack, ClientAttackContext};
use fedms_tensor::pool::BufferPool;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;

use crate::recovery::{DegradedMode, UploadReport};
use crate::store::ClientStore;
use crate::transport::{Broadcast, DeliveryOutcome, Dissemination, Transport, Upload};
use crate::{EventLog, Result, RoundDiagnostics, RoundEvent, Server, SimError};

/// Downlink realizations processed per filter block: bounds the shared
/// view handles drained ahead of filtering without affecting results (the
/// stitch order is block-independent).
const FILTER_BLOCK: usize = 256;

/// Uniformly samples `take` of `ids` without replacement, returning them
/// sorted (so later phases walk clients in id order). `take ≥ ids.len()`
/// returns `ids` untouched — without consuming the RNG — which makes a
/// full cohort bit-identical to not sampling at all. Used for both the
/// per-round cohort draw (`"CHRT"` stream) and partial participation
/// within the cohort (`"PART"` stream).
pub fn sample_cohort(mut ids: Vec<usize>, take: usize, rng: &mut StdRng) -> Vec<usize> {
    if take >= ids.len() {
        return ids;
    }
    use rand::seq::SliceRandom;
    ids.shuffle(rng);
    ids.truncate(take.max(1));
    ids.sort_unstable();
    ids
}

/// Context for the local-training phase.
pub(crate) struct TrainCtx<'a> {
    /// Client metadata + model bank; active clients are rehydrated from it.
    pub store: &'a ClientStore,
    /// This round's active client ids (strictly increasing).
    pub active: &'a [usize],
    /// Current round index.
    pub round: usize,
    /// Local SGD iterations per round (the paper's `E`).
    pub local_epochs: usize,
    /// Worker threads for client-parallel training (≤ 1 = sequential;
    /// results are bit-identical across thread counts).
    pub threads: usize,
    /// The test split and the evaluated clients, when this round scores
    /// the freshly trained local models (the paper's metric).
    pub eval: Option<EvalSet<'a>>,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// The test split plus the clients whose accuracy the round's metric
/// averages.
pub(crate) struct EvalSet<'a> {
    /// Test samples, in the model's input layout.
    pub samples: &'a Tensor,
    /// Test labels, aligned with `samples`.
    pub labels: &'a [usize],
    /// Evaluated client ids (strictly increasing).
    pub clients: &'a [usize],
}

/// What [`local_train`] hands back to the round.
pub(crate) struct Trained {
    /// Trained parameter vectors, aligned with the active clients.
    pub vectors: Vec<Tensor>,
    /// Mean training loss over the active clients.
    pub mean_loss: f64,
    /// `(client, test accuracy)` for each active client in the evaluated
    /// set, in ascending client order (empty without an [`EvalSet`]).
    pub scored: Vec<(usize, f32)>,
}

/// Phase 1 — local training on the active clients. Each worker hydrates
/// one client at a time, trains it, and keeps only the trained parameter
/// vector (the [`crate::Client`] is dropped before the next item), so peak
/// memory is `O(threads × client)` + `O(active × dim)` outputs.
///
/// With an [`EvalSet`], the worker also scores each evaluated client on
/// the test split right after [`crate::Client::local_train`] — before
/// upload tampering, on the very model it trained. That equals scoring a
/// fresh model loaded with the trained vector, because a model's
/// parameter vector is its whole state (the rehydration contract on
/// [`crate::Client`]), and it spares a model build, a parameter load and
/// a second fork/join per evaluated client.
pub(crate) fn local_train(mut ctx: TrainCtx<'_>) -> Result<Trained> {
    let global_step = ctx.round * ctx.local_epochs;
    let epochs = ctx.local_epochs;
    let store = ctx.store;
    let eval = ctx.eval.as_ref();
    let results = map_in_order(ctx.active.to_vec(), ctx.threads, |k| {
        let mut client = store.hydrate(k)?;
        let loss = client.local_train(epochs, global_step)?;
        let acc = match eval {
            Some(set) if set.clients.binary_search(&k).is_ok() => {
                Some(client.evaluate(set.samples, set.labels)?)
            }
            _ => None,
        };
        Ok::<(Tensor, f32, Option<f32>), SimError>((client.model_vector(), loss, acc))
    });
    let mut vectors = Vec::with_capacity(ctx.active.len());
    let mut losses = Vec::with_capacity(ctx.active.len());
    let mut scored = Vec::new();
    for (&k, res) in ctx.active.iter().zip(results) {
        let (vector, loss, acc) = res?;
        vectors.push(vector);
        losses.push(loss);
        if let Some(acc) = acc {
            scored.push((k, acc));
        }
    }
    if let Some(log) = ctx.event_log.as_deref_mut() {
        for (&client, &loss) in ctx.active.iter().zip(losses.iter()) {
            log.push(RoundEvent::LocalTrainingCompleted { round: ctx.round, client, loss });
        }
    }
    let mean_loss = losses.iter().map(|&l| l as f64).sum::<f64>() / losses.len() as f64;
    Ok(Trained { vectors, mean_loss, scored })
}

/// Context for the upload phase.
pub(crate) struct UploadCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// Client metadata + model bank (start-of-round vectors; the bank is
    /// not committed until the round ends).
    pub store: &'a ClientStore,
    /// Per-client Byzantine upload tampering, indexed by client id.
    pub client_attacks: &'a [Option<Box<dyn ClientAttack>>],
    /// This round's cohort (strictly increasing); `assignment` aligns with
    /// it positionally.
    pub cohort: &'a [usize],
    /// This round's active client ids (a subset of the cohort).
    pub active: &'a [usize],
    /// Trained vectors aligned with `active`; Byzantine entries are
    /// tampered in place.
    pub trained: &'a mut [Tensor],
    /// Current round index.
    pub round: usize,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// Phase 2 — sparse upload: Byzantine clients tamper with their vectors
/// (in client order, sharing `attack_rng`), then every active client sends
/// per `assignment` over the transport. With `accumulators` present
/// (streaming transports + a streamable server rule), each delivered model
/// is folded straight into its server's running aggregate instead of being
/// queued — bit-identical, since arrival order equals send order.
pub(crate) fn upload(
    mut ctx: UploadCtx<'_>,
    assignment: &[Vec<usize>],
    attack_rng: &mut StdRng,
    mut accumulators: Option<&mut [MeanAccumulator]>,
) -> Result<()> {
    // Byzantine clients tamper with their uploads (extension beyond the
    // paper's server-only threat model). All attack slots draw in client
    // order — active or not — so the shared stream stays aligned with the
    // full-participation engine.
    for (k, slot) in ctx.client_attacks.iter().enumerate() {
        let Some(attack) = slot else { continue };
        let global = if ctx.round == 0 { None } else { Some(ctx.store.model(k)) };
        match ctx.active.binary_search(&k) {
            Ok(pos) => {
                let tampered = {
                    let actx = ClientAttackContext::new(ctx.round, k, &ctx.trained[pos], global);
                    attack.tamper_upload(&actx, attack_rng)?
                };
                ctx.trained[pos] = tampered;
            }
            Err(_) => {
                // Inactive this round: nothing is uploaded, but the draw
                // still happens (its untrained vector is the bank model).
                let actx = ClientAttackContext::new(ctx.round, k, ctx.store.model(k), global);
                let _ = attack.tamper_upload(&actx, attack_rng)?;
            }
        }
    }
    for (ci, &k) in ctx.cohort.iter().enumerate() {
        let Ok(pos) = ctx.active.binary_search(&k) else { continue };
        for &s in &assignment[ci] {
            let report = match accumulators.as_deref_mut() {
                Some(accs) => match ctx.transport.route_upload(k, s) {
                    Some(outcome) => {
                        if outcome == DeliveryOutcome::Delivered {
                            accs[s].push(&ctx.trained[pos])?;
                        }
                        UploadReport::direct(outcome, s)
                    }
                    // A transport that advertises streaming but declines to
                    // route this upload by reference: fall back to the
                    // buffered path for it instead of panicking. The
                    // aggregation phase folds such inbox entries into the
                    // accumulator, so no delivered model is lost.
                    None => ctx.transport.send_upload_tracked(Upload {
                        client: k,
                        server: s,
                        model: ctx.trained[pos].clone(),
                    }),
                },
                None => ctx.transport.send_upload_tracked(Upload {
                    client: k,
                    server: s,
                    model: ctx.trained[pos].clone(),
                }),
            };
            if let Some(log) = ctx.event_log.as_deref_mut() {
                log.push(RoundEvent::UploadSent {
                    round: ctx.round,
                    client: k,
                    server: s,
                    dropped: report.outcome == DeliveryOutcome::Dropped,
                });
                // A clean single-attempt exchange needs no recovery event.
                if report.attempts > 1 || report.failed_over || report.deadline_missed {
                    log.push(RoundEvent::UploadRecovery {
                        round: ctx.round,
                        client: k,
                        server: s,
                        delivered_to: (report.outcome == DeliveryOutcome::Delivered)
                            .then_some(report.server),
                        attempts: report.attempts,
                        failed_over: report.failed_over,
                        deadline_missed: report.deadline_missed,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Context for the aggregation phase.
pub(crate) struct AggregateCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// All servers.
    pub servers: &'a mut [Server],
    /// The server-side aggregation rule (the paper's mean).
    pub server_rule: &'a dyn AggregationRule,
    /// Fallback aggregate for servers that never received anything.
    pub initial_model: &'a Tensor,
    /// Current round index.
    pub round: usize,
    /// Per-server streaming accumulators already fed by the upload phase,
    /// if the round ran in streaming mode.
    pub accumulators: Option<Vec<MeanAccumulator>>,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// Phase 3 — per-server aggregation. Each online server reduces its
/// streaming accumulator (or aggregates its transport inbox on the
/// buffered path) and pushes the result through its delivery pipeline.
/// Returns the aggregate each server is ready to disseminate this round
/// (`None` = silent: crashed, or a straggler pipeline still filling) and
/// the number of silent servers.
pub(crate) fn aggregate(mut ctx: AggregateCtx<'_>) -> Result<(Vec<Option<Tensor>>, usize)> {
    let mut accumulators = ctx.accumulators.take();
    let mut ready: Vec<Option<Tensor>> = Vec::with_capacity(ctx.servers.len());
    let mut silent = 0usize;
    for (i, server) in ctx.servers.iter_mut().enumerate() {
        if !ctx.transport.server_online(i) {
            silent += 1;
            if let Some(log) = ctx.event_log.as_deref_mut() {
                log.push(RoundEvent::ServerSilent { round: ctx.round, server: i, crashed: true });
            }
            ready.push(None);
            continue;
        }
        let inbox = ctx.transport.take_inbox(i);
        let streamed = accumulators.as_mut().map(|a| std::mem::take(&mut a[i]));
        let (received, agg) = match streamed {
            // `finish` is bit-identical to `Mean::aggregate` over the
            // inbox the buffered path would have built. A transport that
            // declined to route some uploads by reference leaves them in
            // the buffered inbox; fold them into the accumulator so no
            // delivered model is lost.
            Some(mut acc) if acc.count() > 0 || !inbox.is_empty() => {
                for model in &inbox {
                    acc.push(model)?;
                }
                (acc.count(), server.install_aggregate(acc.finish().map_err(SimError::from)?))
            }
            // Empty accumulator or buffered path: the server falls back to
            // its previous aggregate (or w₀) exactly as before.
            _ => (inbox.len(), server.aggregate(&inbox, ctx.initial_model, ctx.server_rule)?),
        };
        if let Some(log) = ctx.event_log.as_deref_mut() {
            log.push(RoundEvent::Aggregated {
                round: ctx.round,
                server: i,
                received,
                aggregate_norm: agg.norm_l2(),
            });
        }
        let (_, out) = ctx.transport.release_aggregate(i, agg);
        match out {
            Some(t) => ready.push(Some(t)),
            None => {
                silent += 1;
                if let Some(log) = ctx.event_log.as_deref_mut() {
                    log.push(RoundEvent::ServerSilent {
                        round: ctx.round,
                        server: i,
                        crashed: false,
                    });
                }
                ready.push(None);
            }
        }
    }
    Ok((ready, silent))
}

/// Context for the dissemination phase.
pub(crate) struct DisseminateCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// All servers.
    pub servers: &'a mut [Server],
    /// Number of clients the dissemination must cover.
    pub num_clients: usize,
    /// Current round index.
    pub round: usize,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// Phase 4 — dissemination: each non-silent server sends out its ready
/// aggregate — honestly, or through its Byzantine attack — and the result
/// is queued on the transport for every client.
///
/// With `capture` present (the online Byzantine-count estimator is
/// running), each disseminating server's *post-attack* view is recorded as
/// `(server, model)` before it is queued — the broadcast tensor, or the
/// first client's slice of an equivocating dissemination, which is exactly
/// what a client-side observer could see on the wire.
pub(crate) fn disseminate(
    mut ctx: DisseminateCtx<'_>,
    ready: Vec<Option<Tensor>>,
    mut capture: Option<&mut Vec<(usize, Tensor)>>,
) -> Result<()> {
    for (i, out) in ready.into_iter().enumerate() {
        let Some(out) = out else { continue };
        let server = &mut ctx.servers[i];
        let d = server.disseminate(&out, ctx.round, ctx.num_clients)?;
        let equivocating = matches!(d, Dissemination::PerClient(_));
        let byzantine = server.is_byzantine();
        if let Some(views) = capture.as_deref_mut() {
            let observed = match &d {
                Dissemination::Broadcast(t) => Some(t.clone()),
                Dissemination::PerClient(per) => per.first().cloned(),
            };
            if let Some(t) = observed {
                views.push((i, t));
            }
        }
        ctx.transport.broadcast(Broadcast { server: i, model: d })?;
        if let Some(log) = ctx.event_log.as_deref_mut() {
            log.push(RoundEvent::Disseminated {
                round: ctx.round,
                server: i,
                byzantine,
                equivocating,
            });
        }
    }
    Ok(())
}

/// Context for the filtering phase.
pub(crate) struct FilterCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// Client metadata + model bank (blackout fallback for inactive cohort
    /// members keeps the banked local model).
    pub store: &'a ClientStore,
    /// This round's cohort — the clients that realize the downlink and
    /// filter (strictly increasing).
    pub cohort: &'a [usize],
    /// This round's active client ids (a subset of the cohort).
    pub active: &'a [usize],
    /// Trained vectors aligned with `active` (blackout fallback for active
    /// clients keeps the freshly trained model).
    pub trained: &'a [Tensor],
    /// Recycles the dense view tensors `Def(·)` reads, across work items.
    pub pool: &'a BufferPool,
    /// The client-side defence `Def(·)`.
    pub filter: &'a dyn AggregationRule,
    /// Total number of servers `P`.
    pub num_servers: usize,
    /// Number of Byzantine servers `B`.
    pub byz_servers: usize,
    /// Current round index.
    pub round: usize,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
    /// Capture the first cohort client's realized view for defence
    /// diagnostics.
    pub capture_views: bool,
    /// What to do when a client's view degrades below quorum anyway.
    pub on_degraded: DegradedMode,
    /// Worker threads for the filter applications (≤ 1 = sequential;
    /// results are bit-identical across thread counts).
    pub threads: usize,
    /// The online estimator's current trim level, when the adaptive
    /// defence is running — reported on [`SimError::DegradedQuorum`] so
    /// operators can tell estimator over-trimming from dead servers.
    pub beta_hat: Option<usize>,
    /// Index of the active threat epoch, when a dynamic threat schedule is
    /// driving the run — likewise reported on quorum loss.
    pub threat_epoch: Option<usize>,
}

/// What the filtering phase produces.
pub(crate) struct FilterOutcome {
    /// The distinct post-filter models, in order of first use by the
    /// cohort.
    pub outputs: Vec<Tensor>,
    /// `outputs[assignment[i]]` is cohort client `i`'s model. Clients
    /// sharing an index saw the same view and are bit-identical.
    pub assignment: Vec<usize>,
    /// The first cohort client's realized (post-fault) server views, if
    /// captured.
    pub first_views: Vec<Tensor>,
    /// Duplicate deliveries suppressed before filtering, summed over
    /// clients.
    pub suppressed_duplicates: usize,
}

/// One unit of filter work: a distinct view to run `Def(·)` over, or a
/// client that keeps `local` and only needs its view for the displacement.
struct FilterJob {
    views: Vec<Arc<Tensor>>,
    local: Option<Tensor>,
}

/// Phase 5 — client-side filtering: each cohort client drains its own
/// realization of the downlink, discards fault-injected duplicate
/// deliveries (first delivery wins, so a duplicating downlink cannot
/// double a server's weight in the filter) and applies `Def(·)` over what
/// remains.
///
/// `Def(·)` runs once per *distinct view*, not once per client. Deliveries
/// are shared [`Arc`] handles, so a client's view is keyed by the ordered
/// sequence of its payload pointers: clients with equal keys hold the same
/// payloads in the same order, and their filter outputs (and `Filtered`
/// displacements) are bit-identical by construction. The key is ordered,
/// not sorted — `Mean` and `GeometricMedian` are not bitwise
/// permutation-invariant. Every key's handles stay alive until the phase
/// ends, so no payload address can be freed and recycled into a false
/// match. In a fault-free round without equivocation every client shares
/// one key; under equivocation every key is distinct and each client is
/// filtered on its own.
///
/// The cohort is drained in blocks of [`FILTER_BLOCK`]: each block drains
/// its downlinks sequentially (the transport is exclusive state) into
/// shared handles, then runs the block's *new* keys (and its fallback
/// clients) in parallel. Each work item copies its `P` views into
/// [`BufferPool`] tensors — the dense slice `Def(·)` takes — and releases
/// them when done, so memory is the shared handles plus at most
/// `threads × P × dim` materialized views, whatever the cohort size.
/// Memo entries span blocks, and blocking is invisible in the results:
/// outputs are numbered in cohort order and `Filtered` events are buffered
/// until the whole cohort succeeds.
///
/// Graceful-degradation guard: trimming `B` per side needs a strict honest
/// majority among the *distinct* deliveries (duplicates of one server must
/// not count towards quorum). Only fault-degraded views (`P' < P`) are
/// guarded — a deliberately infeasible fault-free federation (`B ≥ P/2`)
/// is let through so experiments can demonstrate filter defeat. What a
/// degraded view does — abort with [`SimError::DegradedQuorum`] or keep
/// the affected client's local model — is decided by
/// [`FilterCtx::on_degraded`]. Blocks are walked in ascending client
/// order, so an abort names the same lowest client id the unblocked
/// engine would.
pub(crate) fn filter(mut ctx: FilterCtx<'_>) -> Result<FilterOutcome> {
    let mut suppressed_duplicates = 0usize;
    let mut outputs: Vec<Tensor> = Vec::new();
    let mut assignment: Vec<usize> = Vec::with_capacity(ctx.cohort.len());
    let mut first_views: Vec<Tensor> = Vec::new();
    let want_displacement = ctx.event_log.is_some();
    // Per output, aligned with `outputs`.
    let mut displacements: Vec<f32> = Vec::new();
    // Ordered payload pointers of a view → its output index. `held` keeps
    // every keyed payload alive until the round's filtering ends.
    let mut memo: HashMap<Vec<*const Tensor>, usize> = HashMap::new();
    let mut held: Vec<Arc<Tensor>> = Vec::new();
    for chunk in ctx.cohort.chunks(FILTER_BLOCK) {
        // Pass 1 (sequential): realize this block's downlinks on the
        // transport, suppress duplicate deliveries, apply the quorum guard
        // and look each view up in the memo. Output indices are handed out
        // in cohort order as work items are queued.
        let mut jobs: Vec<FilterJob> = Vec::new();
        for &k in chunk {
            let mut views = Vec::new();
            for d in ctx.transport.drain_deliveries(k) {
                // First delivery wins: repeats never reach the filter.
                if d.outcome == DeliveryOutcome::Duplicated {
                    suppressed_duplicates += 1;
                } else {
                    views.push(d.model);
                }
            }
            let distinct = views.len();
            let degraded = ctx.byz_servers > 0
                && distinct < ctx.num_servers
                && distinct <= 2 * ctx.byz_servers;
            if degraded && ctx.on_degraded == DegradedMode::Abort {
                return Err(SimError::DegradedQuorum {
                    round: ctx.round,
                    client: k,
                    received: distinct,
                    needed: 2 * ctx.byz_servers,
                    total: ctx.num_servers,
                    beta_hat: ctx.beta_hat,
                    threat_epoch: ctx.threat_epoch,
                });
            }
            if ctx.capture_views && assignment.is_empty() {
                first_views = views.iter().map(|v| Tensor::clone(v)).collect();
            }
            let next = outputs.len() + jobs.len();
            // Total blackout, or a sub-quorum view the policy chose to
            // ride out: the client keeps its locally trained model this
            // round (filtering a Byzantine-dominated sample would be
            // worse).
            let slot = if views.is_empty() || degraded {
                let local = match ctx.active.binary_search(&k) {
                    Ok(pos) => ctx.trained[pos].clone(),
                    Err(_) => ctx.store.model(k).clone(),
                };
                jobs.push(FilterJob { views, local: Some(local) });
                next
            } else {
                match memo.entry(views.iter().map(Arc::as_ptr).collect()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        e.insert(next);
                        held.extend(views.iter().cloned());
                        jobs.push(FilterJob { views, local: None });
                        next
                    }
                }
            };
            assignment.push(slot);
        }
        // Pass 2 (parallel): apply `Def(·)` — the dominant per-round cost
        // at real model sizes — once per new key, materializing its views
        // into pooled tensors only for the duration of the work item.
        let filter = ctx.filter;
        let pool = ctx.pool;
        let done = map_in_order(jobs, ctx.threads, |job| {
            // Only `Def(·)` and the displacement read dense views.
            let dense: Vec<Tensor> = if job.local.is_none() || want_displacement {
                job.views.iter().map(|v| pool.fetch_tensor(v)).collect()
            } else {
                Vec::new()
            };
            let result = run_filter_job(filter, job.local, &dense, want_displacement);
            for v in dense {
                pool.release_tensor(v);
            }
            result
        });
        // Stitch sequentially, surfacing the lowest-client-index error.
        for res in done {
            let (out, displacement) = res?;
            outputs.push(out);
            displacements.push(displacement);
        }
    }
    // Events flush only after every block succeeded, in cohort order.
    if let Some(log) = ctx.event_log.as_deref_mut() {
        for (&client, &j) in ctx.cohort.iter().zip(&assignment) {
            log.push(RoundEvent::Filtered {
                round: ctx.round,
                client,
                displacement: displacements[j],
            });
        }
    }
    Ok(FilterOutcome { outputs, assignment, first_views, suppressed_duplicates })
}

/// One work item's output and `Filtered` displacement: `local` if the
/// client fell back, `Def(views)` otherwise; the displacement (0 when not
/// wanted or the view is empty) is the distance to the plain mean of
/// `views`.
fn run_filter_job(
    filter: &dyn AggregationRule,
    local: Option<Tensor>,
    views: &[Tensor],
    want_displacement: bool,
) -> Result<(Tensor, f32)> {
    let out = match local {
        Some(local) => local,
        None => filter.aggregate(views)?,
    };
    let displacement = if want_displacement && !views.is_empty() {
        out.sub(&Mean::new().aggregate(views)?)?.norm_l2()
    } else {
        0.0
    };
    Ok((out, displacement))
}

/// Context for the diagnostics pass.
pub(crate) struct DiagnosticsCtx<'a> {
    /// The first cohort client's realized (post-fault) server views.
    pub views: &'a [Tensor],
    /// That client's post-filter model.
    pub filtered0: &'a Tensor,
    /// Client metadata + model bank (start-of-round vectors).
    pub store: &'a ClientStore,
    /// This round's active client ids.
    pub active: &'a [usize],
    /// The (tampered) upload vectors, aligned with `active`.
    pub trained: &'a [Tensor],
    /// Number of servers that disseminated nothing this round.
    pub silent_servers: usize,
    /// Duplicate deliveries suppressed before filtering this round.
    pub suppressed_duplicates: usize,
}

/// Defence diagnostics from the first filtered client's viewpoint (its
/// realized, post-fault view — not the idealized full dissemination).
pub(crate) fn diagnostics(ctx: DiagnosticsCtx<'_>) -> Result<RoundDiagnostics> {
    let views = ctx.views;
    let mut pair_sum = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..views.len() {
        for j in (i + 1)..views.len() {
            pair_sum += views[i].sub(&views[j])?.norm_l2() as f64;
            pairs += 1;
        }
    }
    let displacement = if views.is_empty() {
        0.0
    } else {
        let naive = Mean::new().aggregate(views)?;
        ctx.filtered0.sub(&naive)?.norm_l2()
    };
    let mut max_update = 0.0f32;
    for (pos, &k) in ctx.active.iter().enumerate() {
        let update = ctx.trained[pos].sub(ctx.store.model(k))?.norm_l2();
        max_update = max_update.max(update);
    }
    Ok(RoundDiagnostics {
        server_disagreement: if pairs > 0 { (pair_sum / pairs as f64) as f32 } else { 0.0 },
        filter_displacement: displacement,
        max_update_norm: max_update,
        silent_servers: ctx.silent_servers,
        suppressed_duplicates: ctx.suppressed_duplicates,
    })
}

/// Maps `f` over owned `items` on up to `threads` worker threads (≤ 1 =
/// sequential), returning the outputs in input order. The chunking only
/// changes *where* each item runs, never the result order, which is what
/// keeps parallel phases bit-identical across thread counts.
pub(crate) fn map_in_order<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 4 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let mut groups: Vec<Vec<T>> = Vec::new();
    let mut it = items.into_iter();
    loop {
        let group: Vec<T> = it.by_ref().take(chunk).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    let mut outputs: Vec<Vec<U>> = Vec::with_capacity(groups.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for group in groups {
            let f = &f;
            handles.push(scope.spawn(move || group.into_iter().map(f).collect::<Vec<U>>()));
        }
        for h in handles {
            outputs.push(h.join().expect("worker thread panicked"));
        }
    });
    outputs.into_iter().flatten().collect()
}
