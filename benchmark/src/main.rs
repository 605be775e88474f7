//! Fed-MS round benchmark.
//!
//! ```text
//! roundbench --workload <paper|cohort|equivocate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload as a closed loop of back-to-back rounds
//! from one process: episodes of a fixed number of rounds, each on a
//! freshly built engine, over the workload's problem instances and their
//! replays, for about `--seconds`. It checks the outputs and prints every
//! end-to-end metric. `--trace 1` runs one untraced and one traced episode
//! of instance 0, checks that their model digests agree, and prints every
//! per-layer metric. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use fedms::sim::Client;
use fedms::{FedMsConfig, NeuralNet, SimulationEngine};

use crate::stats::{loss_digest, mean, median, model_digest, peak_rss_mb, tail};
use crate::trace::{build_traced, Kind, Recorder, Span};
use crate::workload::{Workload, WORKLOADS};

/// Error type of the benchmark's fallible set-up paths.
pub type BoxError = Box<dyn std::error::Error>;

/// Engine builds timed before the first episode, so `setup_s` is a median
/// even when only one episode fits in the run.
const SETUP_BUILDS: usize = 11;

/// Traced builds timed for the `data.*` and `sim.engine_new_s` medians.
const TRACED_BUILDS: usize = 3;

/// Repetitions of each per-client microbench.
const MICRO_REPS: usize = 16;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("roundbench: {e}");
            eprintln!(
                "usage: roundbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = args.workload.config(args.seed, 0);
    println!("provenance: {}", stats::provenance(args.workload.name, args.seed, &cfg));
    println!("workload {}: {}", args.workload.name, args.workload.why);
    let outcome = if args.trace { traced(&args, &cfg) } else { untraced(&args) };
    match outcome {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("roundbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The final result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line. A metric that is not a finite number prints as 0
    /// and marks the run incorrect.
    fn json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, value, _)| value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// What one episode measured and how its output checks went.
struct Episode {
    /// Wall time of each completed round.
    round_ms: Vec<f64>,
    /// The first evaluated round at or above the target accuracy.
    target_round: Option<usize>,
    /// Mean accuracy at the last evaluated round.
    final_acc: f32,
    attempted: u64,
    failed: u64,
}

/// Runs one episode of `w.rounds` back-to-back rounds on `engine`, calling
/// `after` with the step's start and end after every completed round.
/// Rounds that return an error or fail an output check count as failed.
fn run_episode(
    engine: &mut SimulationEngine,
    w: &Workload,
    mut after: impl FnMut(&SimulationEngine, bool, Instant, Instant),
) -> Episode {
    let eval_every = engine.config().eval_every.max(1);
    let mut ep = Episode {
        round_ms: Vec::with_capacity(w.rounds),
        target_round: None,
        final_acc: f32::NAN,
        attempted: 0,
        failed: 0,
    };
    for r in 0..w.rounds {
        let evaluate = r % eval_every == 0 || r + 1 == w.rounds;
        ep.attempted += 1;
        let t0 = Instant::now();
        let outcome = engine.step_round(evaluate);
        let t1 = Instant::now();
        if let Err(e) = outcome {
            eprintln!("roundbench: round {r} failed: {e}");
            ep.failed += 1;
            break;
        }
        ep.round_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
        if evaluate {
            match engine.result().rounds.last() {
                Some(m)
                    if m.round == r
                        && (0.0..=1.0).contains(&m.mean_accuracy)
                        && m.mean_train_loss.is_finite() =>
                {
                    if ep.target_round.is_none() && m.mean_accuracy >= w.target_acc {
                        ep.target_round = Some(r);
                    }
                    ep.final_acc = m.mean_accuracy;
                }
                _ => {
                    eprintln!("roundbench: round {r} recorded no valid metrics");
                    ep.failed += 1;
                }
            }
        }
        after(engine, evaluate, t0, t1);
    }
    // Output checks: the episode must finish, reach the target and end
    // at or above the accuracy floor; each violation is one failed round.
    if ep.round_ms.len() == w.rounds {
        if ep.target_round.is_none() {
            eprintln!("roundbench: never reached target accuracy {}", w.target_acc);
            ep.failed += 1;
        }
        if ep.final_acc.is_nan() || ep.final_acc < w.floor_acc {
            eprintln!("roundbench: final accuracy {} below floor {}", ep.final_acc, w.floor_acc);
            ep.failed += 1;
        }
    }
    ep
}

/// What the first episode of one problem instance produced.
struct Instance {
    model_digest: u64,
    loss_digest: u64,
    final_acc: f32,
    target_round: Option<usize>,
    comm_mb_per_round: f64,
}

/// The end-to-end run: passes over the workload's instances until another
/// pass would overrun `--seconds` (at least one pass). A pass runs all
/// instances in turn, `w.replays` times over, and each round's time is its
/// fastest replay's. Replays must reproduce their instance's digests.
fn untraced(args: &Args) -> Result<Report, BoxError> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_BUILDS {
        let cfg = w.config(args.seed, 0);
        let t = Instant::now();
        let engine = cfg.build_engine()?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(engine);
    }
    let configs: Vec<FedMsConfig> = (0..w.instances).map(|i| w.config(args.seed, i)).collect();
    let mut instances: Vec<Instance> = Vec::new();
    let mut round_ms: Vec<f64> = Vec::new();
    let mut target_s: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss = None;
    let mut consistent = true;
    let run = Instant::now();
    let mut passes = 0;
    'passes: loop {
        let mut replays: Vec<Vec<Vec<f64>>> = vec![Vec::new(); w.instances];
        for _ in 0..w.replays {
            for (i, cfg) in configs.iter().enumerate() {
                let t = Instant::now();
                let mut engine = cfg.build_engine()?;
                setup_s.push(t.elapsed().as_secs_f64());
                let ep = run_episode(&mut engine, w, |_, _, _, _| {});
                if peak_rss.is_none() {
                    // Read before any digest work touches the heap.
                    peak_rss = peak_rss_mb();
                }
                let digests = (model_digest(&engine), loss_digest(engine.result()));
                match instances.get(i) {
                    None => {
                        let total = engine.result().total_comm;
                        instances.push(Instance {
                            model_digest: digests.0,
                            loss_digest: digests.1,
                            final_acc: ep.final_acc,
                            target_round: ep.target_round,
                            comm_mb_per_round: (total.upload_bytes + total.download_bytes) as f64
                                / 1e6
                                / engine.round().max(1) as f64,
                        });
                    }
                    Some(first) if (first.model_digest, first.loss_digest) != digests => {
                        eprintln!("roundbench: instance {i} did not reproduce its digests");
                        consistent = false;
                    }
                    Some(_) => {}
                }
                attempted += ep.attempted;
                failed += ep.failed;
                if failed > 0 {
                    break 'passes;
                }
                replays[i].push(ep.round_ms);
            }
        }
        for (times, instance) in replays.iter().zip(&instances) {
            let fastest: Vec<f64> = (0..w.rounds)
                .map(|r| times.iter().map(|t| t[r]).fold(f64::INFINITY, f64::min))
                .collect();
            if passes == 0 {
                if let Some(r) = instance.target_round {
                    target_s.push(fastest[..=r].iter().sum::<f64>() / 1e3);
                }
            }
            round_ms.extend(fastest);
        }
        passes += 1;
        let spent = run.elapsed().as_secs_f64();
        if spent + spent / passes as f64 > args.seconds {
            break;
        }
    }
    let final_acc = mean(instances.iter().map(|i| f64::from(i.final_acc)));
    let comm_mb = mean(instances.iter().map(|i| i.comm_mb_per_round));
    let busy_s = round_ms.iter().sum::<f64>() / 1e3;
    let (tail_ms, tail_pct) = tail(&round_ms);
    let p50 = median(&round_ms);
    let mut all = stats::Bytes::default();
    for i in &instances {
        all.u64(i.model_digest);
    }

    println!(
        "{} seed {}: {passes} passes over {} instances x {} replays x {} rounds in {:.2} s",
        w.name,
        args.seed,
        w.instances,
        w.replays,
        w.rounds,
        run.elapsed().as_secs_f64()
    );
    println!(
        "  round_ms p50 {p50:.3}, tail p{tail_pct:.1} {tail_ms:.3} (n = {} rounds, 10 beyond the tail; each round timed as its fastest replay)",
        round_ms.len()
    );
    println!(
        "  final_acc {final_acc:.4} (instance mean, floor {}), target {} reached by {} of {} instances",
        w.floor_acc,
        w.target_acc,
        target_s.len(),
        w.instances
    );
    println!(
        "  failed_rounds {failed} of {attempted} ({:.4})",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(first) = instances.first() {
        println!(
            "  instance 0: model_digest {:016x} loss_digest {:016x}; all instances: {:016x}",
            first.model_digest,
            first.loss_digest,
            all.digest()
        );
    }

    Ok(Report {
        correct: failed == 0 && consistent && target_s.len() == w.instances,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("round_ms.p50", p50, "ms"),
            ("round_ms.tail", tail_ms, "ms"),
            (
                "rounds_per_s",
                if busy_s > 0.0 { round_ms.len() as f64 / busy_s } else { 0.0 },
                "1/s",
            ),
            ("time_to_target_s", mean(target_s.iter().copied()), "s"),
            ("final_acc", final_acc, "ratio"),
            ("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"),
            ("comm_mb_per_round", comm_mb, "MB"),
        ],
    })
}

/// Per-round numbers the traced run derives from its spans.
#[derive(Default)]
struct RoundTrace {
    step_ms: f64,
    self_ms: f64,
    filter_calls: f64,
    filter_busy_ms: f64,
    filter_coords: f64,
    distinct_views: f64,
    upload_ms: f64,
    inbox_ms: f64,
    broadcast_ms: f64,
    drain_ms: f64,
    drain_mb: f64,
}

/// Summarizes the spans of one step spanning `[start, end]` ns.
fn round_trace(spans: &[Span], start: u64, end: u64) -> RoundTrace {
    let mut t = RoundTrace { step_ms: (end - start) as f64 / 1e6, ..RoundTrace::default() };
    // Self time: the step minus the union of its child spans.
    let mut intervals: Vec<(u64, u64)> =
        spans.iter().map(|s| (s.start.max(start), s.end.min(end))).filter(|(a, b)| a < b).collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        open = match open {
            Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
            Some((oa, ob)) => {
                covered += ob - oa;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((oa, ob)) = open {
        covered += ob - oa;
    }
    t.self_ms = (end - start - covered) as f64 / 1e6;
    let mut keys = Vec::new();
    for s in spans {
        let ms = s.busy as f64 / 1e6;
        match s.kind {
            Kind::Filter => {
                t.filter_calls += 1.0;
                t.filter_busy_ms += ms;
                t.filter_coords += s.amount as f64;
                keys.push(s.key);
            }
            Kind::Upload => t.upload_ms += ms,
            Kind::Inbox => t.inbox_ms += ms,
            Kind::Broadcast => t.broadcast_ms += ms,
            Kind::Drain => {
                t.drain_ms += ms;
                t.drain_mb += s.amount as f64 / 1e6;
            }
            Kind::TransportOther => {}
        }
    }
    keys.sort_unstable();
    keys.dedup();
    t.distinct_views = keys.len() as f64;
    t
}

/// The per-layer run: untraced and traced episodes of instance 0,
/// alternating, `w.replays` of each, plus per-client microbenches at the
/// workload's shape. Every episode must end with the same model digest.
fn traced(args: &Args, cfg: &FedMsConfig) -> Result<Report, BoxError> {
    let w = args.workload;
    let rec = Recorder::new();
    let mut times = Vec::new();
    for _ in 0..TRACED_BUILDS {
        times.push(build_traced(cfg, &rec)?.times);
    }
    let mut untraced_ms = Vec::new();
    let mut digests = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds: Vec<RoundTrace> = Vec::new();
    let mut spans_ok = true;
    let mut last = None;
    for replay in 0..w.replays {
        // Untraced first on even replays, traced first on odd ones, so
        // neither side always runs on the colder heap.
        for traced in [replay % 2 == 1, replay % 2 == 0] {
            if !traced {
                let mut engine = cfg.build_engine()?;
                let ep = run_episode(&mut engine, w, |_, _, _, _| {});
                digests.push(model_digest(&engine));
                (attempted, failed) = (attempted + ep.attempted, failed + ep.failed);
                untraced_ms.extend(ep.round_ms);
                continue;
            }
            let mut build = build_traced(cfg, &rec)?;
            times.push(build.times);
            rec.take_spans();
            let ep = run_episode(&mut build.engine, w, |_, _, t0, t1| {
                let spans = rec.take_spans();
                let t = round_trace(&spans, rec.ns(t0), rec.ns(t1));
                spans_ok &= t.self_ms >= 0.0 && t.self_ms <= t.step_ms;
                rounds.push(t);
            });
            digests.push(model_digest(&build.engine));
            (attempted, failed) = (attempted + ep.attempted, failed + ep.failed);
            last = Some(build);
        }
    }
    let build = last.ok_or("the workload replays no episode")?;
    // Timed after the episodes, not between rounds: a pause between steps
    // lets the net transport's actors finish work off the step's clock.
    let mut eval_ms = Vec::new();
    for _ in 0..MICRO_REPS {
        let t = Instant::now();
        std::hint::black_box(build.engine.evaluate_mean_accuracy()?);
        eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let digests_match = digests.iter().all(|&d| d == digests[0]);
    println!(
        "{} seed {}: {} untraced and {} traced episodes, model_digest {:016x} ({})",
        w.name,
        args.seed,
        w.replays,
        w.replays,
        digests[0],
        if digests_match { "all match" } else { "MISMATCH" }
    );
    if !spans_ok {
        eprintln!("roundbench: a round's span self time exceeded its step time");
    }

    let (local_train_ms, evaluate_ms) = client_microbench(cfg, &build)?;
    let pool = build.engine.pool_stats();
    let net = rec.net().unwrap_or_default();
    let n = rounds.len().max(1) as f64;
    let col = |f: fn(&RoundTrace) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let calls: f64 = rounds.iter().map(|r| r.filter_calls).sum();
    let busy_s: f64 = rounds.iter().map(|r| r.filter_busy_ms).sum::<f64>() / 1e3;
    let coords: f64 = rounds.iter().map(|r| r.filter_coords).sum();
    let distinct: f64 = rounds.iter().map(|r| r.distinct_views).sum();
    let step_ms = median(&col(|r| r.step_ms));
    // The last traced episode's counters, per round.
    let comm = build.engine.result().total_comm;
    let cm = |count: u64| count as f64 / w.rounds as f64;
    let reuse = pool.reused as f64 / (pool.reused + pool.allocated).max(1) as f64;

    let metrics = vec![
        (
            "data.generate_s",
            median(&times.iter().map(|t| t.generate.as_secs_f64()).collect::<Vec<_>>()),
            "s",
        ),
        (
            "data.partition_s",
            median(&times.iter().map(|t| t.partition.as_secs_f64()).collect::<Vec<_>>()),
            "s",
        ),
        (
            "sim.engine_new_s",
            median(&times.iter().map(|t| t.engine_new.as_secs_f64()).collect::<Vec<_>>()),
            "s",
        ),
        ("sim.step_ms", step_ms, "ms"),
        ("sim.step_self_ms", median(&col(|r| r.self_ms)), "ms"),
        ("sim.eval_ms", median(&eval_ms), "ms"),
        ("nn.evaluate_ms", evaluate_ms, "ms"),
        ("nn.local_train_ms", local_train_ms, "ms"),
        ("aggregation.filter_calls", calls / n, "count"),
        ("aggregation.filter_busy_ms", median(&col(|r| r.filter_busy_ms)), "ms"),
        (
            "aggregation.filter_coords_per_s",
            if busy_s > 0.0 { coords / busy_s } else { 0.0 },
            "1/s",
        ),
        (
            "aggregation.distinct_view_ratio",
            if calls > 0.0 { distinct / calls } else { 0.0 },
            "ratio",
        ),
        ("transport.upload_ms", median(&col(|r| r.upload_ms)), "ms"),
        ("transport.inbox_ms", median(&col(|r| r.inbox_ms)), "ms"),
        ("transport.broadcast_ms", median(&col(|r| r.broadcast_ms)), "ms"),
        ("transport.drain_ms", median(&col(|r| r.drain_ms)), "ms"),
        ("transport.drain_mb", mean(rounds.iter().map(|r| r.drain_mb)), "MB"),
        ("transport.messages", cm(comm.upload_messages + comm.download_messages), "count"),
        ("transport.dropped", cm(comm.dropped_uploads + comm.dropped_downloads), "count"),
        ("transport.duplicated", cm(comm.duplicated_downloads), "count"),
        ("transport.retried", cm(comm.retried_uploads + comm.retried_downloads), "count"),
        ("net.frames", cm(net.frames_sent), "count"),
        ("net.frame_mb", cm(net.frame_bytes) / 1e6, "MB"),
        ("sim.distinct_models", build.engine.distinct_client_models() as f64, "count"),
        ("sim.pool_reuse_ratio", reuse, "ratio"),
        ("sim.pool_high_water_mb", pool.high_water_bytes as f64 / 1e6, "MB"),
        ("trace.overhead_ratio", step_ms / median(&untraced_ms), "ratio"),
    ];
    println!("  per-layer metrics are per round unless named otherwise:");
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.6} {unit}");
    }
    Ok(Report { correct: failed == 0 && digests_match && spans_ok, attempted, failed, metrics })
}

/// Median per-client cost of `Client::local_train` (one round's `E`
/// iterations) and of a model evaluation over the test split, at the
/// workload's model, shard and batch shape.
fn client_microbench(
    cfg: &FedMsConfig,
    build: &trace::TracedBuild,
) -> Result<(f64, f64), BoxError> {
    let init = build.engine.initial_model();
    let mut train_ms = Vec::new();
    let mut eval_ms = Vec::new();
    for rep in 0..MICRO_REPS {
        let k = rep % build.shards.len();
        let shard = build.train.subset(&build.shards[k])?;
        let model = cfg.model.build(cfg.seed)?;
        let mut client = Client::new(k, model, shard, cfg.batch_size, cfg.schedule, cfg.seed)?;
        client.set_model_vector(init)?;
        let t = Instant::now();
        let loss = client.local_train(cfg.local_epochs, rep * cfg.local_epochs)?;
        train_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(loss);

        let mut model = cfg.model.build(cfg.seed)?;
        model.set_param_vector(&client.model_vector())?;
        let t = Instant::now();
        let acc = model.evaluate(build.test.samples(), build.test.labels())?;
        eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(acc);
    }
    Ok((median(&train_ms), median(&eval_ms)))
}
