//! `fedms` — command-line front end for the Fed-MS reproduction; run it
//! without arguments for the usage text. The config flags of `run` are the
//! key table [`FedMsConfig::KEYS`], the same keys sweep specs set.

use fedms::core::ValueKind;
use fedms::exp::{SweepSpec, TrialStatus};
use fedms::sim::net::{run_client, TcpRound};
use fedms::{AttackKind, ClientAttackKind, FedMsConfig, FilterKind, Snapshot, Tensor};
use std::process::ExitCode;

/// A subcommand's outcome: an exit code, or an error printed as
/// `error: ...` (exit 1).
type Outcome = Result<ExitCode, String>;

fn usage_text() -> String {
    // The config flags are the key table: `--some-key <kind>` per entry,
    // bool keys as bare flags, three to a line.
    let flags: Vec<String> = FedMsConfig::KEYS
        .iter()
        .map(|key| match key.kind {
            ValueKind::Bool => format!("[--{}]", key.name.replace('_', "-")),
            kind => format!("[--{} <{kind}>]", key.name.replace('_', "-")),
        })
        .collect();
    let flags = flags.chunks(3).map(|line| line.join(" ")).collect::<Vec<_>>().join("\n    ");
    format!(
        "usage:\n  fedms init-config <file.json>\n  fedms run [<file.json>] [--out <file>] [--seed <n>] [--save-checkpoint <file>] [--resume <file>]\n            [<config flags>]\n  fedms serve <addr> [--expect <n>]\n  fedms client <addr> [--client <id>] [--dim <n>] [--value <x>]\n  fedms exp run <spec.toml> [--threads <n>] [--resume <run-id>] [--out-dir <dir>] [--dry-run|--list]\n  fedms exp list <spec.toml>\n  fedms exp check <run-dir>\n  fedms compare <a.json> <b.json> [...]\n  fedms attacks\n  fedms filters\n\nconfig flags (the [base]/[grid] keys of a sweep spec, with `-` for `_`;\nattack and filter values as `fedms attacks` / `fedms filters` print them):\n    {flags}\n\nfault flags inject benign server/link faults on top of the config's\nscenario; victims are sampled deterministically from the run seed.\nrecovery flags enable deadline-driven retries with seed-deterministic\nbackoff (--retry-budget), upload failover to alternate servers\n(--failover), and local continuation instead of aborting when a client's\nview still degrades below quorum (--proceed-degraded).\n\n--transport net runs the round loop over the concurrent NetTransport\n(per-server actors, versioned wire frames); --net-profile edge adds the\nedge-network latency/bandwidth model, making stragglers and deadline\nmisses emerge from the network itself. `serve` binds one TCP parameter\nserver for a single round (port 0 picks a free port) and `client`\nuploads to it over the same wire frames.\n\n--threat-schedule drives a dynamic threat timeline: epochs separated by\n';', each 'START..END: key=value, ...' with keys compromise=IDS,\nattack=NAME[:P[:P]], partition=IDS, corrupt=RATE (ids '|'-separated).\nExample: '50..80: compromise=1|3, attack=random:-10:10; 60..: partition=5'.\n--estimate-b turns on the online Byzantine-count estimator: the filter\nbecomes an adaptive trimmed mean driven by a per-round B-hat.\n--backend selects the compute backend for client training: scalar (the\ndeterministic default) or blocked (cache-blocked vectorized kernels;\nrequires a binary built with --features backend-blocked).\n\n`exp run` executes a declarative sweep spec (see experiments/*.toml) on a\nwork-stealing thread pool (--threads defaults to every core); records land\nin <out-dir>/<run-id>/, a re-run (or --resume <run-id>) skips every\nalready-completed trial, and the sweep's accuracy tables print at the end\n(first grid axis = panel, remaining axes = series)."
    )
}

fn usage() -> Outcome {
    eprintln!("{}", usage_text());
    Ok(ExitCode::FAILURE)
}

/// A subcommand's arguments: positionals, then `--flag` values in order
/// (`"true"` for a bare flag).
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits `args`, taking at most `positionals` positionals;
    /// `takes_value(flag)` is `Some(true)` for a flag with a value,
    /// `Some(false)` for a bare flag and `None` for an unknown one.
    fn split(
        args: &'a [String],
        positionals: usize,
        takes_value: impl Fn(&str) -> Option<bool>,
    ) -> Result<Self, String> {
        let mut out = Args { positional: Vec::new(), flags: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match takes_value(arg) {
                Some(true) => {
                    let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.flags.push((arg, value));
                }
                Some(false) => out.flags.push((arg, "true")),
                None if !arg.starts_with("--") && out.positional.len() < positionals => {
                    out.positional.push(arg);
                }
                None => return Err(format!("unrecognised argument {arg}\n\n{}", usage_text())),
            }
        }
        Ok(out)
    }

    /// The last value given for `flag`, parsed; a malformed value is an
    /// error naming the flag.
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let value = self.flags.iter().rev().find(|(f, _)| *f == flag);
        value.map(|(_, v)| v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))).transpose()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("init-config") => init_config(rest),
        Some("run") => run(rest),
        Some("exp") => match rest.first().map(String::as_str) {
            Some("run") => exp_run(&rest[1..]),
            Some("list") => exp_list(&rest[1..]),
            Some("check") => exp_check(&rest[1..]),
            _ => usage(),
        },
        Some("compare") => compare(rest),
        Some("serve") => serve(rest),
        Some("client") => client(rest),
        Some("attacks") => {
            println!(
                "server attacks (key `attack`; name[:params], a bare name takes these defaults):"
            );
            for kind in AttackKind::DEFAULTS {
                println!("  {kind}");
            }
            println!("client attacks (key `client_attack`):");
            for kind in ClientAttackKind::DEFAULTS {
                println!("  {kind}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("filters") => {
            println!(
                "client-side filters (keys `filter`, `server_filter`; name[:params], a bare name \
                 takes these defaults;\n`trimmed:matched` and `adaptive:matched` resolve from B \
                 and P):"
            );
            for kind in FilterKind::DEFAULTS {
                let paper = kind.paper_name().map(|p| format!("  ({p})")).unwrap_or_default();
                println!("  {kind}{paper}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => usage(),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn exp_run(args: &[String]) -> Outcome {
    let args = Args::split(args, 1, |flag| match flag {
        "--threads" | "--resume" | "--out-dir" => Some(true),
        "--dry-run" | "--list" => Some(false),
        _ => None,
    })?;
    let Some(&spec_path) = args.positional.first() else {
        return usage();
    };
    if args.flags.iter().any(|(flag, _)| matches!(*flag, "--dry-run" | "--list")) {
        return exp_list(&[spec_path.to_string()]);
    }
    let resume: Option<String> = args.get("--resume")?;
    let out_dir: String = args.get("--out-dir")?.unwrap_or_else(|| "results/runs".into());
    let threads = match args.get("--threads")? {
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("could not read {spec_path}: {e}"))?;
    let (spec, store, report) = fedms::exp::run_spec_in(
        &source,
        std::path::Path::new(&out_dir),
        resume.as_deref(),
        threads,
        fedms::exp::print_progress,
    )
    .map_err(|e| e.to_string())?;
    fedms::exp::print_panels(&spec.title, &report.records);
    println!(
        "\nsweep `{}`: {} executed, {} skipped, {} failed -> {}",
        spec.name,
        report.executed,
        report.skipped,
        report.failed,
        store.root().display()
    );
    if report.failed > 0 {
        return Err(format!(
            "{} trial(s) failed; re-run to retry them (completed trials are skipped)",
            report.failed
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn exp_list(args: &[String]) -> Outcome {
    let Some(spec_path) = args.first() else {
        return usage();
    };
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("could not read {spec_path}: {e}"))?;
    let mut spec = SweepSpec::parse(&source).map_err(|e| format!("{spec_path}: {e}"))?;
    spec.apply_env();
    let trials = spec.expand().map_err(|e| format!("{spec_path}: {e}"))?;
    println!(
        "sweep `{}`: {} trials, {} rounds, seeds {:?} -> run id {}",
        spec.name,
        trials.len(),
        spec.rounds,
        spec.seeds,
        spec.default_run_id()
    );
    for t in &trials {
        println!("  {:<48} [{}]", t.id, t.label);
    }
    Ok(ExitCode::SUCCESS)
}

/// Verifies a run directory: the manifest must load and every trial it
/// lists must have a parseable, completed record.
fn exp_check(args: &[String]) -> Outcome {
    let Some(dir) = args.first() else {
        return usage();
    };
    let store = fedms::exp::RunStore::open_existing(std::path::Path::new(dir))
        .map_err(|e| e.to_string())?;
    let manifest = store.load_manifest().map_err(|e| e.to_string())?;
    let records = store.all_records().map_err(|e| format!("could not list records: {e}"))?;
    let mut problems = 0usize;
    let mut completed = 0usize;
    for trial in &manifest.trials {
        match records.iter().find(|(id, _)| id == &trial.id) {
            None => {
                println!("  [missing] {}", trial.id);
                problems += 1;
            }
            Some((_, Err(e))) => {
                println!("  [corrupt] {}: {e}", trial.id);
                problems += 1;
            }
            Some((_, Ok(record))) => match &record.status {
                TrialStatus::Completed => completed += 1,
                TrialStatus::Failed { error } => {
                    println!("  [failed]  {}: {error}", trial.id);
                    problems += 1;
                }
            },
        }
    }
    for (id, _) in &records {
        if !manifest.trials.iter().any(|t| &t.id == id) {
            println!("  [orphan]  {id} (not in manifest)");
            problems += 1;
        }
    }
    println!(
        "run `{}` (spec hash {}, git {}): {}/{} trials completed, {} problem(s)",
        manifest.run_id,
        manifest.spec_hash,
        manifest.git_rev,
        completed,
        manifest.trials.len(),
        problems
    );
    Ok(if problems > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn init_config(args: &[String]) -> Outcome {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut cfg = FedMsConfig::paper_defaults(42).map_err(|e| e.to_string())?;
    cfg.byzantine_count = 2;
    cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
    let body = serde_json::to_string_pretty(&cfg)
        .map_err(|e| format!("could not serialise config: {e}"))?;
    std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}"))?;
    println!("wrote template config to {path}; edit and `fedms run {path}`");
    Ok(ExitCode::SUCCESS)
}

/// Reads a JSON file and deserializes it with `parse` (`serde_json::from_str`).
fn load_json<T>(path: &str, parse: fn(&str) -> Result<T, serde_json::Error>) -> Result<T, String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse(&body).map_err(|e| e.to_string())
}

fn compare(args: &[String]) -> Outcome {
    if args.is_empty() {
        return usage();
    }
    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>12}",
        "config", "final acc", "best acc", "rnds to 90%", "upload MiB"
    );
    for path in args {
        let cfg: FedMsConfig = load_json(path, serde_json::from_str)
            .map_err(|e| format!("could not load {path}: {e}"))?;
        let result = cfg.run().map_err(|e| format!("{path}: {e}"))?;
        let summary =
            result.summary().ok_or_else(|| format!("{path}: run produced no evaluated rounds"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        println!(
            "{:<24} {:>9.1}% {:>9.1}% {:>12} {:>12.1}",
            name,
            summary.final_accuracy * 100.0,
            summary.best_accuracy * 100.0,
            summary.rounds_to_90pct_of_final.map_or("-".to_string(), |r| r.to_string()),
            summary.upload_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The table key a `fedms run` flag sets: `--some-key` for `some_key`.
fn config_key(flag: &str) -> Option<&'static fedms::core::ConfigKey> {
    let name = flag.strip_prefix("--").filter(|k| !k.contains('_'))?;
    FedMsConfig::key(&name.replace('-', "_"))
}

fn run(args: &[String]) -> Outcome {
    let args = Args::split(args, 1, |flag| match flag {
        "--out" | "--seed" | "--save-checkpoint" | "--resume" => Some(true),
        _ => config_key(flag).map(|key| key.kind != ValueKind::Bool),
    })?;
    let out_path: Option<String> = args.get("--out")?;
    let seed: Option<u64> = args.get("--seed")?;
    let save_checkpoint: Option<String> = args.get("--save-checkpoint")?;
    let resume: Option<String> = args.get("--resume")?;
    let mut cfg = match args.positional.first() {
        Some(path) => load_json(path, serde_json::from_str)
            .map_err(|e| format!("could not load {path}: {e}"))?,
        None => FedMsConfig::paper_defaults(42).map_err(|e| e.to_string())?,
    };
    let keys = args.flags.iter().filter_map(|&(flag, v)| config_key(flag).map(|k| (k.name, v)));
    cfg.apply_keys(keys).map_err(|e| e.to_string())?;
    if let Some(s) = seed {
        cfg.seed = s;
    }

    println!(
        "fed-ms run: K={} P={} B={} attack={} filter={} rounds={} seed={}",
        cfg.clients, cfg.servers, cfg.byzantine_count, cfg.attack, cfg.filter, cfg.rounds, cfg.seed
    );
    if !cfg.fault.is_trivial() {
        println!(
            "faults: crash={}@round {} stragglers={}(+{} rounds) omission={} duplicates={}",
            cfg.fault.crashed_servers,
            cfg.fault.crash_round,
            cfg.fault.straggler_servers,
            cfg.fault.straggler_delay,
            cfg.fault.downlink_omission,
            cfg.fault.duplicate_rate
        );
    }
    if !cfg.threat.is_trivial() {
        println!(
            "threat schedule: {} epoch(s) — mid-run compromise/partition/corruption driven \
             from the run seed",
            cfg.threat.epochs.len()
        );
    }
    if cfg.estimator.enabled {
        println!(
            "estimator: online B-hat (decay={} scale={} threshold={} floor={} ceiling={})",
            cfg.estimator.decay(),
            cfg.estimator.scale(),
            cfg.estimator.threshold(),
            cfg.estimator.floor,
            cfg.estimator.effective_ceiling(cfg.servers),
        );
    }
    if !cfg.recovery.is_disabled() {
        println!(
            "recovery: retries={} timeout={}ms backoff={}ms(cap {}ms) failover={} degraded={}",
            cfg.recovery.retry_budget,
            cfg.recovery.attempt_timeout_ms,
            cfg.recovery.backoff_base_ms,
            cfg.recovery.backoff_cap_ms,
            cfg.recovery.failover,
            match cfg.recovery.on_degraded {
                fedms::DegradedMode::Abort => "abort",
                fedms::DegradedMode::Proceed => "proceed",
            }
        );
    }
    let mut engine = cfg.build_engine().map_err(|e| e.to_string())?;
    println!("transport: {}", engine.transport().name());
    if let Some(path) = &resume {
        let snapshot: Snapshot = load_json(path, serde_json::from_str)
            .map_err(|e| format!("could not load checkpoint {path}: {e}"))?;
        engine
            .restore(&snapshot)
            .map_err(|e| format!("checkpoint does not fit this config: {e}"))?;
        println!("resumed from {path} at round {}", snapshot.round);
    }
    let result = match engine.run(cfg.rounds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            if let fedms::SimError::DegradedQuorum { received, beta_hat, threat_epoch, .. } = e {
                match beta_hat {
                    // The estimator set the quorum bar: distinguish "B̂ is
                    // too aggressive for the surviving view" from "the
                    // servers actually died".
                    Some(trim) if received > 0 && 2 * trim >= received => eprintln!(
                        "hint: the online estimator is trimming {trim} per side, which the \
                         {received} surviving server model(s) cannot satisfy — the estimator \
                         over-trimmed (lower the estimator ceiling or raise its threshold), \
                         or ride it out with --proceed-degraded"
                    ),
                    _ => eprintln!(
                        "hint: servers went silent{}; enable the recovery layer \
                         (--retry-budget <n> and/or --failover) to repair transient losses, \
                         or --proceed-degraded to ride out the round on local models",
                        match threat_epoch {
                            Some(epoch) => format!(" (threat epoch {epoch} is active)"),
                            None => String::new(),
                        }
                    ),
                }
            }
            return Ok(ExitCode::FAILURE);
        }
    };
    if let Some(path) = &save_checkpoint {
        let body = serde_json::to_string(&engine.snapshot())
            .map_err(|e| format!("could not serialise checkpoint: {e}"))?;
        std::fs::write(path, body)
            .map_err(|e| format!("could not write checkpoint {path}: {e}"))?;
        println!("checkpoint saved to {path} (round {})", engine.round());
    }
    println!("{:>6} {:>10} {:>12}", "round", "accuracy", "train loss");
    for m in &result.rounds {
        println!("{:>6} {:>9.1}% {:>12.4}", m.round, m.mean_accuracy * 100.0, m.mean_train_loss);
    }
    println!(
        "final accuracy {:.1}%  uploads {}  upload bytes {}",
        result.final_accuracy().unwrap_or(0.0) * 100.0,
        result.total_comm.upload_messages,
        result.total_comm.upload_bytes
    );
    let comm = result.total_comm;
    if comm.dropped_uploads + comm.dropped_downloads + comm.duplicated_downloads > 0 {
        println!(
            "fault losses: {} uploads dropped, {} downloads dropped, {} duplicated",
            comm.dropped_uploads, comm.dropped_downloads, comm.duplicated_downloads
        );
    }
    if comm.retried_uploads + comm.failover_uploads + comm.retried_downloads + comm.deadline_misses
        > 0
    {
        println!(
            "recovery: {} upload retries, {} failovers, {} download retransmissions, {} deadline misses",
            comm.retried_uploads, comm.failover_uploads, comm.retried_downloads, comm.deadline_misses
        );
    }
    if let Some(path) = &out_path {
        let body = serde_json::to_string_pretty(&result)
            .map_err(|e| format!("could not serialise metrics: {e}"))?;
        std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote metrics to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `fedms serve <addr> [--expect <n>]` — bind one TCP parameter server
/// and play a single aggregation round: accept connections until
/// `--expect` uploads arrive (default 1), folding each into the running
/// mean and replying with the aggregate-so-far.
fn serve(args: &[String]) -> Outcome {
    let args = Args::split(args, 1, |flag| (flag == "--expect").then_some(true))?;
    let Some(&addr) = args.positional.first() else {
        return usage();
    };
    let expect: usize = args.get("--expect")?.unwrap_or(1);
    let round = TcpRound::bind(addr).map_err(|e| format!("could not bind {addr}: {e}"))?;
    let bound = round.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving one round on {bound} (waiting for {expect} upload{})",
        if expect == 1 { "" } else { "s" }
    );
    let report = round.serve(expect).map_err(|e| e.to_string())?;
    println!(
        "round complete: {} uploads, {} frames read, {} frames written",
        report.uploads, report.frames_read, report.frames_written
    );
    if let Some(agg) = report.aggregate {
        println!("aggregate: {}", preview_tensor(&agg));
    }
    Ok(ExitCode::SUCCESS)
}

/// `fedms client <addr> [--client <id>] [--dim <n>] [--value <x>]` —
/// connect to a `fedms serve` round, upload a constant model of `--dim`
/// coordinates (filled with `--value`, defaulting to the client id) and
/// print the server's aggregate reply.
fn client(args: &[String]) -> Outcome {
    let args = Args::split(args, 1, |flag| {
        matches!(flag, "--client" | "--dim" | "--value").then_some(true)
    })?;
    let Some(&addr) = args.positional.first() else {
        return usage();
    };
    let client_id: usize = args.get("--client")?.unwrap_or(0);
    let dim: usize = args.get("--dim")?.unwrap_or(8);
    if dim == 0 {
        return Err("--dim must be positive".into());
    }
    let fill = args.get("--value")?.unwrap_or(client_id as f32);
    let model = Tensor::from_slice(&vec![fill; dim]);
    let (contributors, aggregate) =
        run_client(addr, client_id, &model).map_err(|e| e.to_string())?;
    println!(
        "uploaded {dim} coordinates as client {client_id}; \
         aggregate over {contributors} contributor{}: {}",
        if contributors == 1 { "" } else { "s" },
        preview_tensor(&aggregate)
    );
    Ok(ExitCode::SUCCESS)
}

/// Formats the first few coordinates of a tensor for terminal output.
fn preview_tensor(t: &Tensor) -> String {
    let data = t.as_slice();
    let head: Vec<String> = data.iter().take(8).map(|v| format!("{v:.4}")).collect();
    let tail = if data.len() > 8 { ", ..." } else { "" };
    format!("[{}{}] ({} coordinates)", head.join(", "), tail, data.len())
}
