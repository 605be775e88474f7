//! Summary statistics, output digests and process/build provenance.

use fedms::core::fnv1a64;
use fedms::{FedMsConfig, RunResult, SimulationEngine, Snapshot, Tensor};

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The highest order statistic with at least ten samples beyond it, and
/// the percentile it sits at. With ten samples or fewer it is the maximum
/// (percentile 100).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let rank = n - 10;
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Little-endian byte encoding of the values a digest covers.
#[derive(Default)]
pub struct Bytes(Vec<u8>);

impl Bytes {
    /// Appends `x`.
    pub fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.dims().len() as u64);
        for &d in t.dims() {
            self.u64(d as u64);
        }
        for x in t.as_slice() {
            self.u32(x.to_bits());
        }
    }

    fn tensors(&mut self, ts: &[Tensor]) {
        self.u64(ts.len() as u64);
        for t in ts {
            self.tensor(t);
        }
    }

    /// FNV-1a over the bytes so far.
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

/// FNV-1a over the little-endian bit encoding of `engine.snapshot()` with
/// its metrics record (`result`) left out: equal digests mean equal model
/// bank, server, recovery and estimator state.
pub fn model_digest(engine: &SimulationEngine) -> u64 {
    // Destructured field by field so a new snapshot field fails to compile
    // here instead of silently escaping the digest.
    let Snapshot {
        version,
        round,
        client_models,
        model_pool,
        model_refs,
        server_state,
        result: _,
        recovery_state,
        estimator_scores,
        estimator_trim,
    } = engine.snapshot();
    let mut b = Bytes::default();
    b.u32(version);
    b.u64(round as u64);
    b.tensors(&client_models);
    b.tensors(&model_pool);
    b.u64(model_refs.len() as u64);
    for r in model_refs {
        b.u32(r);
    }
    b.u64(server_state.len() as u64);
    for (history, last, outbox) in &server_state {
        b.tensors(history);
        b.tensors(last.as_slice());
        b.tensors(outbox);
    }
    b.u64(recovery_state.len() as u64);
    for s in recovery_state {
        b.u32(s);
    }
    b.u64(estimator_scores.len() as u64);
    for s in estimator_scores {
        b.u64(s.to_bits());
    }
    b.u64(estimator_trim as u64);
    b.digest()
}

/// FNV-1a over the recorded per-round train-loss trajectory (round index
/// and `f32` bits of every evaluated round).
pub fn loss_digest(result: &RunResult) -> u64 {
    let mut b = Bytes::default();
    for m in &result.rounds {
        b.u64(m.round as u64);
        b.u32(m.mean_train_loss.to_bits());
    }
    b.digest()
}

/// The process's peak resident set size (`VmHWM`) in MB (10⁶ bytes), or
/// `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The commit the benchmark runs from: `.git/HEAD` resolved in the working
/// directory, or `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}")).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        }),
        None => Some(head.to_owned()),
    };
    rev.map_or_else(|| "unknown".into(), |r| r.trim().chars().take(12).collect())
}

/// One line of build and machine provenance, as a JSON object.
pub fn provenance(workload: &str, seed: u64, cfg: &FedMsConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\":\"{}\",\"nproc\":{nproc},\"threads\":{},\"profile\":\"{}\",\"opt_level\":\"{}\",\"rustflags\":\"{}\",\"features\":\"default\",\"backend\":\"{:?}\",\"workload\":\"{workload}\",\"seed\":{seed}}}",
        git_rev(),
        cfg.threads,
        env!("ROUNDBENCH_PROFILE"),
        env!("ROUNDBENCH_OPT_LEVEL"),
        env!("ROUNDBENCH_RUSTFLAGS").replace('\\', "\\\\").replace('"', "\\\""),
        cfg.backend,
    )
}
