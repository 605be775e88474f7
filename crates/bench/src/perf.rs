//! A small workload-based micro-benchmark harness for the aggregation hot
//! path.
//!
//! A [`Workload`] is measured through explicit warmup and sampling phases,
//! and the result is a serializable [`Measurement`] (median/min seconds per
//! iteration, coordinates/s, GB/s) that the `filterbench` binary persists as
//! `BENCH_filter.json` — stamped with git rev and [`MachineInfo`] — and that
//! CI compares against the committed baseline.
//!
//! Two knobs matter when gating in CI: the absolute throughput (valid only
//! on comparable machines, so the gate applies a generous tolerance) and
//! the kernel-vs-reference *speedup ratio*, which is machine-portable and
//! carries the regression signal.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// The flags every gated kernel bench takes: `--quick`, `--out <file>`,
/// `--check <baseline>`, `--tolerance <fraction>` (default 0.5) and
/// `--min-speedup <ratio>`.
#[derive(Debug, Default)]
pub struct GateArgs {
    /// Short warmup and sampling phases.
    pub quick: bool,
    /// Where to write the report.
    pub out: Option<PathBuf>,
    /// Baseline report to gate against.
    pub check: Option<PathBuf>,
    /// Allowed throughput drop below the baseline.
    pub tolerance: f64,
    /// Required kernel speedup ratio.
    pub min_speedup: f64,
}

impl GateArgs {
    /// Parses the process arguments, with `min_speedup` as the default
    /// speedup gate.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown flag or a missing or malformed
    /// value.
    pub fn from_env(min_speedup: f64) -> Result<Self, String> {
        let mut args = GateArgs { tolerance: 0.5, min_speedup, ..GateArgs::default() };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--quick" => args.quick = true,
                "--out" => args.out = Some(PathBuf::from(value("--out")?)),
                "--check" => args.check = Some(PathBuf::from(value("--check")?)),
                "--tolerance" => {
                    args.tolerance =
                        value("--tolerance")?.parse().map_err(|e| format!("--tolerance: {e}"))?
                }
                "--min-speedup" => {
                    args.min_speedup = value("--min-speedup")?
                        .parse()
                        .map_err(|e| format!("--min-speedup: {e}"))?
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(args)
    }
}

/// One benchmarkable unit of work.
///
/// `run` executes a single iteration and returns a checksum derived from
/// the computed output, which the harness folds into the measurement so
/// the optimizer cannot discard the work.
pub trait Workload {
    /// Display name, embedded in the persisted measurement.
    fn name(&self) -> &str;
    /// Coordinates processed by one `run` call (for coords/s reporting).
    fn coords_per_iter(&self) -> u64;
    /// Input bytes read by one `run` call (for GB/s reporting).
    fn bytes_per_iter(&self) -> u64;
    /// Executes one iteration and returns a checksum of the output.
    fn run(&mut self) -> f64;
}

/// Host identity recorded next to every measurement, so a baseline is
/// never silently compared against numbers from different hardware.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineInfo {
    /// CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub cpu_model: String,
    /// Logical core count.
    pub logical_cores: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl MachineInfo {
    /// Best-effort detection of the current host.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        MachineInfo {
            cpu_model,
            logical_cores: std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// Peak-memory footprint recorded next to a measurement: the process's
/// high-water RSS plus, where the workload runs through the engine's
/// buffer pool, the pool's own high-water mark. Both are `Option` — RSS
/// is Linux-only (`VmHWM`), and not every workload has a pool — so a
/// report stays serializable everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MemoryInfo {
    /// Peak resident set size of the whole process in bytes (`VmHWM` from
    /// `/proc/self/status`); `None` off Linux. Process-wide: meaningful
    /// when the measured workload dominates the process.
    pub peak_rss_bytes: Option<u64>,
    /// High-water mark of the engine's tensor buffer pool in bytes
    /// ([`fedms_tensor::pool::PoolStats::high_water_bytes`]); `None` for
    /// workloads that do not run through a pool.
    pub pool_high_water_bytes: Option<u64>,
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// One measured workload, ready to serialize.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// The workload's name.
    pub name: String,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations averaged inside each sample.
    pub iters_per_sample: usize,
    /// Median seconds per iteration across samples — the headline number.
    pub median_secs_per_iter: f64,
    /// Fastest observed seconds per iteration (noise floor).
    pub min_secs_per_iter: f64,
    /// Coordinates per second at the median.
    pub coords_per_sec: f64,
    /// Input gigabytes per second at the median.
    pub gbytes_per_sec: f64,
    /// Checksum of the last iteration's output (anti-DCE, and a cheap
    /// cross-check that two implementations computed the same thing).
    pub checksum: f64,
}

/// Warmup/sample schedule for measuring a [`Workload`].
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Untimed iterations before sampling (cache/branch-predictor warmup).
    pub warmup_iters: usize,
    /// Timed samples; the median is the reported figure.
    pub samples: usize,
    /// Iterations averaged within one sample.
    pub iters_per_sample: usize,
}

impl Harness {
    /// The CI schedule: fast enough for a gate, stable enough to compare
    /// medians.
    pub fn quick() -> Self {
        Harness { warmup_iters: 2, samples: 5, iters_per_sample: 2 }
    }

    /// The full schedule used to produce the committed baseline.
    pub fn full() -> Self {
        Harness { warmup_iters: 5, samples: 15, iters_per_sample: 5 }
    }

    /// Runs the warmup and sampling phases and reduces to a
    /// [`Measurement`].
    pub fn measure(&self, workload: &mut dyn Workload) -> Measurement {
        let mut checksum = 0.0f64;
        for _ in 0..self.warmup_iters {
            checksum = workload.run();
        }
        let iters = self.iters_per_sample.max(1);
        let mut secs_per_iter: Vec<f64> = Vec::with_capacity(self.samples.max(1));
        for _ in 0..self.samples.max(1) {
            let start = Instant::now();
            for _ in 0..iters {
                checksum = workload.run();
            }
            secs_per_iter.push(start.elapsed().as_secs_f64() / iters as f64);
        }
        secs_per_iter.sort_by(f64::total_cmp);
        let median = secs_per_iter[secs_per_iter.len() / 2];
        let min = secs_per_iter[0];
        Measurement {
            name: workload.name().to_string(),
            samples: secs_per_iter.len(),
            iters_per_sample: iters,
            median_secs_per_iter: median,
            min_secs_per_iter: min,
            coords_per_sec: workload.coords_per_iter() as f64 / median,
            gbytes_per_sec: workload.bytes_per_iter() as f64 / median / 1e9,
            checksum,
        }
    }
}

/// Deterministic dependency-free value stream for building bench inputs
/// (xorshift64*; quality is irrelevant here, determinism is not).
pub fn pseudo_values(seed: u64, len: usize) -> Vec<f32> {
    // SplitMix64 scramble so adjacent seeds diverge (a bare `seed | 1`
    // would collapse 42 and 43 onto the same stream) and the xorshift
    // state is never zero.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state ^= state >> 30;
    state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state ^= state >> 27;
    state = state.wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^= state >> 31;
    state |= 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // 24 high bits → uniform in [-0.5, 0.5).
            ((state >> 40) as f32) / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spin {
        values: Vec<f32>,
    }

    impl Workload for Spin {
        fn name(&self) -> &str {
            "spin"
        }
        fn coords_per_iter(&self) -> u64 {
            self.values.len() as u64
        }
        fn bytes_per_iter(&self) -> u64 {
            4 * self.values.len() as u64
        }
        fn run(&mut self) -> f64 {
            self.values.iter().map(|&v| f64::from(v) * 1.0000001).sum()
        }
    }

    #[test]
    fn harness_produces_positive_throughput() {
        let mut w = Spin { values: pseudo_values(7, 4096) };
        let m = Harness::quick().measure(&mut w);
        assert_eq!(m.name, "spin");
        assert_eq!(m.samples, 5);
        assert!(m.median_secs_per_iter > 0.0);
        assert!(m.min_secs_per_iter <= m.median_secs_per_iter);
        assert!(m.coords_per_sec > 0.0);
        assert!(m.gbytes_per_sec > 0.0);
        assert!(m.checksum.is_finite());
    }

    #[test]
    fn machine_info_detects_something() {
        let info = MachineInfo::detect();
        assert!(info.logical_cores >= 1);
        assert!(!info.os.is_empty());
        assert!(!info.arch.is_empty());
        assert!(!info.cpu_model.is_empty());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss.unwrap() > 0);
        }
        // MemoryInfo with absent fields round-trips (old reports have no
        // memory block at all; new ones may have partial data).
        let info = MemoryInfo { peak_rss_bytes: rss, pool_high_water_bytes: None };
        let json = serde_json::to_string(&info).unwrap();
        let back: MemoryInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(info, back);
    }

    #[test]
    fn pseudo_values_are_deterministic_and_bounded() {
        let a = pseudo_values(42, 1000);
        let b = pseudo_values(42, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-0.5..0.5).contains(v)));
        assert_ne!(a, pseudo_values(43, 1000));
    }
}
