//! The `trmean_β` filter microbench and its CI regression gate.
//!
//! Measures the blocked selection kernel
//! ([`fedms_aggregation::kernel::trimmed_mean`]) against the historical
//! sort-per-coordinate reference
//! ([`fedms_aggregation::reference::trimmed_mean`]) at the paper-scale
//! shape — `P = 10` servers, `dim = 10⁴` coordinates, `β = 0.2`
//! (trim 2 per side), one filter application per client for 1000 clients
//! per iteration — and writes a provenance-stamped report.
//!
//! Usage:
//!
//! ```text
//! filterbench [--quick] [--out PATH] [--check BASELINE]
//!             [--tolerance F] [--min-speedup F]
//! ```
//!
//! * `--quick` — the short CI schedule ([`Harness::quick`]) instead of the
//!   baseline schedule ([`Harness::full`]).
//! * `--out PATH` — where to write the report (default
//!   `BENCH_filter.json`).
//! * `--check BASELINE` — compare against a committed report and exit
//!   non-zero on regression:
//!   - kernel throughput below `(1 − tolerance) ×` the baseline's
//!     (hardware-sensitive, hence the generous default tolerance 0.5);
//!   - kernel-vs-reference speedup below `--min-speedup` (machine-portable;
//!     default 8, the acceptance floor 10 minus CI noise margin).

use fedms_aggregation::{kernel, reference};
use fedms_bench::perf::{
    peak_rss_bytes, pseudo_values, GateArgs, Harness, MachineInfo, Measurement, MemoryInfo,
    Workload,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Paper-scale federation shape for the filter (Table II).
const SERVERS: usize = 10;
const DIM: usize = 10_000;
const TRIM: usize = 2; // β = 0.2 of P = 10
const CLIENTS: usize = 1_000;

/// The measured shape, persisted so a baseline is self-describing.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadSpec {
    servers: usize,
    dim: usize,
    trim: usize,
    clients: usize,
}

/// The persisted report (`BENCH_filter.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    /// Report layout version.
    schema: u32,
    /// `git rev-parse --short HEAD` at measurement time.
    git_rev: String,
    /// Host the numbers were taken on.
    machine: MachineInfo,
    /// Whether the quick schedule produced these numbers.
    quick: bool,
    /// The measured workload shape.
    workload: WorkloadSpec,
    /// The blocked selection kernel.
    kernel: Measurement,
    /// The sort-per-coordinate reference.
    reference: Measurement,
    /// `reference.median / kernel.median` — the machine-portable signal.
    speedup: f64,
    /// Estimated wall-clock for one full 1000-client filter round, ms.
    round_ms: f64,
    /// Peak-memory footprint at the end of the measurement (absent in
    /// reports written before it was recorded).
    #[serde(default)]
    memory: Option<MemoryInfo>,
}

/// One iteration = `CLIENTS` trimmed-mean applications over the same
/// `P × dim` view set (clients share the dissemination, so sharing the
/// input is the realistic memory pattern).
struct FilterWorkload<F> {
    name: &'static str,
    views: Vec<Vec<f32>>,
    out: Vec<f32>,
    apply: F,
}

impl<F: FnMut(&[&[f32]], usize, &mut [f32])> FilterWorkload<F> {
    fn new(name: &'static str, apply: F) -> Self {
        let views: Vec<Vec<f32>> =
            (0..SERVERS).map(|s| pseudo_values(0x5EED + s as u64, DIM)).collect();
        FilterWorkload { name, views, out: vec![0.0; DIM], apply }
    }
}

impl<F: FnMut(&[&[f32]], usize, &mut [f32])> Workload for FilterWorkload<F> {
    fn name(&self) -> &str {
        self.name
    }
    fn coords_per_iter(&self) -> u64 {
        (CLIENTS * DIM) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        (CLIENTS * SERVERS * DIM * 4) as u64
    }
    fn run(&mut self) -> f64 {
        let views: Vec<&[f32]> = self.views.iter().map(Vec::as_slice).collect();
        let mut checksum = 0.0f64;
        for _ in 0..CLIENTS {
            (self.apply)(&views, TRIM, &mut self.out);
            checksum += f64::from(self.out[0]) + f64::from(self.out[DIM - 1]);
        }
        checksum
    }
}

fn check_against(report: &Report, baseline_path: &Path, args: &GateArgs) -> Result<(), String> {
    let body = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline: Report =
        serde_json::from_str(&body).map_err(|e| format!("cannot parse baseline: {e}"))?;
    let floor = baseline.kernel.coords_per_sec * (1.0 - args.tolerance);
    println!(
        "gate: kernel {:.3e} coords/s vs baseline {:.3e} (floor {:.3e}, tolerance {})",
        report.kernel.coords_per_sec, baseline.kernel.coords_per_sec, floor, args.tolerance
    );
    if report.kernel.coords_per_sec < floor {
        return Err(format!(
            "kernel regressed: {:.3e} coords/s < floor {:.3e} \
             (baseline {:.3e} from {} on {})",
            report.kernel.coords_per_sec,
            floor,
            baseline.kernel.coords_per_sec,
            baseline.git_rev,
            baseline.machine.cpu_model,
        ));
    }
    println!("gate: speedup {:.1}x vs required {:.1}x", report.speedup, args.min_speedup);
    if report.speedup < args.min_speedup {
        return Err(format!(
            "kernel speedup over the sort-based reference fell to {:.1}x (< {:.1}x)",
            report.speedup, args.min_speedup
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match GateArgs::from_env(8.0) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("filterbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let harness = if args.quick { Harness::quick() } else { Harness::full() };

    let mut kernel_w = FilterWorkload::new("trimmed_mean/kernel", kernel::trimmed_mean);
    let mut reference_w = FilterWorkload::new("trimmed_mean/reference", reference::trimmed_mean);
    let kernel_m = harness.measure(&mut kernel_w);
    let reference_m = harness.measure(&mut reference_w);
    assert_eq!(
        kernel_m.checksum.to_bits(),
        reference_m.checksum.to_bits(),
        "kernel and reference disagree on the bench input — bit-exactness is broken"
    );

    let speedup = reference_m.median_secs_per_iter / kernel_m.median_secs_per_iter;
    let report = Report {
        schema: 1,
        git_rev: fedms_exp::git_rev(),
        machine: MachineInfo::detect(),
        quick: args.quick,
        workload: WorkloadSpec { servers: SERVERS, dim: DIM, trim: TRIM, clients: CLIENTS },
        round_ms: kernel_m.median_secs_per_iter * 1e3,
        speedup,
        kernel: kernel_m,
        reference: reference_m,
        // This bench allocates its views up front and never touches the
        // engine's buffer pool, so only the RSS component applies.
        memory: Some(MemoryInfo { peak_rss_bytes: peak_rss_bytes(), pool_high_water_bytes: None }),
    };

    println!(
        "kernel:    {:>10.3e} coords/s  {:>7.2} GB/s  ({:.3} ms / 1000-client round)",
        report.kernel.coords_per_sec, report.kernel.gbytes_per_sec, report.round_ms
    );
    println!(
        "reference: {:>10.3e} coords/s  {:>7.2} GB/s",
        report.reference.coords_per_sec, report.reference.gbytes_per_sec
    );
    println!("speedup:   {:.1}x", report.speedup);

    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("BENCH_filter.json"));
    let body = match serde_json::to_string_pretty(&report) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("filterbench: serialize: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, body + "\n") {
        eprintln!("filterbench: write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("report written to {}", out.display());

    if let Some(baseline) = &args.check {
        if let Err(e) = check_against(&report, baseline, &args) {
            eprintln!("filterbench: REGRESSION: {e}");
            return ExitCode::FAILURE;
        }
        println!("gate passed");
    }
    ExitCode::SUCCESS
}
