//! The compute-kernel microbench and its CI regression gate.
//!
//! Measures the three hot paths of client training — the linear-layer GEMM,
//! a conv forward/backward step, and a full mini-batch SGD step — at the
//! paper model shape (the `192 → 64 → 10` MLP trained with batch 32, and
//! the MobileNet-nano stem convolution), then writes a provenance-stamped
//! report (`BENCH_nn.json`). The GEMM has two rows: `scalar`, the
//! `fedms_tensor::kernels::matmul_transb` every run uses, and `reference`,
//! the retained dot-product loop (`fedms_tensor::kernels::reference`) it
//! reproduces bit for bit. Their checksums must match exactly, or the run
//! fails.
//!
//! Usage:
//!
//! ```text
//! nnbench [--quick] [--out PATH] [--check BASELINE]
//!         [--tolerance F] [--min-speedup F]
//! ```
//!
//! * `--quick` — the short CI schedule ([`Harness::quick`]) instead of the
//!   baseline schedule ([`Harness::full`]).
//! * `--out PATH` — where to write the report (default `BENCH_nn.json`).
//! * `--check BASELINE` — compare against a committed report and exit
//!   non-zero on regression:
//!   - scalar or reference GEMM throughput below `(1 − tolerance) ×` the
//!     baseline's (hardware-sensitive, hence the generous default tolerance
//!     0.5);
//!   - scalar-over-reference GEMM speedup below `--min-speedup`
//!     (machine-portable; default [`MIN_SPEEDUP`]).

use fedms_bench::perf::{
    peak_rss_bytes, pseudo_values, GateArgs, Harness, MachineInfo, Measurement, MemoryInfo,
    Workload,
};
use fedms_nn::{Conv2d, Layer, LrSchedule, Mlp, NeuralNet, Sgd};
use fedms_tensor::kernels::{self, reference};
use fedms_tensor::rng::rng_for;
use fedms_tensor::{Conv2dGeometry, Tensor};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Paper training shape: batch 32 through the `192 → 64 → 10` MLP.
const BATCH: usize = 32;
const MLP_WIDTHS: [usize; 3] = [192, 64, 10];
/// The hot GEMM of that model: `x (32×192) · W₁ᵀ (64×192)`.
const GEMM_M: usize = BATCH;
const GEMM_K: usize = 192;
const GEMM_N: usize = 64;
/// MobileNet-nano stem convolution (3×8×8 input, 8 filters, 3×3, pad 1).
const CONV_IN_C: usize = 3;
const CONV_HW: usize = 8;
const CONV_OUT_C: usize = 8;

/// GEMMs per measured iteration.
const GEMM_REPS: usize = 400;
/// Conv forward/backward pairs per measured iteration.
const CONV_REPS: usize = 100;
/// SGD steps per measured iteration.
const SGD_REPS: usize = 50;

/// The default scalar-over-reference GEMM floor: about 0.45× the committed
/// ratio, the noise margin the gate has always kept against its baseline.
const MIN_SPEEDUP: f64 = 2.3;

/// The measured shapes, persisted so a baseline is self-describing.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadSpec {
    /// `(m, k, n)` of the linear-layer GEMM.
    gemm: (usize, usize, usize),
    /// `(in_c, h, w, out_c)` of the stem convolution.
    conv: (usize, usize, usize, usize),
    /// MLP widths of the full SGD step.
    mlp_widths: Vec<usize>,
    /// Mini-batch size of every workload.
    batch: usize,
}

/// The two linear-layer GEMM rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GemmRows {
    /// The retained dot-product loop.
    reference: Measurement,
    /// The `matmul_transb` kernel.
    scalar: Measurement,
    /// `reference.median / scalar.median` — the gated, machine-portable
    /// signal.
    scalar_over_reference: f64,
}

/// The persisted report (`BENCH_nn.json`).
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
    /// The measured workload shapes.
    workload: WorkloadSpec,
    /// The linear-layer GEMM (`matmul_transb` at the paper shape).
    matmul: GemmRows,
    /// Conv2d forward + backward at the nano stem shape.
    conv: Measurement,
    /// A full `train_batch` SGD step on the paper MLP.
    sgd_step: Measurement,
    /// Peak-memory footprint at the end of the measurement.
    memory: MemoryInfo,
}

/// Which `matmul_transb` a GEMM row times.
#[derive(Clone, Copy)]
enum GemmKernel {
    /// `fedms_tensor::kernels::reference::matmul_transb`.
    Reference,
    /// `fedms_tensor::kernels::matmul_transb`.
    Scalar,
}

/// One iteration = `GEMM_REPS` applications of `out = a · bᵀ` at the
/// paper linear-layer shape.
struct MatmulWorkload {
    name: &'static str,
    kernel: GemmKernel,
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
}

impl MatmulWorkload {
    fn new(name: &'static str, kernel: GemmKernel) -> Self {
        MatmulWorkload {
            name,
            kernel,
            a: pseudo_values(0xA, GEMM_M * GEMM_K),
            b: pseudo_values(0xB, GEMM_N * GEMM_K),
            out: vec![0.0; GEMM_M * GEMM_N],
        }
    }
}

impl Workload for MatmulWorkload {
    fn name(&self) -> &str {
        self.name
    }
    fn coords_per_iter(&self) -> u64 {
        (GEMM_REPS * GEMM_M * GEMM_N) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        (GEMM_REPS * (GEMM_M * GEMM_K + GEMM_N * GEMM_K + GEMM_M * GEMM_N) * 4) as u64
    }
    fn run(&mut self) -> f64 {
        let mut checksum = 0.0f64;
        let (a, b, out) = (&self.a, &self.b, &mut self.out);
        for _ in 0..GEMM_REPS {
            match self.kernel {
                GemmKernel::Reference => {
                    reference::matmul_transb(a, b, out, GEMM_M, GEMM_K, GEMM_N)
                }
                GemmKernel::Scalar => kernels::matmul_transb(a, b, out, GEMM_M, GEMM_K, GEMM_N),
            }
            checksum += f64::from(out[0]) + f64::from(out[GEMM_M * GEMM_N - 1]);
        }
        checksum
    }
}

/// One iteration = `CONV_REPS` forward/backward pairs through the nano
/// stem convolution at batch 32.
struct ConvWorkload {
    layer: Conv2d,
    input: Tensor,
    grad_out: Tensor,
}

impl ConvWorkload {
    fn new() -> Self {
        let geom =
            Conv2dGeometry::new(CONV_IN_C, CONV_HW, CONV_HW, 3, 1, 1).expect("stem geometry");
        let mut rng = rng_for(0xC0, &[]);
        let layer = Conv2d::new(geom, CONV_OUT_C, &mut rng).expect("stem conv");
        let in_dims = [BATCH, CONV_IN_C, CONV_HW, CONV_HW];
        let out_dims = [BATCH, CONV_OUT_C, CONV_HW, CONV_HW];
        let input = Tensor::from_vec(pseudo_values(0xC1, in_dims.iter().product()), &in_dims)
            .expect("conv input");
        let grad_out = Tensor::from_vec(pseudo_values(0xC2, out_dims.iter().product()), &out_dims)
            .expect("conv grad");
        ConvWorkload { layer, input, grad_out }
    }
}

impl Workload for ConvWorkload {
    fn name(&self) -> &str {
        "conv/scalar"
    }
    fn coords_per_iter(&self) -> u64 {
        // Output coordinates produced per iteration (forward only).
        (CONV_REPS * BATCH * CONV_OUT_C * CONV_HW * CONV_HW) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        let fwd = self.input.len() + BATCH * CONV_OUT_C * CONV_HW * CONV_HW;
        (CONV_REPS * 2 * fwd * 4) as u64
    }
    fn run(&mut self) -> f64 {
        let mut checksum = 0.0f64;
        for _ in 0..CONV_REPS {
            self.layer.zero_grads();
            let out = self.layer.forward(&self.input).expect("conv forward");
            let grad_in = self.layer.backward(&self.grad_out).expect("conv backward");
            checksum +=
                f64::from(out.as_slice()[0]) + f64::from(grad_in.as_slice()[grad_in.len() - 1]);
        }
        checksum
    }
}

/// One iteration = reset to the initial parameters, then `SGD_REPS`
/// full `train_batch` steps (zero grads → forward → softmax-CE →
/// backward → SGD update) on the paper MLP.
///
/// Resetting per iteration keeps every iteration's trajectory identical,
/// so the checksum (summed batch losses) is comparable across runs.
struct SgdStepWorkload {
    model: Mlp,
    optimizer: Sgd,
    init: Tensor,
    input: Tensor,
    labels: Vec<usize>,
}

impl SgdStepWorkload {
    fn new() -> Self {
        let model = Mlp::new(&MLP_WIDTHS, 0x5D).expect("paper mlp");
        let optimizer = Sgd::new(LrSchedule::Constant(0.05)).expect("sgd");
        let init = model.param_vector();
        let input =
            Tensor::from_vec(pseudo_values(0x5E, BATCH * MLP_WIDTHS[0]), &[BATCH, MLP_WIDTHS[0]])
                .expect("mlp input");
        let classes = MLP_WIDTHS[MLP_WIDTHS.len() - 1];
        let labels: Vec<usize> = (0..BATCH).map(|i| i % classes).collect();
        SgdStepWorkload { model, optimizer, init, input, labels }
    }
}

impl Workload for SgdStepWorkload {
    fn name(&self) -> &str {
        "sgd/scalar"
    }
    fn coords_per_iter(&self) -> u64 {
        // Parameters updated per iteration.
        (SGD_REPS * self.model.num_params()) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        // Params + grads read and written once per step.
        (SGD_REPS * 4 * self.model.num_params() * 4) as u64
    }
    fn run(&mut self) -> f64 {
        self.model.set_param_vector(&self.init).expect("param reset");
        let mut checksum = 0.0f64;
        for _ in 0..SGD_REPS {
            let loss = self
                .model
                .train_batch(&self.input, &self.labels, &mut self.optimizer)
                .expect("train step");
            checksum += f64::from(loss);
        }
        checksum
    }
}

/// Measures the two GEMM rows. The kernel keeps the reference's
/// per-element operation order, so their checksums must be equal bit for
/// bit.
fn measure_gemm(harness: &Harness) -> Result<GemmRows, String> {
    let reference =
        harness.measure(&mut MatmulWorkload::new("gemm/reference", GemmKernel::Reference));
    let scalar = harness.measure(&mut MatmulWorkload::new("gemm/scalar", GemmKernel::Scalar));
    if scalar.checksum.to_bits() != reference.checksum.to_bits() {
        return Err(format!(
            "gemm/scalar: checksum {} differs from the reference loop's {}",
            scalar.checksum, reference.checksum
        ));
    }
    Ok(GemmRows {
        scalar_over_reference: reference.median_secs_per_iter / scalar.median_secs_per_iter,
        reference,
        scalar,
    })
}

/// Fails when `now`'s throughput drops below `(1 − tolerance) ×` the
/// baseline row's.
fn throughput_gate(
    row: &str,
    now: &Measurement,
    base: &Measurement,
    baseline: &Report,
    tolerance: f64,
) -> Result<(), String> {
    let floor = base.coords_per_sec * (1.0 - tolerance);
    println!(
        "gate: {row} {:.3e} coords/s vs baseline {:.3e} (floor {:.3e}, tolerance {tolerance})",
        now.coords_per_sec, base.coords_per_sec, floor
    );
    if now.coords_per_sec < floor {
        return Err(format!(
            "{row} regressed: {:.3e} coords/s < floor {:.3e} \
             (baseline {:.3e} from {} on {})",
            now.coords_per_sec,
            floor,
            base.coords_per_sec,
            baseline.git_rev,
            baseline.machine.cpu_model,
        ));
    }
    Ok(())
}

fn check_against(report: &Report, baseline_path: &Path, args: &GateArgs) -> Result<(), String> {
    let body = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline: Report =
        serde_json::from_str(&body).map_err(|e| format!("cannot parse baseline: {e}"))?;
    let (now, base) = (&report.matmul, &baseline.matmul);
    throughput_gate("scalar gemm", &now.scalar, &base.scalar, &baseline, args.tolerance)?;
    throughput_gate("reference gemm", &now.reference, &base.reference, &baseline, args.tolerance)?;
    println!(
        "gate: gemm scalar over reference {:.1}x vs required {:.1}x",
        now.scalar_over_reference, args.min_speedup
    );
    if now.scalar_over_reference < args.min_speedup {
        return Err(format!(
            "scalar gemm speedup over the reference loop fell to {:.1}x (< {:.1}x)",
            now.scalar_over_reference, args.min_speedup
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match GateArgs::from_env(MIN_SPEEDUP) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nnbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let harness = if args.quick { Harness::quick() } else { Harness::full() };

    let matmul = match measure_gemm(&harness) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("nnbench: CHECKSUM MISMATCH: {e}");
            return ExitCode::FAILURE;
        }
    };
    let conv = harness.measure(&mut ConvWorkload::new());
    let sgd_step = harness.measure(&mut SgdStepWorkload::new());

    let report = Report {
        schema: 3,
        git_rev: fedms_exp::git_rev(),
        machine: MachineInfo::detect(),
        quick: args.quick,
        workload: WorkloadSpec {
            gemm: (GEMM_M, GEMM_K, GEMM_N),
            conv: (CONV_IN_C, CONV_HW, CONV_HW, CONV_OUT_C),
            mlp_widths: MLP_WIDTHS.to_vec(),
            batch: BATCH,
        },
        matmul,
        conv,
        sgd_step,
        // Workload scratch goes through each layer's buffer pool, but
        // those pools are private to the layers; only RSS is reported.
        memory: MemoryInfo { peak_rss_bytes: peak_rss_bytes(), pool_high_water_bytes: None },
    };

    let gemm = &report.matmul;
    println!(
        "gemm: reference {:>10.3e} coords/s  scalar {:>10.3e} coords/s  (scalar/reference {:.1}x)",
        gemm.reference.coords_per_sec, gemm.scalar.coords_per_sec, gemm.scalar_over_reference
    );
    println!("conv: {:>10.3e} coords/s", report.conv.coords_per_sec);
    println!("sgd : {:>10.3e} coords/s", report.sgd_step.coords_per_sec);

    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("BENCH_nn.json"));
    let body = match serde_json::to_string_pretty(&report) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("nnbench: serialize: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, body + "\n") {
        eprintln!("nnbench: write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("report written to {}", out.display());

    if let Some(baseline) = &args.check {
        if let Err(e) = check_against(&report, baseline, &args) {
            eprintln!("nnbench: REGRESSION: {e}");
            return ExitCode::FAILURE;
        }
        println!("gate passed");
    }
    ExitCode::SUCCESS
}
