//! The compute-backend microbench and its CI regression gate.
//!
//! Measures the three hot paths of client training — the linear-layer GEMM,
//! a conv forward/backward step, and a full mini-batch SGD step — under the
//! scalar default backend and the blocked backend at the paper model
//! shape (the `192 → 64 → 10` MLP trained with batch 32, and the
//! MobileNet-nano stem convolution), then writes a provenance-stamped
//! report (`BENCH_nn.json`). The GEMM gets a third row, `reference`: the
//! retained dot-product loop (`fedms_tensor::backend::reference`) that the
//! scalar kernel reproduces bit for bit.
//!
//! The blocked backend reassociates f32 reductions, so cross-backend
//! checksums are compared within a per-workload tolerance rather than
//! bit-exactly; a mismatch beyond tolerance fails the run. The scalar and
//! reference GEMM checksums must match exactly.
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
//!   - blocked or scalar GEMM throughput below `(1 − tolerance) ×` the
//!     baseline's (hardware-sensitive, hence the generous default tolerance
//!     0.5);
//!   - blocked-over-reference GEMM speedup below `--min-speedup`
//!     (machine-portable; default 3, the acceptance floor 4 minus CI
//!     noise margin).
//!
//!   Blocked over scalar is printed for information only.
//!
//! The bin requires the `backend-blocked` feature — without it there is
//! nothing to compare, and `main` exits with an explanatory error.

#[cfg(feature = "backend-blocked")]
mod bench {
    use fedms_bench::perf::{
        peak_rss_bytes, pseudo_values, GateArgs, Harness, MachineInfo, Measurement, MemoryInfo,
        Workload,
    };
    use fedms_nn::{Conv2d, Layer, LrSchedule, Mlp, NeuralNet, Sgd};
    use fedms_tensor::backend::reference;
    use fedms_tensor::rng::rng_for;
    use fedms_tensor::{BackendHandle, BackendKind, Conv2dGeometry, Tensor};
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

    /// A scalar/blocked measurement pair for one workload.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct BackendPair {
        /// The scalar reference backend.
        scalar: Measurement,
        /// The blocked backend (single intra-op thread).
        blocked: Measurement,
        /// `scalar.median / blocked.median` — the machine-portable signal.
        speedup: f64,
    }

    /// The three linear-layer GEMM rows.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct GemmRows {
        /// The retained dot-product loop (what `gemm/scalar` timed before
        /// the scalar kernel went k-major).
        reference: Measurement,
        /// The scalar backend, the default.
        scalar: Measurement,
        /// The blocked backend (single intra-op thread).
        blocked: Measurement,
        /// `reference.median / blocked.median` — the gated, machine-portable
        /// signal.
        blocked_over_reference: f64,
        /// `scalar.median / blocked.median` — information only.
        blocked_over_scalar: f64,
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
        conv: BackendPair,
        /// A full `train_batch` SGD step on the paper MLP.
        sgd_step: BackendPair,
        /// Peak-memory footprint at the end of the measurement.
        memory: MemoryInfo,
    }

    /// Which `matmul_transb` a GEMM row times.
    #[derive(Clone, Copy)]
    enum GemmKernel {
        /// `fedms_tensor::backend::reference::matmul_transb`.
        Reference,
        /// A backend's kernel.
        Backend(BackendHandle),
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
                    GemmKernel::Backend(h) => h.matmul_transb(a, b, out, GEMM_M, GEMM_K, GEMM_N),
                }
                checksum += f64::from(out[0]) + f64::from(out[GEMM_M * GEMM_N - 1]);
            }
            checksum
        }
    }

    /// One iteration = `CONV_REPS` forward/backward pairs through the nano
    /// stem convolution at batch 32.
    struct ConvWorkload {
        name: &'static str,
        layer: Conv2d,
        input: Tensor,
        grad_out: Tensor,
    }

    impl ConvWorkload {
        fn new(name: &'static str, backend: BackendHandle) -> Self {
            let geom =
                Conv2dGeometry::new(CONV_IN_C, CONV_HW, CONV_HW, 3, 1, 1).expect("stem geometry");
            let mut rng = rng_for(0xC0, &[]);
            let mut layer = Conv2d::new(geom, CONV_OUT_C, &mut rng).expect("stem conv");
            layer.set_backend(backend);
            let in_dims = [BATCH, CONV_IN_C, CONV_HW, CONV_HW];
            let out_dims = [BATCH, CONV_OUT_C, CONV_HW, CONV_HW];
            let input = Tensor::from_vec(pseudo_values(0xC1, in_dims.iter().product()), &in_dims)
                .expect("conv input");
            let grad_out =
                Tensor::from_vec(pseudo_values(0xC2, out_dims.iter().product()), &out_dims)
                    .expect("conv grad");
            ConvWorkload { name, layer, input, grad_out }
        }
    }

    impl Workload for ConvWorkload {
        fn name(&self) -> &str {
            self.name
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
    /// Resetting per iteration keeps every iteration's trajectory
    /// identical, so the checksum (summed batch losses) is comparable
    /// across backends and across runs.
    struct SgdStepWorkload {
        name: &'static str,
        model: Mlp,
        optimizer: Sgd,
        init: Tensor,
        input: Tensor,
        labels: Vec<usize>,
    }

    impl SgdStepWorkload {
        fn new(name: &'static str, backend: BackendHandle) -> Self {
            let mut model = Mlp::new(&MLP_WIDTHS, 0x5D).expect("paper mlp");
            model.set_backend(backend);
            let mut optimizer = Sgd::new(LrSchedule::Constant(0.05)).expect("sgd");
            optimizer.set_backend(backend);
            let init = model.param_vector();
            let input = Tensor::from_vec(
                pseudo_values(0x5E, BATCH * MLP_WIDTHS[0]),
                &[BATCH, MLP_WIDTHS[0]],
            )
            .expect("mlp input");
            let classes = MLP_WIDTHS[MLP_WIDTHS.len() - 1];
            let labels: Vec<usize> = (0..BATCH).map(|i| i % classes).collect();
            SgdStepWorkload { name, model, optimizer, init, input, labels }
        }
    }

    impl Workload for SgdStepWorkload {
        fn name(&self) -> &str {
            self.name
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

    /// Measures one workload under both backends and verifies the blocked
    /// checksum agrees with the scalar one within `tol` (relative to the
    /// checksum magnitude — blocked kernels reassociate f32 sums, so exact
    /// equality is not expected).
    fn measure_pair(
        harness: &Harness,
        scalar_w: &mut dyn Workload,
        blocked_w: &mut dyn Workload,
        tol: f64,
    ) -> Result<BackendPair, String> {
        let scalar = harness.measure(scalar_w);
        let blocked = harness.measure(blocked_w);
        let scale = 1.0 + scalar.checksum.abs().max(blocked.checksum.abs());
        if (scalar.checksum - blocked.checksum).abs() > tol * scale {
            return Err(format!(
                "{}: blocked checksum {} drifted beyond tolerance from scalar {}",
                scalar_w.name(),
                blocked.checksum,
                scalar.checksum
            ));
        }
        let speedup = scalar.median_secs_per_iter / blocked.median_secs_per_iter;
        Ok(BackendPair { scalar, blocked, speedup })
    }

    /// Measures the three GEMM rows. The scalar kernel keeps the
    /// reference's per-element operation order, so their checksums must be
    /// equal bit for bit; the blocked one is held to `tol`.
    fn measure_gemm(
        harness: &Harness,
        blocked: BackendHandle,
        tol: f64,
    ) -> Result<GemmRows, String> {
        let reference =
            harness.measure(&mut MatmulWorkload::new("gemm/reference", GemmKernel::Reference));
        let pair = measure_pair(
            harness,
            &mut MatmulWorkload::new("gemm/scalar", GemmKernel::Backend(BackendHandle::scalar())),
            &mut MatmulWorkload::new("gemm/blocked", GemmKernel::Backend(blocked)),
            tol,
        )?;
        if pair.scalar.checksum.to_bits() != reference.checksum.to_bits() {
            return Err(format!(
                "gemm/scalar: checksum {} differs from the reference loop's {}",
                pair.scalar.checksum, reference.checksum
            ));
        }
        Ok(GemmRows {
            blocked_over_reference: reference.median_secs_per_iter
                / pair.blocked.median_secs_per_iter,
            blocked_over_scalar: pair.speedup,
            reference,
            scalar: pair.scalar,
            blocked: pair.blocked,
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
        throughput_gate("blocked gemm", &now.blocked, &base.blocked, &baseline, args.tolerance)?;
        throughput_gate("scalar gemm", &now.scalar, &base.scalar, &baseline, args.tolerance)?;
        println!(
            "gate: gemm blocked over reference {:.1}x vs required {:.1}x",
            now.blocked_over_reference, args.min_speedup
        );
        if now.blocked_over_reference < args.min_speedup {
            return Err(format!(
                "blocked gemm speedup over the reference loop fell to {:.1}x (< {:.1}x)",
                now.blocked_over_reference, args.min_speedup
            ));
        }
        println!("info: gemm blocked over scalar {:.1}x (not gated)", now.blocked_over_scalar);
        Ok(())
    }

    /// Measures every workload: the GEMM rows, then the conv and SGD pairs.
    fn measure_all(
        harness: &Harness,
        blocked: BackendHandle,
    ) -> Result<(GemmRows, BackendPair, BackendPair), String> {
        let scalar = BackendHandle::scalar();
        let matmul = measure_gemm(harness, blocked, 1e-4)?;
        let conv = measure_pair(
            harness,
            &mut ConvWorkload::new("conv/scalar", scalar),
            &mut ConvWorkload::new("conv/blocked", blocked),
            1e-3,
        )?;
        let sgd_step = measure_pair(
            harness,
            &mut SgdStepWorkload::new("sgd/scalar", scalar),
            &mut SgdStepWorkload::new("sgd/blocked", blocked),
            1e-2,
        )?;
        Ok((matmul, conv, sgd_step))
    }

    pub fn main() -> ExitCode {
        let args = match GateArgs::from_env(3.0) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("nnbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let harness = if args.quick { Harness::quick() } else { Harness::full() };

        // One intra-op thread: the engine's client-parallel phases own the
        // cores, so the single-thread kernel speed is the honest signal.
        let blocked = match BackendKind::Blocked.resolve(1) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("nnbench: {e}");
                return ExitCode::FAILURE;
            }
        };

        let (matmul, conv, sgd_step) = match measure_all(&harness, blocked) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("nnbench: CHECKSUM MISMATCH: {e}");
                return ExitCode::FAILURE;
            }
        };

        let report = Report {
            schema: 2,
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
            "gemm: reference {:>10.3e} coords/s  scalar {:>10.3e} coords/s  \
             blocked {:>10.3e} coords/s  (blocked/reference {:.1}x, blocked/scalar {:.1}x)",
            gemm.reference.coords_per_sec,
            gemm.scalar.coords_per_sec,
            gemm.blocked.coords_per_sec,
            gemm.blocked_over_reference,
            gemm.blocked_over_scalar
        );
        for (label, pair) in [("conv", &report.conv), ("sgd ", &report.sgd_step)] {
            println!(
                "{label}: scalar {:>10.3e} coords/s  blocked {:>10.3e} coords/s  ({:.1}x)",
                pair.scalar.coords_per_sec, pair.blocked.coords_per_sec, pair.speedup
            );
        }

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
}

#[cfg(feature = "backend-blocked")]
fn main() -> std::process::ExitCode {
    bench::main()
}

#[cfg(not(feature = "backend-blocked"))]
fn main() -> std::process::ExitCode {
    eprintln!(
        "nnbench: the blocked backend is not compiled in; \
         rebuild with `cargo build --release --features backend-blocked`"
    );
    std::process::ExitCode::FAILURE
}
