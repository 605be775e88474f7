//! Large-`K` scale smoke tests: memory stays bounded by the cohort, not
//! the federation, and cohort rounds stay byte-identical across worker
//! threads at scale.
//!
//! These run ignored by default (they build 10⁵–10⁶-client federations);
//! CI's `scale-smoke` job runs them in release mode, single-threaded:
//!
//! ```text
//! cargo test --release -p fedms-sim --test scale -- --ignored --test-threads=1
//! ```
//!
//! `--test-threads=1` matters: the budget is enforced on `VmHWM`, the
//! *process-wide* peak RSS, so the tests must not overlap. The budget
//! below is the one DESIGN.md §11 states for the million-client round.

use fedms_aggregation::{EstimatorPolicy, TrimmedMean};
use fedms_nn::LrSchedule;
use fedms_sim::ThreatSchedule;
use fedms_sim::{
    EngineConfig, ModelSpec, Partitions, RecoveryPolicy, SimulationEngine, Topology, UploadStrategy,
};

/// Peak-RSS ceiling for every test in this binary, including the
/// `K = 10⁶`, `P = 10`, `cohort = 1024` round. Process-wide, so it covers
/// the dataset, the engine, and the test harness itself.
const MEMORY_BUDGET_BYTES: u64 = 512 * 1024 * 1024;

/// `VmHWM` from `/proc/self/status` in bytes (Linux-only, like CI).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn scale_engine(clients: usize, cohort: usize, threads: usize, parallel: bool) -> SimulationEngine {
    let (train, test) = fedms_data::SynthVisionConfig::small().generate(3).unwrap();
    let config = EngineConfig {
        topology: Topology::new(clients, 10, []).unwrap(),
        model: ModelSpec::Mlp { widths: vec![16, 8, 4] },
        upload: UploadStrategy::Sparse,
        local_epochs: 1,
        batch_size: 4,
        schedule: LrSchedule::Constant(0.05),
        seed: 17,
        eval_every: 1,
        eval_clients: 8,
        parallel,
        threads,
        eval_after_local: false,
        recovery: RecoveryPolicy::disabled(),
        cohort,
        threat: ThreatSchedule::none(),
        estimator: EstimatorPolicy::default(),
        backend: fedms_tensor::BackendKind::Scalar,
    };
    // Procedural partitions: O(1) storage per client is the point — an
    // explicit index-list partition of 10⁶ clients would defeat the test.
    let partitions = Partitions::uniform(clients, train.len(), 8, 17).unwrap();
    SimulationEngine::with_store(
        config,
        &train,
        &test,
        partitions,
        Box::new(TrimmedMean::new(0.2).unwrap()),
        Box::new(fedms_aggregation::Mean::new()),
        vec![],
        vec![],
    )
    .unwrap()
}

/// `K = 10⁵`, `P = 10`, `cohort = 256`: two rounds are byte-identical
/// across sequential, 1, 4 and auto worker threads, and stay under the
/// memory budget.
#[test]
#[ignore = "scale smoke; run via the CI scale-smoke job"]
fn hundred_thousand_clients_thread_determinism() {
    let run = |threads: usize, parallel: bool| {
        let mut e = scale_engine(100_000, 256, threads, parallel);
        e.step_round(false).unwrap();
        e.step_round(false).unwrap();
        serde_json::to_string(&e.snapshot()).unwrap()
    };
    let sequential = run(0, false);
    assert_eq!(sequential, run(1, true), "threads=1 differs from sequential");
    assert_eq!(sequential, run(4, true), "threads=4 differs from sequential");
    assert_eq!(sequential, run(0, true), "threads=auto differs from sequential");
    if let Some(rss) = peak_rss_bytes() {
        assert!(
            rss < MEMORY_BUDGET_BYTES,
            "peak RSS {} MiB exceeds the {} MiB budget",
            rss >> 20,
            MEMORY_BUDGET_BYTES >> 20
        );
    }
}

/// The acceptance round: `K = 10⁶` clients, `P = 10` servers,
/// `cohort = 1024`, one full round under the stated budget, with the
/// model bank staying proportional to the cohort.
#[test]
#[ignore = "scale smoke; run via the CI scale-smoke job"]
fn million_client_round_fits_the_memory_budget() {
    let mut e = scale_engine(1_000_000, 1024, 0, true);
    e.step_round(false).unwrap();
    assert_eq!(e.round(), 1);
    // Sparse upload: one message per cohort client, not per client.
    assert_eq!(e.result().total_comm.upload_messages, 1024);
    // The bank holds the shared w₀ plus at most one entry per cohort
    // member — never a million tensors.
    assert!(
        e.distinct_client_models() <= 1 + 1024,
        "bank grew to {} entries",
        e.distinct_client_models()
    );
    // The fault-free round has one distinct view, filtered once: the
    // filter pool held at most one `P`-model view per worker at a time and
    // leaked nothing.
    let stats = e.pool_stats();
    let view_bytes = 10 * 4 * e.initial_model().len() as u64;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    assert!(
        stats.high_water_bytes > 0 && stats.high_water_bytes <= workers * view_bytes,
        "filter views peaked at {} bytes; one view is {view_bytes}",
        stats.high_water_bytes
    );
    assert_eq!(stats.outstanding_bytes, 0, "filter leaked pooled buffers");
    if let Some(rss) = peak_rss_bytes() {
        assert!(
            rss < MEMORY_BUDGET_BYTES,
            "peak RSS {} MiB exceeds the {} MiB budget",
            rss >> 20,
            MEMORY_BUDGET_BYTES >> 20
        );
    }
}
