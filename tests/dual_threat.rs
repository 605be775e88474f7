//! Integration tests for the dual threat model (Byzantine servers AND
//! clients) — the extension beyond the paper's server-only adversary —
//! plus the crash-fault combinations layered on top of it.

use fedms::{
    AttackKind, ClientAttackKind, CoreError, FedMsConfig, FilterKind, SimError, SynthVisionConfig,
};

fn base(seed: u64) -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(seed);
    cfg.clients = 12;
    cfg.servers = 4;
    cfg.dataset = SynthVisionConfig {
        num_classes: 4,
        channels: 1,
        height: 4,
        width: 4,
        train_per_class: 30,
        test_per_class: 10,
        noise_std: 0.8,
        prototype_scale: 1.0,
        brightness_std: 0.1,
    };
    cfg.model = fedms::ModelSpec::Mlp { widths: vec![16, 12, 4] };
    cfg.rounds = 10;
    cfg.eval_every = 10;
    cfg
}

#[test]
fn robust_server_rule_survives_byzantine_clients() {
    // 3 of 12 clients upload garbage; all clients use the plain mean as
    // their own filter and all servers receive every upload, so the server
    // rule is the *only* line of defence: the plain mean collapses, the
    // median stays healthy.
    let mut naive = base(21);
    naive.byzantine_clients = 3;
    naive.client_attack = ClientAttackKind::Random { lo: -10.0, hi: 10.0 };
    naive.filter = FilterKind::Mean;
    naive.upload = fedms::UploadStrategy::Full;
    naive.server_filter = FilterKind::Mean;
    let naive_acc = naive.run().unwrap().final_accuracy().unwrap();

    let mut dual = base(21);
    dual.byzantine_clients = 3;
    dual.client_attack = ClientAttackKind::Random { lo: -10.0, hi: 10.0 };
    dual.filter = FilterKind::Mean;
    dual.upload = fedms::UploadStrategy::Full;
    dual.server_filter = FilterKind::Median;
    let dual_acc = dual.run().unwrap().final_accuracy().unwrap();

    assert!(
        dual_acc > naive_acc + 0.15,
        "median server rule {dual_acc} should beat naive mean {naive_acc}"
    );
}

#[test]
fn dual_threat_simultaneous_attacks() {
    // Byzantine servers (Noise) AND Byzantine clients (sign flip), with
    // the symmetric defence: the run must stay healthy.
    let mut cfg = base(22);
    cfg.byzantine_count = 1;
    cfg.attack = AttackKind::Noise { std: 1.0 };
    cfg.byzantine_clients = 2;
    cfg.client_attack = ClientAttackKind::SignFlip { scale: 1.0 };
    cfg.filter = FilterKind::TrimmedMean { beta: 0.25 };
    cfg.server_filter = FilterKind::Median;
    let acc = cfg.run().unwrap().final_accuracy().unwrap();
    assert!(acc > 0.5, "dual defence should survive the dual attack, got {acc}");
}

#[test]
fn byzantine_clients_excluded_from_metric() {
    // The accuracy metric averages benign clients only; a run where the
    // Byzantine clients' own models are garbage must not drag it down when
    // the defence holds.
    let mut cfg = base(23);
    cfg.byzantine_clients = 2;
    cfg.client_attack = ClientAttackKind::Random { lo: -10.0, hi: 10.0 };
    cfg.server_filter = FilterKind::Median;
    let result = cfg.run().unwrap();
    assert!(result.final_accuracy().unwrap() > 0.4);
}

#[test]
fn amplify_attack_needs_robust_servers() {
    // Update amplification (×20) through a plain mean visibly perturbs
    // training; the median rule bounds it.
    let mut naive = base(24);
    naive.byzantine_clients = 3;
    naive.client_attack = ClientAttackKind::Amplify { factor: 20.0 };
    naive.server_filter = FilterKind::Mean;
    let naive_acc = naive.run().unwrap().final_accuracy().unwrap();

    let mut dual = base(24);
    dual.byzantine_clients = 3;
    dual.client_attack = ClientAttackKind::Amplify { factor: 20.0 };
    dual.server_filter = FilterKind::Median;
    let dual_acc = dual.run().unwrap().final_accuracy().unwrap();

    assert!(
        dual_acc + 0.05 >= naive_acc,
        "robust rule should never be much worse: {dual_acc} vs {naive_acc}"
    );
}

#[test]
fn crash_plus_byzantine_still_converges() {
    // One Byzantine and one crashed server out of four: the faulty set
    // stays below P/2, so the adaptive filter (trim = B of whatever
    // arrives) must keep training healthy.
    let mut cfg = base(26);
    cfg.byzantine_count = 1;
    cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
    cfg.filter = FilterKind::AdaptiveTrimmedMean { trim: 1 };
    cfg.fault.crashed_servers = 1;
    cfg.fault.crash_round = 3;
    let acc = cfg.run().unwrap().final_accuracy().unwrap();
    assert!(acc > 0.5, "crash + Byzantine below P/2 should converge, got {acc}");
}

#[test]
fn quorum_collapse_is_a_typed_error_not_a_panic() {
    // Two of four servers crash at round 1 while one of the survivors is
    // Byzantine: clients see P' = 2 ≤ 2B models, which no trim count can
    // defend. The run must fail fast with the structured quorum error.
    let mut cfg = base(27);
    cfg.byzantine_count = 1;
    cfg.attack = AttackKind::Noise { std: 1.0 };
    cfg.filter = FilterKind::AdaptiveTrimmedMean { trim: 1 };
    cfg.fault.crashed_servers = 2;
    cfg.fault.crash_round = 1;
    match cfg.run() {
        Err(CoreError::Sim(SimError::DegradedQuorum { round, received, needed, .. })) => {
            assert_eq!(round, 1);
            assert_eq!(received, 2);
            assert_eq!(needed, 2);
        }
        other => panic!("expected DegradedQuorum, got {other:?}"),
    }
}

#[test]
fn table_ii_scale_crash_faults_cost_little_accuracy() {
    // The issue's acceptance scenario: 10 servers, 2 Byzantine, 2 crashed.
    // The degraded run must land within 5 accuracy points of the
    // fault-free run at the same seed.
    let mut baseline = base(28);
    baseline.servers = 10;
    baseline.byzantine_count = 2;
    baseline.attack = AttackKind::Noise { std: 1.0 };
    baseline.filter = FilterKind::AdaptiveTrimmedMean { trim: 2 };
    let clean_acc = baseline.run().unwrap().final_accuracy().unwrap();

    let mut faulted = base(28);
    faulted.servers = 10;
    faulted.byzantine_count = 2;
    faulted.attack = AttackKind::Noise { std: 1.0 };
    faulted.filter = FilterKind::AdaptiveTrimmedMean { trim: 2 };
    faulted.fault.crashed_servers = 2;
    faulted.fault.crash_round = 2;
    let fault_acc = faulted.run().unwrap().final_accuracy().unwrap();

    assert!(clean_acc > 0.5, "fault-free baseline should converge, got {clean_acc}");
    assert!(
        (clean_acc - fault_acc).abs() <= 0.05,
        "2 crashes should cost at most 5 points: clean {clean_acc} vs faulted {fault_acc}"
    );
}

#[test]
fn dual_runs_stay_deterministic() {
    let mut cfg = base(25);
    cfg.byzantine_count = 1;
    cfg.byzantine_clients = 2;
    cfg.client_attack = ClientAttackKind::Noise { std: 1.0 };
    cfg.server_filter = FilterKind::TrimmedMean { beta: 0.2 };
    let a = cfg.run().unwrap();
    let b = cfg.run().unwrap();
    assert_eq!(a, b);
}
