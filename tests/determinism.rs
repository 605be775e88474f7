//! Bit-exact determinism across execution modes — the invariant every
//! other test leans on. Parallel client training must be indistinguishable
//! from sequential, with and without an active fault plan.

use fedms::{AttackKind, FaultPlan, FedMsConfig, FilterKind, SynthVisionConfig};

fn base(seed: u64) -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(seed);
    cfg.clients = 8;
    cfg.servers = 5;
    cfg.dataset = SynthVisionConfig {
        num_classes: 3,
        channels: 1,
        height: 4,
        width: 4,
        train_per_class: 24,
        test_per_class: 8,
        noise_std: 0.8,
        prototype_scale: 1.0,
        brightness_std: 0.1,
    };
    cfg.model = fedms::ModelSpec::Mlp { widths: vec![16, 8, 3] };
    cfg.rounds = 6;
    cfg.eval_every = 3;
    cfg
}

#[test]
fn parallel_matches_sequential_bit_for_bit() {
    let mut seq = base(71);
    seq.parallel = false;
    let mut par = base(71);
    par.parallel = true;
    assert_eq!(seq.run().unwrap(), par.run().unwrap());
}

#[test]
fn parallel_matches_sequential_under_active_faults() {
    // Crash + straggler + duplicating downlinks alongside a Byzantine
    // server: the view never shrinks below quorum, and thread count must
    // still be unobservable.
    let fault = |cfg: &mut FedMsConfig| {
        cfg.byzantine_count = 1;
        cfg.attack = AttackKind::Noise { std: 0.5 };
        cfg.filter = FilterKind::AdaptiveTrimmedMean { trim: 1 };
        cfg.fault.crashed_servers = 1;
        cfg.fault.crash_round = 2;
        cfg.fault.straggler_servers = 1;
        cfg.fault.straggler_delay = 1;
        cfg.fault.duplicate_rate = 0.1;
    };
    let mut seq = base(72);
    seq.parallel = false;
    fault(&mut seq);
    let mut par = base(72);
    par.parallel = true;
    fault(&mut par);
    assert_eq!(seq.run().unwrap(), par.run().unwrap());
}

#[test]
fn parallel_matches_sequential_under_lossy_downlinks() {
    // Heavy omission with no Byzantine servers (so no quorum applies and
    // the plain mean tolerates any surviving view size).
    let fault = |cfg: &mut FedMsConfig| {
        cfg.filter = FilterKind::Mean;
        cfg.fault.downlink_omission = 0.2;
        cfg.fault.duplicate_rate = 0.1;
    };
    let mut seq = base(75);
    seq.parallel = false;
    fault(&mut seq);
    let mut par = base(75);
    par.parallel = true;
    fault(&mut par);
    assert_eq!(seq.run().unwrap(), par.run().unwrap());
}

#[test]
fn faulty_runs_replay_identically() {
    let mut cfg = base(73);
    cfg.fault.crashed_servers = 1;
    cfg.fault.crash_round = 3;
    cfg.fault.downlink_omission = 0.1;
    let a = cfg.run().unwrap();
    let b = cfg.run().unwrap();
    assert_eq!(a, b);
}

#[test]
fn fault_plan_sampling_is_a_pure_function_of_the_seed() {
    let cfg = {
        let mut c = base(74);
        c.fault.crashed_servers = 2;
        c.fault.crash_round = 1;
        c.fault.straggler_servers = 1;
        c.fault.straggler_delay = 2;
        c
    };
    let a = FaultPlan::sample(&cfg.fault, cfg.servers, cfg.seed).unwrap();
    let b = FaultPlan::sample(&cfg.fault, cfg.servers, cfg.seed).unwrap();
    assert_eq!(a, b, "same seed must pick the same victims");
    let c = FaultPlan::sample(&cfg.fault, cfg.servers, cfg.seed + 1).unwrap();
    assert_eq!(c.crashed_ids().len(), 2, "spec counts hold under any seed");
    assert_ne!(a, c, "different seeds should (here) pick different victims");
}
