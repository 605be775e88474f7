//! Byzantine gauntlet: stress every defence filter against every server
//! attack and print the resulting accuracy matrix.
//!
//! Scenario: you operate an outdoor edge deployment (the paper's Industrial
//! IoT motivation) and must pick a client-side filter *before* knowing
//! which attack the adversary will mount. The gauntlet shows why the paper
//! settles on the trimmed mean: it is the only filter in this set that is
//! simultaneously cheap, robust to every attack, and loses nothing in the
//! attack-free case.
//!
//! Run with: `cargo run --release --example byzantine_gauntlet`

use fedms::{AttackKind, CoreError, FedMsConfig, FilterKind};

fn final_accuracy(
    attack: AttackKind,
    byzantine: usize,
    filter: FilterKind,
) -> Result<f32, CoreError> {
    let mut cfg = FedMsConfig::paper_defaults(42)?;
    cfg.byzantine_count = byzantine;
    cfg.attack = attack;
    cfg.filter = filter;
    cfg.rounds = 25;
    cfg.eval_every = 25; // only the final round matters here
    Ok(cfg.run()?.final_accuracy().unwrap_or(0.0))
}

fn main() -> Result<(), CoreError> {
    // Every attack up to `zero` at its default parameters, B = 2 except
    // the attack-free control.
    let attacks = &AttackKind::DEFAULTS[..7];
    let filters = [
        FilterKind::Mean,
        FilterKind::TrimmedMean { beta: 0.2 },
        FilterKind::Median,
        FilterKind::Krum { f: 2 },
        FilterKind::GeometricMedian,
    ];

    println!("Byzantine gauntlet: final accuracy (%) after 25 rounds");
    println!("K=50, P=10, B=2 (except the attack-free row)\n");
    print!("{:<14}", "attack");
    for filter in &filters {
        print!(" {:>11}", filter.to_string());
    }
    println!();
    let mut worst = vec![f32::INFINITY; filters.len()];
    for &attack in attacks {
        let byzantine = if attack == AttackKind::Benign { 0 } else { 2 };
        print!("{:<14}", attack.to_string());
        for (fi, &filter) in filters.iter().enumerate() {
            let acc = final_accuracy(attack, byzantine, filter)?;
            worst[fi] = worst[fi].min(acc);
            print!(" {:>10.1}%", acc * 100.0);
        }
        println!();
    }
    print!("{:<14}", "worst");
    for w in &worst {
        print!(" {:>10.1}%", w * 100.0);
    }
    println!("\n\nPick the filter with the best worst-case row: that is the");
    println!("trimmed mean — the Fed-MS defence.");
    Ok(())
}
