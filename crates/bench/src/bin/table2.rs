//! Table II: the summary of important experiment settings, printed from the
//! *actual* configuration the sweep specs start from (paper value →
//! reproduction value, with the substitutions of DESIGN.md called out).
//!
//! Usage: `cargo run --release -p fedms-bench --bin table2`

use fedms_core::{FedMsConfig, Result};
use fedms_exp::save_json;

fn main() -> Result<()> {
    // The sweep specs' default evaluation cadence: every `rounds / 20`.
    let mut cfg = FedMsConfig::paper_defaults(42)?;
    cfg.eval_every = (cfg.rounds / 20).max(1);
    println!("Table II: important settings (paper -> this reproduction)");
    println!("{:<22} {:<28} reproduction", "setting", "paper");
    let rows: Vec<(&str, String, String)> = vec![
        (
            "dataset",
            "CIFAR-10".into(),
            format!(
                "SynthVision {}x{}x{}, {} classes, {} train/class",
                cfg.dataset.channels,
                cfg.dataset.height,
                cfg.dataset.width,
                cfg.dataset.num_classes,
                cfg.dataset.train_per_class
            ),
        ),
        ("model", "MobileNet V2".into(), format!("{:?} (MobileNetNano available)", cfg.model)),
        (
            "attacks",
            "Noise, Random, Safeguard, Backward".into(),
            "same four + SignFlip/Zero/Equivocation".into(),
        ),
        ("clients K", "50".into(), cfg.clients.to_string()),
        ("servers P", "10".into(), cfg.servers.to_string()),
        ("byzantine B", "0..3 (e = 0..30%)".into(), "0..3 per experiment".into()),
        ("local iterations E", "3".into(), cfg.local_epochs.to_string()),
        ("D_alpha", "1, 5, 10, 1000".into(), "1, 5, 10, 1000".into()),
        ("trim rate beta", "0.2 (Fed-MS), 0.1 (Fed-MS-)".into(), "same".into()),
        ("upload", "sparse (1 PS/client)".into(), format!("{:?}", cfg.upload)),
        ("rounds", "60".into(), cfg.rounds.to_string()),
        ("schedule", "SGD".into(), format!("{:?}", cfg.schedule)),
        ("batch size", "(unreported)".into(), cfg.batch_size.to_string()),
    ];
    for (k, paper, ours) in &rows {
        println!("{k:<22} {paper:<28} {ours}");
    }
    save_json("table2", &cfg);
    Ok(())
}
