//! Figure 4: the label distribution of the first 10 clients under
//! Dirichlet partitioning with D_α ∈ {1, 5, 10, 1000}.
//!
//! For each α the binary prints a per-client class histogram (one bar
//! digit 0–9 per class, scaled to the client's largest class) plus the
//! mean total-variation heterogeneity statistic. Paper shape: small α →
//! spiky single-class clients; α = 1000 → near-identical distributions.
//!
//! Usage: `cargo run --release -p fedms-bench --bin fig4`

use fedms_core::Result;
use fedms_data::{mean_tv_distance, DirichletPartitioner, LabelHistogram, SynthVisionConfig};
use fedms_exp::save_json;
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Row {
    alpha: f64,
    mean_tv: f64,
    client_histograms: Vec<Vec<usize>>,
}

fn main() -> Result<()> {
    println!("Figure 4: per-client class histograms under Dirichlet D_a");
    println!("(first 10 of 50 clients; one digit per class, 0..9 = bar height)");
    let (train, _) = SynthVisionConfig::default().generate(42)?;
    let mut rows = Vec::new();
    for alpha in [1.0, 5.0, 10.0, 1000.0] {
        let shards = DirichletPartitioner::new(alpha)?.partition(&train, 50, 42)?;
        let tv = mean_tv_distance(&train, &shards);
        println!("\n== D_a = {alpha} (mean TV distance to global: {tv:.3}) ==");
        println!("{:>8} {:>12} {:>8}", "client", "classes", "samples");
        let mut hists = Vec::new();
        for (k, shard) in shards.iter().take(10).enumerate() {
            let h = LabelHistogram::from_indices(&train, shard)?;
            println!("{:>8} {:>12} {:>8}", k, h.bar_string(), h.total());
            hists.push(h.counts().to_vec());
        }
        rows.push(Fig4Row { alpha, mean_tv: tv, client_histograms: hists });
    }
    save_json("fig4", &rows);
    println!("\n(shape check: TV distance should fall monotonically with D_a)");
    Ok(())
}
