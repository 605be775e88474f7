//! Extra experiment E3 — Lemma 2: the trimmed-mean estimation error is
//! bounded by the sample's spread, scaled by `P/(P−2B)²`.
//!
//! For a grid of (P, B) the binary draws honest scalar samples of standard
//! deviation σ, lets an adversary replace B of them with worst-case values,
//! and measures `E[(trmean_β{q} − µ)²]` against Lemma 2's `Pσ²/(P−2B)²`
//! bound. Shape to reproduce: the measured error never exceeds the bound
//! and grows as B approaches P/2.
//!
//! Usage: `cargo run --release -p fedms-bench --bin lemma2`

use fedms_aggregation::trimmed_mean_scalars;
use fedms_core::Result;
use fedms_exp::save_json;
use fedms_tensor::rng::rng_for;
use rand_distr::{Distribution, Normal};
use serde::Serialize;

#[derive(Serialize)]
struct Lemma2Row {
    p: usize,
    b: usize,
    measured_mse: f64,
    bound: f64,
    within: bool,
}

fn main() -> Result<()> {
    println!("Lemma 2: trimmed-mean error vs P*sigma^2/(P-2B)^2 bound");
    let sigma = 1.0f64;
    let trials = 20_000usize;
    println!(
        "\n{:>4} {:>4} {:>14} {:>14} {:>8}",
        "P", "B", "measured MSE", "lemma bound", "within"
    );
    let mut rows = Vec::new();
    for (p, b) in [(5usize, 1usize), (10, 1), (10, 2), (10, 3), (10, 4), (20, 4), (20, 8)] {
        let mut rng = rng_for(42, &[p as u64, b as u64]);
        let normal = Normal::new(0.0f64, sigma).expect("valid normal");
        let mut mse = 0.0f64;
        for _ in 0..trials {
            let mut values: Vec<f32> = (0..p).map(|_| normal.sample(&mut rng) as f32).collect();
            // Worst-case adversary: push B values to +infinity-like extremes
            // (the sandwich argument shows one-sided attacks are maximal).
            for v in values.iter_mut().take(b) {
                *v = 1e9;
            }
            let est = trimmed_mean_scalars(&values, b)? as f64;
            mse += est * est; // true mean µ = 0
        }
        mse /= trials as f64;
        let bound = p as f64 * sigma * sigma / ((p - 2 * b) as f64).powi(2);
        let within = mse <= bound;
        println!(
            "{:>4} {:>4} {:>14.4} {:>14.4} {:>8}",
            p,
            b,
            mse,
            bound,
            if within { "yes" } else { "NO" }
        );
        rows.push(Lemma2Row { p, b, measured_mse: mse, bound, within });
    }
    println!("\n(shape check: error grows as B -> P/2; bound always holds)");
    save_json("lemma2", &rows);
    Ok(())
}
