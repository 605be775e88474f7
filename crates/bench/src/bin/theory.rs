//! Extra experiment E1 — Theorem 1 validation on strongly convex
//! quadratics with known constants.
//!
//! Runs the exact Fed-MS loop (sparse upload, server mean, Byzantine
//! tampering, trimmed-mean filter) on a [`QuadraticFleet`] with the proof's
//! prescribed step size `η_t = 2/(μ(γ+t))`, and prints:
//!
//! 1. the measured optimality gap `F(w̄_t) − F*` against the closed-form
//!    Theorem-1 bound at matching steps,
//! 2. the log–log slope of the gap (≈ −1 certifies `O(1/T)`),
//! 3. the Δ error-budget decomposition (heterogeneity / drift / variance /
//!    Byzantine / sparse-upload terms).
//!
//! Usage: `cargo run --release -p fedms-bench --bin theory`

use fedms_attacks::AttackKind;
use fedms_core::theory::{log_log_slope, run_convex_fedms, sweep_byzantine, ConvexFedMsConfig};
use fedms_core::Result;
use fedms_exp::save_json;
use fedms_nn::convex::QuadraticFleet;
use serde::Serialize;

#[derive(Serialize)]
struct TheoryOutput {
    slope: f64,
    measured: Vec<(usize, f64)>,
    bound: Vec<(usize, f64)>,
    delta_terms: Vec<(String, f64)>,
}

fn main() -> Result<()> {
    println!("Theorem 1 validation: O(1/T) convergence on convex quadratics");
    let fleet = QuadraticFleet::random(50, 16, 0.5, 2.0, 1.0, 7)?;
    let cfg = ConvexFedMsConfig {
        servers: 10,
        byzantine: 2,
        attack: AttackKind::Random { lo: -10.0, hi: 10.0 },
        beta: Some(0.2),
        local_epochs: 3,
        noise_std: 0.1,
        rounds: 2000,
        seed: 42,
        init_offset: 5.0,
    };
    let (points, constants) = run_convex_fedms(&fleet, &cfg)?;
    constants.validate()?;

    // Initial distance for the bound: w₀ = offset·1.
    let w0 = fedms_tensor::Tensor::full(&[fleet.dim()], cfg.init_offset);
    let w0_dist_sq = w0.sub(&fleet.optimum())?.norm_l2_sq() as f64;

    println!(
        "\nfleet: K={} d={} L={:.2} mu={:.2} Gamma={:.3}; run: P={} B={} attack=random beta=0.2",
        constants.k,
        fleet.dim(),
        constants.l,
        constants.mu,
        constants.gamma_het,
        cfg.servers,
        cfg.byzantine,
    );
    println!("\n{:>8} {:>14} {:>14} {:>8}", "step t", "measured gap", "theorem bound", "within");
    let mut measured = Vec::new();
    let mut bound_series = Vec::new();
    for &(idx, step) in
        [(1usize, 3usize), (10, 30), (33, 99), (100, 300), (333, 999), (1000, 3000), (2000, 6000)]
            .iter()
    {
        if idx >= points.len() {
            continue;
        }
        let gap = points[idx].gap;
        let bound = constants.bound_at(step, w0_dist_sq);
        println!(
            "{:>8} {:>14.5} {:>14.3} {:>8}",
            step,
            gap,
            bound,
            if gap <= bound { "yes" } else { "NO" }
        );
        measured.push((step, gap));
        bound_series.push((step, bound));
    }

    let slope = log_log_slope(&points[points.len() / 10..points.len() / 2]).unwrap_or(f64::NAN);
    println!("\nlog-log slope of measured gap (middle of run): {slope:.3} (O(1/T) => ~ -1)");

    println!("\nDelta decomposition (Theorem 1 error budget):");
    let delta_terms = vec![
        ("heterogeneity 6L*Gamma".to_string(), constants.heterogeneity_term()),
        ("client drift 8E^2G^2".to_string(), constants.drift_term()),
        ("SGD variance".to_string(), constants.variance_term()),
        ("byzantine 4P/(P-2B)^2 E^2G^2".to_string(), constants.byzantine_term()),
        ("sparse upload (K-P)/(K-1) 4/P E^2G^2".to_string(), constants.sparse_term()),
    ];
    for (name, v) in &delta_terms {
        println!("  {name:<40} {v:>12.3}");
    }
    println!("  {:<40} {:>12.3}", "total Delta", constants.delta());

    // Measured counterpart of Δ's Byzantine term: the stochastic floor of
    // the gap as B approaches P/2 (β matched to B/P per the algorithm).
    println!("\nByzantine sweep (gap floor over the last quarter of each run):");
    println!("{:>4} {:>14} {:>18}", "B", "measured floor", "delta byz term");
    let sweep = sweep_byzantine(&fleet, &cfg, &[0, 1, 2, 3, 4])?;
    for &(b, floor) in &sweep {
        let mut c = constants;
        c.b = b;
        println!("{:>4} {:>14.5} {:>18.1}", b, floor, c.byzantine_term());
    }
    save_json("theory", &TheoryOutput { slope, measured, bound: bound_series, delta_terms });
    save_json("theory_bsweep", &sweep);
    Ok(())
}
