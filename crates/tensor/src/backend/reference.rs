//! Retained reference loops — the oracles the scalar backend's rewritten
//! kernels are property-tested and benchmarked against.
//!
//! These keep the historical loop shape verbatim. They are never on a
//! runtime path: `tests/transb_oracle.rs` asserts that
//! [`ScalarBackend`](super::ScalarBackend) reproduces them bit for bit
//! (`to_bits`, NaN positions for NaN outputs), and `nnbench` times them as
//! the `reference` GEMM row.

/// `out = a · bᵀ` for row-major `a: (m×k)`, `b: (n×k)`, `out: (m×n)`, as
/// one dot product per output element: `acc` starts at `+0.0` and takes
/// `acc += a[i,kk] · b[j,kk]` for `kk` ascending.
///
/// That is one serial add chain per element, so the compiler cannot
/// vectorize it without reassociating.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`, `k`, `n` shape.
pub fn matmul_transb(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
}
