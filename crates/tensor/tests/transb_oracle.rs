//! Pins the `matmul_transb` kernel to the retained dot-product loop
//! (`kernels::reference::matmul_transb`) bit for bit.
//!
//! The rewritten kernel runs k-major over a packed bᵀ so it vectorizes, and
//! computes full 2×16 output tiles in a local accumulator array; it must
//! keep every output element's exact operation sequence (`+0.0` seed,
//! ascending k, separate multiply then add). Shapes cover empty dimensions,
//! widths that are not a multiple of any vector lane count, and at least
//! two full tiles plus a remainder in each direction (m up to 7, n up to
//! 39); data mixes signed zeros, subnormals, infinities, NaN and
//! overflow-sized values.
//! NaN outputs are compared by position, since IEEE leaves a computed
//! NaN's sign and payload unspecified.

use fedms_tensor::kernels::{self, reference};
use proptest::prelude::*;

/// Codes `0..11` are the IEEE edge cases; every other code is an ordinary
/// value.
fn value((code, x): (u16, f32)) -> f32 {
    match code {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(1),
        3 => -f32::from_bits(0x007f_ffff),
        4 => f32::MIN_POSITIVE / 3.0,
        5 => f32::INFINITY,
        6 => f32::NEG_INFINITY,
        7 => f32::NAN,
        8 => 3.0e38,
        9 => -2.5e38,
        10 => 1.0e-30,
        _ => x,
    }
}

/// `codes` sets the edge-case density: 22 makes half the values special,
/// 2200 one in two hundred (so long rows are not all NaN).
fn data(len: usize, codes: u16) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((0u16..codes, -4.0f32..4.0), len)
        .prop_map(|draws| draws.into_iter().map(value).collect())
}

fn assert_bit_identical(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) {
    let mut want = vec![f32::NAN; m * n];
    let mut got = vec![f32::NAN; m * n];
    reference::matmul_transb(a, b, &mut want, m, k, n);
    kernels::matmul_transb(a, b, &mut got, m, k, n);
    for (idx, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{m}x{k}x{n} out[{idx}]: reference NaN, kernel {g}");
        } else {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{m}x{k}x{n} out[{idx}]: reference {w:e}, kernel {g:e}"
            );
        }
    }
}

fn shaped() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (0usize..8, 0usize..300, 0usize..40, 0u32..3).prop_flat_map(|(m, k, n, density)| {
        let codes = 22 * 10u16.pow(density);
        (Just(m), Just(k), Just(n), data(m * k, codes), data(n * k, codes))
    })
}

proptest! {
    #[test]
    fn scalar_transb_equals_reference_bitwise(case in shaped()) {
        let (m, k, n, a, b) = case;
        assert_bit_identical(m, k, n, &a, &b);
    }
}

#[test]
fn paper_shapes_equal_reference_bitwise() {
    // The evaluation forwards (200×192 · 64×192ᵀ, 200×64 · 10×64ᵀ), the
    // training forwards (32×192 · 64×192ᵀ, 32×64 · 10×64ᵀ), the nano conv's
    // weight gradient (8×64 · 27×64ᵀ), and two full 2×16 tiles plus a
    // remainder row and column (5×50 · 33×50ᵀ).
    let shapes =
        [(200, 192, 64), (200, 64, 10), (32, 192, 64), (32, 64, 10), (8, 64, 27), (5, 50, 33)];
    for (m, k, n) in shapes {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013).collect();
        let b: Vec<f32> = (0..n * k).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.021).collect();
        assert_bit_identical(m, k, n, &a, &b);
    }
}

#[test]
fn zero_times_infinity_stays_nan() {
    // A zero-skip would return 0 here; the dot form yields NaN.
    let a = [0.0f32, 1.0];
    let b = [f32::INFINITY, 2.0];
    let mut out = [0.0f32];
    kernels::matmul_transb(&a, &b, &mut out, 1, 2, 1);
    assert!(out[0].is_nan());
}
