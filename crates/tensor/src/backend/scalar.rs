//! The default scalar backend: the pre-backend kernels, with the same
//! per-element floating-point operation order.
//!
//! Every kernel here performs, for each output element, exactly the
//! operations of the code it was lifted from (`ops.rs`, `conv.rs` and the
//! NN crate's softmax/SGD inner loops), in the same order, so routing
//! through this backend is bit-identical to the pre-refactor engine — the
//! property the checked-in run digests in `tests/backend_parity.rs` pin.
//! Most loop bodies are unchanged; `matmul_transb` runs k-major over a
//! packed bᵀ so it vectorizes, computes full 2×16 output tiles in a local
//! accumulator array (8 of SSE2's 16 vector registers, with room for the
//! four bᵀ vectors; a 3×16 tile spills) so each bᵀ row segment is loaded
//! once per two output rows, and is pinned bit for bit to the
//! retained dot-product loop in [`super::reference`]. `matmul` and
//! `matmul_transa` keep their row loops: their zero-skip branch and
//! strided operand made the same tile slower.

use crate::conv::Conv2dGeometry;

use super::Backend;

/// The deterministic single-threaded backend: the default and the CI oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * bkj;
                }
            }
        }
    }

    fn matmul_transb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        // Pack bᵀ (k×n) so the k loop can run outermost: each output element
        // still sees `+0.0`, then `acc += a[i,kk] · b[j,kk]` for kk ascending
        // — the dot-product chain of `reference::matmul_transb` — but many
        // chains advance side by side and vectorize. Full MR×NR output tiles
        // keep their chains in a local accumulator array across the whole k
        // loop; edge rows and columns run the one-row loop. No zero-skip:
        // the dot form has none, and skipping `0 · inf` would drop a NaN.
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for (kk, &v) in b[j * k..(j + 1) * k].iter().enumerate() {
                bt[kk * n + j] = v;
            }
        }
        let tiled_cols = n - n % NR;
        let tiled_rows = if tiled_cols == 0 { 0 } else { m - m % MR };
        for i in (0..tiled_rows).step_by(MR) {
            let arows = &a[i * k..(i + MR) * k];
            for j in (0..tiled_cols).step_by(NR) {
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let brow = &bt[kk * n + j..kk * n + j + NR];
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let aik = arows[r * k + kk];
                        for (o, &y) in acc_row.iter_mut().zip(brow.iter()) {
                            *o += aik * y;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(acc_row);
                }
            }
            if tiled_cols < n {
                for r in i..i + MR {
                    transb_row(
                        &a[r * k..(r + 1) * k],
                        &bt,
                        &mut out[r * n..(r + 1) * n],
                        tiled_cols,
                    );
                }
            }
        }
        for r in tiled_rows..m {
            transb_row(&a[r * k..(r + 1) * k], &bt, &mut out[r * n..(r + 1) * n], 0);
        }
    }

    fn matmul_transa(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for kk in 0..k {
            let arow = &a[kk * m..(kk + 1) * m];
            let brow = &b[kk * n..(kk + 1) * n];
            for (i, &aki) in arow.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                    *o += aki * bkj;
                }
            }
        }
    }

    fn matvec(&self, a: &[f32], x: &[f32], out: &mut [f32], m: usize, n: usize) {
        let _ = m;
        for (i, o) in out.iter_mut().enumerate() {
            let row = &a[i * n..(i + 1) * n];
            let mut acc = 0.0f64;
            for (&r, &xv) in row.iter().zip(x.iter()) {
                acc += r as f64 * xv as f64;
            }
            *o = acc as f32;
        }
    }

    fn im2col(&self, image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
        im2col_loops(image, geom, out);
    }

    fn col2im(&self, cols: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
        col2im_loops(cols, geom, out);
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        for (o, &v) in y.iter_mut().zip(x.iter()) {
            *o += alpha * v;
        }
    }

    fn scale(&self, alpha: f32, x: &mut [f32]) {
        for v in x.iter_mut() {
            *v *= alpha;
        }
    }

    fn dot(&self, x: &[f32], y: &[f32]) -> f32 {
        x.iter().zip(y.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum::<f64>() as f32
    }

    fn sum(&self, x: &[f32]) -> f32 {
        x.iter().sum()
    }

    fn softmax_rows(&self, data: &mut [f32], rows: usize, cols: usize) {
        for i in 0..rows {
            let row = &mut data[i * cols..(i + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    fn sgd_update(
        &self,
        params: &mut [f32],
        grads: &[f32],
        lr: f32,
        scale: f32,
        weight_decay: f32,
        momentum: f32,
        velocity: Option<&mut [f32]>,
    ) {
        match velocity {
            Some(vel) => {
                for ((p, &g), v) in params.iter_mut().zip(grads.iter()).zip(vel.iter_mut()) {
                    let mut eff = scale * g + weight_decay * *p;
                    if momentum > 0.0 {
                        *v = momentum * *v + eff;
                        eff = *v;
                    }
                    *p -= lr * eff;
                }
            }
            None => {
                for (p, &g) in params.iter_mut().zip(grads.iter()) {
                    let eff = scale * g + weight_decay * *p;
                    *p -= lr * eff;
                }
            }
        }
    }
}

/// Output rows per register tile of the scalar `matmul_transb`.
const MR: usize = 2;
/// Output columns per register tile of the scalar `matmul_transb`.
const NR: usize = 16;

/// One output row of `matmul_transb` from column `from` on, over the
/// packed `bt` (k×n): the columns advance side by side through the k loop,
/// each keeping its own `+0.0`-seeded chain.
fn transb_row(arow: &[f32], bt: &[f32], orow: &mut [f32], from: usize) {
    let n = orow.len();
    let orow = &mut orow[from..];
    orow.fill(0.0);
    for (kk, &aik) in arow.iter().enumerate() {
        for (o, &y) in orow.iter_mut().zip(bt[kk * n + from..(kk + 1) * n].iter()) {
            *o += aik * y;
        }
    }
}

/// The im2col loop nest, shared by the scalar and blocked backends (the
/// lowering is pure data movement — no floating-point arithmetic to
/// reassociate).
pub(crate) fn im2col_loops(src: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let cols = geom.col_cols();
    for c in 0..geom.in_channels {
        let chan = &src[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (c * k + ky) * k + kx;
                let row = &mut out[row_idx * cols..(row_idx + 1) * cols];
                for oy in 0..geom.out_h {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for ox in 0..geom.out_w {
                        let ix = (ox * s + kx) as isize - p as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        row[oy * geom.out_w + ox] = chan[iy as usize * geom.in_w + ix as usize];
                    }
                }
            }
        }
    }
}

/// The col2im loop nest (adjoint of [`im2col_loops`]), shared by both CPU
/// backends; per-position accumulation order is identical in each.
pub(crate) fn col2im_loops(src: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let ncols = geom.col_cols();
    for c in 0..geom.in_channels {
        let chan = &mut out[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (c * k + ky) * k + kx;
                let row = &src[row_idx * ncols..(row_idx + 1) * ncols];
                for oy in 0..geom.out_h {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for ox in 0..geom.out_w {
                        let ix = (ox * s + kx) as isize - p as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        chan[iy as usize * geom.in_w + ix as usize] += row[oy * geom.out_w + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: ScalarBackend = ScalarBackend;

    #[test]
    fn matmul_known_product() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        B.matmul(&a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transb_and_transa_agree_with_plain() {
        // a: 2x3, b: 4x3 → transb(a, b) == a · bᵀ.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 0.5, -1.0, 2.0, 0.0, 3.0, 1.0, 1.0, 2.0, -2.0, 0.5, 0.5];
        let mut bt = [0.0f32; 12];
        for i in 0..4 {
            for j in 0..3 {
                bt[j * 4 + i] = b[i * 3 + j];
            }
        }
        let mut fast = [0.0f32; 8];
        let mut slow = [0.0f32; 8];
        B.matmul_transb(&a, &b, &mut fast, 2, 3, 4);
        B.matmul(&a, &bt, &mut slow, 2, 3, 4);
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!((f - s).abs() < 1e-6);
        }
        // a: 3x2 → transa(a, b3) == aᵀ · b3 with b3: 3x2.
        let b3 = [1.0, 0.5, -1.0, 2.0, 0.0, 3.0];
        let mut at = [0.0f32; 6];
        for i in 0..3 {
            for j in 0..2 {
                at[j * 3 + i] = a[i * 2 + j];
            }
        }
        let mut fast_a = [0.0f32; 4];
        let mut slow_a = [0.0f32; 4];
        B.matmul_transa(&a, &b3, &mut fast_a, 2, 3, 2);
        B.matmul(&at, &b3, &mut slow_a, 2, 3, 2);
        for (f, s) in fast_a.iter().zip(slow_a.iter()) {
            assert!((f - s).abs() < 1e-6);
        }
    }

    #[test]
    fn elementwise_and_reductions() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        B.axpy(0.5, &x, &mut y);
        assert_eq!(y, [1.5, 2.0, 2.5]);
        B.scale(2.0, &mut y);
        assert_eq!(y, [3.0, 4.0, 5.0]);
        assert_eq!(B.dot(&x, &x), 14.0);
        assert_eq!(B.sum(&x), 6.0);
    }

    #[test]
    fn sgd_update_without_momentum() {
        let mut p = [1.0f32, -2.0];
        let g = [0.5f32, 0.5];
        B.sgd_update(&mut p, &g, 0.1, 1.0, 0.0, 0.0, None);
        assert_eq!(p, [0.95, -2.05]);
    }

    #[test]
    fn sgd_update_with_momentum_accumulates() {
        let mut p = [0.0f32];
        let mut v = [0.0f32];
        let g = [1.0f32];
        B.sgd_update(&mut p, &g, 0.1, 1.0, 0.0, 0.9, Some(&mut v));
        assert!((p[0] + 0.1).abs() < 1e-7);
        B.sgd_update(&mut p, &g, 0.1, 1.0, 0.0, 0.9, Some(&mut v));
        // Second step: v = 0.9·1 + 1 = 1.9 → p moves by 0.19 more.
        assert!((p[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut data = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        B.softmax_rows(&mut data, 2, 3);
        for r in 0..2 {
            let s: f32 = data[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }
}
