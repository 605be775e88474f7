//! Convolutional layers (standard and depthwise), computed via im2col.

use fedms_tensor::pool::{BufferPool, PoolStats};
use fedms_tensor::{kernels, Conv2dGeometry, Tensor, TensorError};
use rand::Rng;

use crate::{Layer, NnError, Result};

fn check_input_4d(input: &Tensor, c: usize, h: usize, w: usize) -> Result<usize> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, got: input.rank() }.into());
    }
    let d = input.dims();
    if d[1] != c || d[2] != h || d[3] != w {
        return Err(
            TensorError::ShapeMismatch { left: d.to_vec(), right: vec![d[0], c, h, w] }.into()
        );
    }
    Ok(d[0])
}

/// A standard 2-D convolution: `out_c` filters over all input channels.
///
/// * input: `(batch, in_c, H, W)`
/// * output: `(batch, out_c, out_h, out_w)`
/// * weight: `(out_c, in_c·k·k)` (flattened filter bank), bias: `(out_c)`
///
/// All scratch (column matrices, GEMM outputs) is routed through an internal
/// [`BufferPool`], so a steady-state training loop performs no per-step
/// heap allocation on the conv path.
#[derive(Debug)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    out_channels: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_cols: Vec<Tensor>,
    scratch: BufferPool,
}

impl Clone for Conv2d {
    fn clone(&self) -> Self {
        // Scratch buffers are value-transparent: a clone starts with a
        // fresh, empty pool.
        Conv2d {
            geom: self.geom,
            out_channels: self.out_channels,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            grad_weight: self.grad_weight.clone(),
            grad_bias: self.grad_bias.clone(),
            cached_cols: self.cached_cols.clone(),
            scratch: BufferPool::new(),
        }
    }
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `out_channels == 0`, or a tensor
    /// error if the geometry is infeasible.
    pub fn new<R: Rng + ?Sized>(
        geom: Conv2dGeometry,
        out_channels: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if out_channels == 0 {
            return Err(NnError::BadConfig("out_channels must be positive".into()));
        }
        let fan_in = geom.col_rows();
        let bound = (6.0f32 / fan_in as f32).sqrt();
        Ok(Conv2d {
            geom,
            out_channels,
            weight: Tensor::rand_uniform(rng, &[out_channels, fan_in], -bound, bound),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_cols: Vec::new(),
            scratch: BufferPool::new(),
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Traffic counters of the internal scratch pool (test observability).
    pub fn scratch_stats(&self) -> PoolStats {
        self.scratch.stats()
    }

    /// Checks `grad_out` against the cached forward; returns the batch.
    fn check_grad_out(&self, grad_out: &Tensor) -> Result<usize> {
        if self.cached_cols.is_empty() {
            return Err(NnError::NoForwardCache("conv2d"));
        }
        let g = self.geom;
        let mismatch = || {
            NnError::Tensor(TensorError::ShapeMismatch {
                left: grad_out.dims().to_vec(),
                right: vec![self.cached_cols.len(), self.out_channels, g.out_h, g.out_w],
            })
        };
        let batch = check_input_4d(grad_out, self.out_channels, g.out_h, g.out_w)
            .map_err(|_| mismatch())?;
        if batch != self.cached_cols.len() {
            return Err(mismatch());
        }
        Ok(batch)
    }

    /// Accumulates dW and db for a checked `grad_out` and, when `grad_in`
    /// is given, scatters the input gradient into it (`dCols = Wᵀ ·
    /// gradOut`, then `col2im`).
    fn accumulate_grads(&mut self, grad_out: &Tensor, mut grad_in: Option<&mut [f32]>) {
        let g = self.geom;
        let out_plane = g.out_h * g.out_w;
        let vol = g.input_volume();
        for s in 0..self.cached_cols.len() {
            let go = &grad_out.as_slice()
                [s * self.out_channels * out_plane..(s + 1) * self.out_channels * out_plane];
            let cols = self.cached_cols[s].as_slice();
            // dW += gradOut · colsᵀ
            let mut dw = self.scratch.fetch_zeroed(self.out_channels * g.col_rows());
            kernels::matmul_transb(go, cols, &mut dw, self.out_channels, out_plane, g.col_rows());
            for (gw, &v) in self.grad_weight.as_mut_slice().iter_mut().zip(dw.iter()) {
                *gw += v;
            }
            self.scratch.release(dw);
            // db += row sums
            for oc in 0..self.out_channels {
                self.grad_bias.as_mut_slice()[oc] +=
                    go[oc * out_plane..(oc + 1) * out_plane].iter().sum::<f32>();
            }
            let Some(grad_in) = grad_in.as_deref_mut() else { continue };
            // dCols = Wᵀ · gradOut, then scatter back to image space.
            let mut dcols = self.scratch.fetch_zeroed(g.col_rows() * out_plane);
            kernels::matmul_transa(
                self.weight.as_slice(),
                go,
                &mut dcols,
                g.col_rows(),
                self.out_channels,
                out_plane,
            );
            kernels::col2im(&dcols, &g, &mut grad_in[s * vol..(s + 1) * vol]);
            self.scratch.release(dcols);
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let g = self.geom;
        let batch = check_input_4d(input, g.in_channels, g.in_h, g.in_w)?;
        let vol = g.input_volume();
        let out_plane = g.out_h * g.out_w;
        let col_len = g.col_rows() * g.col_cols();
        let mut out = Tensor::zeros(&[batch, self.out_channels, g.out_h, g.out_w]);
        // Recycle last step's cached column matrices before building new ones.
        for cols in self.cached_cols.drain(..) {
            self.scratch.release_tensor(cols);
        }
        for s in 0..batch {
            let img = &input.as_slice()[s * vol..(s + 1) * vol];
            let mut cols = self.scratch.fetch_zeroed(col_len);
            kernels::im2col(img, &g, &mut cols);
            let mut y = self.scratch.fetch_zeroed(self.out_channels * out_plane);
            kernels::matmul(
                self.weight.as_slice(),
                &cols,
                &mut y,
                self.out_channels,
                g.col_rows(),
                out_plane,
            );
            let dst = &mut out.as_mut_slice()
                [s * self.out_channels * out_plane..(s + 1) * self.out_channels * out_plane];
            for oc in 0..self.out_channels {
                let b = self.bias.as_slice()[oc];
                for (d, &v) in dst[oc * out_plane..(oc + 1) * out_plane]
                    .iter_mut()
                    .zip(y[oc * out_plane..(oc + 1) * out_plane].iter())
                {
                    *d = v + b;
                }
            }
            self.scratch.release(y);
            self.cached_cols.push(Tensor::from_vec(cols, &[g.col_rows(), g.col_cols()])?);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let batch = self.check_grad_out(grad_out)?;
        let g = self.geom;
        let mut grad_in = Tensor::zeros(&[batch, g.in_channels, g.in_h, g.in_w]);
        self.accumulate_grads(grad_out, Some(grad_in.as_mut_slice()));
        Ok(grad_in)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.check_grad_out(grad_out)?;
        self.accumulate_grads(grad_out, None);
        Ok(())
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.scale(0.0);
        self.grad_bias.scale(0.0);
    }
}

/// A depthwise 2-D convolution: one `k×k` filter per channel, no cross-
/// channel mixing — the core of MobileNet's depthwise-separable blocks.
///
/// * input/output channels are equal
/// * weight: `(channels, k·k)`, bias: `(channels)`
#[derive(Debug)]
pub struct DepthwiseConv2d {
    geom: Conv2dGeometry,
    chan_geom: Conv2dGeometry,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_cols: Vec<Vec<Tensor>>,
    scratch: BufferPool,
}

impl Clone for DepthwiseConv2d {
    fn clone(&self) -> Self {
        DepthwiseConv2d {
            geom: self.geom,
            chan_geom: self.chan_geom,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            grad_weight: self.grad_weight.clone(),
            grad_bias: self.grad_bias.clone(),
            cached_cols: self.cached_cols.clone(),
            scratch: BufferPool::new(),
        }
    }
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-uniform weights.
    ///
    /// `geom.in_channels` is the (shared) channel count.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if the single-channel geometry is infeasible.
    pub fn new<R: Rng + ?Sized>(geom: Conv2dGeometry, rng: &mut R) -> Result<Self> {
        let chan_geom =
            Conv2dGeometry::new(1, geom.in_h, geom.in_w, geom.kernel, geom.stride, geom.padding)?;
        let kk = geom.kernel * geom.kernel;
        let bound = (6.0f32 / kk as f32).sqrt();
        Ok(DepthwiseConv2d {
            geom,
            chan_geom,
            weight: Tensor::rand_uniform(rng, &[geom.in_channels, kk], -bound, bound),
            bias: Tensor::zeros(&[geom.in_channels]),
            grad_weight: Tensor::zeros(&[geom.in_channels, kk]),
            grad_bias: Tensor::zeros(&[geom.in_channels]),
            cached_cols: Vec::new(),
            scratch: BufferPool::new(),
        })
    }

    /// The convolution geometry (channel count shared between in and out).
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Traffic counters of the internal scratch pool (test observability).
    pub fn scratch_stats(&self) -> PoolStats {
        self.scratch.stats()
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> &'static str {
        "depthwise_conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let g = self.geom;
        let batch = check_input_4d(input, g.in_channels, g.in_h, g.in_w)?;
        let plane = g.in_h * g.in_w;
        let out_plane = g.out_h * g.out_w;
        let kk = g.kernel * g.kernel;
        let mut out = Tensor::zeros(&[batch, g.in_channels, g.out_h, g.out_w]);
        for per_chan in self.cached_cols.drain(..) {
            for cols in per_chan {
                self.scratch.release_tensor(cols);
            }
        }
        for s in 0..batch {
            let mut per_chan = Vec::with_capacity(g.in_channels);
            for c in 0..g.in_channels {
                let off = (s * g.in_channels + c) * plane;
                let chan = &input.as_slice()[off..off + plane];
                let mut cols = self.scratch.fetch_zeroed(kk * out_plane); // (kk, out_plane)
                kernels::im2col(chan, &self.chan_geom, &mut cols);
                let w = &self.weight.as_slice()[c * kk..(c + 1) * kk];
                let b = self.bias.as_slice()[c];
                let dst_off = (s * g.in_channels + c) * out_plane;
                let dst = &mut out.as_mut_slice()[dst_off..dst_off + out_plane];
                for (j, d) in dst.iter_mut().enumerate() {
                    let mut acc = b;
                    for (t, &wv) in w.iter().enumerate() {
                        acc += wv * cols[t * out_plane + j];
                    }
                    *d = acc;
                }
                per_chan.push(Tensor::from_vec(cols, &[kk, out_plane])?);
            }
            self.cached_cols.push(per_chan);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        if self.cached_cols.is_empty() {
            return Err(NnError::NoForwardCache("depthwise_conv2d"));
        }
        let g = self.geom;
        let batch = check_input_4d(grad_out, g.in_channels, g.out_h, g.out_w)?;
        if batch != self.cached_cols.len() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                left: grad_out.dims().to_vec(),
                right: vec![self.cached_cols.len(), g.in_channels, g.out_h, g.out_w],
            }));
        }
        let plane = g.in_h * g.in_w;
        let out_plane = g.out_h * g.out_w;
        let kk = g.kernel * g.kernel;
        let mut grad_in = Tensor::zeros(&[batch, g.in_channels, g.in_h, g.in_w]);
        for s in 0..batch {
            for c in 0..g.in_channels {
                let go_off = (s * g.in_channels + c) * out_plane;
                let go = &grad_out.as_slice()[go_off..go_off + out_plane];
                let cols = &self.cached_cols[s][c];
                // dw_c[t] += Σ_j go[j] * cols[t, j]
                for t in 0..kk {
                    let row = &cols.as_slice()[t * out_plane..(t + 1) * out_plane];
                    let mut acc = 0.0f32;
                    for (&gv, &cv) in go.iter().zip(row.iter()) {
                        acc += gv * cv;
                    }
                    self.grad_weight.as_mut_slice()[c * kk + t] += acc;
                }
                self.grad_bias.as_mut_slice()[c] += go.iter().sum::<f32>();
                // dcols[t, j] = w[t] * go[j], scatter via col2im.
                let w = &self.weight.as_slice()[c * kk..(c + 1) * kk];
                let mut dcols = self.scratch.fetch_zeroed(kk * out_plane);
                for (t, &wv) in w.iter().enumerate() {
                    for (j, &gv) in go.iter().enumerate() {
                        dcols[t * out_plane + j] = wv * gv;
                    }
                }
                let dst_off = (s * g.in_channels + c) * plane;
                kernels::col2im(
                    &dcols,
                    &self.chan_geom,
                    &mut grad_in.as_mut_slice()[dst_off..dst_off + plane],
                );
                self.scratch.release(dcols);
            }
        }
        Ok(grad_in)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.scale(0.0);
        self.grad_bias.scale(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_tensor::rng::rng_for;

    fn geom(c: usize, hw: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(c, hw, hw, k, s, p).unwrap()
    }

    #[test]
    fn conv_forward_shape() {
        let mut rng = rng_for(1, &[]);
        let mut l = Conv2d::new(geom(3, 8, 3, 1, 1), 4, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        assert_eq!(l.out_channels(), 4);
    }

    #[test]
    fn conv_rejects_wrong_input() {
        let mut rng = rng_for(1, &[]);
        let mut l = Conv2d::new(geom(3, 8, 3, 1, 1), 4, &mut rng).unwrap();
        assert!(l.forward(&Tensor::zeros(&[2, 3, 4, 4])).is_err());
        assert!(l.forward(&Tensor::zeros(&[3, 8, 8])).is_err());
        assert!(Conv2d::new(geom(3, 8, 3, 1, 1), 0, &mut rng).is_err());
    }

    #[test]
    fn conv_1x1_equals_linear_mix() {
        // A 1×1 conv is a per-pixel linear map across channels.
        let mut rng = rng_for(2, &[]);
        let mut l = Conv2d::new(geom(2, 2, 1, 1, 0), 1, &mut rng).unwrap();
        l.params_mut()[0].as_mut_slice().copy_from_slice(&[2.0, -1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 2, 2])
            .unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[-8.0, -16.0, -24.0, -32.0]);
    }

    #[test]
    fn conv_bias_applied() {
        let mut rng = rng_for(3, &[]);
        let mut l = Conv2d::new(geom(1, 2, 1, 1, 0), 1, &mut rng).unwrap();
        l.params_mut()[0].as_mut_slice()[0] = 0.0;
        l.params_mut()[1].as_mut_slice()[0] = 3.5;
        let y = l.forward(&Tensor::zeros(&[1, 1, 2, 2])).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 3.5));
    }

    #[test]
    fn conv_backward_requires_forward() {
        let mut rng = rng_for(1, &[]);
        let mut l = Conv2d::new(geom(1, 4, 3, 1, 1), 2, &mut rng).unwrap();
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 2, 4, 4])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn conv_gradient_matches_numerical() {
        let mut rng = rng_for(5, &[]);
        let l = Conv2d::new(geom(2, 4, 3, 1, 1), 3, &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[2, 2, 4, 4], 17, 3e-2).unwrap();
    }

    #[test]
    fn conv_strided_gradient_matches_numerical() {
        let mut rng = rng_for(6, &[]);
        let l = Conv2d::new(geom(1, 5, 3, 2, 1), 2, &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[1, 1, 5, 5], 19, 3e-2).unwrap();
    }

    #[test]
    fn conv_scratch_pool_reaches_steady_state() {
        // Satellite: after warm-up, every training step must be served from
        // recycled buffers — reuses ≫ fresh allocations.
        let mut rng = rng_for(10, &[]);
        let mut l = Conv2d::new(geom(2, 4, 3, 1, 1), 3, &mut rng).unwrap();
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let go = Tensor::ones(&[2, 3, 4, 4]);
        for _ in 0..20 {
            l.forward(&x).unwrap();
            l.backward(&go).unwrap();
        }
        let stats = l.scratch_stats();
        assert!(
            stats.reused >= 10 * stats.allocated,
            "conv scratch should be pool-served at steady state: {stats:?}"
        );
    }

    #[test]
    fn depthwise_forward_shape_and_independence() {
        let mut rng = rng_for(7, &[]);
        let mut l = DepthwiseConv2d::new(geom(2, 4, 3, 1, 1), &mut rng).unwrap();
        // Zero the second channel's filter: its output must be its bias (0).
        for v in &mut l.params_mut()[0].as_mut_slice()[9..18] {
            *v = 0.0;
        }
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        for v in x.as_mut_slice().iter_mut() {
            *v = 1.0;
        }
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        assert!(y.as_slice()[16..32].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn depthwise_gradient_matches_numerical() {
        let mut rng = rng_for(8, &[]);
        let l = DepthwiseConv2d::new(geom(3, 4, 3, 1, 1), &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[2, 3, 4, 4], 23, 3e-2).unwrap();
    }

    #[test]
    fn depthwise_backward_requires_forward() {
        let mut rng = rng_for(9, &[]);
        let mut l = DepthwiseConv2d::new(geom(1, 4, 3, 1, 1), &mut rng).unwrap();
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 1, 4, 4])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn depthwise_scratch_pool_reaches_steady_state() {
        let mut rng = rng_for(11, &[]);
        let mut l = DepthwiseConv2d::new(geom(2, 4, 3, 1, 1), &mut rng).unwrap();
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let go = Tensor::ones(&[2, 2, 4, 4]);
        for _ in 0..20 {
            l.forward(&x).unwrap();
            l.backward(&go).unwrap();
        }
        let stats = l.scratch_stats();
        assert!(
            stats.reused >= 10 * stats.allocated,
            "depthwise scratch should be pool-served at steady state: {stats:?}"
        );
    }
}
