//! The [`Layer`] trait: hand-written reverse-mode differentiation.

use fedms_tensor::Tensor;

use crate::Result;

/// A differentiable network layer.
///
/// The contract is the classic cached-activation scheme:
///
/// 1. [`Layer::forward`] computes the output for a batch and caches whatever
///    it needs for the backward pass.
/// 2. [`Layer::backward`] consumes the gradient of the loss with respect to
///    the layer's *output*, **accumulates** gradients into the layer's
///    parameter-gradient buffers, and returns the gradient with respect to
///    the layer's *input*.
/// 3. [`Layer::zero_grads`] resets the accumulated gradients between
///    mini-batches.
///
/// [`Layer::backward_params`] is step 2 without the returned input
/// gradient, for the first layer of a network, whose input gradient
/// nobody reads. It must accumulate exactly the parameter gradients
/// [`Layer::backward`] would, bit for bit, and fail exactly when
/// `backward` would.
///
/// Parameters and their gradients are exposed positionally; position `i` of
/// [`Layer::params`] corresponds to position `i` of [`Layer::grads`] and of
/// [`Layer::params_mut`]. Layers without parameters return empty vectors.
///
/// The trait is object-safe: models are `Vec<Box<dyn Layer>>`.
pub trait Layer: Send {
    /// A short human-readable layer name used in error messages.
    fn name(&self) -> &'static str;

    /// Computes the layer output for `input`, caching activations needed by
    /// [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Returns an error if `input` has the wrong shape for this layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::NoForwardCache`] if called before
    /// [`Layer::forward`], or a tensor error if `grad_out` has the wrong
    /// shape.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for parameter gradients only: accumulates the
    /// same parameter gradients, bit for bit, but need not form the
    /// gradient w.r.t. the input. The default runs `backward` and drops
    /// its result; layers whose input gradient costs real work (a GEMM,
    /// a `col2im`) override it, and containers forward it to their first
    /// child after a full backward through the rest.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward(grad_out).map(drop)
    }

    /// The layer's trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable access to the trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// The accumulated parameter gradients, aligned with [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Resets all accumulated parameter gradients to zero.
    fn zero_grads(&mut self);

    /// Total number of scalar parameters in this layer.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Switches between training and inference behaviour. Most layers are
    /// mode-free (default no-op); layers with distinct behaviours
    /// (e.g. [`crate::BatchNorm2d`]'s batch statistics vs running
    /// statistics) override this. Containers must propagate the call.
    fn set_training(&mut self, _training: bool) {}
}
