//! `Layer::backward_params` against `Layer::backward`: the parameter-only
//! pass must accumulate the very same gradients, bit for bit, fail the
//! same way before any forward, and leave `NeuralNet::train_batch` on the
//! trajectory of an explicit forward/backward/step loop.

use fedms_nn::*;
use fedms_tensor::rng::rng_for;
use fedms_tensor::{Conv2dGeometry, Tensor};

fn input(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(&mut rng_for(seed, &[0x1A]), dims, 0.0, 1.0)
}

fn tiny_nano(seed: u64) -> MobileNetNano {
    let cfg = MobileNetNanoConfig {
        in_channels: 1,
        in_h: 4,
        in_w: 4,
        stem_channels: 4,
        blocks: vec![(2, 4, 1)],
        num_classes: 4,
    };
    MobileNetNano::new(cfg, seed).unwrap()
}

/// A chain whose first layer has no parameters, so `backward_params`
/// reaches the first `Linear` through a full `backward` of the `ReLU`.
fn relu_first(seed: u64) -> Sequential {
    let mut rng = rng_for(seed, &[0x5E]);
    Sequential::new()
        .with(ReLU::new())
        .with(Linear::new(6, 5, &mut rng).unwrap())
        .with(ReLU::new())
        .with(Linear::new(5, 3, &mut rng).unwrap())
}

fn bits(tensors: Vec<&Tensor>) -> Vec<Vec<u32>> {
    tensors.iter().map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
}

/// Runs two forward/backward passes through `full` and two forward/
/// `backward_params` passes through `lean` (an identical twin), so the
/// check covers accumulation as well as a single pass.
fn assert_same_grads(mut full: impl Layer, mut lean: impl Layer, dims: &[usize]) {
    assert_eq!(bits(full.params()), bits(lean.params()), "twins must start equal");
    for pass in 0..2u64 {
        let x = input(dims, pass);
        let y_full = full.forward(&x).unwrap();
        let y_lean = lean.forward(&x).unwrap();
        assert_eq!(y_full, y_lean);
        let g = input(y_full.dims(), 100 + pass);
        full.backward(&g).unwrap();
        lean.backward_params(&g).unwrap();
        assert_eq!(bits(full.grads()), bits(lean.grads()), "{} pass {pass}", full.name());
    }
}

#[test]
fn linear_accumulates_the_backward_gradients() {
    let twin = || Linear::new(192, 64, &mut rng_for(3, &[])).unwrap();
    assert_same_grads(twin(), twin(), &[32, 192]);
}

#[test]
fn conv2d_accumulates_the_backward_gradients() {
    let geom = Conv2dGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
    let twin = || Conv2d::new(geom, 8, &mut rng_for(3, &[])).unwrap();
    assert_same_grads(twin(), twin(), &[2, 3, 8, 8]);
}

#[test]
fn paper_mlp_accumulates_the_backward_gradients() {
    let twin = || Mlp::new(&[192, 64, 10], 4).unwrap();
    assert_same_grads(twin(), twin(), &[32, 192]);
}

#[test]
fn mobilenet_nano_accumulates_the_backward_gradients() {
    assert_same_grads(tiny_nano(5), tiny_nano(5), &[3, 1, 4, 4]);
}

#[test]
fn parameter_free_first_layer_accumulates_the_backward_gradients() {
    assert_same_grads(relu_first(6), relu_first(6), &[4, 6]);
}

#[test]
fn backward_params_before_forward_is_an_error() {
    let mut linear = Linear::new(4, 3, &mut rng_for(7, &[])).unwrap();
    let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 1).unwrap();
    let mut conv = Conv2d::new(geom, 2, &mut rng_for(7, &[])).unwrap();
    let mut mlp = Mlp::new(&[4, 3, 2], 7).unwrap();
    let mut nano = tiny_nano(7);
    let mut seq = relu_first(7);
    let cases: [(&mut dyn Layer, Tensor); 5] = [
        (&mut linear, Tensor::zeros(&[1, 3])),
        (&mut conv, Tensor::zeros(&[1, 2, 4, 4])),
        (&mut mlp, Tensor::zeros(&[1, 2])),
        (&mut nano, Tensor::zeros(&[1, 4])),
        (&mut seq, Tensor::zeros(&[1, 3])),
    ];
    for (layer, g) in cases {
        let err = layer.backward_params(&g).unwrap_err();
        assert!(matches!(err, NnError::NoForwardCache(_)), "{}: {err}", layer.name());
    }
}

/// `train_batch` (which now runs `backward_params`) against the loop it
/// replaced, written out: same losses, same parameters, bit for bit.
fn assert_train_batch_matches_explicit_loop(
    mut fast: impl Layer,
    mut slow: impl Layer,
    dims: &[usize],
) {
    let classes = {
        let probe = slow.forward(&input(dims, 0)).unwrap();
        probe.dims()[1]
    };
    let mut fast_opt = Sgd::new(LrSchedule::Constant(0.1)).unwrap();
    let mut slow_opt = Sgd::new(LrSchedule::Constant(0.1)).unwrap();
    for step in 0..5u64 {
        let x = input(dims, 10 + step);
        let labels: Vec<usize> = (0..dims[0]).map(|i| (i + step as usize) % classes).collect();
        let fast_loss = fast.train_batch(&x, &labels, &mut fast_opt).unwrap();
        slow.set_training(true);
        slow.zero_grads();
        let logits = slow.forward(&x).unwrap();
        let loss = softmax_cross_entropy(&logits, &labels).unwrap();
        slow.backward(&loss.grad_logits).unwrap();
        slow_opt.step(&mut slow).unwrap();
        assert_eq!(fast_loss.to_bits(), loss.loss.to_bits(), "{} step {step}", fast.name());
        assert_eq!(bits(fast.params()), bits(slow.params()), "{} step {step}", fast.name());
    }
}

#[test]
fn train_batch_matches_an_explicit_backward_loop() {
    let mlp = || Mlp::new(&[192, 64, 10], 8).unwrap();
    assert_train_batch_matches_explicit_loop(mlp(), mlp(), &[32, 192]);
    assert_train_batch_matches_explicit_loop(tiny_nano(9), tiny_nano(9), &[3, 1, 4, 4]);
}
