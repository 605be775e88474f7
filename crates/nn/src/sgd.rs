//! Mini-batch stochastic gradient descent with the paper's step-size family.

use serde::{Deserialize, Serialize};

use crate::{Layer, NnError, Result};

/// Learning-rate schedule.
///
/// The Fed-MS convergence proof (Theorem 1) requires the decaying schedule
/// `η_t = φ/(γ+t)` with `φ = 2/μ` and `γ = max(8L/μ, E)`; that family is
/// [`LrSchedule::InverseDecay`]. The experiments in Section VI use the
/// standard near-constant rates of practical FL, covered by
/// [`LrSchedule::Constant`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// `η_t = phi / (gamma + t)`, the schedule assumed by Theorem 1.
    InverseDecay {
        /// Numerator `φ` (the proof takes `φ = 2/μ`).
        phi: f32,
        /// Offset `γ` (the proof takes `γ = max(8L/μ, E)`).
        gamma: f32,
    },
    /// Staircase decay: `η_t = initial · factor^⌊t/every⌋`.
    StepDecay {
        /// Rate at `t = 0`.
        initial: f32,
        /// Multiplicative factor per stage (in `(0, 1]` for decay).
        factor: f32,
        /// Steps per stage.
        every: usize,
    },
    /// Cosine annealing from `initial` to `floor` over `horizon` steps,
    /// constant at `floor` afterwards.
    Cosine {
        /// Rate at `t = 0`.
        initial: f32,
        /// Final rate.
        floor: f32,
        /// Annealing horizon in steps.
        horizon: usize,
    },
}

impl LrSchedule {
    /// The learning rate at global step `t` (0-based).
    pub fn lr_at(&self, t: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::InverseDecay { phi, gamma } => phi / (gamma + t as f32),
            LrSchedule::StepDecay { initial, factor, every } => {
                initial * factor.powi((t / every.max(1)) as i32)
            }
            LrSchedule::Cosine { initial, floor, horizon } => {
                if horizon == 0 || t >= horizon {
                    floor
                } else {
                    let progress = t as f32 / horizon as f32;
                    floor
                        + 0.5 * (initial - floor) * (1.0 + (std::f32::consts::PI * progress).cos())
                }
            }
        }
    }

    /// Validates that the schedule produces positive, finite rates.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for non-positive or non-finite values.
    pub fn validate(&self) -> Result<()> {
        let probe = self.lr_at(0);
        if !(probe.is_finite() && probe > 0.0) {
            return Err(NnError::BadConfig(format!("learning rate at t=0 is {probe}")));
        }
        Ok(())
    }
}

/// Plain SGD: `p ← p − η_t · ∇p`, with optional global gradient-norm
/// clipping for stability under f32 arithmetic.
///
/// # Example
///
/// ```
/// use fedms_nn::{LrSchedule, Sgd};
///
/// let mut opt = Sgd::new(LrSchedule::Constant(0.1))?;
/// assert_eq!(opt.current_lr(), 0.1);
/// # Ok::<(), fedms_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    schedule: LrSchedule,
    step: usize,
    clip_norm: Option<f32>,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimiser with the given schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the schedule is invalid.
    pub fn new(schedule: LrSchedule) -> Result<Self> {
        schedule.validate()?;
        Ok(Sgd {
            schedule,
            step: 0,
            clip_norm: None,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        })
    }

    /// Enables heavy-ball momentum: `v ← m·v + ∇p`, `p ← p − η·v`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] unless `0 ≤ momentum < 1`.
    pub fn with_momentum(mut self, momentum: f32) -> Result<Self> {
        if !(momentum.is_finite() && (0.0..1.0).contains(&momentum)) {
            return Err(NnError::BadConfig(format!("momentum must be in [0, 1), got {momentum}")));
        }
        self.momentum = momentum;
        Ok(self)
    }

    /// Enables decoupled L2 weight decay: the effective gradient becomes
    /// `∇p + weight_decay · p`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for negative or non-finite values.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Result<Self> {
        if !(weight_decay.is_finite() && weight_decay >= 0.0) {
            return Err(NnError::BadConfig(format!(
                "weight decay must be non-negative, got {weight_decay}"
            )));
        }
        self.weight_decay = weight_decay;
        Ok(self)
    }

    /// Enables global gradient-norm clipping at `max_norm`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for a non-positive bound.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Result<Self> {
        if !(max_norm.is_finite() && max_norm > 0.0) {
            return Err(NnError::BadConfig(format!("clip norm must be positive, got {max_norm}")));
        }
        self.clip_norm = Some(max_norm);
        Ok(self)
    }

    /// The learning rate that the *next* [`Sgd::step`] will use.
    pub fn current_lr(&self) -> f32 {
        self.schedule.lr_at(self.step)
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Rewinds or advances the internal step counter (used when a client
    /// resumes from a filtered global model at a given global step).
    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    /// Applies one SGD update to every parameter of `model` from its
    /// accumulated gradients, then advances the step counter.
    ///
    /// Does **not** zero the gradients; callers zero before accumulating.
    ///
    /// # Errors
    ///
    /// Currently infallible for well-formed layers; reserved for future
    /// schedule validation.
    pub fn step<M: Layer + ?Sized>(&mut self, model: &mut M) -> Result<()> {
        let lr = self.current_lr();
        let scale = match self.clip_norm {
            Some(max_norm) => {
                let total: f32 = model.grads().iter().map(|g| g.norm_l2_sq()).sum::<f32>().sqrt();
                if total > max_norm {
                    max_norm / total
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let grads: Vec<Vec<f32>> = model.grads().iter().map(|g| g.as_slice().to_vec()).collect();
        if self.momentum > 0.0 && self.velocity.len() != grads.len() {
            self.velocity = grads.iter().map(|g| vec![0.0f32; g.len()]).collect();
        }
        for (pi, (param, grad)) in model.params_mut().into_iter().zip(grads.iter()).enumerate() {
            let velocity =
                if self.momentum > 0.0 { Some(self.velocity[pi].as_mut_slice()) } else { None };
            fedms_tensor::kernels::sgd_update(
                param.as_mut_slice(),
                grad,
                lr,
                scale,
                self.weight_decay,
                self.momentum,
                velocity,
            );
        }
        self.step += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use fedms_tensor::rng::rng_for;
    use fedms_tensor::Tensor;

    #[test]
    fn schedules_evaluate() {
        assert_eq!(LrSchedule::Constant(0.5).lr_at(100), 0.5);
        let d = LrSchedule::InverseDecay { phi: 2.0, gamma: 8.0 };
        assert_eq!(d.lr_at(0), 0.25);
        assert_eq!(d.lr_at(2), 0.2);
    }

    #[test]
    fn inverse_decay_is_non_increasing_and_halves_slowly() {
        // The proof needs η_t ≤ 2·η_{t+E}; verify for E = 3 over a horizon.
        let d = LrSchedule::InverseDecay { phi: 2.0, gamma: 8.0 };
        for t in 0..100 {
            assert!(d.lr_at(t + 1) <= d.lr_at(t));
            assert!(d.lr_at(t) <= 2.0 * d.lr_at(t + 3));
        }
    }

    #[test]
    fn step_decay_staircase() {
        let s = LrSchedule::StepDecay { initial: 1.0, factor: 0.5, every: 10 };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(25), 0.25);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn cosine_anneals_to_floor() {
        let s = LrSchedule::Cosine { initial: 1.0, floor: 0.1, horizon: 100 };
        assert!((s.lr_at(0) - 1.0).abs() < 1e-6);
        assert!((s.lr_at(100) - 0.1).abs() < 1e-6);
        assert!((s.lr_at(1000) - 0.1).abs() < 1e-6);
        let mid = s.lr_at(50);
        assert!((mid - 0.55).abs() < 1e-3, "halfway = mean of endpoints, got {mid}");
        for t in 0..100 {
            assert!(s.lr_at(t + 1) <= s.lr_at(t) + 1e-6);
        }
        // Degenerate horizon is the floor everywhere.
        let flat = LrSchedule::Cosine { initial: 1.0, floor: 0.2, horizon: 0 };
        assert_eq!(flat.lr_at(0), 0.2);
    }

    #[test]
    fn validation_rejects_bad_rates() {
        assert!(LrSchedule::Constant(0.0).validate().is_err());
        assert!(LrSchedule::Constant(-1.0).validate().is_err());
        assert!(LrSchedule::Constant(f32::NAN).validate().is_err());
        assert!(Sgd::new(LrSchedule::Constant(0.0)).is_err());
        assert!(Sgd::new(LrSchedule::Constant(0.1)).unwrap().with_clip_norm(-1.0).is_err());
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut rng = rng_for(1, &[]);
        let mut l = Linear::new(2, 1, &mut rng).unwrap();
        let before = l.params()[0].as_slice().to_vec();
        let x = Tensor::ones(&[1, 2]);
        let y = l.forward(&x).unwrap();
        l.zero_grads();
        l.backward(&y.map(|_| 1.0)).unwrap(); // d loss/d out = 1 → dW = x = 1
        let mut opt = Sgd::new(LrSchedule::Constant(0.1)).unwrap();
        opt.step(&mut l).unwrap();
        let after = l.params()[0].as_slice().to_vec();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a - 0.1).abs() < 1e-6, "each weight should decrease by lr*1");
        }
        assert_eq!(opt.steps_taken(), 1);
    }

    #[test]
    fn step_counter_advances_schedule() {
        let mut opt = Sgd::new(LrSchedule::InverseDecay { phi: 1.0, gamma: 1.0 }).unwrap();
        assert_eq!(opt.current_lr(), 1.0);
        opt.set_step(4);
        assert_eq!(opt.current_lr(), 0.2);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        // Constant unit gradient: after k steps with momentum m the update
        // is lr·(1 + m + m² + …) per step — strictly larger than plain SGD.
        let mut rng = rng_for(3, &[]);
        let mut plain_model = Linear::new(1, 1, &mut rng).unwrap();
        let mut momentum_model = plain_model.clone();
        let mut plain = Sgd::new(LrSchedule::Constant(0.1)).unwrap();
        let mut with_m = Sgd::new(LrSchedule::Constant(0.1)).unwrap().with_momentum(0.9).unwrap();
        let x = Tensor::ones(&[1, 1]);
        for _ in 0..5 {
            for (model, opt) in [(&mut plain_model, &mut plain), (&mut momentum_model, &mut with_m)]
            {
                model.forward(&x).unwrap();
                model.zero_grads();
                model.backward(&Tensor::ones(&[1, 1])).unwrap();
                opt.step(model).unwrap();
            }
        }
        let moved_plain = plain_model.params()[0].as_slice()[0];
        let moved_momentum = momentum_model.params()[0].as_slice()[0];
        assert!(
            moved_momentum < moved_plain,
            "momentum should have travelled further downhill: {moved_momentum} vs {moved_plain}"
        );
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut rng = rng_for(4, &[]);
        let mut l = Linear::new(2, 2, &mut rng).unwrap();
        let before = l.params()[0].norm_l2();
        let mut opt = Sgd::new(LrSchedule::Constant(0.1)).unwrap().with_weight_decay(0.5).unwrap();
        // Zero gradients: the only force is decay.
        l.zero_grads();
        for _ in 0..10 {
            opt.step(&mut l).unwrap();
        }
        let after = l.params()[0].norm_l2();
        assert!(after < before * 0.7, "decay should shrink weights: {before} → {after}");
    }

    #[test]
    fn momentum_and_decay_validation() {
        let base = || Sgd::new(LrSchedule::Constant(0.1)).unwrap();
        assert!(base().with_momentum(1.0).is_err());
        assert!(base().with_momentum(-0.1).is_err());
        assert!(base().with_momentum(0.9).is_ok());
        assert!(base().with_weight_decay(-0.1).is_err());
        assert!(base().with_weight_decay(f32::NAN).is_err());
        assert!(base().with_weight_decay(1e-4).is_ok());
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut rng = rng_for(2, &[]);
        let mut l = Linear::new(4, 4, &mut rng).unwrap();
        let before: Vec<f32> = l.params()[0].as_slice().to_vec();
        let x = Tensor::full(&[1, 4], 100.0);
        let y = l.forward(&x).unwrap();
        l.zero_grads();
        l.backward(&y).unwrap();
        let mut opt = Sgd::new(LrSchedule::Constant(1.0)).unwrap().with_clip_norm(0.5).unwrap();
        opt.step(&mut l).unwrap();
        let moved: f32 = l.params()[0]
            .as_slice()
            .iter()
            .zip(before.iter())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(moved <= 0.5 + 1e-4, "clipped update moved {moved}");
    }
}
