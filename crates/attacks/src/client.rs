//! Client-side Byzantine attacks — the paper's declared future work
//! ("Considering the FEEL problem with both Byzantine PSs and clients will
//! be our work in the future"), implemented here as an extension.
//!
//! A Byzantine *client* trains normally but tampers with the local model it
//! uploads in the aggregation stage. Combined with a robust server-side
//! aggregation rule (see `fedms-sim`'s server rule), Fed-MS extends to the
//! dual threat model.

use std::fmt;

use fedms_tensor::rng::derive_seed;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::kind::{arg, arity, split_params};
use crate::{AttackError, Result};

/// What a Byzantine client knows when it tampers with its upload.
#[derive(Debug, Clone, Copy)]
pub struct ClientAttackContext<'a> {
    round: usize,
    client_id: usize,
    honest_model: &'a Tensor,
    global_model: Option<&'a Tensor>,
}

impl<'a> ClientAttackContext<'a> {
    /// Builds a context: `honest_model` is the client's true post-training
    /// local model; `global_model` is the filtered global model the client
    /// started the round from (absent in round 0).
    pub fn new(
        round: usize,
        client_id: usize,
        honest_model: &'a Tensor,
        global_model: Option<&'a Tensor>,
    ) -> Self {
        ClientAttackContext { round, client_id, honest_model, global_model }
    }

    /// The current round.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The attacking client's id.
    pub fn client_id(&self) -> usize {
        self.client_id
    }

    /// The true local model the client would honestly upload.
    pub fn honest_model(&self) -> &Tensor {
        self.honest_model
    }

    /// The round's starting global model, if any.
    pub fn global_model(&self) -> Option<&Tensor> {
        self.global_model
    }
}

/// A Byzantine behaviour mounted on an end client: tampers with the model
/// uploaded to the parameter server.
pub trait ClientAttack: Send + Sync {
    /// Short identifier used in experiment output.
    fn name(&self) -> &'static str;

    /// Produces the tampered upload.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError`] for unusable contexts; well-formed contexts
    /// never fail.
    fn tamper_upload(&self, ctx: &ClientAttackContext<'_>, rng: &mut StdRng) -> Result<Tensor>;
}

/// Serializable client-attack selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClientAttackKind {
    /// Upload `−scale · w` (sign flipping).
    SignFlip {
        /// Negation magnitude.
        scale: f32,
    },
    /// Upload the honest model plus Gaussian noise.
    Noise {
        /// Noise standard deviation.
        std: f32,
    },
    /// Upload uniform garbage from `[lo, hi)`.
    Random {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Model poisoning: upload `g + factor · (w − g)`, amplifying the
    /// client's own (possibly poisoned) update direction `w − g` relative
    /// to the global model `g`.
    Amplify {
        /// Update amplification factor (honest = 1).
        factor: f32,
    },
    /// Data poisoning: the client trains on label-rotated data (class
    /// `c → c + offset mod classes`) and uploads the honestly trained —
    /// but poisoned — model. The upload itself is untampered; the harness
    /// rotates the client's shard labels.
    LabelFlip {
        /// Label rotation offset (must be non-zero to be an attack).
        offset: usize,
    },
}

impl ClientAttackKind {
    /// Every client attack at its default parameters, in listing order. A
    /// bare name parses to its entry here.
    pub const DEFAULTS: [ClientAttackKind; 5] = [
        ClientAttackKind::SignFlip { scale: 1.0 },
        ClientAttackKind::Noise { std: 1.0 },
        ClientAttackKind::Random { lo: -10.0, hi: 10.0 },
        ClientAttackKind::Amplify { factor: 10.0 },
        ClientAttackKind::LabelFlip { offset: 1 },
    ];

    /// The attack's name in the `name[:p…]` grammar.
    pub fn label(&self) -> &'static str {
        match self {
            ClientAttackKind::SignFlip { .. } => "sign_flip",
            ClientAttackKind::Noise { .. } => "noise",
            ClientAttackKind::Random { .. } => "random",
            ClientAttackKind::Amplify { .. } => "amplify",
            ClientAttackKind::LabelFlip { .. } => "label_flip",
        }
    }

    /// Parses `name[:p…]` with all parameters or none, like
    /// [`crate::AttackKind::parse`] (e.g. `sign_flip`, `amplify:5`).
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown attack or a bad parameter list.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let (name, p) = split_params(s);
        let kind = Self::DEFAULTS
            .into_iter()
            .find(|k| k.label() == name)
            .ok_or_else(|| format!("unknown client attack `{name}`"))?;
        Ok(match (kind, p.as_slice()) {
            (kind, []) => kind,
            (Self::SignFlip { .. }, [scale]) => Self::SignFlip { scale: arg(scale)? },
            (Self::Noise { .. }, [std]) => Self::Noise { std: arg(std)? },
            (Self::Random { .. }, [lo, hi]) => Self::Random { lo: arg(lo)?, hi: arg(hi)? },
            (Self::Amplify { .. }, [factor]) => Self::Amplify { factor: arg(factor)? },
            (Self::LabelFlip { .. }, [offset]) => Self::LabelFlip { offset: arg(offset)? },
            _ => return Err(arity(s, &kind)),
        })
    }

    /// Instantiates the live attack.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadParameter`] for invalid parameters.
    pub fn build(&self) -> Result<Box<dyn ClientAttack>> {
        match *self {
            ClientAttackKind::SignFlip { scale } => {
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(AttackError::BadParameter(format!("bad scale {scale}")));
                }
                Ok(Box::new(ClientSignFlip { scale }))
            }
            ClientAttackKind::Noise { std } => {
                if !(std.is_finite() && std >= 0.0) {
                    return Err(AttackError::BadParameter(format!("bad std {std}")));
                }
                Ok(Box::new(ClientNoise { std }))
            }
            ClientAttackKind::Random { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                    return Err(AttackError::BadParameter(format!("bad range [{lo}, {hi})")));
                }
                Ok(Box::new(ClientRandom { lo, hi }))
            }
            ClientAttackKind::Amplify { factor } => {
                if !factor.is_finite() {
                    return Err(AttackError::BadParameter(format!("bad factor {factor}")));
                }
                Ok(Box::new(ClientAmplify { factor }))
            }
            ClientAttackKind::LabelFlip { offset } => {
                if offset == 0 {
                    return Err(AttackError::BadParameter(
                        "label flip with offset 0 is honest behaviour".into(),
                    ));
                }
                Ok(Box::new(ClientLabelFlip))
            }
        }
    }

    /// The label rotation this attack requires the harness to apply to the
    /// client's training shard (`None` for pure upload tampering).
    pub fn data_poison_offset(&self) -> Option<usize> {
        match *self {
            ClientAttackKind::LabelFlip { offset } => Some(offset),
            _ => None,
        }
    }
}

impl fmt::Display for ClientAttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())?;
        match *self {
            ClientAttackKind::SignFlip { scale } => write!(f, ":{scale}"),
            ClientAttackKind::Noise { std } => write!(f, ":{std}"),
            ClientAttackKind::Random { lo, hi } => write!(f, ":{lo}:{hi}"),
            ClientAttackKind::Amplify { factor } => write!(f, ":{factor}"),
            ClientAttackKind::LabelFlip { offset } => write!(f, ":{offset}"),
        }
    }
}

/// The upload side of [`ClientAttackKind::LabelFlip`]: an honest upload of
/// the (data-poisoned) local model.
#[derive(Debug, Clone, Copy)]
struct ClientLabelFlip;

impl ClientAttack for ClientLabelFlip {
    fn name(&self) -> &'static str {
        "client_label_flip"
    }

    fn tamper_upload(&self, ctx: &ClientAttackContext<'_>, _rng: &mut StdRng) -> Result<Tensor> {
        Ok(ctx.honest_model().clone())
    }
}

#[derive(Debug, Clone, Copy)]
struct ClientSignFlip {
    scale: f32,
}

impl ClientAttack for ClientSignFlip {
    fn name(&self) -> &'static str {
        "client_sign_flip"
    }

    fn tamper_upload(&self, ctx: &ClientAttackContext<'_>, _rng: &mut StdRng) -> Result<Tensor> {
        Ok(ctx.honest_model().scaled(-self.scale))
    }
}

#[derive(Debug, Clone, Copy)]
struct ClientNoise {
    std: f32,
}

impl ClientAttack for ClientNoise {
    fn name(&self) -> &'static str {
        "client_noise"
    }

    fn tamper_upload(&self, ctx: &ClientAttackContext<'_>, rng: &mut StdRng) -> Result<Tensor> {
        let mut out = ctx.honest_model().clone();
        if self.std > 0.0 {
            // Per-(round, client) stream keeps the tampering independent of
            // the caller's RNG phase.
            let seed = derive_seed(rng_seed_of(rng), &[ctx.round() as u64, ctx.client_id() as u64]);
            let mut stream = StdRng::seed_from_u64(seed);
            let noise = Tensor::randn(&mut stream, out.dims(), 0.0, self.std);
            out.add_inplace(&noise)?;
        }
        Ok(out)
    }
}

/// Draws a u64 from the caller RNG to root a derived stream; keeps the
/// trait signature uniform while still consuming caller entropy.
fn rng_seed_of(rng: &mut StdRng) -> u64 {
    use rand::Rng;
    rng.gen()
}

#[derive(Debug, Clone, Copy)]
struct ClientRandom {
    lo: f32,
    hi: f32,
}

impl ClientAttack for ClientRandom {
    fn name(&self) -> &'static str {
        "client_random"
    }

    fn tamper_upload(&self, ctx: &ClientAttackContext<'_>, rng: &mut StdRng) -> Result<Tensor> {
        Ok(Tensor::rand_uniform(rng, ctx.honest_model().dims(), self.lo, self.hi))
    }
}

#[derive(Debug, Clone, Copy)]
struct ClientAmplify {
    factor: f32,
}

impl ClientAttack for ClientAmplify {
    fn name(&self) -> &'static str {
        "client_amplify"
    }

    fn tamper_upload(&self, ctx: &ClientAttackContext<'_>, _rng: &mut StdRng) -> Result<Tensor> {
        let w = ctx.honest_model();
        let Some(g) = ctx.global_model() else {
            return Ok(w.clone());
        };
        // g + factor · (w − g)
        let mut out = g.clone();
        let update = w.sub(g)?;
        out.axpy(self.factor, &update)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_tensor::rng::rng_for;

    fn ctx_fixture<'a>(w: &'a Tensor, g: Option<&'a Tensor>) -> ClientAttackContext<'a> {
        ClientAttackContext::new(3, 1, w, g)
    }

    #[test]
    fn kind_validation() {
        assert!(ClientAttackKind::SignFlip { scale: 0.0 }.build().is_err());
        assert!(ClientAttackKind::Noise { std: -1.0 }.build().is_err());
        assert!(ClientAttackKind::Random { lo: 1.0, hi: 0.0 }.build().is_err());
        assert!(ClientAttackKind::Amplify { factor: f32::NAN }.build().is_err());
        for kind in [
            ClientAttackKind::SignFlip { scale: 1.0 },
            ClientAttackKind::Noise { std: 0.5 },
            ClientAttackKind::Random { lo: -1.0, hi: 1.0 },
            ClientAttackKind::Amplify { factor: 10.0 },
        ] {
            assert!(kind.build().is_ok());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn sign_flip_negates() {
        let w = Tensor::from_slice(&[1.0, -2.0]);
        let atk = ClientAttackKind::SignFlip { scale: 2.0 }.build().unwrap();
        let out = atk.tamper_upload(&ctx_fixture(&w, None), &mut rng_for(0, &[])).unwrap();
        assert_eq!(out.as_slice(), &[-2.0, 4.0]);
    }

    #[test]
    fn noise_perturbs() {
        let w = Tensor::zeros(&[64]);
        let atk = ClientAttackKind::Noise { std: 1.0 }.build().unwrap();
        let out = atk.tamper_upload(&ctx_fixture(&w, None), &mut rng_for(0, &[])).unwrap();
        assert!(out.norm_l2() > 1.0);
        let zero = ClientAttackKind::Noise { std: 0.0 }.build().unwrap();
        let same = zero.tamper_upload(&ctx_fixture(&w, None), &mut rng_for(0, &[])).unwrap();
        assert_eq!(same, w);
    }

    #[test]
    fn random_ignores_model() {
        let w = Tensor::full(&[8], 100.0);
        let atk = ClientAttackKind::Random { lo: -1.0, hi: 1.0 }.build().unwrap();
        let out = atk.tamper_upload(&ctx_fixture(&w, None), &mut rng_for(0, &[])).unwrap();
        assert!(out.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn amplify_scales_update() {
        let g = Tensor::from_slice(&[1.0, 1.0]);
        let w = Tensor::from_slice(&[2.0, 0.0]); // update (1, −1)
        let atk = ClientAttackKind::Amplify { factor: 10.0 }.build().unwrap();
        let out = atk.tamper_upload(&ctx_fixture(&w, Some(&g)), &mut rng_for(0, &[])).unwrap();
        assert_eq!(out.as_slice(), &[11.0, -9.0]);
        // Without a global model the honest model passes through.
        let fallback = atk.tamper_upload(&ctx_fixture(&w, None), &mut rng_for(0, &[])).unwrap();
        assert_eq!(fallback, w);
    }

    #[test]
    fn label_flip_kind() {
        assert!(ClientAttackKind::LabelFlip { offset: 0 }.build().is_err());
        let kind = ClientAttackKind::LabelFlip { offset: 1 };
        assert_eq!(kind.data_poison_offset(), Some(1));
        assert_eq!(ClientAttackKind::SignFlip { scale: 1.0 }.data_poison_offset(), None);
        // The upload side is honest pass-through.
        let atk = kind.build().unwrap();
        let w = Tensor::from_slice(&[1.0, 2.0]);
        let out = atk.tamper_upload(&ctx_fixture(&w, None), &mut rng_for(0, &[])).unwrap();
        assert_eq!(out, w);
    }

    #[test]
    fn context_accessors() {
        let w = Tensor::zeros(&[2]);
        let g = Tensor::ones(&[2]);
        let ctx = ClientAttackContext::new(5, 7, &w, Some(&g));
        assert_eq!(ctx.round(), 5);
        assert_eq!(ctx.client_id(), 7);
        assert_eq!(ctx.honest_model(), &w);
        assert_eq!(ctx.global_model(), Some(&g));
    }
}
