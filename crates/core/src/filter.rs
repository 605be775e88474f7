//! Serializable selection of the client-side model filter `Def(·)`.

use fedms_aggregation::{
    AdaptiveTrimmedMean, AggregationRule, Bulyan, CenteredClip, CoordinateMedian, GeometricMedian,
    Krum, Mean, MultiKrum, NormBound, TrimmedMean,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The defence each client applies to the `P` received global models.
///
/// [`FilterKind::TrimmedMean`] with `beta = B/P` is Fed-MS;
/// [`FilterKind::Mean`] is the undefended Vanilla-FL baseline; the rest are
/// ablation filters from the Byzantine-robust-FL literature the paper cites.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FilterKind {
    /// Plain averaging (Vanilla FL).
    Mean,
    /// The paper's coordinate-wise β-trimmed mean.
    TrimmedMean {
        /// Trim rate β ∈ [0, 0.5).
        beta: f64,
    },
    /// Fault-tolerant trimmed mean discarding a fixed `trim = B` entries
    /// per side of however many models arrive (effective rate `B/P'`).
    /// Degrades gracefully when crash/omission faults shrink the sample;
    /// errors once `P' ≤ 2B`.
    AdaptiveTrimmedMean {
        /// Per-side trim count (set to the Byzantine bound `B`).
        trim: usize,
    },
    /// Coordinate-wise median.
    Median,
    /// Krum selection assuming `f` Byzantine inputs.
    Krum {
        /// Assumed Byzantine count.
        f: usize,
    },
    /// Multi-Krum: average the `m` best-scored of the inputs.
    MultiKrum {
        /// Assumed Byzantine count.
        f: usize,
        /// Number of models averaged.
        m: usize,
    },
    /// Smoothed geometric median (Weiszfeld).
    GeometricMedian,
    /// Bulyan: Krum selection followed by coordinate-wise trimming.
    Bulyan {
        /// Assumed Byzantine count.
        f: usize,
    },
    /// Iterative centered clipping with radius τ.
    CenteredClip {
        /// Clipping radius.
        tau: f32,
    },
    /// Norm-bounded averaging (cap at `factor ×` the median norm).
    NormBound {
        /// Cap factor over the median model norm.
        factor: f32,
    },
}

impl FilterKind {
    /// Every filter at its default parameters, in listing order. A bare
    /// name parses to its entry here.
    pub const DEFAULTS: [FilterKind; 10] = [
        FilterKind::Mean,
        FilterKind::TrimmedMean { beta: 0.2 },
        FilterKind::AdaptiveTrimmedMean { trim: 1 },
        FilterKind::Median,
        FilterKind::Krum { f: 1 },
        FilterKind::MultiKrum { f: 1, m: 2 },
        FilterKind::GeometricMedian,
        FilterKind::Bulyan { f: 1 },
        FilterKind::CenteredClip { tau: 1.0 },
        FilterKind::NormBound { factor: 3.0 },
    ];

    /// The filter's name in the `name[:p…]` grammar.
    pub fn label(&self) -> &'static str {
        match self {
            FilterKind::Mean => "mean",
            FilterKind::TrimmedMean { .. } => "trimmed",
            FilterKind::AdaptiveTrimmedMean { .. } => "adaptive",
            FilterKind::Median => "median",
            FilterKind::Krum { .. } => "krum",
            FilterKind::MultiKrum { .. } => "multikrum",
            FilterKind::GeometricMedian => "geomedian",
            FilterKind::Bulyan { .. } => "bulyan",
            FilterKind::CenteredClip { .. } => "centeredclip",
            FilterKind::NormBound { .. } => "normbound",
        }
    }

    /// The Fed-MS name of this filter, where it has one: `vanilla` (the
    /// undefended baseline), `fed-ms` and its fault-tolerant
    /// `fed-ms-adaptive`.
    pub fn paper_name(&self) -> Option<&'static str> {
        match self {
            FilterKind::Mean => Some("vanilla"),
            FilterKind::TrimmedMean { .. } => Some("fed-ms"),
            FilterKind::AdaptiveTrimmedMean { .. } => Some("fed-ms-adaptive"),
            _ => None,
        }
    }

    /// Parses `name[:p…]`, the form [`Display`](fmt::Display) prints: a
    /// [`FilterKind::label`] and all of its parameters or none (none =
    /// [`FilterKind::DEFAULTS`]), e.g. `mean`, `trimmed:0.2`, `multikrum:2:4`.
    /// Two input-only shorthands resolve against the caller's final counts:
    /// `trimmed:matched` is Fed-MS itself (β = `byzantine / population`, the
    /// paper's matched trim rate) and `adaptive:matched` its fault-tolerant
    /// form, trimming exactly `byzantine` per side of the models that arrive.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown filter or a bad parameter list.
    pub fn parse(s: &str, byzantine: usize, population: usize) -> Result<Self, String> {
        let mut parts = s.split(':').map(str::trim);
        let name = parts.next().unwrap_or_default();
        let p: Vec<&str> = parts.collect();
        let kind = Self::DEFAULTS
            .into_iter()
            .find(|k| k.label() == name)
            .ok_or_else(|| format!("unknown filter `{name}`"))?;
        Ok(match (kind, p.as_slice()) {
            (kind, []) => kind,
            (Self::TrimmedMean { .. }, ["matched"]) if population == 0 => {
                return Err("`trimmed:matched` needs a nonempty population".into())
            }
            (Self::TrimmedMean { .. }, ["matched"]) => {
                Self::TrimmedMean { beta: byzantine as f64 / population as f64 }
            }
            (Self::AdaptiveTrimmedMean { .. }, ["matched"]) => {
                Self::AdaptiveTrimmedMean { trim: byzantine }
            }
            (Self::TrimmedMean { .. }, [beta]) => Self::TrimmedMean { beta: arg(beta)? },
            (Self::AdaptiveTrimmedMean { .. }, [trim]) => {
                Self::AdaptiveTrimmedMean { trim: arg(trim)? }
            }
            (Self::Krum { .. }, [f]) => Self::Krum { f: arg(f)? },
            (Self::MultiKrum { .. }, [f, m]) => Self::MultiKrum { f: arg(f)?, m: arg(m)? },
            (Self::Bulyan { .. }, [f]) => Self::Bulyan { f: arg(f)? },
            (Self::CenteredClip { .. }, [tau]) => Self::CenteredClip { tau: arg(tau)? },
            (Self::NormBound { .. }, [factor]) => Self::NormBound { factor: arg(factor)? },
            _ => return Err(format!("`{s}`: give every parameter of `{kind}` or none")),
        })
    }

    /// Instantiates the live rule.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from the concrete rules.
    pub fn build(&self) -> crate::Result<Box<dyn AggregationRule>> {
        Ok(match *self {
            FilterKind::Mean => Box::new(Mean::new()),
            FilterKind::TrimmedMean { beta } => Box::new(TrimmedMean::new(beta)?),
            FilterKind::AdaptiveTrimmedMean { trim } => Box::new(AdaptiveTrimmedMean::new(trim)),
            FilterKind::Median => Box::new(CoordinateMedian::new()),
            FilterKind::Krum { f } => Box::new(Krum::new(f)),
            FilterKind::MultiKrum { f, m } => Box::new(MultiKrum::new(f, m)?),
            FilterKind::GeometricMedian => Box::new(GeometricMedian::new()),
            FilterKind::Bulyan { f } => Box::new(Bulyan::new(f)),
            FilterKind::CenteredClip { tau } => Box::new(CenteredClip::new(tau, 3)?),
            FilterKind::NormBound { factor } => Box::new(NormBound::new(factor)?),
        })
    }
}

impl fmt::Display for FilterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())?;
        match *self {
            FilterKind::Mean | FilterKind::Median | FilterKind::GeometricMedian => Ok(()),
            FilterKind::TrimmedMean { beta } => write!(f, ":{beta}"),
            FilterKind::AdaptiveTrimmedMean { trim } => write!(f, ":{trim}"),
            FilterKind::Krum { f: byz } | FilterKind::Bulyan { f: byz } => write!(f, ":{byz}"),
            FilterKind::MultiKrum { f: byz, m } => write!(f, ":{byz}:{m}"),
            FilterKind::CenteredClip { tau } => write!(f, ":{tau}"),
            FilterKind::NormBound { factor } => write!(f, ":{factor}"),
        }
    }
}

/// Parses one grammar parameter.
fn arg<T: FromStr>(p: &str) -> Result<T, String> {
    p.parse().map_err(|_| format!("bad parameter `{p}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_trimmed_mean_is_fedms() {
        let f = FilterKind::parse("trimmed:matched", 2, 10).unwrap();
        assert_eq!(f, FilterKind::TrimmedMean { beta: 0.2 });
        assert_eq!(f.paper_name(), Some("fed-ms"));
    }

    #[test]
    fn matched_adaptive_pins_trim_count() {
        let f = FilterKind::parse("adaptive:matched", 2, 10).unwrap();
        assert_eq!(f, FilterKind::AdaptiveTrimmedMean { trim: 2 });
        assert_eq!(f.paper_name(), Some("fed-ms-adaptive"));
        assert_eq!(f.build().unwrap().name(), "adaptive_trimmed_mean");
    }

    #[test]
    fn builds_every_kind() {
        for kind in FilterKind::DEFAULTS {
            let rule = kind.build().unwrap();
            assert!(!rule.name().is_empty());
            assert_eq!(FilterKind::parse(&kind.to_string(), 0, 0).unwrap(), kind);
        }
    }

    #[test]
    fn parses_params_and_matched_shorthands() {
        let parse = |s| FilterKind::parse(s, 3, 10);
        assert_eq!(parse("trimmed:0.3").unwrap(), FilterKind::TrimmedMean { beta: 0.3 });
        assert_eq!(parse("trimmed:matched").unwrap(), FilterKind::TrimmedMean { beta: 0.3 });
        assert_eq!(parse("adaptive:matched").unwrap(), FilterKind::AdaptiveTrimmedMean { trim: 3 });
        assert_eq!(parse("multikrum:2:4").unwrap(), FilterKind::MultiKrum { f: 2, m: 4 });
        assert!(FilterKind::parse("trimmed:matched", 0, 0).is_err());
        assert!(parse("multikrum:2").is_err());
        assert!(parse("krum:matched").is_err());
        assert!(parse("fed-ms").is_err());
        assert!(parse("quantum").is_err());
    }

    #[test]
    fn build_rejects_bad_parameters() {
        assert!(FilterKind::TrimmedMean { beta: 0.6 }.build().is_err());
        assert!(FilterKind::MultiKrum { f: 1, m: 0 }.build().is_err());
        assert!(FilterKind::CenteredClip { tau: 0.0 }.build().is_err());
        assert!(FilterKind::NormBound { factor: 0.0 }.build().is_err());
    }
}
