//! Client→server upload strategies (Section IV-A's communication trade-off).

use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// How clients choose which parameter servers receive their local model
/// each round.
///
/// The paper's key design is [`UploadStrategy::Sparse`]: each client
/// uploads to **one** uniformly random PS, keeping the aggregation
/// communication at `K` messages per round — the same as classic
/// single-server FL — at the cost of extra aggregate variance (Lemma 3).
/// [`UploadStrategy::Full`] is the trivial `K × P` alternative discussed
/// and rejected in Section IV-A; [`UploadStrategy::Redundant`] interpolates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UploadStrategy {
    /// Each client uploads to one uniformly random server (the paper).
    Sparse,
    /// Each client uploads to every server (`K·P` messages).
    Full,
    /// Each client uploads to `k` distinct uniformly random servers.
    Redundant(usize),
}

impl UploadStrategy {
    /// Every strategy at its default parameter, in listing order.
    pub const DEFAULTS: [UploadStrategy; 3] =
        [UploadStrategy::Sparse, UploadStrategy::Full, UploadStrategy::Redundant(2)];

    /// The strategy's name in the `name[:k]` grammar.
    pub fn label(&self) -> &'static str {
        match self {
            UploadStrategy::Sparse => "sparse",
            UploadStrategy::Full => "full",
            UploadStrategy::Redundant(_) => "redundant",
        }
    }

    /// Parses `sparse`, `full` or `redundant[:k]` (bare = `redundant:2`);
    /// [`Display`](fmt::Display) prints this form back.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown strategy or a bad parameter.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let (name, p) = s.split_once(':').map_or((s, None), |(name, p)| (name, Some(p.trim())));
        let kind = Self::DEFAULTS
            .into_iter()
            .find(|k| k.label() == name.trim())
            .ok_or_else(|| format!("unknown upload strategy `{}`", name.trim()))?;
        match (kind, p) {
            (kind, None) => Ok(kind),
            (UploadStrategy::Redundant(_), Some(k)) => {
                k.parse().map(UploadStrategy::Redundant).map_err(|_| format!("bad parameter `{k}`"))
            }
            _ => Err(format!("`{s}`: give every parameter of `{kind}` or none")),
        }
    }

    /// Messages sent per round for `num_clients` clients and `num_servers`
    /// servers.
    pub fn messages_per_round(&self, num_clients: usize, num_servers: usize) -> usize {
        match *self {
            UploadStrategy::Sparse => num_clients,
            UploadStrategy::Full => num_clients * num_servers,
            UploadStrategy::Redundant(k) => num_clients * k.min(num_servers),
        }
    }

    /// Draws this round's assignment: `out[k]` is the list of server ids
    /// client `k` uploads to (distinct, unordered).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for a zero-redundancy strategy or
    /// zero servers.
    pub fn assign(
        &self,
        num_clients: usize,
        num_servers: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Vec<usize>>> {
        if num_servers == 0 {
            return Err(SimError::BadConfig("no servers to upload to".into()));
        }
        match *self {
            UploadStrategy::Sparse => {
                Ok((0..num_clients).map(|_| vec![rng.gen_range(0..num_servers)]).collect())
            }
            UploadStrategy::Full => {
                let all: Vec<usize> = (0..num_servers).collect();
                Ok(vec![all; num_clients])
            }
            UploadStrategy::Redundant(k) => {
                if k == 0 {
                    return Err(SimError::BadConfig("redundancy must be positive".into()));
                }
                let k = k.min(num_servers);
                let mut out = Vec::with_capacity(num_clients);
                let mut pool: Vec<usize> = (0..num_servers).collect();
                for _ in 0..num_clients {
                    pool.shuffle(rng);
                    out.push(pool[..k].to_vec());
                }
                Ok(out)
            }
        }
    }
}

impl fmt::Display for UploadStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())?;
        match self {
            UploadStrategy::Redundant(k) => write!(f, ":{k}"),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_tensor::rng::rng_for;
    use std::collections::HashSet;

    #[test]
    fn message_counts() {
        assert_eq!(UploadStrategy::Sparse.messages_per_round(50, 10), 50);
        assert_eq!(UploadStrategy::Full.messages_per_round(50, 10), 500);
        assert_eq!(UploadStrategy::Redundant(3).messages_per_round(50, 10), 150);
        assert_eq!(UploadStrategy::Redundant(20).messages_per_round(50, 10), 500);
    }

    #[test]
    fn sparse_assigns_exactly_one() {
        let mut rng = rng_for(1, &[]);
        let a = UploadStrategy::Sparse.assign(20, 5, &mut rng).unwrap();
        assert_eq!(a.len(), 20);
        assert!(a.iter().all(|s| s.len() == 1 && s[0] < 5));
    }

    #[test]
    fn sparse_is_roughly_uniform() {
        let mut rng = rng_for(2, &[]);
        let mut counts = vec![0usize; 5];
        for _ in 0..200 {
            for s in UploadStrategy::Sparse.assign(10, 5, &mut rng).unwrap() {
                counts[s[0]] += 1;
            }
        }
        // 2000 uploads over 5 servers → expect 400 each; allow wide slack.
        assert!(counts.iter().all(|&c| c > 300 && c < 500), "{counts:?}");
    }

    #[test]
    fn full_assigns_everyone() {
        let mut rng = rng_for(3, &[]);
        let a = UploadStrategy::Full.assign(4, 3, &mut rng).unwrap();
        assert!(a.iter().all(|s| s == &vec![0, 1, 2]));
    }

    #[test]
    fn redundant_assigns_distinct() {
        let mut rng = rng_for(4, &[]);
        let a = UploadStrategy::Redundant(3).assign(30, 8, &mut rng).unwrap();
        for s in &a {
            assert_eq!(s.len(), 3);
            let set: HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 3, "servers must be distinct");
        }
    }

    #[test]
    fn redundant_clamps_to_server_count() {
        let mut rng = rng_for(5, &[]);
        let a = UploadStrategy::Redundant(10).assign(3, 4, &mut rng).unwrap();
        assert!(a.iter().all(|s| s.len() == 4));
    }

    #[test]
    fn validation() {
        let mut rng = rng_for(6, &[]);
        assert!(UploadStrategy::Redundant(0).assign(3, 4, &mut rng).is_err());
        assert!(UploadStrategy::Sparse.assign(3, 0, &mut rng).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = UploadStrategy::Sparse.assign(10, 5, &mut rng_for(7, &[])).unwrap();
        let b = UploadStrategy::Sparse.assign(10, 5, &mut rng_for(7, &[])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parses_the_display_form() {
        assert_eq!(UploadStrategy::parse("redundant:3").unwrap(), UploadStrategy::Redundant(3));
        assert_eq!(UploadStrategy::parse("redundant").unwrap(), UploadStrategy::Redundant(2));
        for kind in UploadStrategy::DEFAULTS {
            assert_eq!(UploadStrategy::parse(&kind.to_string()).unwrap(), kind);
        }
        assert!(UploadStrategy::parse("carrier-pigeon").is_err());
        assert!(UploadStrategy::parse("sparse:1").is_err());
        assert!(UploadStrategy::parse("redundant:-1").is_err());
    }
}
