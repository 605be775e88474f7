//! The config key table: the one textual vocabulary for [`FedMsConfig`].
//!
//! Sweep-spec `[base]`/`[grid]` keys and `fedms run` flags (`--some-key`
//! for `some_key`) are the entries of [`FedMsConfig::KEYS`], and both apply
//! through [`FedMsConfig::apply_keys`]. Kind-valued keys take the
//! `name[:p…]` grammar of their kind's `parse`.

use std::fmt;
use std::str::FromStr;

use fedms_aggregation::EstimatorPolicy;
use fedms_attacks::{AttackKind, ClientAttackKind};
use fedms_nn::LrSchedule;
use fedms_sim::{DegradedMode, NetModel, ThreatSchedule, UploadStrategy};

use crate::{CoreError, FedMsConfig, FilterKind, Result, TransportKind};

/// The literal kind a key's value takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// A non-negative integer.
    Int,
    /// A number (integers widen).
    Float,
    /// `true` or `false`; a bare flag on the command line.
    Bool,
    /// A string, usually a `name[:p…]` kind.
    Str,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValueKind::Int => "integer",
            ValueKind::Float => "number",
            ValueKind::Bool => "boolean",
            ValueKind::Str => "string",
        })
    }
}

/// One settable config key.
#[derive(Debug, Clone, Copy)]
pub struct ConfigKey {
    /// The key as spelled in specs (`--` and dashes on the command line).
    pub name: &'static str,
    /// The literal kind its value takes.
    pub kind: ValueKind,
    /// Application phase: sizes (0), then B (1), then the rest (2), then
    /// filters (3), so `epsilon` sees the final `servers` and `matched`
    /// filters the final B and P.
    phase: u8,
    apply: fn(&mut FedMsConfig, &str) -> std::result::Result<(), String>,
}

fn int<T: FromStr>(v: &str) -> std::result::Result<T, String> {
    v.parse().map_err(|_| format!("expected a non-negative integer, got `{v}`"))
}

fn float<T: FromStr>(v: &str) -> std::result::Result<T, String> {
    v.parse().map_err(|_| format!("expected a number, got `{v}`"))
}

fn flag(v: &str) -> std::result::Result<bool, String> {
    v.parse().map_err(|_| format!("expected true or false, got `{v}`"))
}

/// `name: Kind @ phase => |config, text| statement;` per key.
macro_rules! keys {
    ($($name:ident: $kind:ident @ $phase:literal => |$c:ident, $v:ident| $body:expr;)*) => {
        &[$(ConfigKey {
            name: stringify!($name),
            kind: ValueKind::$kind,
            phase: $phase,
            apply: |$c, $v| {
                $body;
                Ok(())
            },
        }),*]
    };
}

impl FedMsConfig {
    /// Every settable key, in listing order.
    pub const KEYS: &'static [ConfigKey] = keys! {
        clients: Int @ 0 => |c, v| c.clients = int(v)?;
        servers: Int @ 0 => |c, v| c.servers = int(v)?;
        byzantine: Int @ 1 => |c, v| c.byzantine_count = int(v)?;
        epsilon: Float @ 1 => |c, v| {
            let eps: f64 = float(v)?;
            if !(0.0..=1.0).contains(&eps) {
                return Err(format!("epsilon {eps} outside [0, 1]"));
            }
            c.byzantine_count = (eps * c.servers as f64).round() as usize
        };
        byzantine_clients: Int @ 1 => |c, v| c.byzantine_clients = int(v)?;
        attack: Str @ 2 => |c, v| c.attack = AttackKind::parse(v)?;
        client_attack: Str @ 2 => |c, v| c.client_attack = ClientAttackKind::parse(v)?;
        equivocate: Bool @ 2 => |c, v| c.equivocate = flag(v)?;
        filter: Str @ 3 => |c, v| c.filter = FilterKind::parse(v, c.byzantine_count, c.servers)?;
        // Matched rates for the server-side rule key off the Byzantine *client*
        // count over the client population.
        server_filter: Str @ 3 => |c, v| {
            c.server_filter = FilterKind::parse(v, c.byzantine_clients, c.clients)?
        };
        upload: Str @ 2 => |c, v| c.upload = UploadStrategy::parse(v)?;
        local_epochs: Int @ 2 => |c, v| c.local_epochs = int(v)?;
        batch_size: Int @ 2 => |c, v| c.batch_size = int(v)?;
        lr: Float @ 2 => |c, v| c.schedule = LrSchedule::Constant(float::<f64>(v)? as f32);
        dirichlet_alpha: Float @ 2 => |c, v| c.dirichlet_alpha = float(v)?;
        rounds: Int @ 2 => |c, v| c.rounds = int(v)?;
        participation: Float @ 2 => |c, v| c.participation = float(v)?;
        cohort: Int @ 2 => |c, v| c.cohort = int(v)?;
        shard_samples: Int @ 2 => |c, v| c.shard_samples = int(v)?;
        eval_clients: Int @ 2 => |c, v| c.eval_clients = int(v)?;
        upload_drop_rate: Float @ 2 => |c, v| c.upload_drop_rate = float(v)?;
        crashed_servers: Int @ 2 => |c, v| c.fault.crashed_servers = int(v)?;
        crash_round: Int @ 2 => |c, v| c.fault.crash_round = int(v)?;
        straggler_servers: Int @ 2 => |c, v| {
            c.fault.straggler_servers = int(v)?;
            if c.fault.straggler_servers > 0 && c.fault.straggler_delay == 0 {
                c.fault.straggler_delay = 1;
            }
        };
        straggler_delay: Int @ 2 => |c, v| c.fault.straggler_delay = int(v)?;
        downlink_omission: Float @ 2 => |c, v| c.fault.downlink_omission = float(v)?;
        duplicate_rate: Float @ 2 => |c, v| c.fault.duplicate_rate = float(v)?;
        retry_budget: Int @ 2 => |c, v| c.recovery.retry_budget = int(v)?;
        attempt_timeout_ms: Int @ 2 => |c, v| c.recovery.attempt_timeout_ms = int(v)?;
        backoff_base_ms: Int @ 2 => |c, v| {
            c.recovery.backoff_base_ms = int(v)?;
            c.recovery.backoff_cap_ms = c.recovery.backoff_cap_ms.max(c.recovery.backoff_base_ms)
        };
        backoff_cap_ms: Int @ 2 => |c, v| c.recovery.backoff_cap_ms = int(v)?;
        failover: Bool @ 2 => |c, v| c.recovery.failover = flag(v)?;
        proceed_degraded: Bool @ 2 => |c, v| {
            let mode = if flag(v)? { DegradedMode::Proceed } else { DegradedMode::Abort };
            c.recovery.on_degraded = mode
        };
        transport: Str @ 2 => |c, v| {
            c.transport = match v {
                "local" => TransportKind::Local,
                "net" => TransportKind::Net,
                _ => return Err(format!("unknown transport `{v}` (expected local or net)")),
            }
        };
        net_profile: Str @ 2 => |c, v| {
            c.net_model = match v {
                "ideal" => NetModel::ideal(),
                "edge" => NetModel::edge(),
                _ => return Err(format!("unknown net profile `{v}` (expected ideal or edge)")),
            }
        };
        threat_schedule: Str @ 2 => |c, v| {
            c.threat = ThreatSchedule::parse(v).map_err(|e| e.to_string())?
        };
        estimate_b: Bool @ 2 => |c, v| {
            let on = flag(v)?;
            c.estimator = if on { EstimatorPolicy::enabled() } else { EstimatorPolicy::default() }
        };
    };

    /// The table entry for `name`, if it is a key.
    pub fn key(name: &str) -> Option<&'static ConfigKey> {
        Self::KEYS.iter().find(|k| k.name == name)
    }

    /// Applies `(key, text)` pairs: sizes first, then B, then the rest,
    /// then filters, keeping the given order within a phase (a later
    /// pair for the same key wins).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadKey`] naming the first unknown key or
    /// malformed value; the config may then be partly updated.
    pub fn apply_keys<K: AsRef<str>, V: AsRef<str>>(
        &mut self,
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Result<()> {
        let mut found = Vec::new();
        for (name, text) in pairs {
            let name = name.as_ref();
            let unknown = || CoreError::BadKey { key: name.into(), reason: "unknown key".into() };
            found.push((Self::key(name).ok_or_else(unknown)?, text));
        }
        found.sort_by_key(|(key, _)| key.phase);
        for (key, text) in found {
            (key.apply)(self, text.as_ref())
                .map_err(|reason| CoreError::BadKey { key: key.name.to_string(), reason })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_snake_case() {
        let keys = FedMsConfig::KEYS;
        for (i, k) in keys.iter().enumerate() {
            assert!(k.name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'), "{}", k.name);
            assert!(keys[..i].iter().all(|other| other.name != k.name), "{} twice", k.name);
        }
    }

    #[test]
    fn phases_order_sizes_before_b_before_filters() {
        let mut cfg = FedMsConfig::tiny(0);
        cfg.apply_keys([
            ("filter", "trimmed:matched"),
            ("epsilon", "0.3"),
            ("servers", "10"),
            ("straggler_servers", "1"),
        ])
        .unwrap();
        assert_eq!(cfg.servers, 10);
        assert_eq!(cfg.byzantine_count, 3);
        assert_eq!(cfg.filter, FilterKind::TrimmedMean { beta: 0.3 });
        assert_eq!(cfg.fault.straggler_delay, 1);
    }

    #[test]
    fn errors_name_the_key() {
        let mut cfg = FedMsConfig::tiny(0);
        for (key, text, needle) in [
            ("rounds", "abc", "non-negative integer"),
            ("retry_budget", "-1", "non-negative integer"),
            ("epsilon", "2", "outside"),
            ("failover", "yes", "true or false"),
            ("attack", "signflip", "unknown attack"),
            ("transport", "carrier", "unknown transport"),
            ("wat", "1", "unknown key"),
        ] {
            let e = cfg.apply_keys([(key, text)]).unwrap_err();
            assert!(matches!(&e, CoreError::BadKey { key: k, .. } if k == key), "{e}");
            assert!(e.to_string().contains(needle), "{key}={text}: {e}");
        }
    }
}
