//! The server's validated configuration: parsing (TOML subset or JSON),
//! startup validation, and the hot-reload compatibility check.
//!
//! Missing optional fields take documented defaults; *unknown* keys are
//! rejected outright (a typo'd `deadline_mss` must not silently become
//! "no deadline"). Hot reloads revalidate from scratch and then pass
//! through [`validate_reload`], which partitions fields into hot-
//! appliable (deadline, admission, watchdog) and restart-only (scenario,
//! durability, telemetry) — a rejected reload leaves the running config
//! untouched.

use std::path::{Path, PathBuf};
use std::time::Duration;

use eotora_durability::FsyncPolicy;
use eotora_sim::Scenario;
use serde_json::Value;

use crate::queue::ShedPolicy;
use crate::toml;

/// A configuration failure, typed by where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The config (or referenced scenario) file could not be read.
    Io {
        /// Offending path.
        path: String,
        /// OS error text.
        reason: String,
    },
    /// The config text failed to parse (TOML line or JSON reason).
    Parse {
        /// Parser message, with line number for TOML.
        reason: String,
    },
    /// A field parsed but holds an unusable value.
    Invalid {
        /// Dotted field path, e.g. `admission.capacity`.
        field: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// A hot reload asked for a change that requires a restart.
    Reload {
        /// Which change was refused and why.
        reason: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, reason } => write!(f, "cannot read {path}: {reason}"),
            Self::Parse { reason } => write!(f, "config parse error: {reason}"),
            Self::Invalid { field, reason } => write!(f, "config field `{field}`: {reason}"),
            Self::Reload { reason } => write!(f, "reload rejected: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// `[admission]` — the bounded queue between reader and solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionSettings {
    /// Maximum queued state frames (≥ 1).
    pub capacity: usize,
    /// What to do with new states at capacity.
    pub policy: ShedPolicy,
}

/// `[durability]` — always-on journal + checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilitySettings {
    /// Checkpoint directory (auto-resumed on restart).
    pub dir: PathBuf,
    /// Snapshot cadence in slots.
    pub checkpoint_every: u64,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
}

/// `[telemetry]` — periodic metrics dumps and postmortem flight dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySettings {
    /// Metrics snapshot file (`.prom` or JSONL); `None` disables.
    pub metrics_out: Option<PathBuf>,
    /// Snapshot interval in slots (0 = final only).
    pub metrics_every: u64,
}

/// The full validated server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The scenario the controller runs (fixed for the daemon's life).
    pub scenario: Scenario,
    /// Per-slot anytime deadline; `None` runs the plain engine,
    /// `Some(d)` the robust engine with its degradation ladder.
    pub deadline: Option<Duration>,
    /// Trip the watchdog after this many *consecutive* slots with
    /// deadline expirations (0 disables).
    pub watchdog_expirations: u64,
    /// Test hook: simulate a crash right after this slot commits (no
    /// graceful checkpoint) — drives the kill–restart chaos tests.
    pub kill_after_slot: Option<u64>,
    /// Admission queue settings.
    pub admission: AdmissionSettings,
    /// Journal/checkpoint settings.
    pub durability: DurabilitySettings,
    /// Metrics/postmortem settings.
    pub telemetry: TelemetrySettings,
}

fn invalid(field: &str, reason: impl Into<String>) -> ConfigError {
    ConfigError::Invalid { field: field.to_owned(), reason: reason.into() }
}

/// A section's fields plus cursor bookkeeping for unknown-key rejection.
struct Section<'v> {
    name: &'static str,
    fields: &'v [(String, Value)],
}

impl<'v> Section<'v> {
    fn get(&self, key: &str) -> Option<&'v Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), ConfigError> {
        for (key, _) in self.fields {
            if !known.contains(&key.as_str()) {
                return Err(invalid(
                    &format!("{}.{key}", self.name),
                    format!("unknown key (known: {})", known.join(", ")),
                ));
            }
        }
        Ok(())
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| invalid(&format!("{}.{key}", self.name), "expected an integer ≥ 0")),
        }
    }

    fn str(&self, key: &str) -> Result<Option<&'v str>, ConfigError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| invalid(&format!("{}.{key}", self.name), "expected a string")),
        }
    }
}

fn section<'v>(
    root: &'v [(String, Value)],
    name: &'static str,
) -> Result<Section<'v>, ConfigError> {
    static EMPTY: &[(String, Value)] = &[];
    match root.iter().find(|(k, _)| k == name) {
        None => Ok(Section { name, fields: EMPTY }),
        Some((_, Value::Object(fields))) => Ok(Section { name, fields }),
        Some(_) => Err(invalid(name, "expected a `[section]` table")),
    }
}

impl ServerConfig {
    /// Loads and validates a config file. The format is chosen by
    /// content: a leading `{` means JSON, anything else the TOML subset.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|e| ConfigError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_str(&text)
    }

    /// Parses and validates config text (TOML subset or JSON).
    #[allow(clippy::should_implement_trait)] // fallible, multi-format
    pub fn from_str(text: &str) -> Result<Self, ConfigError> {
        let value = if text.trim_start().starts_with('{') {
            serde_json::parse(text).map_err(|e| ConfigError::Parse { reason: e.to_string() })?
        } else {
            toml::parse(text).map_err(|e| ConfigError::Parse { reason: e.to_string() })?
        };
        Self::from_value(&value)
    }

    /// Validates a parsed config tree.
    pub fn from_value(value: &Value) -> Result<Self, ConfigError> {
        let root = value
            .as_object()
            .ok_or_else(|| ConfigError::Parse { reason: "config is not an object".into() })?;
        for (key, _) in root {
            if !["scenario", "server", "admission", "durability", "telemetry"]
                .contains(&key.as_str())
            {
                return Err(invalid(key, "unknown section"));
            }
        }

        let scenario = parse_scenario(section(root, "scenario")?)?;

        let server = section(root, "server")?;
        server.reject_unknown(&["deadline_ms", "watchdog_expirations", "kill_after_slot"])?;
        let deadline_ms = server.u64("deadline_ms", 0)?;
        let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
        if deadline.is_some() && !scenario.dpp.solver.supports_masks() {
            // A deadline selects the robust engine, which masks faults
            // through the P2-A solver: a baseline would lifeboat every slot.
            return Err(invalid(
                "scenario.dpp.solver",
                format!(
                    "{} cannot run the robust engine that server.deadline_ms selects; use CGBA",
                    scenario.dpp.solver.name()
                ),
            ));
        }
        let watchdog_expirations = server.u64("watchdog_expirations", 8)?;
        let kill_after_slot = match server.get("kill_after_slot") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                invalid("server.kill_after_slot", "expected a slot index (integer ≥ 0)")
            })?),
        };

        let admission = section(root, "admission")?;
        admission.reject_unknown(&["capacity", "policy"])?;
        let capacity = admission.u64("capacity", 64)?;
        if capacity == 0 {
            return Err(invalid("admission.capacity", "must be at least 1"));
        }
        let policy = match admission.str("policy")? {
            None => ShedPolicy::NewestWins,
            Some(text) => ShedPolicy::parse(text).ok_or_else(|| {
                invalid(
                    "admission.policy",
                    format!("expected block|drop-oldest|newest-wins, got `{text}`"),
                )
            })?,
        };

        let durability = section(root, "durability")?;
        durability.reject_unknown(&["dir", "checkpoint_every", "fsync"])?;
        let dir = durability.str("dir")?.ok_or_else(|| {
            invalid("durability.dir", "required: the always-on checkpoint directory")
        })?;
        let checkpoint_every = durability.u64("checkpoint_every", 10)?;
        if checkpoint_every == 0 {
            return Err(invalid("durability.checkpoint_every", "must be at least 1"));
        }
        let fsync = match durability.str("fsync")? {
            None => FsyncPolicy::default(),
            Some(text) => {
                text.parse::<FsyncPolicy>().map_err(|e| invalid("durability.fsync", e))?
            }
        };

        let telemetry = section(root, "telemetry")?;
        telemetry.reject_unknown(&["metrics_out", "metrics_every"])?;
        let metrics_out = telemetry.str("metrics_out")?.map(PathBuf::from);
        let metrics_every = telemetry.u64("metrics_every", 0)?;

        Ok(ServerConfig {
            scenario,
            deadline,
            watchdog_expirations,
            kill_after_slot,
            admission: AdmissionSettings { capacity: capacity as usize, policy },
            durability: DurabilitySettings { dir: PathBuf::from(dir), checkpoint_every, fsync },
            telemetry: TelemetrySettings { metrics_out, metrics_every },
        })
    }
}

/// `[scenario]`: either `path = "scenario.json"` (the serde form
/// `eotora template` emits) or an inline paper scenario from `devices` /
/// `seed` / `horizon` / `bdma_rounds` / `label`.
fn parse_scenario(section: Section<'_>) -> Result<Scenario, ConfigError> {
    section.reject_unknown(&["path", "devices", "seed", "horizon", "bdma_rounds", "label"])?;
    if let Some(path) = section.str("path")? {
        for key in ["devices", "seed", "horizon", "bdma_rounds", "label"] {
            if section.get(key).is_some() {
                return Err(invalid(
                    &format!("scenario.{key}"),
                    "cannot be combined with scenario.path",
                ));
            }
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::Io { path: path.to_owned(), reason: e.to_string() })?;
        return serde_json::from_str(&text)
            .map_err(|e| invalid("scenario.path", format!("{path} is not a scenario: {e}")));
    }
    let devices = section
        .get("devices")
        .ok_or_else(|| invalid("scenario", "required: either `path` or `devices`"))?
        .as_u64()
        .ok_or_else(|| invalid("scenario.devices", "expected an integer ≥ 1"))?;
    if devices == 0 {
        return Err(invalid("scenario.devices", "must be at least 1"));
    }
    let seed = section.u64("seed", 0)?;
    let mut scenario = Scenario::paper(devices as usize, seed);
    scenario.horizon = section.u64("horizon", scenario.horizon)?;
    if let Some(rounds) = section.get("bdma_rounds") {
        let rounds = rounds
            .as_u64()
            .ok_or_else(|| invalid("scenario.bdma_rounds", "expected an integer ≥ 1"))?;
        if rounds == 0 {
            return Err(invalid("scenario.bdma_rounds", "must be at least 1"));
        }
        scenario.dpp.bdma_rounds = rounds as usize;
    }
    if let Some(label) = section.str("label")? {
        scenario.label = label.to_owned();
    }
    Ok(scenario)
}

/// Splits a candidate reload against the running config: hot-appliable
/// changes (deadline, admission, watchdog, kill hook) pass through;
/// anything pinned by open resources (scenario, durability session,
/// telemetry sinks) or by the engine mode (plain ↔ robust) is rejected
/// with a typed [`ConfigError::Reload`] — and the caller keeps running
/// on the old config.
pub fn validate_reload(
    current: &ServerConfig,
    next: ServerConfig,
) -> Result<ServerConfig, ConfigError> {
    let refuse = |reason: &str| Err(ConfigError::Reload { reason: reason.to_owned() });
    if next.scenario != current.scenario {
        return refuse("the scenario cannot change while the controller is live; restart");
    }
    if next.durability != current.durability {
        return refuse("durability settings are pinned by the open journal; restart");
    }
    if next.telemetry != current.telemetry {
        return refuse("telemetry sinks are pinned for the session; restart");
    }
    match (current.deadline, next.deadline) {
        (Some(_), None) | (None, Some(_)) => {
            refuse("the engine mode (plain vs robust) is fixed at startup; restart")
        }
        _ => Ok(next),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
        [scenario]\n\
        devices = 4\n\
        seed = 9\n\
        [durability]\n\
        dir = \"ckpt\"\n";

    #[test]
    fn minimal_toml_gets_defaults() {
        let cfg = ServerConfig::from_str(MINIMAL).expect("valid");
        assert_eq!(cfg.scenario.system.topology.num_devices, 4);
        assert_eq!(cfg.scenario.seed, 9);
        assert_eq!(cfg.deadline, None);
        assert_eq!(cfg.watchdog_expirations, 8);
        assert_eq!(cfg.admission.capacity, 64);
        assert_eq!(cfg.admission.policy, ShedPolicy::NewestWins);
        assert_eq!(cfg.durability.dir, PathBuf::from("ckpt"));
        assert_eq!(cfg.durability.checkpoint_every, 10);
        assert_eq!(cfg.telemetry.metrics_out, None);
    }

    #[test]
    fn json_config_parses_too() {
        let cfg = ServerConfig::from_str(
            r#"{"scenario": {"devices": 3}, "durability": {"dir": "d"},
                "server": {"deadline_ms": 50}}"#,
        )
        .expect("valid");
        assert_eq!(cfg.deadline, Some(Duration::from_millis(50)));
    }

    #[test]
    fn unknown_keys_are_typed_errors() {
        let text = format!("{MINIMAL}[server]\ndeadline_mss = 10\n");
        match ServerConfig::from_str(&text) {
            Err(ConfigError::Invalid { field, .. }) => assert_eq!(field, "server.deadline_mss"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        match ServerConfig::from_str(&format!("{MINIMAL}[extra]\nx = 1\n")) {
            Err(ConfigError::Invalid { field, .. }) => assert_eq!(field, "extra"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn robust_mode_refuses_a_baseline_solver() {
        let dir = std::env::temp_dir().join(format!("eotora-config-solver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ropt.json");
        let scenario = Scenario::paper(4, 9).with_solver(eotora_core::dpp::SolverKind::Ropt);
        std::fs::write(&path, serde_json::to_string(&scenario).expect("serializable"))
            .expect("scenario written");
        let config = |server: &str| {
            let path = path.display();
            ServerConfig::from_str(&format!(
                "[scenario]\npath = \"{path}\"\n[durability]\ndir = \"ckpt\"\n{server}"
            ))
        };
        // The plain engine runs any solver; a deadline selects the robust
        // engine, which needs CGBA, and the error names the solver field.
        assert!(config("").is_ok());
        match config("[server]\ndeadline_ms = 50\n") {
            Err(ConfigError::Invalid { field, reason }) => {
                assert_eq!(field, "scenario.dpp.solver");
                assert!(reason.contains("ROPT"), "{reason}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_values_are_typed_errors() {
        for (extra, field) in [
            ("[admission]\ncapacity = 0\n", "admission.capacity"),
            ("[admission]\npolicy = \"fifo\"\n", "admission.policy"),
            ("[server]\ndeadline_ms = -5\n", "server.deadline_ms"),
        ] {
            match ServerConfig::from_str(&format!("{MINIMAL}{extra}")) {
                Err(ConfigError::Invalid { field: got, .. }) => assert_eq!(got, field),
                other => panic!("{extra}: expected Invalid, got {other:?}"),
            }
        }
        assert!(matches!(
            ServerConfig::from_str("[scenario]\ndevices = ]\n"),
            Err(ConfigError::Parse { .. })
        ));
        assert!(matches!(
            ServerConfig::from_str("[scenario]\ndevices = 4\n"),
            Err(ConfigError::Invalid { .. }) // missing durability.dir
        ));
    }

    #[test]
    fn reload_applies_hot_fields_and_rejects_pinned_ones() {
        let base = || {
            ServerConfig::from_str(&format!("{MINIMAL}[server]\ndeadline_ms = 40\n"))
                .expect("valid")
        };
        let current = base();

        let mut hot = base();
        hot.deadline = Some(Duration::from_millis(80));
        hot.admission.capacity = 8;
        hot.watchdog_expirations = 3;
        let applied = validate_reload(&current, hot).expect("hot fields apply");
        assert_eq!(applied.deadline, Some(Duration::from_millis(80)));
        assert_eq!(applied.admission.capacity, 8);

        let mut other_scenario = base();
        other_scenario.scenario = Scenario::paper(5, 1);
        assert!(matches!(
            validate_reload(&current, other_scenario),
            Err(ConfigError::Reload { .. })
        ));

        let mut other_dir = base();
        other_dir.durability.dir = PathBuf::from("elsewhere");
        assert!(matches!(validate_reload(&current, other_dir), Err(ConfigError::Reload { .. })));

        let mut mode_flip = base();
        mode_flip.deadline = None;
        assert!(matches!(validate_reload(&current, mode_flip), Err(ConfigError::Reload { .. })));
    }
}
