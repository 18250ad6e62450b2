//! The engine options: one schema for the per-run knobs that `eotora run`,
//! `eotora run --resume`, `eotora federate` and the `eotora serve` config
//! set (DESIGN.md §5d). [`ENGINE_OPTIONS`] names each option's CLI flag
//! and, where the daemon takes it, its config key; both parsers and their
//! unknown-flag and unknown-key checks read it. [`EngineOptions::parse`]
//! reads every value once and checks every rule.

use std::path::{Path, PathBuf};
use std::time::Duration;

use eotora_core::fault::FaultSchedule;
use eotora_core::robust::RobustConfig;
use eotora_durability::FsyncPolicy;
use eotora_obs::TelemetryConfig;

use crate::durable::DurabilityConfig;
use crate::engine::DriverMode;
use crate::runner::robust_config;
use crate::scenario::Scenario;

/// One engine option; its discriminant indexes [`ENGINE_OPTIONS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineOption {
    /// Scripted fault trace (JSON); selects the robust engine.
    FaultTrace,
    /// Per-slot anytime deadline in ms; selects the robust engine.
    Deadline,
    /// Turns the robust engine's state sanitizer off (diagnostic); the
    /// one option that is a switch, not a value.
    NoSanitize,
    /// Checkpoint directory of a fresh durable run.
    CheckpointDir,
    /// Checkpoint directory of a run to resume; its manifest fixes the rest.
    Resume,
    /// Snapshot cadence in slots.
    CheckpointEvery,
    /// Journal fsync policy.
    Fsync,
    /// Test hook: stop right after this slot commits, as a crash would.
    KillAtSlot,
    /// Live metrics file (`.prom` exposition, else JSONL snapshots).
    MetricsOut,
    /// Metrics snapshot interval in slots (0 = final snapshot only).
    MetricsEvery,
    /// JSONL event trace file.
    Trace,
}

/// Every engine option, in [`EngineOption`] order: its CLI flag and, if
/// the daemon takes it, its dotted `section.key` in the server config.
pub const ENGINE_OPTIONS: &[(EngineOption, &str, Option<&str>)] = {
    use EngineOption::*;
    &[
        (FaultTrace, "--fault-trace", None),
        (Deadline, "--slot-deadline-ms", Some("server.deadline_ms")),
        (NoSanitize, "--no-sanitize", None),
        (CheckpointDir, "--checkpoint-dir", Some("durability.dir")),
        (Resume, "--resume", None),
        (CheckpointEvery, "--checkpoint-every", Some("durability.checkpoint_every")),
        (Fsync, "--fsync", Some("durability.fsync")),
        (KillAtSlot, "--kill-at-slot", Some("server.kill_after_slot")),
        (MetricsOut, "--metrics-out", Some("telemetry.metrics_out")),
        (MetricsEvery, "--metrics-every", Some("telemetry.metrics_every")),
        (Trace, "--trace", None),
    ]
};

/// The durability group: the engine options `eotora federate` takes.
pub const DURABILITY_OPTIONS: &[EngineOption] = {
    use EngineOption::*;
    &[CheckpointDir, Resume, CheckpointEvery, Fsync, KillAtSlot]
};

/// Options that mean nothing without one of the listed ones.
const REQUIRES: &[(EngineOption, &[EngineOption])] = {
    use EngineOption::*;
    &[
        (CheckpointEvery, &[CheckpointDir]),
        (Fsync, &[CheckpointDir]),
        (KillAtSlot, &[CheckpointDir, Resume]),
        (MetricsEvery, &[MetricsOut]),
        (NoSanitize, &[FaultTrace, Deadline]),
    ]
};

/// Options that exclude the listed ones, and why.
const EXCLUDES: &[(EngineOption, &[EngineOption], &str)] = {
    use EngineOption::*;
    const REPLAYABLE: &str = "a checkpointed run must stay replayable";
    &[
        (
            Resume,
            &[CheckpointDir, CheckpointEvery, Fsync, FaultTrace, Deadline, NoSanitize],
            "the manifest in the checkpoint directory fixes it",
        ),
        (Resume, &[Trace], REPLAYABLE),
        (CheckpointDir, &[NoSanitize, Trace], REPLAYABLE),
    ]
};

/// Which parser the options came through; errors name options its way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// `eotora` command-line flags.
    Cli,
    /// The server's TOML (or JSON) config.
    Toml,
}

impl EngineOption {
    /// The option's CLI flag.
    pub fn flag(self) -> &'static str {
        ENGINE_OPTIONS[self as usize].1
    }

    /// The option's name on `surface`: its config key there when it has
    /// one, else its flag.
    fn name(self, surface: Surface) -> &'static str {
        match (surface, ENGINE_OPTIONS[self as usize].2) {
            (Surface::Toml, Some(key)) => key,
            _ => self.flag(),
        }
    }
}

/// An option's value as its parser read it: a flag's text, or a config
/// value.
pub trait OptionValue {
    /// The value as a path or policy name, if it is text.
    fn text(&self) -> Option<&str>;
    /// The value as a non-negative integer, if it is one.
    fn int(&self) -> Option<u64>;
}

impl OptionValue for &str {
    fn text(&self) -> Option<&str> {
        Some(self)
    }
    fn int(&self) -> Option<u64> {
        self.parse().ok()
    }
}

impl OptionValue for &serde_json::Value {
    fn text(&self) -> Option<&str> {
        self.as_str()
    }
    fn int(&self) -> Option<u64> {
        self.as_u64()
    }
}

/// A refused engine option: the flag or key to blame, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionError {
    /// The flag or config key, as the options' surface names it.
    pub field: &'static str,
    /// Why it was refused.
    pub reason: String,
}

impl std::fmt::Display for OptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for OptionError {}

/// The validated engine options of one run, as the configs the engine
/// takes. Only [`EngineOptions::parse`] builds one.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    mode: DriverMode,
    durability: Option<DurabilityConfig>,
    telemetry: TelemetryConfig,
    live_telemetry: bool,
    resume: bool,
    trace: Option<PathBuf>,
}

impl EngineOptions {
    /// Reads the options `given` on `surface` and checks every rule against
    /// the run's `scenario`, naming options as the surface does: the
    /// combinations first (so a knob without what it configures is refused
    /// as such even when its value is bad too), then each value, a deadline
    /// and a cadence of at least 1, and a CGBA solver wherever the robust
    /// engine is selected. Then reads the fault trace and builds the
    /// configs; the defaults are a plain in-memory run.
    pub fn parse<V: OptionValue>(
        surface: Surface,
        given: &[(EngineOption, V)],
        scenario: &Scenario,
    ) -> Result<Self, OptionError> {
        use EngineOption::*;
        let name = |option: EngineOption| option.name(surface);
        let value = |option| given.iter().find(|(o, _)| *o == option).map(|(_, value)| value);
        let has = |option| value(option).is_some();
        let refuse =
            |option, reason: &str| OptionError { field: name(option), reason: reason.into() };
        for &(other, excluded, why) in EXCLUDES {
            if let Some(&option) = excluded.iter().find(|&&o| has(o) && has(other)) {
                let reason = format!("cannot be combined with {} ({why})", name(other));
                return Err(refuse(option, &reason));
            }
        }
        for &(option, needs) in REQUIRES {
            if has(option) && !needs.iter().any(|&o| has(o)) {
                let names: Vec<&str> = needs.iter().map(|&o| name(o)).collect();
                return Err(refuse(option, &format!("requires {}", names.join(" or "))));
            }
        }
        let int = |option| {
            let int = |v: &V| v.int().ok_or_else(|| refuse(option, "expects an integer ≥ 0"));
            value(option).map(int).transpose()
        };
        let path = |option| {
            let path =
                |v: &V| v.text().map(PathBuf::from).ok_or_else(|| refuse(option, "expects a path"));
            value(option).map(path).transpose()
        };
        let deadline = int(Deadline)?.map(Duration::from_millis);
        let checkpoint_every = int(CheckpointEvery)?;
        let fsync = value(Fsync)
            .map(|v| v.text().and_then(|text| text.parse::<FsyncPolicy>().ok()))
            .map(|policy| policy.ok_or_else(|| refuse(Fsync, "expects every-slot, every-K or os")))
            .transpose()?;
        let (kill_at_slot, metrics_every) = (int(KillAtSlot)?, int(MetricsEvery)?);
        let (fault_trace, metrics_out, trace) =
            (path(FaultTrace)?, path(MetricsOut)?, path(Trace)?);
        let root = path(Resume)?.or(path(CheckpointDir)?);
        if deadline == Some(Duration::ZERO) {
            return Err(refuse(Deadline, "must be at least 1 ms; omit it for no deadline"));
        }
        if checkpoint_every == Some(0) {
            return Err(refuse(CheckpointEvery, "must be at least 1"));
        }
        let solver = scenario.dpp.solver;
        let robust = [FaultTrace, Deadline].into_iter().find(|&o| has(o));
        if let Some(option) = robust.filter(|_| !solver.supports_masks()) {
            let field = if surface == Surface::Toml { "scenario.dpp.solver" } else { name(option) };
            let (option, solver) = (name(option), solver.name());
            let reason = format!(
                "the robust engine that {option} selects needs a CGBA solver; the scenario's \
                 dpp.solver is {solver}"
            );
            return Err(OptionError { field, reason });
        }
        let faults = match fault_trace {
            None => None,
            Some(path) => Some(read_faults(&path).map_err(|e| {
                refuse(FaultTrace, &format!("cannot load {}: {e}", path.display()))
            })?),
        };
        // Postmortems land under the checkpoint directory, else next to
        // the metrics file.
        let postmortem_dir = match &root {
            Some(dir) => Some(dir.join("postmortems")),
            None => metrics_out.as_deref().map(|out| match out.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
                _ => ".".into(),
            }),
        };
        let durability = root.map(|dir| {
            let defaults = DurabilityConfig::new(dir);
            DurabilityConfig {
                checkpoint_every: checkpoint_every.unwrap_or(defaults.checkpoint_every),
                fsync: fsync.unwrap_or(defaults.fsync),
                kill_at_slot,
                ..defaults
            }
        });
        Ok(Self {
            mode: driver_mode(scenario, faults, deadline, !has(NoSanitize)),
            durability,
            live_telemetry: metrics_out.is_some() || has(NoSanitize),
            telemetry: TelemetryConfig {
                v: scenario.dpp.v,
                budget: scenario.system.budget_per_slot,
                metrics_out,
                metrics_every: metrics_every.unwrap_or(0),
                postmortem_dir,
            },
            resume: has(Resume),
            trace,
        })
    }

    /// The pipeline: robust when a fault trace or a deadline is given.
    pub fn mode(&self) -> &DriverMode {
        &self.mode
    }

    /// The per-slot deadline, if one was given.
    pub fn deadline(&self) -> Option<Duration> {
        match &self.mode {
            DriverMode::Robust { robust, .. } => robust.deadline,
            DriverMode::Plain => None,
        }
    }

    /// The checkpointing configuration, or `None` for an in-memory run.
    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref()
    }

    /// Whether the checkpoint directory is one to resume.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// The live-telemetry configuration: health rules at the scenario's V
    /// and budget, the metrics sink and cadence, and the postmortem
    /// directory.
    pub fn telemetry(&self) -> &TelemetryConfig {
        &self.telemetry
    }

    /// Whether a batch run attaches a live telemetry session: it has a
    /// metrics file, or runs with the sanitizer off, whose health the
    /// session watches.
    pub fn live_telemetry(&self) -> bool {
        self.live_telemetry
    }

    /// The JSONL event trace file, if one was given.
    pub fn trace(&self) -> Option<&Path> {
        self.trace.as_deref()
    }
}

fn read_faults(path: &Path) -> Result<FaultSchedule, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// The one mapping from a run's faults and deadline to its pipeline:
/// robust when either is given, with the scenario's robust config.
pub(crate) fn driver_mode(
    scenario: &Scenario,
    faults: Option<FaultSchedule>,
    deadline: Option<Duration>,
    sanitize: bool,
) -> DriverMode {
    match (faults, deadline) {
        (None, None) => DriverMode::Plain,
        (faults, deadline) => DriverMode::Robust {
            faults: faults.unwrap_or_default(),
            robust: RobustConfig { sanitize, ..robust_config(scenario, deadline) },
        },
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    #[test]
    fn the_table_is_in_option_order_and_its_names_are_unique() {
        for (i, &(option, flag, _)) in ENGINE_OPTIONS.iter().enumerate() {
            assert_eq!(option as usize, i, "{option:?} is out of order");
            assert_eq!(option.flag(), flag);
            assert!(flag.starts_with("--"), "{flag}");
        }
        let mut names: Vec<&str> = ENGINE_OPTIONS.iter().map(|row| row.1).collect();
        names.extend(ENGINE_OPTIONS.iter().filter_map(|row| row.2));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a flag or key is listed twice");
    }

    #[test]
    fn defaults_build_a_plain_in_memory_run() {
        let scenario = Scenario::paper(4, 1);
        let options = EngineOptions::parse::<&str>(Surface::Cli, &[], &scenario).unwrap();
        assert_eq!(options.mode(), &DriverMode::Plain);
        assert_eq!(options.durability(), None);
        assert_eq!(options.telemetry().postmortem_dir, None);
        assert!(!options.live_telemetry());
    }

    #[test]
    fn given_values_reach_the_built_configs() {
        use EngineOption::*;
        let scenario = Scenario::paper(4, 1);
        let given = [
            (Deadline, "40"),
            (CheckpointDir, "ck"),
            (CheckpointEvery, "4"),
            (Fsync, "every-slot"),
            (KillAtSlot, "6"),
            (MetricsOut, "out/m.jsonl"),
            (MetricsEvery, "5"),
        ];
        let options = EngineOptions::parse(Surface::Cli, &given, &scenario).unwrap();
        assert_eq!(options.deadline(), Some(Duration::from_millis(40)));
        let durability = options.durability().unwrap();
        assert_eq!(durability.dir, PathBuf::from("ck"));
        assert_eq!((durability.checkpoint_every, durability.fsync), (4, FsyncPolicy::EverySlot));
        assert_eq!(durability.kill_at_slot, Some(6));
        let telemetry = options.telemetry();
        assert_eq!(telemetry.metrics_every, 5);
        assert_eq!(telemetry.postmortem_dir, Some(PathBuf::from("ck/postmortems")));
        assert!(options.live_telemetry());
        let robust = robust_config(&scenario, Some(Duration::from_millis(40)));
        let expected = DriverMode::Robust { faults: FaultSchedule::default(), robust };
        assert_eq!(options.mode(), &expected);
    }

    #[test]
    fn a_knob_without_what_it_configures_is_refused_before_its_value_is_read() {
        use EngineOption::*;
        let refusal = |surface, given: &[(EngineOption, &str)]| {
            EngineOptions::parse(surface, given, &Scenario::paper(4, 1)).unwrap_err().to_string()
        };
        assert_eq!(
            refusal(Surface::Cli, &[(Fsync, "always")]),
            "--fsync: requires --checkpoint-dir"
        );
        assert_eq!(
            refusal(Surface::Toml, &[(Fsync, "always")]),
            "durability.fsync: requires durability.dir"
        );
        assert_eq!(
            refusal(Surface::Cli, &[(CheckpointDir, "ck"), (Fsync, "always")]),
            "--fsync: expects every-slot, every-K or os"
        );
    }

    #[test]
    fn config_values_must_have_their_option_s_type() {
        use EngineOption::*;
        let parse = |option, text: &str| {
            let value = serde_json::parse(text).unwrap();
            let given = [(CheckpointDir, &serde_json::Value::Str("ck".into())), (option, &value)];
            EngineOptions::parse(Surface::Toml, &given, &Scenario::paper(4, 1)).map(|_| ())
        };
        assert_eq!(parse(CheckpointEvery, "4"), Ok(()));
        let err = parse(CheckpointEvery, "\"4\"").unwrap_err();
        assert_eq!(err.to_string(), "durability.checkpoint_every: expects an integer ≥ 0");
        let err = parse(KillAtSlot, "-1").unwrap_err();
        assert_eq!(err.to_string(), "server.kill_after_slot: expects an integer ≥ 0");
        let err = parse(Fsync, "16").unwrap_err();
        assert_eq!(err.to_string(), "durability.fsync: expects every-slot, every-K or os");
    }
}
