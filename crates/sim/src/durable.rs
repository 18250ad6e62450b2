//! Checkpointed (crash-safe) simulation runs: snapshot + journal + resume.
//!
//! A durable run lives in one *checkpoint directory*:
//!
//! ```text
//! D/
//! ├── manifest.json       what is running (scenario, mode, policies)
//! ├── snapshot.bin        latest controller snapshot (atomic overwrite)
//! └── journal/            write-ahead slot journal (segmented, CRC-framed)
//!     ├── journal-000000.log
//!     └── ...
//! ```
//!
//! Per completed slot the engine appends one
//! [`SlotRecord`] frame to the journal; every
//! `checkpoint_every` slots (and at the horizon) it syncs the journal and
//! atomically rewrites `snapshot.bin` with the full resumable controller
//! state ([`RunSnapshot`]). The ordering invariant — *journal is durable
//! through frame `S` before a snapshot claiming `S` slots exists* — means a
//! crash at any instant leaves a directory [`resume_durable`] can always
//! pick up:
//!
//! 1. the snapshot restores the controller exactly as of slot `S`;
//! 2. the journal's first `S` frames replay the completed slots' series
//!    bit-exactly (no re-solving);
//! 3. intact frames past `S` are discarded (counted in
//!    `durability.frames_discarded`) and their slots re-executed — the
//!    controller is deterministic, so the re-executed decisions are
//!    bit-identical to the lost originals;
//! 4. a torn final frame (crash mid-append) is dropped silently and
//!    counted in `durability.torn_frames_dropped`.
//!
//! Only wall-clock fields (`solve_time_s`, per-stage seconds) can differ
//! between an interrupted-and-resumed run and an uninterrupted one; every
//! decision, series value, queue state, and counter is bit-identical —
//! pinned by the kill–resume chaos tests in `tests/kill_resume.rs`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use eotora_core::checkpoint::{ControllerState, SanitizerSnapshot};
use eotora_core::fault::FaultSchedule;
use eotora_durability::journal::open_for_append_after;
use eotora_durability::{
    read_journal, read_snapshot, write_atomic, write_snapshot, DurabilityError, FsyncPolicy,
    JournalWriter, SlotRecord, DEFAULT_SEGMENT_BYTES,
};
use eotora_obs::Recorder;
use eotora_util::rng::Pcg32;
use serde::{Deserialize, Serialize};

use crate::engine::DriverMode;
use crate::runner::{robust_config, run_engine, SimulationResult};
use crate::scenario::Scenario;

/// Version of `manifest.json`; bump on incompatible layout changes.
pub const MANIFEST_VERSION: u32 = 1;

/// Schema identifier under which run snapshots are written.
const SNAPSHOT_SCHEMA: &str = "eotora.run.v1";

const MANIFEST_FILE: &str = "manifest.json";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const JOURNAL_DIR: &str = "journal";

/// How a run checkpoints itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Checkpoint directory (created if missing).
    pub dir: PathBuf,
    /// Snapshot cadence in slots (a snapshot is also always written at the
    /// horizon). Bounds re-execution after a crash to `checkpoint_every − 1`
    /// slots.
    pub checkpoint_every: u64,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
    /// Journal segment-rotation threshold in bytes.
    pub max_segment_bytes: u64,
    /// Test hook: terminate the run right after completing this slot (post
    /// journal append and any due snapshot), simulating a crash between
    /// slots. Drives the kill–resume chaos tests and the CI smoke gate.
    pub kill_at_slot: Option<u64>,
}

impl DurabilityConfig {
    /// Default checkpointing into `dir`: every 10 slots, `every-16` fsync,
    /// 8 MiB segments, no kill hook.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every: 10,
            fsync: FsyncPolicy::default(),
            max_segment_bytes: DEFAULT_SEGMENT_BYTES,
            kill_at_slot: None,
        }
    }
}

/// Outcome of a durable run.
#[derive(Debug)]
pub enum DurableRun {
    /// The run reached its horizon; the final snapshot is on disk.
    Completed(Box<SimulationResult>),
    /// The kill hook fired after `slot` completed; resume with
    /// [`resume_durable`].
    Interrupted {
        /// Last completed slot.
        slot: u64,
    },
}

/// `manifest.json`: identifies what is running in a checkpoint directory,
/// so `resume` needs only the directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest layout version.
    pub version: u32,
    /// The pipeline: `"plain"` or `"robust"` for batch runs (see
    /// [`RunManifest::new`]), `"server"` for the `eotora-server` daemon.
    pub mode: String,
    /// The full scenario being run.
    pub scenario: Scenario,
    /// Fault schedule (robust mode only).
    pub faults: Option<FaultSchedule>,
    /// Anytime per-slot deadline in milliseconds (robust mode only).
    pub deadline_ms: Option<u64>,
    /// Snapshot cadence in slots.
    pub checkpoint_every: u64,
    /// Journal fsync policy, as its display string.
    pub fsync: String,
}

impl RunManifest {
    /// The manifest of a batch run of `scenario` in `mode` under `cfg` —
    /// the one place a [`DriverMode`] is written down, inverted by
    /// [`RunManifest::driver_mode`] on resume.
    ///
    /// Refuses, with [`DurabilityError::InvalidConfig`], any mode the
    /// manifest cannot reproduce: a [`DriverMode::Robust`] config other
    /// than [`robust_config`] of `scenario` at the deadline's
    /// whole-millisecond value (`deadline_ms` is the only robust knob on
    /// disk, so a sub-millisecond deadline would resume as another run).
    /// Also refuses robust mode on a scenario whose solver cannot honour
    /// an availability mask (a baseline): every slot would be a lifeboat.
    pub fn new(
        scenario: &Scenario,
        mode: &DriverMode,
        cfg: &DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let (name, faults, deadline_ms) = match mode {
            DriverMode::Plain => ("plain", None, None),
            DriverMode::Robust { faults, robust } => {
                if !scenario.dpp.solver.supports_masks() {
                    return Err(DurabilityError::InvalidConfig {
                        reason: format!(
                            "robust mode needs a CGBA solver; the scenario's solver is {} \
                             (dpp.solver)",
                            scenario.dpp.solver.name()
                        ),
                    });
                }
                let deadline_ms = robust.deadline.map(|d| d.as_millis() as u64);
                if *robust != robust_config(scenario, deadline_ms.map(Duration::from_millis)) {
                    return Err(DurabilityError::InvalidConfig {
                        reason: format!(
                            "a checkpointed robust run must use the scenario's robust config \
                             with a whole-millisecond deadline (got {robust:?}); the manifest \
                             could not resume it"
                        ),
                    });
                }
                ("robust", Some(faults.clone()), deadline_ms)
            }
        };
        Ok(RunManifest {
            version: MANIFEST_VERSION,
            mode: name.to_owned(),
            scenario: scenario.clone(),
            faults,
            deadline_ms,
            checkpoint_every: cfg.checkpoint_every.max(1),
            fsync: cfg.fsync.to_string(),
        })
    }

    /// The [`DriverMode`] a batch manifest resumes — the inverse of
    /// [`RunManifest::new`]. Errs with the reason on any other mode name
    /// (the server's `"server"` manifests resume through the daemon).
    pub fn driver_mode(&self) -> Result<DriverMode, String> {
        match self.mode.as_str() {
            "plain" => Ok(DriverMode::Plain),
            "robust" => Ok(DriverMode::Robust {
                faults: self.faults.clone().unwrap_or_default(),
                robust: robust_config(&self.scenario, self.deadline_ms.map(Duration::from_millis)),
            }),
            other => Err(format!("unknown run mode `{other}`")),
        }
    }
}

/// The payload of `snapshot.bin`: the full resumable state as of `slots`
/// completed slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSnapshot {
    /// The next slot to solve (the driver cursor). Equal to the number of
    /// completed slots on batch runs; can exceed `frames` on server runs
    /// where overload shedding skipped slots.
    pub slots: u64,
    /// Journal frames durable as of this snapshot — the number of journal
    /// records to replay on resume.
    pub frames: u64,
    /// Controller state: virtual queue, averages, solver RNG, config, and
    /// the warm-start workspace (retained incumbent + probe heat).
    pub controller: ControllerState,
    /// Sanitizer state: limits, defaults, last-known-good `β`, lifetime
    /// substitution count.
    pub sanitizer: SanitizerSnapshot,
    /// Corruption-injection RNG stream position (robust runs).
    pub corrupt_rng: Pcg32,
    /// All monotonic counters as of this snapshot.
    pub counters: BTreeMap<String, u64>,
}

/// State recovered from disk that the engine consumes on resume.
pub(crate) struct ResumeState {
    /// The decoded snapshot; `None` when the run crashed before its first
    /// checkpoint (the run restarts from slot 0 and `head` is empty).
    pub(crate) snapshot: Option<RunSnapshot>,
    /// Journal records of the snapshotted slots (`snapshot.slots` of them),
    /// oldest first — replayed into the result series without re-solving.
    pub(crate) head: Vec<SlotRecord>,
    /// Torn frames dropped during journal recovery.
    pub(crate) torn_frames_dropped: u64,
    /// Intact frames past the snapshot discarded for re-execution.
    pub(crate) frames_discarded: u64,
}

/// Live durability state the engine drives: the open journal writer, the
/// snapshot target, and the pending resume payload (if any). Opaque
/// outside the crate — obtain one with [`open_session`] and hand it to
/// [`crate::engine::StepDriver::new`]; the driver journals every slot and
/// snapshots on the session's cadence.
pub struct DurableSession {
    writer: JournalWriter,
    snapshot_path: PathBuf,
    checkpoint_every: u64,
    kill_at_slot: Option<u64>,
    resume: Option<ResumeState>,
}

impl DurableSession {
    /// Takes the resume payload (present exactly once, on a resumed run).
    pub(crate) fn take_resume(&mut self) -> Option<ResumeState> {
        self.resume.take()
    }

    /// Appends one slot record to the journal.
    pub(crate) fn journal_slot(&mut self, record: &SlotRecord) -> Result<(), DurabilityError> {
        self.writer.append(&record.encode())
    }

    /// Duration of the most recent journal fsync, if one ran since the
    /// last call — feeds the sink-only `journal.fsync` telemetry span.
    pub(crate) fn take_sync_nanos(&mut self) -> Option<u64> {
        self.writer.take_last_sync_nanos()
    }

    /// Whether a snapshot is due after `completed` slots of `horizon`.
    pub(crate) fn checkpoint_due(&self, completed: u64, horizon: u64) -> bool {
        completed == horizon || completed.is_multiple_of(self.checkpoint_every)
    }

    /// Syncs the journal, then atomically replaces the snapshot — in that
    /// order, so a snapshot claiming `S` slots never exists without a
    /// durable journal through frame `S`.
    pub(crate) fn write_snapshot(&mut self, snapshot: &RunSnapshot) -> Result<(), DurabilityError> {
        self.writer.sync()?;
        let payload =
            serde_json::to_string(snapshot).map_err(|e| DurabilityError::InvalidConfig {
                reason: format!("run snapshot failed to serialize: {e}"),
            })?;
        write_snapshot(&self.snapshot_path, SNAPSHOT_SCHEMA, payload.as_bytes())
    }

    /// Whether the kill hook fires after `slot`.
    pub(crate) fn should_kill(&self, slot: u64) -> bool {
        self.kill_at_slot == Some(slot)
    }
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

fn journal_dir(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_DIR)
}

fn write_manifest(dir: &Path, manifest: &RunManifest) -> Result<(), DurabilityError> {
    let path = manifest_path(dir);
    let text = serde_json::to_string(manifest).map_err(|e| DurabilityError::InvalidConfig {
        reason: format!("run manifest failed to serialize: {e}"),
    })?;
    write_atomic(&path, text.as_bytes())
}

/// Reads the run manifest of the checkpoint directory `dir` — the public
/// hook the CLI uses to recover a resumed run's scenario parameters (V,
/// budget) for health-rule construction.
pub fn read_manifest_in(dir: &Path) -> Result<RunManifest, DurabilityError> {
    read_manifest(dir)
}

fn read_manifest(dir: &Path) -> Result<RunManifest, DurabilityError> {
    let path = manifest_path(dir);
    let text = fs::read_to_string(&path).map_err(|e| DurabilityError::io(&path, &e))?;
    let manifest: RunManifest = serde_json::from_str(&text).map_err(|e| {
        DurabilityError::CorruptManifest { path: path.display().to_string(), reason: e.to_string() }
    })?;
    if manifest.version > MANIFEST_VERSION {
        return Err(DurabilityError::UnsupportedVersion {
            found: manifest.version,
            supported: MANIFEST_VERSION,
        });
    }
    Ok(manifest)
}

fn fresh_session(
    cfg: &DurabilityConfig,
    manifest: &RunManifest,
) -> Result<DurableSession, DurabilityError> {
    fs::create_dir_all(&cfg.dir).map_err(|e| DurabilityError::io(&cfg.dir, &e))?;
    let existing_manifest = manifest_path(&cfg.dir);
    if existing_manifest.exists() || snapshot_path(&cfg.dir).exists() {
        return Err(DurabilityError::InvalidConfig {
            reason: format!(
                "checkpoint directory {} already holds a run; resume it with \
                 `run --resume` or point --checkpoint-dir at a fresh directory",
                cfg.dir.display()
            ),
        });
    }
    write_manifest(&cfg.dir, manifest)?;
    let writer = JournalWriter::create(&journal_dir(&cfg.dir), cfg.fsync, cfg.max_segment_bytes)?;
    Ok(DurableSession {
        writer,
        snapshot_path: snapshot_path(&cfg.dir),
        checkpoint_every: cfg.checkpoint_every.max(1),
        kill_at_slot: cfg.kill_at_slot,
        resume: None,
    })
}

/// Runs `scenario` in `mode` with checkpointing under `cfg`. The directory
/// must not already hold a run (use [`resume_durable`] for that), and the
/// mode must be one the manifest can reproduce (see [`RunManifest::new`]).
///
/// The optional `sink` (live telemetry, JSONL) additionally receives the
/// journal/fsync/snapshot latency spans, which never enter the aggregated
/// metrics — keeping resumed-run counters and CSV columns bit-identical to
/// an untraced run.
pub fn run_durable(
    scenario: &Scenario,
    mode: DriverMode,
    cfg: &DurabilityConfig,
    sink: Option<&dyn Recorder>,
) -> Result<DurableRun, DurabilityError> {
    let manifest = RunManifest::new(scenario, &mode, cfg)?;
    let session = fresh_session(cfg, &manifest)?;
    run_engine(scenario, mode, sink, Some(session))
}

/// Resumes the run checkpointed in `cfg.dir`: reads the manifest, restores
/// the snapshot, replays the journal head, truncates the stale journal
/// suffix, and re-executes the remaining slots deterministically. The
/// manifest supplies the scenario, mode, and policies; of `cfg`, only
/// `dir`, `max_segment_bytes` and the `kill_at_slot` test hook are
/// consulted. `sink` is routed as in [`run_durable`].
///
/// Returns the same [`DurableRun`] a never-interrupted run would — all
/// decision-derived values bit-identical (see the module docs).
pub fn resume_durable(
    cfg: &DurabilityConfig,
    sink: Option<&dyn Recorder>,
) -> Result<DurableRun, DurabilityError> {
    let manifest = read_manifest(&cfg.dir)?;
    let mode = manifest.driver_mode().map_err(|reason| DurabilityError::CorruptManifest {
        path: manifest_path(&cfg.dir).display().to_string(),
        reason,
    })?;
    let session = resume_session(cfg, &manifest)?;
    run_engine(&manifest.scenario, mode, sink, Some(session))
}

/// Reconstructs the live session of a checkpoint directory that already
/// holds a run: restores the snapshot, replays the journal head, and
/// reopens the journal for appends after the snapshot slot (discarding
/// any stale suffix for deterministic re-execution).
fn resume_session(
    cfg: &DurabilityConfig,
    manifest: &RunManifest,
) -> Result<DurableSession, DurabilityError> {
    let fsync = manifest.fsync.parse::<FsyncPolicy>().map_err(|reason| {
        DurabilityError::CorruptManifest {
            path: manifest_path(&cfg.dir).display().to_string(),
            reason,
        }
    })?;
    let snap_path = snapshot_path(&cfg.dir);
    let snapshot: Option<RunSnapshot> = if snap_path.exists() {
        let payload = read_snapshot(&snap_path, SNAPSHOT_SCHEMA)?;
        let text = String::from_utf8(payload).map_err(|_| DurabilityError::CorruptSnapshot {
            path: snap_path.display().to_string(),
            reason: "payload is not valid UTF-8".to_owned(),
        })?;
        Some(serde_json::from_str(&text).map_err(|e| DurabilityError::CorruptSnapshot {
            path: snap_path.display().to_string(),
            reason: format!("payload failed to deserialize: {e}"),
        })?)
    } else {
        // Crashed before the first checkpoint: nothing to restore, so the
        // run restarts from slot 0 (journaled frames are discarded and
        // their slots re-executed deterministically).
        None
    };
    let snapshot_frames = snapshot.as_ref().map_or(0, |s| s.frames);

    let journal = journal_dir(&cfg.dir);
    let (head, torn_frames_dropped, frames_discarded, writer) = if journal.is_dir() {
        let readback = read_journal(&journal)?;
        let total_frames = readback.frames.len() as u64;
        if total_frames < snapshot_frames {
            return Err(DurabilityError::JournalBehindSnapshot {
                snapshot_slots: snapshot_frames,
                journal_frames: total_frames,
            });
        }
        let mut head = Vec::with_capacity(snapshot_frames as usize);
        for frame in readback.frames.iter().take(snapshot_frames as usize) {
            head.push(SlotRecord::decode(frame)?);
        }
        let writer =
            open_for_append_after(&journal, snapshot_frames, fsync, cfg.max_segment_bytes)?;
        (head, readback.torn_frames_dropped, total_frames - snapshot_frames, writer)
    } else {
        // Crashed between the manifest write and the journal's creation.
        let writer = JournalWriter::create(&journal, fsync, cfg.max_segment_bytes)?;
        (Vec::new(), 0, 0, writer)
    };

    Ok(DurableSession {
        writer,
        snapshot_path: snap_path,
        checkpoint_every: manifest.checkpoint_every.max(1),
        kill_at_slot: cfg.kill_at_slot,
        resume: Some(ResumeState { snapshot, head, torn_frames_dropped, frames_discarded }),
    })
}

/// Opens the durable session for `cfg.dir`, fresh or resumed — the
/// auto-resume entry point the server daemon starts through:
///
/// * an empty directory writes `manifest` and starts a fresh journal;
/// * a directory already holding a run is verified against `manifest` —
///   same mode, scenario, and fault schedule, or a typed
///   [`DurabilityError::InvalidConfig`] — and resumed from its
///   snapshot-plus-journal head (hand the session to
///   [`crate::engine::StepDriver::new`], which consumes the resume
///   payload and restores the controller).
///
/// Operational policy fields that may legitimately change across
/// restarts (deadline, checkpoint cadence, fsync) follow the *new*
/// manifest; the on-disk manifest is rewritten when they differ.
pub fn open_session(
    cfg: &DurabilityConfig,
    manifest: &RunManifest,
) -> Result<DurableSession, DurabilityError> {
    if !manifest_path(&cfg.dir).exists() {
        return fresh_session(cfg, manifest);
    }
    let existing = read_manifest(&cfg.dir)?;
    if existing.mode != manifest.mode
        || existing.scenario != manifest.scenario
        || existing.faults != manifest.faults
    {
        return Err(DurabilityError::InvalidConfig {
            reason: format!(
                "checkpoint directory {} holds a different run (mode `{}`, scenario `{}`); \
                 point at a fresh directory or restore the matching config",
                cfg.dir.display(),
                existing.mode,
                existing.scenario.label
            ),
        });
    }
    if existing != *manifest {
        write_manifest(&cfg.dir, manifest)?;
    }
    resume_session(cfg, manifest)
}
