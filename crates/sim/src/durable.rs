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
//!
//! # The snapshot writer thread
//!
//! The two fsyncs of a snapshot stay off the decision path. The calling
//! thread captures the [`RunSnapshot`] and serializes it to JSON, then
//! hands the bytes, with a handle on the journal's current segment, to
//! one writer thread that the session starts at its first snapshot and
//! joins when it drops. The writer runs the journal's `sync_data` and
//! then the atomic snapshot write, in that order, so the invariant above
//! is unchanged. At most one snapshot is in flight: the next one waits
//! for it. Measured on a 2-vCPU host (medians of 60 snapshots, 100
//! devices), the calling thread keeps the 0.31 ms of JSON and the writer
//! takes the 0.47 ms journal sync and the 0.79 ms temp-file write,
//! rename and directory fsync.
//!
//! Whatever observes or replaces the checkpoint directory waits for the
//! snapshot in flight first: the kill hook (so a killed run leaves the
//! bytes a synchronous write would), `StepDriver::checkpoint_now` (even
//! when it writes nothing), `StepDriver::drain_checkpoint` (the daemon's
//! reload, the federation's own snapshot), `StepDriver::finish`, and the
//! session's drop. A failed background sync or write comes back as its
//! [`DurabilityError`] from the next `step` or drain. The journal's own
//! `every-slot` and `every-K` syncs stay in `append`, on the calling
//! thread; `every-K` counts frames whose snapshot sync is still in
//! flight as not durable.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eotora_core::checkpoint::{ControllerState, SanitizerSnapshot};
use eotora_core::fault::FaultSchedule;
use eotora_durability::journal::open_for_append_after;
use eotora_durability::{
    read_journal, read_snapshot, write_atomic, write_snapshot, DetachedSync, DurabilityError,
    FsyncPolicy, JournalWriter, SlotRecord, DEFAULT_SEGMENT_BYTES,
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
#[derive(Debug, Clone, PartialEq)]
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

/// How a batch run ([`crate::run_engine`]) or a federation
/// ([`crate::run_federation`]) ended.
#[derive(Debug)]
pub enum RunOutcome<R> {
    /// The run reached its horizon; with checkpoints, the final snapshot
    /// is on disk.
    Completed(Box<R>),
    /// The kill hook fired after `slot` completed; resume from the
    /// checkpoint directory.
    Interrupted {
        /// Last completed slot.
        slot: u64,
    },
}

/// How [`StepDriver::open`](crate::engine::StepDriver::open) takes a
/// checkpoint directory, and what it does with a run already there.
#[derive(Debug, Clone, Copy)]
pub enum Checkpoint<'a> {
    /// Starts the run; refuses a directory that holds one (`eotora run
    /// --checkpoint-dir`).
    Fresh(&'a DurabilityConfig),
    /// Resumes the run of this manifest, read from the directory.
    Resume(&'a DurabilityConfig, &'a RunManifest),
    /// Resumes the run if the directory holds it, else starts it
    /// ([`open_session`]): a federation region.
    Open(&'a DurabilityConfig),
    /// As `Open`, under the daemon's `"server"` manifest.
    Server(&'a DurabilityConfig),
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
    pub fn new(
        scenario: &Scenario,
        mode: &DriverMode,
        cfg: &DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let (name, faults, deadline_ms) = match mode {
            DriverMode::Plain => ("plain", None, None),
            DriverMode::Robust { faults, robust } => {
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
    /// [`RunManifest::new`]. A `"server"` manifest is refused as the
    /// daemon's, which resumes it on restart; any other name is corrupt.
    pub fn driver_mode(&self) -> Result<DriverMode, DurabilityError> {
        match self.mode.as_str() {
            "plain" => Ok(DriverMode::Plain),
            "robust" => Ok(DriverMode::Robust {
                faults: self.faults.clone().unwrap_or_default(),
                robust: robust_config(&self.scenario, self.deadline_ms.map(Duration::from_millis)),
            }),
            "server" => Err(DurabilityError::InvalidConfig {
                reason: "the directory holds an `eotora serve` run; restarting `eotora serve` \
                         on it resumes the run"
                    .to_owned(),
            }),
            other => Err(DurabilityError::CorruptManifest {
                path: MANIFEST_FILE.to_owned(),
                reason: format!("unknown run mode `{other}`"),
            }),
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
    /// Journal records of the snapshotted slots (`snapshot.frames` of
    /// them), oldest first — replayed into the result series without
    /// re-solving. Only the last keeps its per-device `stations`.
    pub(crate) head: Vec<SlotRecord>,
    /// Torn frames dropped during journal recovery.
    pub(crate) torn_frames_dropped: u64,
    /// Intact frames past the snapshot discarded for re-execution.
    pub(crate) frames_discarded: u64,
}

/// Live durability state the engine drives: the open journal writer, the
/// snapshot writer thread, and the pending resume payload (if any).
/// Opaque outside the crate — obtain one with [`open_session`] and hand it
/// to [`crate::engine::StepDriver::new`]; the driver journals every slot
/// and snapshots on the session's cadence.
///
/// Dropping the session waits for the snapshot in flight to land and
/// discards any error it meets; a caller that needs that error drains
/// first (`StepDriver::finish`, `checkpoint_now`, `drain_checkpoint`).
pub struct DurableSession {
    writer: JournalWriter,
    snapshot_path: PathBuf,
    checkpoint_every: u64,
    kill_at_slot: Option<u64>,
    resume: Option<ResumeState>,
    /// Started at the first snapshot, joined on drop.
    snapshots: Option<SnapshotWriter>,
}

/// One snapshot for the writer thread: the journal sync that must land
/// before it, and the serialized [`RunSnapshot`].
struct SnapshotJob {
    journal: DetachedSync,
    payload: Vec<u8>,
}

/// What the writer thread reports for one landed snapshot.
struct Landed {
    /// Journal frames the sync made durable.
    frames: u64,
    /// The journal `sync_data`, ns.
    sync_nanos: u64,
    /// The atomic snapshot write (temp file, fsync, rename, directory
    /// fsync), ns.
    write_nanos: u64,
}

/// The thread that lands snapshots off the decision path, one at a time.
struct SnapshotWriter {
    jobs: mpsc::Sender<SnapshotJob>,
    landed: mpsc::Receiver<Result<Landed, DurabilityError>>,
    thread: JoinHandle<()>,
    in_flight: bool,
}

impl SnapshotWriter {
    fn spawn(path: PathBuf) -> std::io::Result<Self> {
        let (jobs, queued) = mpsc::channel::<SnapshotJob>();
        let (report, landed) = mpsc::channel();
        let thread =
            std::thread::Builder::new().name("eotora-snapshot".to_owned()).spawn(move || {
                for job in queued {
                    if report.send(land(&path, job)).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self { jobs, landed, thread, in_flight: false })
    }
}

/// Syncs the journal, then atomically replaces the snapshot — in that
/// order, so a snapshot claiming `S` slots never exists without a durable
/// journal through frame `S`. Runs on the writer thread only.
fn land(path: &Path, job: SnapshotJob) -> Result<Landed, DurabilityError> {
    let (frames, sync_nanos) = job.journal.run()?;
    let start = Instant::now();
    write_snapshot(path, SNAPSHOT_SCHEMA, &job.payload)?;
    let write_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(Landed { frames, sync_nanos, write_nanos })
}

impl DurableSession {
    fn new(
        writer: JournalWriter,
        cfg: &DurabilityConfig,
        checkpoint_every: u64,
        resume: Option<ResumeState>,
    ) -> Self {
        let snapshot_path = snapshot_path(&cfg.dir);
        let (checkpoint_every, kill_at_slot) = (checkpoint_every.max(1), cfg.kill_at_slot);
        Self { writer, snapshot_path, checkpoint_every, kill_at_slot, resume, snapshots: None }
    }

    /// Takes the resume payload (present exactly once, on a resumed run).
    pub(crate) fn take_resume(&mut self) -> Option<ResumeState> {
        self.resume.take()
    }

    /// Appends one slot record to the journal.
    pub(crate) fn journal_slot(&mut self, record: &SlotRecord) -> Result<(), DurabilityError> {
        self.writer.append(&record.encode())
    }

    /// Duration of the most recent in-line journal fsync, if one ran since
    /// the last call — feeds the sink-only `journal.fsync` telemetry span.
    pub(crate) fn take_sync_nanos(&mut self) -> Option<u64> {
        self.writer.take_last_sync_nanos()
    }

    /// Whether a snapshot is due after `completed` slots of `horizon`.
    pub(crate) fn checkpoint_due(&self, completed: u64, horizon: u64) -> bool {
        completed == horizon || completed.is_multiple_of(self.checkpoint_every)
    }

    /// Serializes `snapshot` on the calling thread and hands it, with a
    /// sync of the journal as appended so far, to the writer thread
    /// (started here the first time). At most one snapshot is in flight:
    /// a previous one is waited for first, and its error returned.
    pub(crate) fn enqueue_snapshot(
        &mut self,
        snapshot: &RunSnapshot,
        sink: Option<&dyn Recorder>,
    ) -> Result<(), DurabilityError> {
        self.drain(sink)?;
        let payload = to_json(snapshot, "run snapshot")?;
        let journal = self.writer.detach_sync()?;
        let writer = match self.snapshots.take() {
            Some(writer) => writer,
            None => SnapshotWriter::spawn(self.snapshot_path.clone())
                .map_err(|e| DurabilityError::io(&self.snapshot_path, &e))?,
        };
        let writer = self.snapshots.insert(writer);
        writer.in_flight = writer.jobs.send(SnapshotJob { journal, payload }).is_ok();
        if writer.in_flight {
            Ok(())
        } else {
            Err(writer_gone(&self.snapshot_path))
        }
    }

    /// Collects the snapshot in flight if it has landed, without waiting.
    pub(crate) fn poll(&mut self, sink: Option<&dyn Recorder>) -> Result<(), DurabilityError> {
        self.collect(false, sink)
    }

    /// Waits for the snapshot in flight, if any, to land.
    pub(crate) fn drain(&mut self, sink: Option<&dyn Recorder>) -> Result<(), DurabilityError> {
        self.collect(true, sink)
    }

    /// Collects the in-flight snapshot's outcome (waiting for it when
    /// `wait`): marks the journal durable through the frames the writer
    /// synced and hands the writer's sync and write durations to `sink`
    /// as `journal.fsync` spans — recorded here, on the calling thread,
    /// so they land in the slot that collects them. A failed sync or
    /// write comes back as its [`DurabilityError`].
    fn collect(&mut self, wait: bool, sink: Option<&dyn Recorder>) -> Result<(), DurabilityError> {
        let Some(writer) = self.snapshots.as_mut().filter(|w| w.in_flight) else {
            return Ok(());
        };
        let outcome = if wait {
            writer.landed.recv().ok()
        } else {
            match writer.landed.try_recv() {
                Err(mpsc::TryRecvError::Empty) => return Ok(()),
                received => received.ok(),
            }
        };
        writer.in_flight = false;
        let landed = outcome.ok_or_else(|| writer_gone(&self.snapshot_path))??;
        self.writer.mark_durable(landed.frames);
        if let Some(sink) = sink {
            sink.span_ns(eotora_obs::SPAN_JOURNAL_FSYNC, landed.sync_nanos);
            sink.span_ns(eotora_obs::SPAN_JOURNAL_FSYNC, landed.write_nanos);
        }
        Ok(())
    }

    /// Whether the kill hook fires after `slot`.
    pub(crate) fn should_kill(&self, slot: u64) -> bool {
        self.kill_at_slot == Some(slot)
    }
}

fn writer_gone(snapshot_path: &Path) -> DurabilityError {
    DurabilityError::Io {
        path: snapshot_path.display().to_string(),
        message: "the snapshot writer thread exited".to_owned(),
    }
}

impl Drop for DurableSession {
    fn drop(&mut self) {
        if let Some(SnapshotWriter { jobs, thread, .. }) = self.snapshots.take() {
            // Closing the queue lets the thread land what it holds and exit.
            drop(jobs);
            let _ = thread.join();
        }
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
    write_atomic(&manifest_path(dir), &to_json(manifest, "run manifest")?)
}

/// Reads the run manifest of the checkpoint directory `dir` — how
/// `eotora run --resume` learns the scenario it resumes.
pub fn read_manifest_in(dir: &Path) -> Result<RunManifest, DurabilityError> {
    read_manifest(&manifest_path(dir), MANIFEST_VERSION, |m: &RunManifest| m.version)
}

/// Serializes `value` to JSON; `what` names it in the error.
pub(crate) fn to_json<T: Serialize>(value: &T, what: &str) -> Result<Vec<u8>, DurabilityError> {
    let text = serde_json::to_string(value).map_err(|e| DurabilityError::InvalidConfig {
        reason: format!("{what} failed to serialize: {e}"),
    })?;
    Ok(text.into_bytes())
}

/// Reads the JSON manifest at `path`, refusing a layout `version` newer
/// than `supported`.
pub(crate) fn read_manifest<T: Deserialize>(
    path: &Path,
    supported: u32,
    version: fn(&T) -> u32,
) -> Result<T, DurabilityError> {
    let text = fs::read_to_string(path).map_err(|e| DurabilityError::io(path, &e))?;
    let manifest = serde_json::from_str(&text).map_err(|e| DurabilityError::CorruptManifest {
        path: path.display().to_string(),
        reason: e.to_string(),
    })?;
    match version(&manifest) {
        found if found > supported => Err(DurabilityError::UnsupportedVersion { found, supported }),
        _ => Ok(manifest),
    }
}

/// Reads the JSON payload of the snapshot at `path`, written under
/// `schema`.
pub(crate) fn read_snapshot_json<T: Deserialize>(
    path: &Path,
    schema: &str,
) -> Result<T, DurabilityError> {
    let corrupt = |reason: String| DurabilityError::CorruptSnapshot {
        path: path.display().to_string(),
        reason,
    };
    let text = String::from_utf8(read_snapshot(path, schema)?)
        .map_err(|_| corrupt("payload is not valid UTF-8".to_owned()))?;
    serde_json::from_str(&text).map_err(|e| corrupt(format!("payload failed to deserialize: {e}")))
}

/// Refuses a directory that already holds a run (its manifest or a
/// snapshot).
pub(crate) fn refuse_held_run(dir: &Path) -> Result<(), DurabilityError> {
    if manifest_path(dir).exists() || snapshot_path(dir).exists() {
        return Err(DurabilityError::InvalidConfig {
            reason: format!(
                "checkpoint directory {} already holds a run; resume it with \
                 `run --resume` or point --checkpoint-dir at a fresh directory",
                dir.display()
            ),
        });
    }
    Ok(())
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
) -> Result<RunOutcome<SimulationResult>, DurabilityError> {
    run_engine(scenario, mode, Some(Checkpoint::Fresh(cfg)), sink)
}

/// Resumes the run checkpointed in `cfg.dir`: reads the manifest, restores
/// the snapshot, replays the journal head, truncates the stale journal
/// suffix, and re-executes the remaining slots deterministically. The
/// manifest supplies the scenario, mode, and policies; of `cfg`, only
/// `dir`, `max_segment_bytes` and the `kill_at_slot` test hook are
/// consulted. `sink` is routed as in [`run_durable`].
///
/// Returns the same [`RunOutcome`] a never-interrupted run would — all
/// decision-derived values bit-identical (see the module docs).
pub fn resume_durable(
    cfg: &DurabilityConfig,
    sink: Option<&dyn Recorder>,
) -> Result<RunOutcome<SimulationResult>, DurabilityError> {
    let manifest = read_manifest_in(&cfg.dir)?;
    let mode = manifest.driver_mode()?;
    run_engine(&manifest.scenario, mode, Some(Checkpoint::Resume(cfg, &manifest)), sink)
}

/// Reconstructs the live session of a checkpoint directory that already
/// holds a run: restores the snapshot, replays the journal head, and
/// reopens the journal for appends after the snapshot slot (discarding
/// any stale suffix for deterministic re-execution).
pub(crate) fn resume_session(
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
    // No snapshot: the run crashed before its first checkpoint, so it
    // restarts from slot 0 (journaled frames are discarded and their
    // slots re-executed deterministically).
    let snapshot: Option<RunSnapshot> = match snap_path.exists() {
        true => Some(read_snapshot_json(&snap_path, SNAPSHOT_SCHEMA)?),
        false => None,
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
        // Only the last snapshotted record keeps its stations (the next
        // slot's handover rate reads them), so the head holds O(slots)
        // rather than O(slots × devices).
        let mut head = Vec::with_capacity(snapshot_frames as usize);
        for (index, frame) in readback.frames.into_iter().take(snapshot_frames as usize).enumerate()
        {
            let mut record = SlotRecord::decode(&frame)?;
            if index as u64 + 1 < snapshot_frames {
                record.stations = Vec::new();
            }
            head.push(record);
        }
        let writer =
            open_for_append_after(&journal, snapshot_frames, fsync, cfg.max_segment_bytes)?;
        (head, readback.torn_frames_dropped, total_frames - snapshot_frames, writer)
    } else {
        // Crashed between the manifest write and the journal's creation.
        let writer = JournalWriter::create(&journal, fsync, cfg.max_segment_bytes)?;
        (Vec::new(), 0, 0, writer)
    };

    let resume = ResumeState { snapshot, head, torn_frames_dropped, frames_discarded };
    Ok(DurableSession::new(writer, cfg, manifest.checkpoint_every, Some(resume)))
}

/// Opens the durable session for `cfg.dir`, fresh or resumed:
///
/// * a directory holding no run gets `manifest` and a fresh journal;
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
        fs::create_dir_all(&cfg.dir).map_err(|e| DurabilityError::io(&cfg.dir, &e))?;
        refuse_held_run(&cfg.dir)?;
        write_manifest(&cfg.dir, manifest)?;
        let writer =
            JournalWriter::create(&journal_dir(&cfg.dir), cfg.fsync, cfg.max_segment_bytes)?;
        return Ok(DurableSession::new(writer, cfg, cfg.checkpoint_every, None));
    }
    let existing = read_manifest_in(&cfg.dir)?;
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
