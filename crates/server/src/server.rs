//! The daemon loop: a hardened wrapper around [`StepDriver`] that turns
//! a JSONL state stream into a JSONL decision stream.
//!
//! Layout: a reader thread decodes input lines and feeds the bounded
//! [`AdmissionQueue`]; the solve loop pops frames, drives the engine,
//! and emits decisions. Signals (and in-band control frames) request
//! shutdown/reload; the loop polls them between pops, so every exit path
//! runs the same graceful sequence — close the queue, flush the journal,
//! write a snapshot, report final counters. Durability is always on:
//! restarting against the same checkpoint directory resumes mid-stream,
//! and a client that resends its full stream gets the already-solved
//! prefix deduplicated against the restored cursor.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use eotora_durability::DurabilityError;
use eotora_obs::{Recorder, TelemetrySession};
use eotora_sim::StepDriver;

use crate::config::{validate_reload, ConfigError, ServerConfig};
use crate::frame::{
    encode_error, encode_event, ControlFrame, DecisionRecord, FrameDecoder, FrameError, InputFrame,
};
use crate::queue::{Admission, AdmissionQueue, QueueStats};
use crate::signal::SignalFlags;
use serde_json::Value;

/// How long one queue pop waits before the loop re-polls signal flags.
const POLL: Duration = Duration::from_millis(25);

/// A fatal server failure (per-frame problems are reported on the error
/// stream and never end up here).
#[derive(Debug)]
pub enum ServerError {
    /// The durable session failed (journal/snapshot I/O).
    Durability(DurabilityError),
    /// An output stream died.
    Io(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Durability(e) => write!(f, "durability: {e}"),
            Self::Io(reason) => write!(f, "i/o: {reason}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<DurabilityError> for ServerError {
    fn from(e: DurabilityError) -> Self {
        Self::Durability(e)
    }
}

/// Where input frames come from.
pub enum InputSource {
    /// A byte stream of JSONL frames (stdin, a file, a pipe). EOF ends
    /// the stream and drains the server.
    Reader(Box<dyn Read + Send>),
    /// A Unix listener serving sequential client connections (a second
    /// *concurrent* client is rejected with a typed error); the stream
    /// never self-terminates (shut down via signal or control frame).
    #[cfg(unix)]
    UnixSocket(std::os::unix::net::UnixListener),
}

/// What the daemon did, for the caller's exit report.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// The engine cursor at exit — slots solved plus slots skipped by
    /// shedding.
    pub slots_completed: u64,
    /// Decision records emitted this process lifetime.
    pub decisions: u64,
    /// Whether the kill-hook test crash fired (no graceful checkpoint).
    pub interrupted: bool,
    /// Final counter totals: engine counters (including restored ones)
    /// merged with the `server.*` family.
    pub counters: BTreeMap<String, u64>,
}

/// Runs the daemon to completion: EOF, shutdown signal/control, or the
/// kill-after-slot crash hook. `config_path` is re-read on hot-reload
/// requests (`None` makes path-less reloads a typed error). Decisions go
/// to `decisions`, events and per-frame errors to `events`, one JSON
/// object per line on both.
pub fn serve(
    mut config: ServerConfig,
    config_path: Option<&Path>,
    input: InputSource,
    decisions: &mut dyn Write,
    events: &mut dyn Write,
    flags: &SignalFlags,
) -> Result<ServerSummary, ServerError> {
    let telemetry = TelemetrySession::new(config.engine.telemetry().clone());
    let mut driver =
        StepDriver::daemon(&config.scenario, config.deadline, &config.durability, &telemetry)?;

    let queue = Arc::new(AdmissionQueue::new(config.admission.capacity, config.admission.policy));
    {
        let queue = Arc::clone(&queue);
        let devices = driver.topology().num_devices();
        let stations = driver.topology().num_base_stations();
        // Detached on purpose: a reader blocked on stdin/accept cannot be
        // interrupted portably; it dies with the process (or when its
        // byte stream ends) and only ever touches the Arc'd queue.
        std::thread::spawn(move || run_reader(input, &queue, devices, stations));
    }

    emit(
        events,
        &encode_event(
            "started",
            &[
                ("label", Value::Str(config.scenario.label.clone())),
                ("resumed_at_slot", Value::U64(driver.cursor())),
                ("capacity", Value::U64(config.admission.capacity as u64)),
                ("policy", Value::Str(config.admission.policy.to_string())),
            ],
        ),
    )?;

    let mut synced = QueueStats::default();
    let mut emitted = 0u64;
    let mut watchdog_streak = 0u64;
    let mut interrupted = false;

    loop {
        sync_queue_stats(&queue, &mut synced, &telemetry);
        if flags.shutdown_requested() {
            break;
        }
        if flags.take_reload() {
            reload(None, config_path, &mut config, &mut driver, &queue, &telemetry, events)?;
        }
        let Some(item) = queue.pop_timeout(POLL) else {
            if queue.is_done() {
                break;
            }
            continue;
        };
        match item {
            Admission::Malformed(error) => {
                bump(&telemetry, eotora_obs::COUNTER_SERVER_MALFORMED, 1);
                emit(events, &encode_error(&error))?;
            }
            Admission::Control(ControlFrame::Shutdown) => break,
            Admission::Control(ControlFrame::Checkpoint) => {
                let wrote = driver.checkpoint_now()?;
                emit(
                    events,
                    &encode_event(
                        "checkpoint",
                        &[("slot", Value::U64(driver.cursor())), ("wrote", Value::Bool(wrote))],
                    ),
                )?;
            }
            Admission::Control(ControlFrame::Reload { path }) => {
                reload(path, config_path, &mut config, &mut driver, &queue, &telemetry, events)?;
            }
            Admission::State(state) => {
                let cursor = driver.cursor();
                if state.slot < cursor {
                    // A restarted client resent its full stream; the
                    // journal already holds these slots.
                    bump(&telemetry, eotora_obs::COUNTER_SERVER_COALESCED, 1);
                    continue;
                }
                if state.slot > cursor {
                    // The states between cursor and here were shed under
                    // overload — those slots are never solved.
                    driver.seek(state.slot);
                }
                let expirations_before =
                    telemetry.registry().counter(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS);
                let report = driver.step(*state)?;
                let record = DecisionRecord::from_report(&report);
                writeln!(decisions, "{}", record.encode())
                    .and_then(|()| decisions.flush())
                    .map_err(|e| ServerError::Io(format!("decision stream: {e}")))?;
                emitted += 1;
                bump(&telemetry, eotora_obs::COUNTER_SERVER_DECISIONS, 1);

                if config.watchdog_expirations > 0 {
                    let expirations_after =
                        telemetry.registry().counter(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS);
                    if expirations_after > expirations_before {
                        watchdog_streak += 1;
                    } else {
                        watchdog_streak = 0;
                    }
                    if watchdog_streak >= config.watchdog_expirations {
                        telemetry.force_postmortem();
                        bump(&telemetry, eotora_obs::COUNTER_SERVER_WATCHDOG_TRIPS, 1);
                        emit(
                            events,
                            &encode_event(
                                "watchdog_trip",
                                &[
                                    ("slot", Value::U64(report.record.slot)),
                                    ("streak", Value::U64(watchdog_streak)),
                                ],
                            ),
                        )?;
                        watchdog_streak = 0;
                    }
                }
                if report.interrupted {
                    interrupted = true;
                    break;
                }
            }
        }
    }

    queue.close();
    if interrupted {
        // The kill hook simulates a crash between slots: exit without
        // the graceful snapshot so resume exercises the journal replay.
        emit(events, &encode_event("killed", &[("slot", Value::U64(driver.cursor()))]))?;
    } else {
        // Drain without solving: anything still queued at shutdown is a
        // rejected frame, visible in the counters rather than silently
        // vanishing.
        while let Some(item) = queue.pop_timeout(Duration::ZERO) {
            match item {
                Admission::State(_) => {
                    bump(&telemetry, eotora_obs::COUNTER_SERVER_REJECTED, 1);
                }
                Admission::Malformed(error) => {
                    bump(&telemetry, eotora_obs::COUNTER_SERVER_MALFORMED, 1);
                    emit(events, &encode_error(&error))?;
                }
                Admission::Control(_) => {}
            }
        }
        driver.checkpoint_now()?;
    }

    sync_queue_stats(&queue, &mut synced, &telemetry);

    let slots_completed = driver.cursor();
    let mut counters = driver.counters();
    drop(driver);
    // `server.*` lives only in the telemetry registry; a zero total was
    // never bumped and stays out of the summary.
    for (name, value) in telemetry.registry().snapshot(slots_completed).counters {
        if name.starts_with("server.") && value > 0 {
            *counters.entry(name).or_insert(0) += value;
        }
    }
    emit(
        events,
        &encode_event(
            "shutdown",
            &[
                ("slots", Value::U64(slots_completed)),
                ("decisions", Value::U64(emitted)),
                ("interrupted", Value::Bool(interrupted)),
                ("max_queue_depth", Value::U64(synced.max_depth as u64)),
            ],
        ),
    )?;
    telemetry.finish().map_err(|e| ServerError::Io(format!("telemetry sink: {e}")))?;
    Ok(ServerSummary { slots_completed, decisions: emitted, interrupted, counters })
}

/// Writes one line to the event/error stream, flushing immediately so an
/// operator tailing the stream sees events as they happen.
fn emit(events: &mut dyn Write, line: &str) -> Result<(), ServerError> {
    writeln!(events, "{line}")
        .and_then(|()| events.flush())
        .map_err(|e| ServerError::Io(format!("event stream: {e}")))
}

/// Bumps one `server.*` counter in the telemetry registry (NOT in the
/// driver's metrics — those feed the durable snapshot, whose counter
/// totals must stay identical to a batch run's). A zero delta records
/// nothing.
fn bump(telemetry: &TelemetrySession, name: &str, delta: u64) {
    if delta > 0 {
        telemetry.add(name, delta);
    }
}

/// Folds the reader thread's admission/shed totals since `synced` into
/// `server.*`, then advances `synced` to the queue's current stats.
fn sync_queue_stats(queue: &AdmissionQueue, synced: &mut QueueStats, telemetry: &TelemetrySession) {
    let stats = queue.stats();
    bump(telemetry, eotora_obs::COUNTER_SERVER_ADMITTED, stats.admitted - synced.admitted);
    bump(telemetry, eotora_obs::COUNTER_SERVER_SHED_OLDEST, stats.shed_oldest - synced.shed_oldest);
    bump(telemetry, eotora_obs::COUNTER_SERVER_SHED_NEWEST, stats.shed_newest - synced.shed_newest);
    *synced = stats;
}

/// Attempts a hot reload. On success the hot-appliable fields (deadline,
/// admission capacity/policy, watchdog threshold) take effect
/// immediately; on any failure — unreadable file, parse error, invalid
/// value, restart-only change — the old config stays live and the typed
/// error goes to the error stream. Never fatal.
fn reload(
    requested: Option<String>,
    startup_path: Option<&Path>,
    config: &mut ServerConfig,
    driver: &mut StepDriver<'_>,
    queue: &AdmissionQueue,
    telemetry: &TelemetrySession,
    events: &mut dyn Write,
) -> Result<(), ServerError> {
    driver.drain_checkpoint()?;
    let path = requested.map(PathBuf::from).or_else(|| startup_path.map(Path::to_path_buf));
    let outcome = match path {
        None => Err(ConfigError::Reload {
            reason: "no config path to reload from (server started with an inline config)".into(),
        }),
        Some(path) => ServerConfig::load(&path)
            .and_then(|next| validate_reload(config, next))
            .map(|next| (path, next)),
    };
    match outcome {
        Ok((path, next)) => {
            driver.set_deadline(next.deadline);
            queue.reconfigure(next.admission.capacity, next.admission.policy);
            *config = next;
            bump(telemetry, eotora_obs::COUNTER_SERVER_RELOADS, 1);
            emit(
                events,
                &encode_event(
                    "reload_applied",
                    &[
                        ("path", Value::Str(path.display().to_string())),
                        (
                            "deadline_ms",
                            match config.deadline {
                                Some(d) => Value::U64(d.as_millis() as u64),
                                None => Value::Null,
                            },
                        ),
                        ("capacity", Value::U64(config.admission.capacity as u64)),
                        ("policy", Value::Str(config.admission.policy.to_string())),
                    ],
                ),
            )
        }
        Err(error) => {
            bump(telemetry, eotora_obs::COUNTER_SERVER_RELOADS_REJECTED, 1);
            let record = Value::Object(vec![
                ("error".to_owned(), Value::Str(error.to_string())),
                ("kind".to_owned(), Value::Str("config".to_owned())),
                ("event".to_owned(), Value::Str("reload_rejected".to_owned())),
            ]);
            emit(
                events,
                &serde_json::to_string(&record)
                    .unwrap_or_else(|_| unreachable!("error records are plain strings")),
            )
        }
    }
}

/// The reader thread: decode lines, apply admission, forward controls
/// and malformed-line reports at priority.
fn run_reader(input: InputSource, queue: &AdmissionQueue, devices: usize, stations: usize) {
    let mut decoder = FrameDecoder::new(devices, stations);
    match input {
        InputSource::Reader(reader) => {
            read_stream(reader, queue, &mut decoder);
            queue.close();
        }
        #[cfg(unix)]
        InputSource::UnixSocket(listener) => {
            // Sequential clients share one line-number space: the decoder
            // travels from each finished stream to the next connection. A
            // *concurrent* second client is rejected with a typed error
            // record — never silently interleaved into the live stream.
            let slot = DecoderSlot::new(decoder);
            std::thread::scope(|scope| loop {
                let Ok((stream, _)) = listener.accept() else {
                    queue.close();
                    return;
                };
                match slot.claim(RECONNECT_GRACE) {
                    Some(decoder) => {
                        let slot = &slot;
                        scope.spawn(move || {
                            // The guard hands the decoder back (and wakes
                            // any waiting claim) even if decoding unwinds.
                            let mut guard = DecoderReturn { slot, decoder: Some(decoder) };
                            let decoder = guard.decoder.as_mut().expect("held until drop");
                            read_stream(Box::new(stream), queue, decoder);
                        });
                    }
                    None => reject_concurrent_client(stream, queue),
                }
            });
        }
    }
}

/// How long a new connection waits for the previous stream to hand its
/// decoder back before it is rejected as concurrent. The handback wakes
/// the waiter immediately, so a sequential reconnect racing the previous
/// stream's EOF handling claims the decoder as soon as it is free — the
/// full grace period is only ever served when the previous client really
/// is still connected, i.e. for a genuinely concurrent second client.
#[cfg(unix)]
const RECONNECT_GRACE: Duration = Duration::from_secs(2);

/// Hands the one [`FrameDecoder`] from each finished stream to the next:
/// `None` while a stream is live, `Some` between streams, with a condvar
/// signalling the handback.
#[cfg(unix)]
struct DecoderSlot {
    state: Mutex<Option<FrameDecoder>>,
    returned: std::sync::Condvar,
}

#[cfg(unix)]
impl DecoderSlot {
    fn new(decoder: FrameDecoder) -> Self {
        Self { state: Mutex::new(Some(decoder)), returned: std::sync::Condvar::new() }
    }

    /// Takes the decoder if no stream is active, waiting up to `grace`
    /// for a live stream to finish. `None` means another client held the
    /// stream for the whole grace period — a concurrent client.
    fn claim(&self, grace: Duration) -> Option<FrameDecoder> {
        let deadline = std::time::Instant::now() + grace;
        let mut state = self.lock();
        loop {
            if let Some(decoder) = state.take() {
                return Some(decoder);
            }
            let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
            state = match self.returned.wait_timeout(state, remaining) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    fn put_back(&self, decoder: FrameDecoder) {
        *self.lock() = Some(decoder);
        self.returned.notify_one();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<FrameDecoder>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Returns the decoder to its slot on drop, so a panicking reader thread
/// cannot strand the slot empty and lock every later client out.
#[cfg(unix)]
struct DecoderReturn<'a> {
    slot: &'a DecoderSlot,
    decoder: Option<FrameDecoder>,
}

#[cfg(unix)]
impl Drop for DecoderReturn<'_> {
    fn drop(&mut self) {
        if let Some(decoder) = self.decoder.take() {
            self.slot.put_back(decoder);
        }
    }
}

/// Turns a second concurrent client away: the typed record goes to the
/// rejected client (best effort — it may already be gone) and through
/// the queue to the error stream and `server.malformed_frames`.
#[cfg(unix)]
fn reject_concurrent_client(mut stream: std::os::unix::net::UnixStream, queue: &AdmissionQueue) {
    let error = FrameError::ConcurrentClient;
    // Enqueue before notifying the client: once the client sees the
    // rejection it may trigger shutdown, and a post-close push would be
    // dropped — the record must already be in the queue by then.
    let line = encode_error(&error);
    queue.push_priority(Admission::Malformed(error));
    let _ = writeln!(stream, "{line}");
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn read_stream(reader: Box<dyn Read + Send>, queue: &AdmissionQueue, decoder: &mut FrameDecoder) {
    for line in BufReader::new(reader).lines() {
        let Ok(text) = line else { return };
        match decoder.decode_line(&text) {
            Ok(None) => {}
            Ok(Some(InputFrame::State(state))) => {
                queue.push_state(state);
            }
            Ok(Some(InputFrame::Control(control))) => {
                queue.push_priority(Admission::Control(control));
            }
            Err(error) => queue.push_priority(Admission::Malformed(error)),
        }
    }
}
