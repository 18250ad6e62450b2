//! The daemon workload: `eotora_server::serve` driven by one closed-loop
//! client, and the same loop rebuilt from the daemon's public parts for
//! the traced run.
//!
//! The client hands the server one JSONL state line at a time through an
//! in-process byte stream and waits for that slot's decision line (or an
//! error record) before generating and sending the next, so the
//! admission queue never holds more than one state.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eotora_core::fault::FaultSchedule;
use eotora_core::system::MecSystem;
use eotora_server::{
    serve, Admission, AdmissionQueue, DecisionRecord, FrameDecoder, InputFrame, InputSource,
    ServerConfig, SignalFlags,
};
use eotora_sim::{
    open_session, robust_config, DriverMode, DriverTuning, DurabilityConfig, RunManifest, Scenario,
    StepDriver, MANIFEST_VERSION,
};
use eotora_states::StateProvider;

use crate::batch::elapsed_ns;
use crate::check::Tally;
use crate::probe::Probe;
use crate::trace::{SlotLayers, SlotRecorder};

/// The anytime deadline: far above any slot's solve, so it never fires,
/// but set, so every slot runs the robust path as under a deadline.
pub const DEADLINE_MS: u64 = 1000;

/// How long the client waits for one reply before declaring the
/// decision lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long one queue pop waits in the rebuilt loop (the daemon's value).
const POLL: Duration = Duration::from_millis(25);

/// The daemon's configuration for this workload: the paper scenario with
/// `devices` devices, the deadline set, and every other setting at the
/// config parser's default — plus any `extra` TOML sections (tests).
pub fn config(devices: usize, seed: u64, dir: &Path, extra: &str) -> Result<ServerConfig, String> {
    let text = format!(
        "[scenario]\ndevices = {devices}\nseed = {seed}\n\n[server]\ndeadline_ms = {DEADLINE_MS}\n\n\
         [durability]\ndir = \"{}\"\n\n{extra}",
        dir.display()
    );
    ServerConfig::from_str(&text).map_err(|e| format!("server config: {e}"))
}

/// Client-side generator of state lines, one slot at a time, from the
/// scenario's own state process.
pub struct StateLines {
    system: MecSystem,
    provider: StateProvider,
}

impl StateLines {
    /// The generator for `scenario`'s topology, drawing states from the
    /// paper's state process seeded with `states_seed`, from slot 0.
    pub fn new(scenario: &Scenario, states_seed: u64) -> Self {
        let system = MecSystem::random(&scenario.system, scenario.seed);
        let provider = StateProvider::paper(system.topology(), &scenario.states, states_seed);
        Self { system, provider }
    }

    /// The JSONL line (no newline) of slot `slot`'s state.
    pub fn line(&mut self, slot: u64) -> String {
        let state = self.provider.observe(slot, self.system.topology());
        serde_json::to_string(&state).expect("generated states are finite")
    }

    /// Devices and base stations of the topology.
    pub fn shape(&self) -> (usize, usize) {
        (self.system.topology().num_devices(), self.system.topology().num_base_stations())
    }

    /// The budget `C̄`.
    pub fn budget(&self) -> f64 {
        self.system.budget_per_slot()
    }
}

/// Which server output a line came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Decision records.
    Decisions,
    /// Events and per-frame error records.
    Events,
}

/// One complete output line and when its newline was written.
#[derive(Debug)]
pub struct Line {
    /// Source stream.
    pub stream: Stream,
    /// When the line's newline reached the writer.
    pub at: Instant,
    /// The line without its newline.
    pub text: String,
}

/// A `Write` that forwards each complete line, time-stamped, to the
/// client. Optionally holds the first decision line until released
/// (tests use this to stall the solver while frames pile up).
struct LineSink {
    stream: Stream,
    tx: Sender<Line>,
    buf: Vec<u8>,
    hold: Option<(Sender<()>, Receiver<()>)>,
}

impl Write for LineSink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let at = Instant::now();
            let raw: Vec<u8> = self.buf.drain(..=end).collect();
            if let Some((held, release)) = self.hold.take() {
                let _ = held.send(());
                let _ = release.recv();
            }
            let text = String::from_utf8_lossy(&raw[..end]).into_owned();
            // A departed client is not the server's failure.
            let _ = self.tx.send(Line { stream: self.stream, at, text });
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The server's input: chunks handed over by the client, EOF once the
/// client hangs up. Reports each time it runs dry, with the number of
/// chunks handed out so far — at that point the server's reader has
/// decoded and queued every line it was given.
struct LineFeed {
    rx: Receiver<Vec<u8>>,
    chunk: Vec<u8>,
    pos: usize,
    chunks: u64,
    dry: Sender<u64>,
}

impl Read for LineFeed {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.chunk.len() {
            let _ = self.dry.send(self.chunks);
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = chunk;
                    self.pos = 0;
                    self.chunks += 1;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.chunk.len() - self.pos);
        out[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// What the client saw in reply to one state line.
#[derive(Debug)]
pub enum Reply {
    /// The slot's decision, with the time its line was written.
    Decision(Instant, Box<DecisionRecord>),
    /// A per-frame error record (malformed, rejected, ...).
    Error(String),
    /// No reply: the server ended or the wait timed out.
    Lost,
}

/// One client-visible happening, in order — the closed-loop test reads
/// this to show no state was sent before the previous decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Happening {
    /// A state line for this slot was handed to the server.
    Sent(u64),
    /// A decision for this slot came back.
    Decided(u64),
}

/// The client end of a running server.
pub struct Client {
    tx: Option<Sender<Vec<u8>>>,
    rx: Receiver<Line>,
    dry: Receiver<u64>,
    chunks_sent: u64,
    held: Option<(Receiver<()>, Sender<()>)>,
    /// Event lines seen so far (the server's own `started`, `shutdown`...).
    pub events: Vec<Line>,
    /// Sends and decisions, in order.
    pub log: Vec<Happening>,
}

impl Client {
    /// Hands one chunk (one or more newline-terminated lines) to the
    /// server's reader; returns the hand-over instant.
    pub fn send_raw(&mut self, bytes: Vec<u8>) -> Instant {
        let at = Instant::now();
        if let Some(tx) = &self.tx {
            // A closed server shows up as a lost reply.
            let _ = tx.send(bytes);
            self.chunks_sent += 1;
        }
        at
    }

    /// Sends slot `slot`'s state line; returns the hand-over instant.
    pub fn send_state(&mut self, slot: u64, line: &str) -> Instant {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.log.push(Happening::Sent(slot));
        self.send_raw(bytes)
    }

    /// Waits for the next decision or error record; event lines are kept
    /// in [`Client::events`].
    pub fn reply(&mut self) -> Reply {
        loop {
            match self.rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(line) if line.stream == Stream::Decisions => {
                    return match serde_json::from_str::<DecisionRecord>(&line.text) {
                        Ok(record) => {
                            self.log.push(Happening::Decided(record.slot));
                            Reply::Decision(line.at, Box::new(record))
                        }
                        Err(e) => Reply::Error(format!("undecodable decision line: {e}")),
                    };
                }
                Ok(line) => {
                    if line.text.contains("\"error\"") {
                        return Reply::Error(line.text);
                    }
                    self.events.push(line);
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    return Reply::Lost
                }
            }
        }
    }

    /// Blocks until the server's reader has decoded and queued every
    /// chunk sent so far.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn wait_until_read(&mut self) {
        while let Ok(chunks) = self.dry.recv() {
            if chunks >= self.chunks_sent {
                return;
            }
        }
    }

    /// Blocks until the server is holding its first decision line (only
    /// with a held server); the solver is then stalled mid-slot.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn wait_held(&mut self) {
        if let Some((held, _)) = &self.held {
            let _ = held.recv();
        }
    }

    /// Lets a held server write its first decision line.
    pub fn release(&mut self) {
        if let Some((_, release)) = self.held.take() {
            let _ = release.send(());
        }
    }

    fn hang_up(&mut self) {
        self.release();
        self.tx = None;
    }
}

/// How a served run ended.
pub struct Served {
    /// From calling `serve` to its `started` event, ns.
    pub setup_ns: Option<u64>,
    /// The server's own summary, or its fatal error.
    pub summary: Result<eotora_server::ServerSummary, String>,
    /// The `max_queue_depth` of the `shutdown` event.
    pub max_queue_depth: Option<u64>,
}

/// Runs `serve` with `config` on this thread, drives it with `client` on
/// a thread of its own, hangs up (EOF) when the client returns and waits
/// for the server to drain and return. The server always runs on the
/// calling thread so that its allocations land in the same allocator
/// arena run after run, which keeps peak RSS steady. With `hold`, the
/// server stalls before writing its first decision line until the client
/// releases it.
pub fn run_served<R: Send>(
    config: ServerConfig,
    hold: bool,
    client: impl FnOnce(&mut Client) -> R + Send,
) -> (R, Served) {
    let threads_before = live_threads().unwrap_or(0);
    let (in_tx, in_rx) = mpsc::channel();
    let (out_tx, out_rx) = mpsc::channel();
    let (dry_tx, dry_rx) = mpsc::channel();
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let mut decisions = LineSink {
        stream: Stream::Decisions,
        tx: out_tx.clone(),
        buf: Vec::new(),
        hold: hold.then_some((held_tx, release_rx)),
    };
    let mut events = LineSink { stream: Stream::Events, tx: out_tx, buf: Vec::new(), hold: None };
    let feed = LineFeed { rx: in_rx, chunk: Vec::new(), pos: 0, chunks: 0, dry: dry_tx };
    let mut handle = Client {
        tx: Some(in_tx),
        rx: out_rx,
        dry: dry_rx,
        chunks_sent: 0,
        held: hold.then_some((held_rx, release_tx)),
        events: Vec::new(),
        log: Vec::new(),
    };
    let (called, summary, result, mut handle) = std::thread::scope(|scope| {
        let client_thread = scope.spawn(move || {
            let result = client(&mut handle);
            handle.hang_up();
            (result, handle)
        });
        let called = Instant::now();
        let summary = serve(
            config,
            None,
            InputSource::Reader(Box::new(feed)),
            &mut decisions,
            &mut events,
            &SignalFlags::manual(),
        )
        .map_err(|e| format!("serve: {e}"));
        // A client still waiting for a reply sees the server gone.
        drop((decisions, events));
        match client_thread.join() {
            Ok((result, handle)) => (called, summary, result, handle),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    // The server's writers are gone: collect what it wrote last.
    while let Ok(line) = handle.rx.try_recv() {
        handle.events.push(line);
    }
    // `serve` detaches its reader thread; it ends at EOF, dropping the
    // feed. Wait for that and for the thread to be gone, so that no
    // reader outlives its run and every run starts from the same threads.
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while handle.dry.recv_timeout(deadline.saturating_duration_since(Instant::now())).is_ok() {}
    while live_threads().is_some_and(|n| n > threads_before) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
    let event = |name: &str| {
        let tag = format!("\"event\":\"{name}\"");
        handle.events.iter().find(|line| line.text.replace(' ', "").contains(&tag))
    };
    let setup_ns = event("started")
        .map(|line| u64::try_from(line.at.duration_since(called).as_nanos()).unwrap_or(u64::MAX));
    let max_queue_depth = event("shutdown").and_then(|line| {
        let value = serde_json::parse(&line.text).ok()?;
        let fields = value.as_object()?;
        fields.iter().find(|(k, _)| k == "max_queue_depth")?.1.as_u64()
    });
    (result, Served { setup_ns, summary, max_queue_depth })
}

/// The closed loop's record of one episode.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Decisions in arrival order.
    pub records: Vec<DecisionRecord>,
    /// Hand-over to decision-written time per decided slot, ns.
    pub latency_ns: Vec<u64>,
    /// Host-speed probe time before each decided slot's hand-over, ns.
    pub probe_ns: Vec<u64>,
    /// Per decided slot, from generating its state to reading its
    /// decision, the probe excluded, ns.
    pub loop_ns: Vec<u64>,
    /// State lines sent.
    pub attempted: u64,
    /// Replies that did not match the slot sent.
    pub problems: Vec<String>,
}

/// Sends slots `0..slots` one at a time, each only after the previous
/// slot's reply, and records what came back. `probe` is timed just before
/// each hand-over.
pub fn closed_loop(
    client: &mut Client,
    lines: &mut StateLines,
    slots: u64,
    probe: &Probe,
) -> ClosedLoop {
    let mut run = ClosedLoop::default();
    for slot in 0..slots {
        let begin = Instant::now();
        let line = lines.line(slot);
        let probed = probe.time_ns();
        let sent = client.send_state(slot, &line);
        run.attempted += 1;
        match client.reply() {
            Reply::Decision(at, record) => {
                if record.slot != slot {
                    run.problems.push(format!("sent slot {slot}, decision for {}", record.slot));
                }
                let since = |t: Instant| u64::try_from(at.duration_since(t).as_nanos());
                run.latency_ns.push(since(sent).unwrap_or(u64::MAX));
                run.loop_ns.push(since(begin).unwrap_or(u64::MAX).saturating_sub(probed));
                run.probe_ns.push(probed);
                run.records.push(*record);
            }
            Reply::Error(text) => run.problems.push(format!("slot {slot}: {text}")),
            Reply::Lost => {
                run.problems.push(format!("slot {slot}: no reply"));
                break;
            }
        }
    }
    run
}

/// The failure tally of a served episode: frames sent against decisions
/// received, plus the engine's degradation counters.
pub fn served_tally(run: &ClosedLoop, served: &Served) -> Tally {
    let counters = served.summary.as_ref().map(|s| s.counters.clone()).unwrap_or_default();
    Tally::new(run.attempted, run.records.len() as u64, &counters)
}

/// The same slots solved by a batch Robust `StepDriver` — the reference
/// the served stream must equal.
pub fn robust_reference(
    scenario: &Scenario,
    states_seed: u64,
    slots: u64,
) -> Result<Vec<DecisionRecord>, String> {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut provider = StateProvider::paper(system.topology(), &scenario.states, states_seed);
    let mode = DriverMode::Robust {
        faults: FaultSchedule::default(),
        robust: robust_config(scenario, Some(Duration::from_millis(DEADLINE_MS))),
    };
    let mut driver = StepDriver::new(scenario, system, mode, None, None, DriverTuning::default());
    (0..slots)
        .map(|slot| {
            let beta = provider.observe(slot, driver.topology());
            driver.step(beta).map(|r| DecisionRecord::from_report(&r)).map_err(|e| e.to_string())
        })
        .collect()
}

/// Set-up of the rebuilt loop, one timed call per layer (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct RebuiltSetup {
    /// `open_session`.
    pub session: u64,
    /// `MecSystem::random`.
    pub system: u64,
    /// `StepDriver::new`.
    pub driver: u64,
}

/// Opens the daemon's engine as `serve` does: durable session, system,
/// Robust-mode driver with no horizon and bounded memory, with `sink` in
/// place of the daemon's telemetry.
fn open_engine<'s>(
    config: &ServerConfig,
    sink: &'s SlotRecorder,
) -> Result<(StepDriver<'s>, RebuiltSetup), String> {
    let manifest = RunManifest {
        version: MANIFEST_VERSION,
        mode: "server".to_owned(),
        scenario: config.scenario.clone(),
        faults: None,
        deadline_ms: config.deadline.map(|d| d.as_millis() as u64),
        checkpoint_every: config.durability.checkpoint_every,
        fsync: config.durability.fsync.to_string(),
    };
    let mut durability = DurabilityConfig::new(config.durability.dir.clone());
    durability.checkpoint_every = config.durability.checkpoint_every;
    durability.fsync = config.durability.fsync;
    let mut setup = RebuiltSetup::default();
    let t = Instant::now();
    let session = open_session(&durability, &manifest).map_err(|e| e.to_string())?;
    setup.session = elapsed_ns(t);
    let t = Instant::now();
    let system = MecSystem::random(&config.scenario.system, config.scenario.seed);
    setup.system = elapsed_ns(t);
    let mode = DriverMode::Robust {
        faults: FaultSchedule::default(),
        robust: robust_config(&config.scenario, config.deadline),
    };
    let t = Instant::now();
    let driver = StepDriver::new(
        &config.scenario,
        system,
        mode,
        Some(session),
        Some(sink),
        DriverTuning { horizon: Some(u64::MAX), bounded: true },
    );
    setup.driver = elapsed_ns(t);
    Ok((driver, setup))
}

/// Times the rebuilt loop's set-up once and drops the engine.
pub fn rebuilt_setup(config: &ServerConfig) -> Result<RebuiltSetup, String> {
    let sink = SlotRecorder::default();
    let (driver, setup) = open_engine(config, &sink)?;
    drop(driver);
    Ok(setup)
}

/// The traced episode's outputs.
pub struct Rebuilt {
    /// Decisions, decoded back from the encoded lines.
    pub records: Vec<DecisionRecord>,
    /// Per-slot layers.
    pub layers: Vec<SlotLayers>,
    /// Bytes of state lines, newlines included.
    pub bytes: u64,
    /// Deepest the admission queue got.
    pub depth_max: usize,
    /// Failure accounting.
    pub tally: Tally,
    /// Counter totals the sink saw.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// `journal.snapshot_write` spans, one per snapshot, ns.
    pub snapshot_ns: Vec<u64>,
}

/// The daemon's loop rebuilt from its public parts, one timed call per
/// layer: a reader thread runs `FrameDecoder::decode_line` and
/// `AdmissionQueue::push_state`; this thread runs `pop_timeout`,
/// `StepDriver::step` and `DecisionRecord::from_report(..).encode()`.
/// The closed-loop client is this thread too: it hands slot t+1 to the
/// reader only after slot t's decision line is written.
pub fn rebuilt_episode(
    config: &ServerConfig,
    states_seed: u64,
    slots: u64,
) -> Result<Rebuilt, String> {
    let sink = SlotRecorder::default();
    let (mut driver, _) = open_engine(config, &sink)?;
    let (devices, stations) =
        (driver.topology().num_devices(), driver.topology().num_base_stations());
    let queue = Arc::new(AdmissionQueue::new(config.admission.capacity, config.admission.policy));
    let mut lines = StateLines::new(&config.scenario, states_seed);
    let mut out = Rebuilt {
        records: Vec::new(),
        layers: Vec::new(),
        bytes: 0,
        depth_max: 0,
        tally: Tally::default(),
        counters: Default::default(),
        snapshot_ns: Vec::new(),
    };
    let mut written: Vec<u8> = Vec::new();
    let mut decided = 0u64;
    std::thread::scope(|scope| -> Result<(), String> {
        let (line_tx, line_rx) = mpsc::channel::<String>();
        let (stamp_tx, stamp_rx) = mpsc::channel::<(Instant, Instant)>();
        let reader_queue = Arc::clone(&queue);
        scope.spawn(move || {
            let mut decoder = FrameDecoder::new(devices, stations);
            for line in line_rx {
                let received = Instant::now();
                let frame = decoder.decode_line(&line);
                let decoded = Instant::now();
                match frame {
                    Ok(Some(InputFrame::State(state))) => {
                        reader_queue.push_state(state);
                    }
                    Ok(Some(InputFrame::Control(control))) => {
                        reader_queue.push_priority(Admission::Control(control));
                    }
                    Ok(None) => {}
                    Err(error) => reader_queue.push_priority(Admission::Malformed(error)),
                }
                let _ = stamp_tx.send((received, decoded));
            }
            reader_queue.close();
        });
        sink.take_slot();
        for slot in 0..slots {
            let line = lines.line(slot);
            out.bytes += line.len() as u64 + 1;
            let handed = Instant::now();
            line_tx.send(line).map_err(|_| "reader thread ended early".to_owned())?;
            let item = loop {
                if let Some(item) = queue.pop_timeout(POLL) {
                    break item;
                }
                if queue.is_done() {
                    return Err(format!("slot {slot}: queue closed with no state"));
                }
            };
            let popped = Instant::now();
            let (received, decoded) =
                stamp_rx.recv().map_err(|_| "reader thread ended early".to_owned())?;
            let Admission::State(state) = item else {
                return Err(format!("slot {slot}: the reader queued a non-state frame"));
            };
            if state.slot > driver.cursor() {
                driver.seek(state.slot);
            }
            let report = driver.step(*state).map_err(|e| format!("slot {slot}: {e}"))?;
            let stepped = Instant::now();
            let record = DecisionRecord::from_report(&report);
            writeln!(written, "{}", record.encode()).map_err(|e| e.to_string())?;
            let encoded = Instant::now();
            decided += 1;
            let spans = sink.take_slot();
            if let Some(&ns) = spans.get(eotora_obs::SPAN_SNAPSHOT_WRITE) {
                out.snapshot_ns.push(ns);
            }
            let ns = |from: Instant, to: Instant| {
                u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
            };
            out.layers.push(
                SlotLayers {
                    wall: ns(handed, encoded),
                    decode: ns(received, decoded),
                    queue_wait: ns(decoded, popped),
                    step: ns(popped, stepped),
                    encode: ns(stepped, encoded),
                    ..Default::default()
                }
                .with_spans(&spans),
            );
        }
        Ok(())
    })?;
    out.depth_max = queue.stats().max_depth;
    out.counters = sink.counters();
    out.tally = Tally::new(slots, decided, &out.counters);
    drop(driver);
    for line in String::from_utf8_lossy(&written).lines() {
        out.records.push(serde_json::from_str(line).map_err(|e| format!("encoded record: {e}"))?);
    }
    Ok(out)
}

/// Threads of this process, from `/proc/self/status`.
fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// Total bytes of the journal segments under a checkpoint directory.
pub fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("journal"))
        .map(|entries| {
            entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

/// Scratch space for checkpoint directories inside the working
/// directory, removed when dropped.
pub struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    /// A fresh directory under `.bench_work/`, unique to this process and
    /// this call.
    pub fn new() -> Result<Self, String> {
        static MADE: AtomicU32 = AtomicU32::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let root = PathBuf::from(".bench_work").join(format!("run-{}-{n}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Self { root, next: 0 })
    }

    /// A path that does not exist yet, for one checkpoint directory.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("ckpt-{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEVICES: usize = 10;

    #[test]
    fn closed_loop_client_never_sends_before_the_previous_decision() {
        let mut work = WorkDir::new().expect("work dir");
        let config = config(DEVICES, 3, &work.fresh(), "").expect("config");
        let scenario = config.scenario.clone();
        let slots = 6;
        let (run, served) = run_served(config, false, |client| {
            let run = closed_loop(client, &mut StateLines::new(&scenario, 5), slots, &Probe::new());
            (run, client.log.clone())
        });
        let (run, log) = run;
        let expected: Vec<Happening> =
            (0..slots).flat_map(|t| [Happening::Sent(t), Happening::Decided(t)]).collect();
        assert_eq!(log, expected);
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        assert_eq!(served.max_queue_depth, Some(1));
        assert!(served.setup_ns.is_some());
        assert_eq!(served_tally(&run, &served).failed(), 0);
    }

    #[test]
    fn injected_malformed_frame_and_shed_each_count_as_one_failure() {
        let mut work = WorkDir::new().expect("work dir");
        let config =
            config(DEVICES, 3, &work.fresh(), "[admission]\ncapacity = 1\n").expect("config");
        let scenario = config.scenario.clone();
        let (replies, served) = run_served(config, true, |client| {
            let mut lines = StateLines::new(&scenario, 5);
            client.send_state(0, &lines.line(0));
            // The solver is now stalled writing slot 0's decision, so the
            // next frames queue up behind it: slot 1 arrives malformed,
            // slot 2 is shed by slot 3 under newest-wins at capacity 1.
            client.wait_held();
            let mut burst = b"{\"slot\": 1, not json\n".to_vec();
            for slot in 2..4 {
                burst.extend_from_slice(lines.line(slot).as_bytes());
                burst.push(b'\n');
            }
            client.send_raw(burst);
            client.wait_until_read();
            client.release();
            (0..3).map(|_| client.reply()).collect::<Vec<Reply>>()
        });
        let decided: Vec<u64> = replies
            .iter()
            .filter_map(|r| match r {
                Reply::Decision(_, record) => Some(record.slot),
                _ => None,
            })
            .collect();
        assert_eq!(decided, [0, 3]);
        assert!(matches!(replies[1], Reply::Error(_)), "{:?}", replies[1]);
        let summary = served.summary.expect("server ran");
        assert_eq!(summary.counters.get(eotora_obs::COUNTER_SERVER_MALFORMED), Some(&1));
        assert_eq!(summary.counters.get(eotora_obs::COUNTER_SERVER_SHED_NEWEST), Some(&1));
        let tally = Tally::new(4, decided.len() as u64, &summary.counters);
        assert_eq!((tally.failed(), tally.failed_ratio()), (2, 0.5));
    }

    #[test]
    fn rebuilt_loop_matches_serve_and_its_layers_sum_to_wall_time() {
        let mut work = WorkDir::new().expect("work dir");
        let slots = 12;
        let served_config = config(DEVICES, 3, &work.fresh(), "").expect("config");
        let scenario = served_config.scenario.clone();
        let (run, _) = run_served(served_config, false, |client| {
            closed_loop(client, &mut StateLines::new(&scenario, 5), slots, &Probe::new())
        });
        let config = config(DEVICES, 3, &work.fresh(), "").expect("config");
        let rebuilt = rebuilt_episode(&config, 5, slots).expect("rebuilt loop");
        crate::check::check_same_stream("rebuilt", &run.records, &rebuilt.records)
            .expect("same stream");
        assert_eq!(rebuilt.layers.len(), slots as usize);
        for (slot, layers) in rebuilt.layers.iter().enumerate() {
            layers.check(slot as u64).expect("layers sum to wall time");
            assert!(layers.decode > 0 && layers.step > 0 && layers.p2a > 0);
        }
        assert_eq!(rebuilt.snapshot_ns.len(), 1);
        assert_eq!(rebuilt.depth_max, 1);
        let reference = robust_reference(&config.scenario, 5, slots).expect("batch robust");
        crate::check::check_same_stream("batch", &reference, &run.records).expect("same stream");
    }
}
