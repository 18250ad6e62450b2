//! End-to-end tests for the daemon loop: the decision stream must be
//! bit-identical to the batch engine (including across graceful and
//! hard restarts), overload must shed visibly while staying bounded,
//! hot-reloads must apply or reject atomically, and malformed input must
//! never derail the stream.

use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use eotora_core::system::MecSystem;
use eotora_durability::FsyncPolicy;
use eotora_server::config::AdmissionSettings;
use eotora_server::{
    serve, DecisionRecord, InputSource, ServerConfig, ServerSummary, ShedPolicy, SignalFlags,
};
use eotora_sim::{
    run, DurabilityConfig, EngineOption, EngineOptions, Scenario, SimulationResult, Surface,
};
use eotora_states::StateProvider;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eotora-serve-{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> Scenario {
    Scenario::paper(6, 21).with_horizon(16).with_bdma_rounds(2)
}

fn config(s: &Scenario, dir: &Path) -> ServerConfig {
    ServerConfig {
        scenario: s.clone(),
        deadline: None,
        watchdog_expirations: 8,
        admission: AdmissionSettings { capacity: 64, policy: ShedPolicy::Block },
        durability: DurabilityConfig {
            checkpoint_every: 5,
            fsync: FsyncPolicy::Os,
            ..DurabilityConfig::new(dir)
        },
        engine: EngineOptions::parse(
            Surface::Toml,
            &[(EngineOption::CheckpointDir, dir.to_str().unwrap())],
            s,
        )
        .unwrap(),
    }
}

/// The scenario's state stream as the JSONL a client would send.
fn states_jsonl(s: &Scenario, slots: u64) -> String {
    let system = MecSystem::random(&s.system, s.seed);
    let mut provider = StateProvider::paper(system.topology(), &s.states, s.seed);
    let mut out = String::new();
    for slot in 0..slots {
        let state = provider.observe(slot, system.topology());
        out.push_str(&serde_json::to_string(&state).expect("states serialize"));
        out.push('\n');
    }
    out
}

fn run_server(
    config: ServerConfig,
    input: &str,
) -> (ServerSummary, Vec<DecisionRecord>, Vec<String>) {
    let mut decisions = Vec::new();
    let mut events = Vec::new();
    let flags = SignalFlags::manual();
    let summary = serve(
        config,
        None,
        InputSource::Reader(Box::new(Cursor::new(input.as_bytes().to_vec()))),
        &mut decisions,
        &mut events,
        &flags,
    )
    .expect("serve runs to completion");
    let records = String::from_utf8(decisions)
        .expect("utf8")
        .lines()
        .map(|line| serde_json::from_str(line).expect("decision lines parse"))
        .collect();
    let events = String::from_utf8(events).expect("utf8").lines().map(str::to_owned).collect();
    (summary, records, events)
}

/// Every deterministic field of `record` must equal the batch run's
/// value at the same slot, bit for bit (`solve_time_s` is wall clock and
/// excluded).
fn assert_matches_batch(records: &[DecisionRecord], reference: &SimulationResult) {
    for rec in records {
        let i = rec.slot as usize;
        assert_eq!(rec.latency_s, reference.latency.values()[i], "latency at slot {i}");
        assert_eq!(rec.cost_usd, reference.cost.values()[i], "cost at slot {i}");
        assert_eq!(rec.queue, reference.queue.values()[i], "queue at slot {i}");
        assert_eq!(rec.price, reference.price.values()[i], "price at slot {i}");
        assert_eq!(rec.fairness, reference.fairness.values()[i], "fairness at slot {i}");
        assert_eq!(rec.handover_rate, reference.handover_rate.values()[i], "handover at slot {i}");
        assert_eq!(rec.mean_clock_ghz, reference.mean_clock_ghz.values()[i], "clock at slot {i}");
        assert_eq!(rec.bdma_rounds, reference.rounds_used.values()[i], "rounds at slot {i}");
    }
}

fn event_field(events: &[String], event: &str, field: &str) -> Option<serde_json::Value> {
    events.iter().find_map(|line| {
        let value = serde_json::parse(line).ok()?;
        let fields = value.as_object()?;
        let is_event = fields.iter().any(|(k, v)| k == "event" && v.as_str() == Some(event));
        if !is_event {
            return None;
        }
        fields.iter().find(|(k, _)| k == field).map(|(_, v)| v.clone())
    })
}

fn event_u64(events: &[String], event: &str, field: &str) -> Option<u64> {
    event_field(events, event, field).and_then(|v| v.as_u64())
}

#[test]
fn stream_is_bit_identical_to_batch() {
    let s = scenario();
    let reference = run(&s);
    let (summary, records, events) =
        run_server(config(&s, &temp_dir("identity")), &states_jsonl(&s, 16));
    assert_eq!(summary.slots_completed, 16);
    assert_eq!(summary.decisions, 16);
    assert!(!summary.interrupted);
    assert_eq!(records.len(), 16);
    assert_matches_batch(&records, &reference);
    assert_eq!(summary.counters["durability.frames_journaled"], 16);
    assert_eq!(summary.counters["server.decisions"], 16);
    assert_eq!(event_u64(&events, "started", "resumed_at_slot"), Some(0));
    assert_eq!(event_u64(&events, "shutdown", "slots"), Some(16));
}

#[test]
fn graceful_shutdown_and_restart_resume_without_duplicates() {
    let s = scenario();
    let reference = run(&s);
    let dir = temp_dir("graceful");
    let full = states_jsonl(&s, 16);

    // Insert a shutdown control after the first 7 states — the in-band
    // twin of SIGTERM (both exit through the same graceful path).
    let mut lines: Vec<&str> = full.lines().collect();
    lines.insert(7, r#"{"control": "shutdown"}"#);
    let (first, records_a, _) = run_server(config(&s, &dir), &lines.join("\n"));
    assert_eq!(first.slots_completed, 7);
    assert_eq!(records_a.iter().map(|r| r.slot).collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());

    // Restart against the same directory; the client resends its full
    // stream and the already-solved prefix deduplicates.
    let (second, records_b, events_b) = run_server(config(&s, &dir), &full);
    assert_eq!(second.slots_completed, 16);
    assert_eq!(second.counters["server.coalesced"], 7);
    assert_eq!(records_b.iter().map(|r| r.slot).collect::<Vec<_>>(), (7..16).collect::<Vec<_>>());
    assert_eq!(event_u64(&events_b, "started", "resumed_at_slot"), Some(7));

    let mut all = records_a;
    all.extend(records_b);
    assert_eq!(all.len(), 16, "concatenated streams cover every slot exactly once");
    assert_matches_batch(&all, &reference);
}

#[test]
fn hard_kill_and_restart_re_emit_identical_decisions() {
    let s = scenario();
    let reference = run(&s);
    let dir = temp_dir("kill");
    let full = states_jsonl(&s, 16);

    // Crash (no graceful snapshot) after slot 7; the last cadence
    // snapshot is at slot 5, so the restart re-solves 5..=7.
    let mut killed = config(&s, &dir);
    killed.durability.kill_at_slot = Some(7);
    let (first, records_a, events_a) = run_server(killed, &full);
    assert!(first.interrupted);
    assert_eq!(first.slots_completed, 8);
    assert!(event_field(&events_a, "killed", "slot").is_some());

    let (second, records_b, _) = run_server(config(&s, &dir), &full);
    assert!(!second.interrupted);
    assert_eq!(second.counters["durability.resumed_slots"], 5);
    assert_eq!(records_b.first().map(|r| r.slot), Some(5));
    assert_eq!(second.slots_completed, 16);

    // Re-emitted slots must be bit-identical to their first emission,
    // and the deduplicated union must match the batch run.
    let mut by_slot: std::collections::BTreeMap<u64, &DecisionRecord> = Default::default();
    for rec in records_a.iter().chain(&records_b) {
        if let Some(seen) = by_slot.get(&rec.slot) {
            assert_eq!(
                (seen.latency_s, seen.queue),
                (rec.latency_s, rec.queue),
                "slot {}",
                rec.slot
            );
        } else {
            by_slot.insert(rec.slot, rec);
        }
    }
    assert_eq!(by_slot.len(), 16);
    let deduped: Vec<DecisionRecord> = by_slot.into_values().cloned().collect();
    assert_matches_batch(&deduped, &reference);
}

#[test]
fn overload_sheds_and_keeps_the_queue_bounded() {
    let s = scenario();
    let mut cfg = config(&s, &temp_dir("overload"));
    cfg.admission.capacity = 4;
    cfg.admission.policy = ShedPolicy::NewestWins;
    // The in-memory reader floods 200 slots effectively instantly — far
    // beyond any solve rate — so the queue must shed.
    let (summary, records, events) = run_server(cfg, &states_jsonl(&s, 200));
    assert!(!summary.interrupted);
    assert!(summary.decisions >= 1);
    let shed = summary.counters.get("server.shed_newest").copied().unwrap_or(0);
    assert!(shed > 0, "200 instant slots against a real solver must shed");
    // The policy breakdown must attribute every drop to `NewestWins`.
    assert_eq!(summary.counters.get("server.shed_oldest").copied().unwrap_or(0), 0);
    assert_eq!(summary.counters["server.admitted"], 200);
    assert_eq!(shed + summary.decisions, 200, "every admitted state is solved or shed");
    match event_u64(&events, "shutdown", "max_queue_depth") {
        Some(depth) => {
            assert!(depth <= 4, "queue depth {depth} exceeded the capacity cap")
        }
        None => panic!("missing max_queue_depth in shutdown event"),
    }
    // The decision stream keeps strict slot order across the gaps.
    for pair in records.windows(2) {
        assert!(pair[0].slot < pair[1].slot, "slots must stay strictly increasing");
    }
    // Shed slots are journaled as gaps: a restart must resume cleanly.
    let s2 = scenario();
    let dir2 = temp_dir("overload-resume");
    let mut cfg = config(&s2, &dir2);
    cfg.admission.capacity = 4;
    cfg.admission.policy = ShedPolicy::NewestWins;
    let (first, _, _) = run_server(cfg, &states_jsonl(&s2, 120));
    let (second, _, _) = run_server(config(&s2, &dir2), &states_jsonl(&s2, 120));
    assert!(second.slots_completed >= first.slots_completed);
}

#[test]
fn hot_reload_applies_or_rejects_atomically() {
    let s = scenario();
    let dir = temp_dir("reload");
    let files = temp_dir("reload-files");
    fs::create_dir_all(&files).expect("mkdir");
    let toml_for = |devices: u64, capacity: u64| {
        format!(
            "[scenario]\ndevices = {devices}\nseed = 21\nhorizon = 16\nbdma_rounds = 2\n\
             [admission]\ncapacity = {capacity}\npolicy = \"block\"\n\
             [durability]\ndir = \"{}\"\ncheckpoint_every = 5\nfsync = \"os\"\n",
            dir.display()
        )
    };
    let good = files.join("good.toml");
    let bad = files.join("bad.toml");
    let garbage = files.join("garbage.toml");
    fs::write(&good, toml_for(6, 8)).expect("write");
    fs::write(&bad, toml_for(7, 8)).expect("write"); // scenario change: restart-only
    fs::write(&garbage, "definitely = not = toml\n").expect("write");

    let full = states_jsonl(&s, 16);
    let mut lines: Vec<String> = full.lines().map(str::to_owned).collect();
    lines.insert(3, format!(r#"{{"control": "reload", "path": "{}"}}"#, bad.display()));
    lines.insert(4, format!(r#"{{"control": "reload", "path": "{}"}}"#, garbage.display()));
    lines.insert(5, format!(r#"{{"control": "reload", "path": "{}"}}"#, good.display()));

    let (summary, records, events) = run_server(config(&s, &dir), &lines.join("\n"));
    assert_eq!(summary.counters["server.reloads_rejected"], 2);
    assert_eq!(summary.counters["server.reloads_applied"], 1);
    // Rejections carry a typed error record on the event stream...
    let rejections: Vec<&String> =
        events.iter().filter(|l| l.contains("reload_rejected")).collect();
    assert_eq!(rejections.len(), 2);
    assert!(rejections.iter().all(|l| l.contains("\"config\"")), "{rejections:?}");
    // ...and the applied reload reports the new admission settings.
    assert_eq!(event_u64(&events, "reload_applied", "capacity"), Some(8));
    // All 16 slots still solved — reload traffic never consumes states.
    assert_eq!(records.len(), 16);
    assert_eq!(summary.slots_completed, 16);
    assert_matches_batch(&records, &run(&s));
}

#[test]
fn malformed_lines_never_derail_the_stream() {
    let s = scenario();
    let full = states_jsonl(&s, 8);
    let mut lines: Vec<String> = full.lines().map(str::to_owned).collect();
    let truncated = lines[5].clone();
    lines.insert(2, "this is not json".to_owned());
    lines.insert(5, truncated[..truncated.len() / 2].to_owned());
    let (summary, records, events) =
        run_server(config(&s, &temp_dir("malformed")), &lines.join("\n"));
    assert_eq!(summary.counters["server.malformed_frames"], 2);
    assert_eq!(records.len(), 8, "every well-formed state still solves");
    assert_eq!(summary.slots_completed, 8);
    let errors: Vec<&String> = events.iter().filter(|l| l.contains("\"error\"")).collect();
    assert_eq!(errors.len(), 2);
    assert_matches_batch(&records, &run(&s));
}

#[cfg(unix)]
#[test]
fn unix_socket_clients_stream_states() {
    use std::io::Write as _;
    use std::os::unix::net::{UnixListener, UnixStream};

    let s = scenario();
    let sock_dir = temp_dir("sock");
    fs::create_dir_all(&sock_dir).expect("mkdir");
    let sock = sock_dir.join("eotora.sock");
    let listener = UnixListener::bind(&sock).expect("bind");
    let input = states_jsonl(&s, 6);

    let client = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&sock).expect("connect");
            stream.write_all(input.as_bytes()).expect("send states");
            stream.write_all(b"{\"control\": \"shutdown\"}\n").expect("send shutdown");
        })
    };

    let mut decisions = Vec::new();
    let mut events = Vec::new();
    let flags = SignalFlags::manual();
    let summary = serve(
        config(&s, &temp_dir("sock-ckpt")),
        None,
        InputSource::UnixSocket(listener),
        &mut decisions,
        &mut events,
        &flags,
    )
    .expect("serve");
    client.join().expect("client");
    assert_eq!(summary.slots_completed, 6);
    assert_eq!(summary.decisions, 6);
}

#[cfg(unix)]
#[test]
fn unix_socket_rejects_a_concurrent_second_client() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::{UnixListener, UnixStream};

    let s = scenario();
    let sock_dir = temp_dir("sock-concurrent");
    fs::create_dir_all(&sock_dir).expect("mkdir");
    let sock = sock_dir.join("eotora.sock");
    let listener = UnixListener::bind(&sock).expect("bind");
    let input = states_jsonl(&s, 4);

    let client = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let mut first = UnixStream::connect(&sock).expect("connect first");
            first.write_all(input.as_bytes()).expect("send states");
            // While the first stream is still open, a second connection
            // must be turned away with a typed error record on its own
            // stream — its frames never reach the solver.
            let second = UnixStream::connect(&sock).expect("connect second");
            let mut rejection = String::new();
            BufReader::new(second).read_line(&mut rejection).expect("read rejection");
            assert!(
                rejection.contains("concurrent-client"),
                "unexpected rejection line: {rejection:?}"
            );
            first.write_all(b"{\"control\": \"shutdown\"}\n").expect("send shutdown");
        })
    };

    let mut decisions = Vec::new();
    let mut events = Vec::new();
    let flags = SignalFlags::manual();
    let summary = serve(
        config(&s, &temp_dir("sock-concurrent-ckpt")),
        None,
        InputSource::UnixSocket(listener),
        &mut decisions,
        &mut events,
        &flags,
    )
    .expect("serve");
    client.join().expect("client");
    // Every state from the first client solved; the rejection shows up as
    // exactly one malformed-frame record, not as extra slots.
    assert_eq!(summary.slots_completed, 4);
    assert_eq!(summary.decisions, 4);
    assert_eq!(summary.counters["server.malformed_frames"], 1);
    let events = String::from_utf8(events).expect("utf8 events");
    assert_eq!(events.lines().filter(|l| l.contains("concurrent-client")).count(), 1);
}
