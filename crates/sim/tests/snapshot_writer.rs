//! The snapshot writer thread: ordering against the journal, error
//! surfacing, and the telemetry it hands back.
//!
//! Snapshots land on a session-owned thread while the next slot solves.
//! These tests drive a [`StepDriver`] directly and look at the checkpoint
//! directory after each drain point.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use eotora_core::system::MecSystem;
use eotora_durability::{read_journal, read_snapshot, DurabilityError};
use eotora_obs::{Recorder, TraceEvent};
use eotora_sim::durable::RunSnapshot;
use eotora_sim::{
    open_session, DriverMode, DriverTuning, DurabilityConfig, RunManifest, Scenario, StepDriver,
};
use eotora_states::StateProvider;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eotora-writer-{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Counts spans by name.
#[derive(Default)]
struct SpanCounts(RefCell<BTreeMap<String, u64>>);

impl Recorder for SpanCounts {
    fn span_ns(&self, name: &str, _nanos: u64) {
        *self.0.borrow_mut().entry(name.to_owned()).or_insert(0) += 1;
    }
    fn add(&self, _name: &str, _delta: u64) {}
    fn record(&self, _event: &TraceEvent) {}
}

impl SpanCounts {
    fn get(&self, name: &str) -> u64 {
        self.0.borrow().get(name).copied().unwrap_or(0)
    }
}

/// A plain durable driver over `scenario` checkpointing every `every`
/// slots into `dir`, and the state source that feeds it.
fn open<'s>(
    scenario: &Scenario,
    dir: &Path,
    every: u64,
    sink: Option<&'s dyn Recorder>,
) -> (StepDriver<'s>, StateProvider) {
    let cfg = DurabilityConfig { checkpoint_every: every, ..DurabilityConfig::new(dir) };
    let manifest = RunManifest::new(scenario, &DriverMode::Plain, &cfg).unwrap();
    let session = open_session(&cfg, &manifest).unwrap();
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    let tuning = DriverTuning::default();
    (StepDriver::new(scenario, system, DriverMode::Plain, Some(session), sink, tuning), states)
}

fn step(driver: &mut StepDriver<'_>, states: &mut StateProvider) -> Result<(), DurabilityError> {
    let beta = states.observe(driver.cursor(), driver.topology());
    driver.step(beta).map(|report| assert!(!report.interrupted))
}

fn snapshot_on_disk(dir: &Path) -> Option<RunSnapshot> {
    let path = dir.join("snapshot.bin");
    path.exists().then(|| {
        let payload = read_snapshot(&path, "eotora.run.v1").unwrap();
        serde_json::from_str(&String::from_utf8(payload).unwrap()).unwrap()
    })
}

fn journal_frames_on_disk(dir: &Path) -> u64 {
    read_journal(&dir.join("journal")).unwrap().frames.len() as u64
}

#[test]
fn a_drained_snapshot_never_claims_more_than_the_journal_holds() {
    let scenario = Scenario::paper(6, 31).with_horizon(23);
    for every in [1, 3, 10] {
        let dir = temp_dir(&format!("order-{every}"));
        let sink = SpanCounts::default();
        let (mut driver, mut states) = open(&scenario, &dir, every, Some(&sink));
        let mut latest = None;
        while driver.cursor() < driver.horizon() {
            step(&mut driver, &mut states).unwrap();
            if driver.cursor() % every == 0 || driver.cursor() == driver.horizon() {
                latest = Some(driver.cursor());
            }
            if driver.cursor() == 5 {
                // Off the cadence, `checkpoint_now` writes one at the cursor.
                assert_eq!(driver.checkpoint_now().unwrap(), 5 % every != 0);
                latest = Some(5);
            } else {
                driver.drain_checkpoint().unwrap();
            }
            let journal = journal_frames_on_disk(&dir);
            let snap = snapshot_on_disk(&dir);
            assert_eq!(snap.as_ref().map(|s| s.slots), latest, "every {every}");
            if let Some(snap) = snap {
                assert!(snap.slots <= journal, "every {every}: {} > {journal}", snap.slots);
                assert!(snap.frames <= journal, "every {every}: {} > {journal}", snap.frames);
            }
        }
        // Each snapshot reported its journal sync and its write as two
        // `journal.fsync` spans once collected; the every-16 default adds
        // in-line syncs only when snapshots fall 16 or more frames apart.
        let snapshots = sink.get(eotora_obs::SPAN_SNAPSHOT_WRITE);
        let expected = 23 / every + u64::from(23 % every != 0) + u64::from(5 % every != 0);
        assert_eq!(snapshots, expected, "every {every}");
        assert_eq!(sink.get(eotora_obs::SPAN_JOURNAL_FSYNC), 2 * snapshots, "every {every}");
        driver.finish().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_failed_background_write_surfaces_from_the_next_step() {
    let scenario = Scenario::paper(6, 37).with_horizon(20);
    let dir = temp_dir("step-error");
    let (mut driver, mut states) = open(&scenario, &dir, 3, None);
    // `write_atomic` cannot create its temp file over a directory.
    fs::create_dir_all(dir.join("snapshot.tmp")).unwrap();
    let mut errors = Vec::new();
    while driver.cursor() < 12 {
        if let Err(error) = step(&mut driver, &mut states) {
            errors.push((driver.cursor(), error));
        }
    }
    let (cursor, first) = &errors[0];
    assert!(*cursor >= 3, "the slot-3 snapshot failed before it was due ({cursor})");
    match first {
        DurabilityError::Io { path, .. } => assert!(path.ends_with("snapshot.tmp"), "{path}"),
        other => panic!("expected the temp file's I/O error, got {other:?}"),
    }
    assert!(errors.len() >= 3, "every later snapshot must fail too: {errors:?}");
    assert!(driver.checkpoint_now().is_err());
    drop(driver);
    assert!(!dir.join("snapshot.bin").exists(), "a snapshot landed despite the error");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_background_write_surfaces_from_checkpoint_now() {
    let scenario = Scenario::paper(6, 41).with_horizon(20);
    let dir = temp_dir("drain-error");
    let (mut driver, mut states) = open(&scenario, &dir, 10, None);
    fs::create_dir_all(dir.join("snapshot.tmp")).unwrap();
    for _ in 0..4 {
        step(&mut driver, &mut states).unwrap();
    }
    let error = driver.checkpoint_now().unwrap_err();
    assert!(matches!(&error, DurabilityError::Io { path, .. } if path.ends_with("snapshot.tmp")));
    for _ in 0..4 {
        step(&mut driver, &mut states).unwrap();
    }
    assert!(driver.checkpoint_now().is_err());
    drop(driver);
    assert!(!dir.join("snapshot.bin").exists(), "a snapshot landed despite the error");
    fs::remove_dir_all(&dir).unwrap();
}
