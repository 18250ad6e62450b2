//! Kill–resume chaos tests for the durability subsystem.
//!
//! The pinned claim: a run interrupted at an arbitrary slot and resumed
//! from its checkpoint directory produces **bit-identical**
//! decision-derived output — every per-slot series, the queue trajectory,
//! the end-of-run averages, and all counters — versus the same scenario
//! run uninterrupted. Only wall-clock measurements (`solve_time`,
//! per-stage seconds) and the `durability.*` counters may differ.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use eotora_core::fault::FaultSchedule;
use eotora_durability::DurabilityError;
use eotora_sim::durable::{resume_durable, run_durable, DurabilityConfig, DurableRun};
use eotora_sim::{robust_config, run, run_mode, DriverMode, Scenario, SimulationResult};
use eotora_util::rng::Pcg32;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eotora-resume-{}-{tag}-{n}", std::process::id()));
    // Fresh every time: run_durable refuses a dir that already holds a run.
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn scenario(seed: u64) -> Scenario {
    Scenario::paper(8, seed).with_horizon(24).with_bdma_rounds(2)
}

fn completed(outcome: DurableRun) -> SimulationResult {
    match outcome {
        DurableRun::Completed(result) => *result,
        DurableRun::Interrupted { slot } => panic!("unexpected interrupt after slot {slot}"),
    }
}

fn interrupted(outcome: DurableRun) -> u64 {
    match outcome {
        DurableRun::Interrupted { slot } => slot,
        DurableRun::Completed(_) => panic!("run unexpectedly ran to completion"),
    }
}

fn non_durability_counters(c: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    c.iter()
        .filter(|(name, _)| !name.starts_with("durability."))
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

/// Asserts everything except wall-clock values and `durability.*` counters
/// is bit-identical.
fn assert_same(a: &SimulationResult, b: &SimulationResult) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.queue, b.queue);
    assert_eq!(a.price, b.price);
    assert_eq!(a.fairness, b.fairness);
    assert_eq!(a.handover_rate, b.handover_rate);
    assert_eq!(a.mean_clock_ghz, b.mean_clock_ghz);
    assert_eq!(a.rounds_used, b.rounds_used);
    assert_eq!(a.mean_bdma_rounds.to_bits(), b.mean_bdma_rounds.to_bits());
    assert_eq!(a.average_latency.to_bits(), b.average_latency.to_bits());
    assert_eq!(a.average_cost.to_bits(), b.average_cost.to_bits());
    assert_eq!(a.budget.to_bits(), b.budget.to_bits());
    assert_eq!(non_durability_counters(&a.counters), non_durability_counters(&b.counters));
    // Wall-clock series: same shape, values may differ.
    assert_eq!(a.solve_time.len(), b.solve_time.len());
    let stages_a: Vec<&String> = a.per_stage_solve_time.keys().collect();
    let stages_b: Vec<&String> = b.per_stage_solve_time.keys().collect();
    assert_eq!(stages_a, stages_b);
    for (name, series) in &a.per_stage_solve_time {
        assert_eq!(series.len(), b.per_stage_solve_time[name].len(), "stage {name}");
    }
}

#[test]
fn durable_run_without_kill_matches_plain_run() {
    let s = scenario(31);
    let cfg = DurabilityConfig::new(temp_dir("nokill"));
    let durable = completed(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap());
    let reference = run(&s);
    assert_same(&durable, &reference);
    assert_eq!(durable.counters["durability.frames_journaled"], 24);
    // Every 10 slots plus the horizon: slots 10, 20, 24.
    assert_eq!(durable.counters["durability.snapshots_written"], 3);
    assert!(!durable.counters.contains_key("durability.resumed_slots"));
}

#[test]
fn kill_resume_is_bit_identical_at_randomized_slots() {
    let s = scenario(32);
    let reference = run(&s);
    let mut rng = Pcg32::seed_stream(0xC4A05, 7);
    for _ in 0..3 {
        let kill = rng.below(23) as u64;
        let mut cfg = DurabilityConfig::new(temp_dir("chaos"));
        cfg.checkpoint_every = 7;
        cfg.kill_at_slot = Some(kill);
        assert_eq!(interrupted(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap()), kill);
        cfg.kill_at_slot = None;
        let resumed = completed(resume_durable(&cfg, None).unwrap());
        assert_same(&resumed, &reference);
        // The resume restored the slots of the last snapshot before the
        // kill (0 — and no counter — if it fired before the first one).
        let restored = resumed.counters.get("durability.resumed_slots").copied().unwrap_or(0);
        assert_eq!(restored, (kill + 1) / 7 * 7, "kill {kill}");
    }
}

#[test]
fn kill_resume_is_bit_identical_under_warm_starts() {
    let s = scenario(33).with_start_policy(eotora_core::bdma::StartPolicy::Warm);
    let reference = run(&s);
    let mut cfg = DurabilityConfig::new(temp_dir("warm"));
    cfg.checkpoint_every = 6;
    // Kill right on a checkpoint boundary: the resumed controller continues
    // purely from the serialized warm-start workspace.
    cfg.kill_at_slot = Some(11);
    assert_eq!(interrupted(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap()), 11);
    cfg.kill_at_slot = None;
    let resumed = completed(resume_durable(&cfg, None).unwrap());
    assert_same(&resumed, &reference);
}

#[test]
fn kill_resume_is_bit_identical_under_faults() {
    let s = scenario(34);
    let faults = FaultSchedule::chaos_default(24, 16, 34);
    let robust = DriverMode::Robust { faults, robust: robust_config(&s, None) };
    let reference = run_mode(&s, robust.clone(), None);
    let mut cfg = DurabilityConfig::new(temp_dir("robust"));
    cfg.checkpoint_every = 5;
    cfg.kill_at_slot = Some(13);
    assert_eq!(interrupted(run_durable(&s, robust, &cfg, None).unwrap()), 13);
    cfg.kill_at_slot = None;
    let resumed = completed(resume_durable(&cfg, None).unwrap());
    assert_same(&resumed, &reference);
}

#[test]
fn resumed_run_survives_a_second_kill() {
    let s = scenario(35);
    let reference = run(&s);
    let mut cfg = DurabilityConfig::new(temp_dir("double"));
    cfg.checkpoint_every = 4;
    cfg.kill_at_slot = Some(5);
    assert_eq!(interrupted(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap()), 5);
    cfg.kill_at_slot = Some(15);
    assert_eq!(interrupted(resume_durable(&cfg, None).unwrap()), 15);
    cfg.kill_at_slot = None;
    let resumed = completed(resume_durable(&cfg, None).unwrap());
    assert_same(&resumed, &reference);
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> =
        fs::read_dir(dir.join("journal")).unwrap().map(|e| e.unwrap().path()).collect();
    segments.sort();
    segments.pop().unwrap()
}

#[test]
fn torn_journal_tail_is_dropped_and_the_run_still_resumes() {
    let s = scenario(36);
    let reference = run(&s);
    let mut cfg = DurabilityConfig::new(temp_dir("torn"));
    cfg.checkpoint_every = 5;
    cfg.kill_at_slot = Some(17);
    assert_eq!(interrupted(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap()), 17);
    // Tear the final frame, as a crash mid-append would: 18 frames on disk,
    // snapshot at 15 → recovery drops the torn frame 18, discards intact
    // frames 16–17 past the snapshot, and re-executes from slot 15.
    let segment = last_segment(&cfg.dir);
    let len = fs::metadata(&segment).unwrap().len();
    fs::OpenOptions::new().write(true).open(&segment).unwrap().set_len(len - 3).unwrap();
    cfg.kill_at_slot = None;
    let resumed = completed(resume_durable(&cfg, None).unwrap());
    assert_same(&resumed, &reference);
    assert_eq!(resumed.counters["durability.torn_frames_dropped"], 1);
    assert_eq!(resumed.counters["durability.frames_discarded"], 2);
    assert_eq!(resumed.counters["durability.resumed_slots"], 15);
}

#[test]
fn mid_journal_corruption_is_a_typed_error() {
    let s = scenario(37);
    let mut cfg = DurabilityConfig::new(temp_dir("midlog"));
    cfg.kill_at_slot = Some(14);
    assert_eq!(interrupted(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap()), 14);
    // Flip a payload byte of the first frame — bytes follow, so this can
    // never be mistaken for a torn tail.
    let segment = last_segment(&cfg.dir);
    let mut file = fs::OpenOptions::new().read(true).write(true).open(&segment).unwrap();
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(9)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0x40;
    file.seek(SeekFrom::Start(9)).unwrap();
    file.write_all(&byte).unwrap();
    drop(file);
    cfg.kill_at_slot = None;
    match resume_durable(&cfg, None) {
        Err(DurabilityError::CorruptFrame { frame, .. }) => assert_eq!(frame, 0),
        other => panic!("expected CorruptFrame, got {other:?}"),
    }
}

#[test]
fn corrupt_snapshot_is_a_typed_error() {
    let s = scenario(38);
    let mut cfg = DurabilityConfig::new(temp_dir("snapcorrupt"));
    cfg.kill_at_slot = Some(12);
    assert_eq!(interrupted(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap()), 12);
    let snap = cfg.dir.join("snapshot.bin");
    let mut bytes = fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&snap, &bytes).unwrap();
    cfg.kill_at_slot = None;
    match resume_durable(&cfg, None) {
        Err(DurabilityError::CorruptSnapshot { .. }) => {}
        other => panic!("expected CorruptSnapshot, got {other:?}"),
    }
}

#[test]
fn a_directory_already_holding_a_run_is_rejected() {
    let s = scenario(39).with_horizon(4);
    let cfg = DurabilityConfig::new(temp_dir("reuse"));
    completed(run_durable(&s, DriverMode::Plain, &cfg, None).unwrap());
    match run_durable(&s, DriverMode::Plain, &cfg, None) {
        Err(DurabilityError::InvalidConfig { reason }) => {
            assert!(reason.contains("already holds a run"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn modes_the_manifest_cannot_reproduce_are_refused() {
    let s = scenario(40).with_horizon(4);
    // `deadline_ms` would resume a 500 µs deadline as zero — an
    // every-slot-expires run.
    let sub_millisecond = DriverMode::Robust {
        faults: FaultSchedule::default(),
        robust: robust_config(&s, Some(Duration::from_micros(500))),
    };
    let cfg = DurabilityConfig::new(temp_dir("refused"));
    match run_durable(&s, sub_millisecond.clone(), &cfg, None) {
        Err(DurabilityError::InvalidConfig { .. }) => {}
        other => panic!("expected InvalidConfig for {sub_millisecond:?}, got {other:?}"),
    }
    assert!(!cfg.dir.exists(), "a refused run must not touch its checkpoint directory");
    // A whole-millisecond deadline survives the manifest round trip.
    let whole = DriverMode::Robust {
        faults: FaultSchedule::default(),
        robust: robust_config(&s, Some(Duration::from_secs(60))),
    };
    let cfg = DurabilityConfig::new(temp_dir("whole-ms"));
    completed(run_durable(&s, whole.clone(), &cfg, None).unwrap());
    let manifest = eotora_sim::durable::read_manifest_in(&cfg.dir).unwrap();
    assert_eq!(manifest.driver_mode().unwrap(), whole);
}
