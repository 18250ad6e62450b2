//! The snapshot writer thread starts at the first due snapshot and is
//! joined when its session drops. Alone in its test binary, so no other
//! test's threads move the count.

use std::fs;
use std::time::{Duration, Instant};

use eotora_core::system::MecSystem;
use eotora_sim::{
    open_session, DriverMode, DriverTuning, DurabilityConfig, RunManifest, Scenario, StepDriver,
};
use eotora_states::StateProvider;

fn threads() -> usize {
    fs::read_dir("/proc/self/task").map(|tasks| tasks.count()).unwrap_or(0)
}

/// Whether the thread count reaches `n` within a second: a joined
/// thread's task entry can outlive the join by a moment.
fn settles_to(n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    while threads() != n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    threads() == n
}

#[test]
fn the_writer_thread_lives_from_the_first_snapshot_to_the_drop() {
    let dir = std::env::temp_dir().join(format!("eotora-writer-threads-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let scenario = Scenario::paper(6, 43).with_horizon(40);
    let start = threads();
    let cfg = DurabilityConfig { checkpoint_every: 4, ..DurabilityConfig::new(&dir) };
    let manifest = RunManifest::new(&scenario, &DriverMode::Plain, &cfg).unwrap();
    let session = open_session(&cfg, &manifest).unwrap();
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    let mut driver = StepDriver::new(
        &scenario,
        system,
        DriverMode::Plain,
        Some(session),
        None,
        DriverTuning::default(),
    );
    assert_eq!(threads(), start, "opening a session starts no thread");
    for _ in 0..10 {
        let beta = states.observe(driver.cursor(), driver.topology());
        driver.step(beta).unwrap();
    }
    assert!(settles_to(start + 1), "the first due snapshot starts the writer");
    // Dropped with the slot-12 snapshot in flight: the drop lands it.
    for _ in 0..2 {
        let beta = states.observe(driver.cursor(), driver.topology());
        driver.step(beta).unwrap();
    }
    drop(driver);
    assert!(settles_to(start), "the dropped session joined its writer");
    assert!(!dir.join("snapshot.tmp").exists());
    let cfg = DurabilityConfig::new(&dir);
    let manifest = eotora_sim::durable::read_manifest_in(&dir).unwrap();
    let driver = StepDriver::new(
        &scenario,
        MecSystem::random(&scenario.system, scenario.seed),
        DriverMode::Plain,
        Some(open_session(&cfg, &manifest).unwrap()),
        None,
        DriverTuning::default(),
    );
    assert_eq!(driver.cursor(), 12, "the snapshot in flight at the drop landed");
    drop(driver);
    fs::remove_dir_all(&dir).unwrap();
}
