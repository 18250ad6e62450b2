//! The daemon's engine set-up, pinned against the copy perfbench builds
//! from public parts (`perfbench/src/serve.rs`, `open_engine`): the same
//! manifest on disk and the same decisions, slot for slot. A change to
//! how `serve` opens its engine that perfbench's copy does not follow
//! fails here first.

use std::fs;
use std::path::{Path, PathBuf};

use eotora_core::fault::FaultSchedule;
use eotora_core::system::MecSystem;
use eotora_durability::SlotRecord;
use eotora_obs::NoopRecorder;
use eotora_server::ServerConfig;
use eotora_sim::durable::read_manifest_in;
use eotora_sim::{
    open_session, robust_config, DriverMode, DriverTuning, DurabilityConfig, RunManifest,
    StepDriver, MANIFEST_VERSION,
};
use eotora_states::StateProvider;

const SLOTS: u64 = 20;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eotora-setup-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// perfbench's daemon config (`serve.rs`, `config`): the paper scenario
/// with a deadline, every other setting at the parser's default.
fn config(dir: &Path) -> ServerConfig {
    let text = format!(
        "[scenario]\ndevices = 8\nseed = 5\n\n[server]\ndeadline_ms = 1000\n\n\
         [durability]\ndir = \"{}\"\n",
        dir.display()
    );
    ServerConfig::from_str(&text).expect("valid config")
}

/// The manifest perfbench's `open_engine` writes down for `config`.
fn perfbench_manifest(config: &ServerConfig) -> RunManifest {
    RunManifest {
        version: MANIFEST_VERSION,
        mode: "server".to_owned(),
        scenario: config.scenario.clone(),
        faults: None,
        deadline_ms: config.deadline.map(|d| d.as_millis() as u64),
        checkpoint_every: config.durability.checkpoint_every,
        fsync: config.durability.fsync.to_string(),
    }
}

/// The engine perfbench's `open_engine` builds for `config`, in `dir`.
fn perfbench_engine(config: &ServerConfig, dir: &Path) -> StepDriver<'static> {
    let mut durability = DurabilityConfig::new(dir);
    durability.checkpoint_every = config.durability.checkpoint_every;
    durability.fsync = config.durability.fsync;
    let session = open_session(&durability, &perfbench_manifest(config)).expect("session opens");
    let system = MecSystem::random(&config.scenario.system, config.scenario.seed);
    let mode = DriverMode::Robust {
        faults: FaultSchedule::default(),
        robust: robust_config(&config.scenario, config.deadline),
    };
    StepDriver::new(
        &config.scenario,
        system,
        mode,
        Some(session),
        Some(&NoopRecorder),
        DriverTuning { horizon: Some(u64::MAX), bounded: true },
    )
}

/// The records `driver` gives for the scenario's first [`SLOTS`] states,
/// wall-clock fields cleared.
fn records(mut driver: StepDriver<'_>, config: &ServerConfig) -> Vec<SlotRecord> {
    let scenario = &config.scenario;
    let mut states = StateProvider::paper(driver.topology(), &scenario.states, scenario.seed);
    (0..SLOTS)
        .map(|slot| {
            let beta = states.observe(slot, driver.topology());
            let record = driver.step(beta).expect("slot solves").record;
            SlotRecord { solve_time_s: 0.0, stages: Vec::new(), ..record }
        })
        .collect()
}

#[test]
fn the_daemon_opens_its_engine_as_perfbench_rebuilds_it() {
    let (daemon_dir, rebuilt_dir) = (temp_dir("daemon"), temp_dir("rebuilt"));
    let config = config(&daemon_dir);
    assert!(config.deadline.is_some());
    let daemon =
        StepDriver::daemon(&config.scenario, config.deadline, &config.durability, &NoopRecorder)
            .expect("daemon engine opens");
    let rebuilt = perfbench_engine(&config, &rebuilt_dir);
    assert_eq!(read_manifest_in(&daemon_dir).expect("manifest"), perfbench_manifest(&config));
    let bytes = |dir: &Path| fs::read(dir.join("manifest.json")).expect("manifest bytes");
    assert_eq!(bytes(&daemon_dir), bytes(&rebuilt_dir));
    assert_eq!(records(daemon, &config), records(rebuilt, &config));
    let _ = fs::remove_dir_all(&daemon_dir);
    let _ = fs::remove_dir_all(&rebuilt_dir);
}
