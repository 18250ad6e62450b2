//! The batch workloads: a closed loop of `StepDriver::step` calls, the
//! `eotora run` path, on a scenario built from the seed.

use std::time::Instant;

use eotora_core::system::MecSystem;
use eotora_obs::Recorder;
use eotora_server::DecisionRecord;
use eotora_sim::{DriverMode, DriverTuning, Scenario, StepDriver};
use eotora_states::StateProvider;

use crate::check::{check_same_stream, check_stream, Tally};
use crate::probe::Probe;
use crate::trace::{SlotLayers, SlotRecorder};

/// One pass over a workload's slots.
pub struct Episode {
    /// The decision stream.
    pub records: Vec<DecisionRecord>,
    /// Per-slot `step` time, ns.
    pub step_ns: Vec<u64>,
    /// Per-slot layers (traced episodes only).
    pub layers: Vec<SlotLayers>,
    /// Host-speed probe time before each slot, ns.
    pub probe_ns: Vec<u64>,
    /// Per-slot time of the slot loop: state generation, `step` and
    /// bookkeeping, the probe excluded, ns.
    pub loop_ns: Vec<u64>,
    /// Failure accounting.
    pub tally: Tally,
    /// Devices and base stations of the topology.
    pub shape: (usize, usize),
    /// The budget `C̄`.
    pub budget: f64,
}

/// Times the two constructions that make up batch set-up, in ns:
/// `(MecSystem::random, StepDriver::new)`.
pub fn setup_sample(scenario: &Scenario) -> (u64, u64) {
    let start = Instant::now();
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let system_ns = elapsed_ns(start);
    let start = Instant::now();
    let driver =
        StepDriver::new(scenario, system, DriverMode::Plain, None, None, DriverTuning::default());
    let driver_ns = elapsed_ns(start);
    std::hint::black_box(&driver);
    (system_ns, driver_ns)
}

/// Runs `slots` slots of `scenario` in Plain mode, generating each state
/// from the paper's state process seeded with `states_seed` just before
/// its step, and times `probe` just before each step. With `sink`, the
/// program's spans and counters go to it and each slot's layers are
/// recorded.
pub fn run_episode(
    scenario: &Scenario,
    states_seed: u64,
    slots: u64,
    probe: &Probe,
    sink: Option<&SlotRecorder>,
) -> Result<Episode, String> {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, states_seed);
    let recorder = sink.map(|s| s as &dyn Recorder);
    let mut driver = StepDriver::new(
        scenario,
        system,
        DriverMode::Plain,
        None,
        recorder,
        DriverTuning::default(),
    );
    let shape = (driver.topology().num_devices(), driver.topology().num_base_stations());
    let mut records = Vec::with_capacity(slots as usize);
    let mut step_ns = Vec::with_capacity(slots as usize);
    let mut probe_ns = Vec::with_capacity(slots as usize);
    let mut loop_ns = Vec::with_capacity(slots as usize);
    let mut layers = Vec::new();
    if let Some(sink) = sink {
        sink.take_slot();
    }
    for slot in 0..slots {
        let begin = Instant::now();
        let beta = states.observe(slot, driver.topology());
        let probed = probe.time_ns();
        let t = Instant::now();
        let report = driver.step(beta).map_err(|e| format!("slot {slot}: {e}"))?;
        let ns = elapsed_ns(t);
        step_ns.push(ns);
        if let Some(sink) = sink {
            layers.push(
                SlotLayers { wall: ns, step: ns, ..Default::default() }
                    .with_spans(&sink.take_slot()),
            );
        }
        records.push(DecisionRecord::from_report(&report));
        probe_ns.push(probed);
        loop_ns.push(elapsed_ns(begin).saturating_sub(probed));
    }
    let tally = Tally::new(slots, records.len() as u64, &driver.counters());
    Ok(Episode {
        records,
        step_ns,
        layers,
        probe_ns,
        loop_ns,
        tally,
        shape,
        budget: driver.budget(),
    })
}

/// The checks every batch episode must pass; `reference` is the first
/// episode of the run, which every later one must repeat exactly.
pub fn check_episode(episode: &Episode, reference: Option<&Episode>) -> Result<(), String> {
    let (devices, stations) = episode.shape;
    check_stream(&episode.records, devices, stations, episode.budget)?;
    for (slot, layers) in episode.layers.iter().enumerate() {
        layers.check(slot as u64)?;
    }
    match reference {
        Some(first) => check_same_stream("repeated episode", &first.records, &episode.records),
        None => Ok(()),
    }
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
