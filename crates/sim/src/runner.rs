//! Executes scenarios and collects per-slot metrics.
//!
//! Every run is instrumented: an in-memory
//! [`MetricsRecorder`](eotora_obs::MetricsRecorder) aggregates the
//! pipeline's spans into [`SimulationResult::per_stage_solve_time`], and
//! [`run_traced`] additionally tees the event stream into any external
//! [`Recorder`] (e.g. a JSONL sink for `eotora run --trace`).

use std::collections::BTreeMap;

use eotora_core::dpp::SolverKind;
use eotora_core::fault::FaultSchedule;
use eotora_core::robust::RobustConfig;
use eotora_core::speculate::SpeculativeConfig;
use eotora_core::system::MecSystem;
use eotora_durability::DurabilityError;
use eotora_obs::Recorder;
use eotora_states::{StateProvider, SystemState};
use eotora_util::series::TimeSeries;
use serde::{Deserialize, Serialize};

use crate::durable::DurableSession;
use crate::engine::{DriverMode, DriverTuning, StepDriver};
use crate::scenario::Scenario;

/// Per-slot series plus end-of-run aggregates for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Scenario label.
    pub label: String,
    /// Latency `T_t` per slot (seconds).
    pub latency: TimeSeries,
    /// Energy cost `C_t` per slot (dollars).
    pub cost: TimeSeries,
    /// Queue backlog `Q(t+1)` after each slot.
    pub queue: TimeSeries,
    /// Electricity price `p_t` per slot ($/kWh).
    pub price: TimeSeries,
    /// Wall-clock solve time per slot (seconds).
    pub solve_time: TimeSeries,
    /// Jain's fairness index of per-device latencies, per slot (1 = all
    /// devices see the same latency).
    pub fairness: TimeSeries,
    /// Fraction of devices that changed base station vs the previous slot
    /// (handover rate; 0 for the first slot).
    pub handover_rate: TimeSeries,
    /// Fleet mean clock frequency per slot, in GHz.
    pub mean_clock_ghz: TimeSeries,
    /// Per-slot seconds spent in each instrumented solver stage (`p2a`,
    /// `p2b`, `queue_update`, ...), keyed by span name. Every series has
    /// one entry per slot (zero where the stage did not run).
    pub per_stage_solve_time: BTreeMap<String, TimeSeries>,
    /// BDMA alternation rounds actually executed per slot (0 for slots
    /// where BDMA never ran; under warm starts the ε-termination makes this
    /// vary from slot to slot, cold runs pin it at the configured `z`).
    pub rounds_used: TimeSeries,
    /// Mean BDMA alternation rounds per slot (0 when BDMA never ran).
    pub mean_bdma_rounds: f64,
    /// Final values of every monotonic counter the run incremented
    /// (`bdma_rounds`, `slots`, on fault-injected runs the `fault.*` /
    /// `deadline.*` family, and on speculative runs the `spec.*` family).
    pub counters: BTreeMap<String, u64>,
    /// The budget `C̄` in force.
    pub budget: f64,
    /// Final time-average latency.
    pub average_latency: f64,
    /// Final time-average energy cost.
    pub average_cost: f64,
}

impl SimulationResult {
    /// Queue backlog averaged over the last `window` slots (the "converged"
    /// backlog of Fig. 8).
    pub fn converged_queue(&self, window: usize) -> f64 {
        self.queue.tail_average(window)
    }

    /// Whether the run honoured the budget on time average (with `tol`
    /// absorbing the `O(V/T)` transient).
    pub fn budget_satisfied(&self, tol: f64) -> bool {
        self.average_cost <= self.budget + tol
    }

    /// The `q`-quantile of the per-slot wall-clock solve time, in seconds
    /// (`None` for an empty run). Exact (sorting-based), unlike the
    /// bucketed trace histograms.
    pub fn solve_time_quantile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.solve_time.values().to_vec();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

/// Runs one scenario to completion.
pub fn run(scenario: &Scenario) -> SimulationResult {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    run_with(scenario, system, &mut |slot, topo| states.observe(slot, topo))
}

/// Runs one scenario while streaming every trace event into `sink` (in
/// addition to the in-memory metrics every run collects). This is the entry
/// point behind `eotora run --trace`: pass a
/// [`JsonlRecorder`](eotora_obs::JsonlRecorder) to capture the run as JSONL.
pub fn run_traced(scenario: &Scenario, sink: &dyn Recorder) -> SimulationResult {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    run_impl(scenario, system, &mut |slot, topo| states.observe(slot, topo), Some(sink))
}

/// Runs a scenario against a caller-supplied system and state source —
/// the hook used by the mobility example and the dynamic-fronthaul tests.
pub fn run_with(
    scenario: &Scenario,
    system: MecSystem,
    observe: &mut dyn FnMut(u64, &eotora_topology::Topology) -> SystemState,
) -> SimulationResult {
    run_impl(scenario, system, observe, None)
}

fn run_impl(
    scenario: &Scenario,
    system: MecSystem,
    observe: &mut dyn FnMut(u64, &eotora_topology::Topology) -> SystemState,
    sink: Option<&dyn Recorder>,
) -> SimulationResult {
    match run_engine(scenario, system, observe, sink, DriverMode::Plain, None) {
        Ok(EngineOutcome::Completed(result)) => *result,
        // Without a durable session the engine performs no I/O and has no
        // kill hook, so it can neither fail nor interrupt.
        Ok(EngineOutcome::Interrupted { .. }) | Err(_) => {
            unreachable!("non-durable run cannot fail or interrupt")
        }
    }
}

/// How an engine run ended.
pub(crate) enum EngineOutcome {
    /// Reached the horizon.
    Completed(Box<SimulationResult>),
    /// A durable session's kill hook fired after `slot` completed.
    Interrupted {
        /// Last completed slot.
        slot: u64,
    },
}

/// The one simulation loop behind every batch entry point: plain,
/// robust, and speculative pipelines, optional trace sink, optional
/// durability. All per-slot mechanics live in
/// [`StepDriver`](crate::engine::StepDriver) — this function only owns
/// the horizon loop and the state source, which is exactly the part the
/// `eotora-server` daemon replaces with a network stream.
///
/// With a [`DurableSession`], each completed slot appends a slot record
/// to the write-ahead journal and snapshots the full controller state on
/// the session's cadence (journal synced first — see
/// [`crate::durable`]). If the session carries resume state, the first
/// `snapshot.slots` slots are *replayed* from the journal head instead of
/// re-solved: the controller, sanitizer, and corruption RNG restore from
/// the snapshot, the state provider fast-forwards by re-observing the
/// completed slots, and the loop continues where the interrupted run
/// stopped — producing bit-identical decisions and series.
pub(crate) fn run_engine(
    scenario: &Scenario,
    system: MecSystem,
    observe: &mut dyn FnMut(u64, &eotora_topology::Topology) -> SystemState,
    sink: Option<&dyn Recorder>,
    mode: DriverMode,
    durable: Option<DurableSession>,
) -> Result<EngineOutcome, DurabilityError> {
    let mut driver =
        StepDriver::new(scenario, system, mode, durable, sink, DriverTuning::default());
    // Fast-forward the state source past any resume-replayed slots so the
    // cursor slot observes exactly what the uninterrupted run would, then
    // reproduce the speculative stage the interrupted run had in flight.
    for slot in 0..driver.cursor() {
        let replayed = observe(slot, driver.topology());
        driver.replay_observe(&replayed);
    }
    driver.restage();
    while driver.cursor() < driver.horizon() {
        let beta = observe(driver.cursor(), driver.topology());
        let report = driver.step(beta)?;
        if report.interrupted {
            return Ok(EngineOutcome::Interrupted { slot: report.slot });
        }
    }
    Ok(EngineOutcome::Completed(Box::new(driver.finish())))
}

/// The robust-solve configuration a scenario implies: the scenario's BDMA
/// round count, CGBA λ and shard cap (sequential unless its solver is
/// sharded), plus the given per-slot wall-clock deadline.
pub fn robust_config(scenario: &Scenario, deadline: Option<std::time::Duration>) -> RobustConfig {
    let (lambda, shards) = match scenario.dpp.solver {
        SolverKind::Cgba { lambda } => (lambda, 1),
        SolverKind::ShardedCgba { lambda, shards } => (lambda, shards),
        _ => (0.0, 1),
    };
    RobustConfig {
        deadline,
        rounds: scenario.dpp.bdma_rounds,
        lambda,
        shards,
        ..Default::default()
    }
}

/// Runs one scenario through the fault-tolerant pipeline: per-slot
/// availability masks from `faults`, corrupt-state bursts injected and then
/// screened by a [`StateSanitizer`](eotora_core::StateSanitizer), and the
/// anytime deadline of `robust`
/// bounding each slot's solve. With an empty schedule and no deadline this
/// is the robust path's fault-free baseline (deterministic, but *not*
/// bit-identical to [`run`] — the robust solve seeds deterministically
/// instead of sampling random initial profiles).
pub fn run_robust(
    scenario: &Scenario,
    faults: &FaultSchedule,
    robust: &RobustConfig,
) -> SimulationResult {
    run_robust_impl(scenario, faults, robust, None)
}

/// [`run_robust`] with every trace event additionally streamed into `sink`
/// (the entry point behind `eotora run --fault-trace ... --trace ...`).
pub fn run_robust_traced(
    scenario: &Scenario,
    faults: &FaultSchedule,
    robust: &RobustConfig,
    sink: &dyn Recorder,
) -> SimulationResult {
    run_robust_impl(scenario, faults, robust, Some(sink))
}

fn run_robust_impl(
    scenario: &Scenario,
    faults: &FaultSchedule,
    robust: &RobustConfig,
    sink: Option<&dyn Recorder>,
) -> SimulationResult {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    match run_engine(
        scenario,
        system,
        &mut |slot, topo| states.observe(slot, topo),
        sink,
        DriverMode::Robust { faults: faults.clone(), robust: *robust },
        None,
    ) {
        Ok(EngineOutcome::Completed(result)) => *result,
        Ok(EngineOutcome::Interrupted { .. }) | Err(_) => {
            unreachable!("non-durable run cannot fail or interrupt")
        }
    }
}

/// Runs one scenario through the speculative pipeline (see
/// [`eotora_core::speculate`]): a predicted next-slot solve is staged in
/// the inter-slot gap and adopted, repaired, or discarded when the real
/// state arrives. With a zero-hit predictor this is decision-identical to
/// [`run`] — speculation never touches committed state until adopted.
pub fn run_speculative(scenario: &Scenario, spec: &SpeculativeConfig) -> SimulationResult {
    run_speculative_impl(scenario, spec, None)
}

/// [`run_speculative`] with every trace event additionally streamed into
/// `sink` (the entry point behind `eotora run --speculate --trace ...`).
pub fn run_speculative_traced(
    scenario: &Scenario,
    spec: &SpeculativeConfig,
    sink: &dyn Recorder,
) -> SimulationResult {
    run_speculative_impl(scenario, spec, Some(sink))
}

fn run_speculative_impl(
    scenario: &Scenario,
    spec: &SpeculativeConfig,
    sink: Option<&dyn Recorder>,
) -> SimulationResult {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    match run_engine(
        scenario,
        system,
        &mut |slot, topo| states.observe(slot, topo),
        sink,
        DriverMode::Speculative { spec: *spec },
        None,
    ) {
        Ok(EngineOutcome::Completed(result)) => *result,
        Ok(EngineOutcome::Interrupted { .. }) | Err(_) => {
            unreachable!("non-durable run cannot fail or interrupt")
        }
    }
}

/// Runs independent scenarios in parallel on the process-default worker
/// pool (scenarios are independent by construction; results come back in
/// scenario order). Equivalent to `run_many_jobs(scenarios, None)`.
pub fn run_many(scenarios: &[Scenario]) -> Vec<SimulationResult> {
    run_many_jobs(scenarios, None)
}

/// Runs independent scenarios on a bounded worker pool of `jobs` threads
/// (`None` → the process default, see
/// [`eotora_util::pool::default_workers`]). Concurrency is capped at the
/// worker count regardless of how many scenarios are queued, and results
/// are returned in scenario order, so the output is identical to running
/// each scenario serially with [`run`].
pub fn run_many_jobs(scenarios: &[Scenario], jobs: Option<usize>) -> Vec<SimulationResult> {
    let pool = match jobs {
        Some(n) => eotora_util::pool::WorkerPool::new(n),
        None => eotora_util::pool::WorkerPool::with_default(),
    };
    pool.map(scenarios, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_core::dpp::SolverKind;

    #[test]
    fn run_collects_all_series() {
        let r = run(&Scenario::paper(8, 2).with_horizon(6).with_bdma_rounds(1));
        assert_eq!(r.latency.len(), 6);
        assert_eq!(r.cost.len(), 6);
        assert_eq!(r.queue.len(), 6);
        assert_eq!(r.price.len(), 6);
        assert_eq!(r.solve_time.len(), 6);
        assert_eq!(r.fairness.len(), 6);
        assert!(r.fairness.values().iter().all(|&j| (0.0..=1.0 + 1e-12).contains(&j)));
        assert_eq!(r.handover_rate.len(), 6);
        assert_eq!(r.handover_rate.values()[0], 0.0);
        assert!(r.handover_rate.values().iter().all(|&h| (0.0..=1.0).contains(&h)));
        assert!(r.mean_clock_ghz.values().iter().all(|&g| (1.8..=3.6).contains(&g)));
        assert!(r.average_latency > 0.0);
        assert!(r.average_cost > 0.0);
        assert!((r.average_latency - r.latency.time_average()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Scenario::paper(8, 5).with_horizon(5).with_bdma_rounds(1);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.queue, b.queue);
    }

    #[test]
    fn run_many_matches_run() {
        let scenarios = vec![
            Scenario::paper(6, 1).with_horizon(4).with_bdma_rounds(1),
            Scenario::paper(6, 2).with_horizon(4).with_bdma_rounds(1).with_solver(SolverKind::Ropt),
        ];
        let parallel = run_many(&scenarios);
        assert_eq!(parallel.len(), 2);
        let serial0 = run(&scenarios[0]);
        assert_eq!(parallel[0].latency, serial0.latency);
    }

    #[test]
    fn run_many_jobs_is_deterministic_across_worker_counts() {
        // More scenarios than workers: the pool must queue rather than
        // spawn-per-job, and the result order must stay scenario order.
        let scenarios: Vec<Scenario> = (0..5)
            .map(|i| Scenario::paper(6, 20 + i).with_horizon(3).with_bdma_rounds(1))
            .collect();
        let serial = run_many_jobs(&scenarios, Some(1));
        let bounded = run_many_jobs(&scenarios, Some(2));
        assert_eq!(serial.len(), 5);
        for (a, b) in serial.iter().zip(&bounded) {
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.queue, b.queue);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn per_stage_series_cover_every_slot() {
        let r = run(&Scenario::paper(8, 7).with_horizon(5).with_bdma_rounds(2));
        for name in ["p2a", "p2b", "queue_update"] {
            let series = r
                .per_stage_solve_time
                .get(name)
                .unwrap_or_else(|| panic!("missing stage series {name}"));
            assert_eq!(series.len(), 5, "{name}");
            assert!(series.values().iter().all(|&s| s >= 0.0));
        }
        // Stage times are components of the slot solve, never more than it.
        for slot in 0..5 {
            let stage_sum: f64 = r.per_stage_solve_time.values().map(|s| s.values()[slot]).sum();
            assert!(
                stage_sum <= r.solve_time.values()[slot] + 1e-6,
                "slot {slot}: stages {stage_sum} vs total {}",
                r.solve_time.values()[slot]
            );
        }
        assert!(r.mean_bdma_rounds >= 1.0);
        // Cold runs (the default) execute the configured z every slot.
        assert_eq!(r.rounds_used.len(), 5);
        assert!(r.rounds_used.values().iter().all(|&z| z == 2.0));
    }

    #[test]
    fn run_traced_streams_valid_jsonl() {
        let scenario = Scenario::paper(8, 9).with_horizon(4).with_bdma_rounds(2);
        let sink = eotora_obs::JsonlRecorder::new(Vec::new());
        let result = run_traced(&scenario, &sink);
        let bytes = sink.finish().expect("in-memory sink cannot fail");
        let analysis = eotora_obs::TraceAnalysis::from_reader(bytes.as_slice()).unwrap();
        assert!(analysis.malformed.is_empty());
        assert_eq!(analysis.slots, 4);
        for name in ["p2a", "p2b", "queue_update", "slot_solve"] {
            assert!(analysis.spans.contains_key(name), "missing span {name}");
        }
        assert!(analysis.bdma_rounds_per_slot.count() > 0);
        // The trace's queue trajectory matches the in-memory series.
        let traced: Vec<f64> = analysis.queue_by_slot.iter().map(|&(_, q)| q).collect();
        assert_eq!(traced, result.queue.values());
        // Tracing must not perturb the run itself.
        let untraced = run(&scenario);
        assert_eq!(untraced.latency, result.latency);
        assert_eq!(untraced.queue, result.queue);
    }

    #[test]
    fn sharded_run_matches_sequential_on_islands() {
        // On a separable island topology the sharded engine is
        // decision-identical to the sequential oracle, so the whole
        // simulation (series, counters it shares) must agree bit for bit.
        let base = Scenario::scale_up(24, 3, 5).with_horizon(4).with_bdma_rounds(1);
        let sequential = run(&base);
        let sharded = run(&base.clone().with_shards(0));
        assert_eq!(sequential.latency, sharded.latency);
        assert_eq!(sequential.cost, sharded.cost);
        assert_eq!(sequential.queue, sharded.queue);
        assert_eq!(sequential.handover_rate, sharded.handover_rate);
        let solves = sharded.counters.get("shard.solves").copied().unwrap_or(0);
        assert_eq!(solves, 3 * 4, "3 shards x 4 slots, got {solves}");
        assert!(!sequential.counters.contains_key("shard.solves"));
    }

    #[test]
    fn robust_config_maps_sharded_solver() {
        let s = Scenario::scale_up(24, 3, 5);
        assert_eq!(robust_config(&s, None).shards, 1);
        assert_eq!(robust_config(&s.clone().with_shards(0), None).shards, 0);
        assert_eq!(robust_config(&s.with_shards(2), None).shards, 2);
    }

    #[test]
    fn robust_run_is_deterministic_and_collects_counters() {
        let s = Scenario::paper(8, 13).with_horizon(6).with_bdma_rounds(1);
        let faults = eotora_core::fault::FaultSchedule::chaos_default(6, 16, 6);
        let robust = robust_config(&s, None);
        let a = run_robust(&s, &faults, &robust);
        let b = run_robust(&s, &faults, &robust);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.queue, b.queue);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.latency.len(), 6);
        assert!(a.counters.contains_key("slots"));
    }

    #[test]
    fn corrupt_bursts_drive_the_substitution_counter() {
        let s = Scenario::paper(8, 14).with_horizon(8).with_bdma_rounds(1);
        let faults = eotora_core::fault::FaultSchedule {
            events: vec![eotora_core::fault::FaultEvent {
                slot: 2,
                action: eotora_core::fault::FaultAction::CorruptState { slots: 3 },
            }],
        };
        let r = run_robust(&s, &faults, &robust_config(&s, None));
        let subs = r.counters.get("fault.state_substitutions").copied().unwrap_or(0);
        assert!(subs >= 3, "expected at least one substitution per burst slot, got {subs}");
        assert!(r.latency.values().iter().all(|&l| l.is_finite() && l > 0.0));
    }

    #[test]
    fn zero_deadline_expires_every_slot() {
        let s = Scenario::paper(8, 15).with_horizon(5).with_bdma_rounds(2);
        let faults = eotora_core::fault::FaultSchedule::default();
        let robust = robust_config(&s, Some(std::time::Duration::ZERO));
        let r = run_robust(&s, &faults, &robust);
        assert_eq!(r.counters.get("deadline.expirations").copied().unwrap_or(0), 5);
        assert!(r.latency.values().iter().all(|&l| l.is_finite() && l > 0.0));
    }

    #[test]
    fn speculative_zero_hit_run_matches_plain() {
        use eotora_core::speculate::PredictorKind;
        let s = Scenario::paper(8, 33).with_horizon(8).with_bdma_rounds(1);
        let spec = SpeculativeConfig {
            predictor: PredictorKind::Adversarial,
            tolerance: 0.0,
            stage_when_busy: true,
            ..Default::default()
        };
        let speculative = run_speculative(&s, &spec);
        let plain = run(&s);
        assert_eq!(speculative.latency, plain.latency);
        assert_eq!(speculative.cost, plain.cost);
        assert_eq!(speculative.queue, plain.queue);
        assert_eq!(speculative.handover_rate, plain.handover_rate);
        assert_eq!(speculative.average_latency, plain.average_latency);
        assert_eq!(speculative.counters.get("spec.hits").copied().unwrap_or(0), 0);
        // Slot 0 has no history to stage from; slots 1..7 all miss.
        assert_eq!(speculative.counters.get("spec.misses").copied().unwrap_or(0), 8);
        assert!(!plain.counters.contains_key("spec.misses"));
    }

    #[test]
    fn speculative_periodic_run_hits_and_matches_plain() {
        use eotora_core::speculate::PredictorKind;
        let s = Scenario::periodic_price(8, 34).with_horizon(40).with_bdma_rounds(1);
        let spec = SpeculativeConfig {
            predictor: PredictorKind::PeriodicPrice { period: 24 },
            tolerance: 0.0,
            stage_when_busy: true,
            ..Default::default()
        };
        let speculative = run_speculative(&s, &spec);
        let plain = run(&s);
        assert_eq!(speculative.latency, plain.latency);
        assert_eq!(speculative.queue, plain.queue);
        assert_eq!(speculative.counters.get("spec.hits").copied().unwrap_or(0), 16);
        // The staged-solve span shows up as a per-stage series; the
        // critical-path slot_solve series stays separate.
        assert!(speculative.per_stage_solve_time.contains_key("spec.staged_solve"));
    }

    #[test]
    fn converged_queue_uses_tail() {
        let r = run(&Scenario::paper(6, 3).with_horizon(8).with_bdma_rounds(1));
        let w = r.converged_queue(3);
        let vals = r.queue.values();
        let manual = vals[5..].iter().sum::<f64>() / 3.0;
        assert!((w - manual).abs() < 1e-12);
    }
}
