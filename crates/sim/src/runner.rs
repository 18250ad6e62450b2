//! Executes scenarios and collects per-slot metrics.
//!
//! Every run is instrumented: an in-memory
//! [`MetricsRecorder`](eotora_obs::MetricsRecorder) aggregates the
//! pipeline's spans into [`SimulationResult::per_stage_solve_time`].
//! [`run_mode`] is the one batch entry point: its [`DriverMode`] selects
//! the plain or the robust pipeline, and its optional
//! [`Recorder`] sink additionally receives the event stream (e.g. a JSONL
//! sink for `eotora run --trace`). [`run`] is the plain shorthand;
//! checkpointed runs go through [`crate::durable::run_durable`].

use std::collections::BTreeMap;

use eotora_core::robust::RobustConfig;
use eotora_core::system::MecSystem;
use eotora_durability::DurabilityError;
use eotora_obs::Recorder;
use eotora_states::StateProvider;
use eotora_util::series::TimeSeries;
use serde::{Deserialize, Serialize};

use crate::durable::{DurableRun, DurableSession};
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
    /// `deadline.*` family).
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

/// Runs one scenario to completion on the plain pipeline — the paper's
/// controller exactly as specified.
pub fn run(scenario: &Scenario) -> SimulationResult {
    run_mode(scenario, DriverMode::Plain, None)
}

/// Runs one scenario to completion through the pipeline `mode` selects,
/// streaming every trace event into `sink` when one is given (in addition
/// to the in-memory metrics every run collects). A sink never perturbs the
/// run: traced and untraced runs of one mode produce identical series.
///
/// [`DriverMode::Robust`] with an empty schedule and no deadline is the
/// robust path's fault-free baseline (deterministic, but *not*
/// bit-identical to [`run`] — the robust solve seeds deterministically
/// instead of sampling random initial profiles).
pub fn run_mode(
    scenario: &Scenario,
    mode: DriverMode,
    sink: Option<&dyn Recorder>,
) -> SimulationResult {
    match run_engine(scenario, mode, sink, None) {
        Ok(DurableRun::Completed(result)) => *result,
        // Without a durable session the engine performs no I/O and has no
        // kill hook, so it can neither fail nor interrupt.
        Ok(DurableRun::Interrupted { .. }) | Err(_) => {
            unreachable!("non-durable run cannot fail or interrupt")
        }
    }
}

/// The one simulation loop behind every batch entry point: plain and
/// robust pipelines, optional trace sink, optional
/// durability. All per-slot mechanics live in
/// [`StepDriver`](crate::engine::StepDriver) — this function only owns
/// the horizon loop and the scenario's state source, which is exactly the
/// part the `eotora-server` daemon replaces with a network stream.
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
    mode: DriverMode,
    sink: Option<&dyn Recorder>,
    durable: Option<DurableSession>,
) -> Result<DurableRun, DurabilityError> {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    let mut driver =
        StepDriver::new(scenario, system, mode, durable, sink, DriverTuning::default());
    // Fast-forward the state source past any resume-replayed slots so the
    // cursor slot observes exactly what the uninterrupted run would.
    for slot in 0..driver.cursor() {
        states.observe(slot, driver.topology());
    }
    while driver.cursor() < driver.horizon() {
        let beta = states.observe(driver.cursor(), driver.topology());
        let report = driver.step(beta)?;
        if report.interrupted {
            return Ok(DurableRun::Interrupted { slot: report.slot });
        }
    }
    Ok(DurableRun::Completed(Box::new(driver.finish())))
}

/// The robust-solve configuration of a scenario's run: the given per-slot
/// wall-clock deadline, sanitizer on. The scenario itself adds nothing —
/// rounds, λ and shards reach the robust solve through the controller's
/// own [`eotora_core::dpp::DppConfig`].
pub fn robust_config(_scenario: &Scenario, deadline: Option<std::time::Duration>) -> RobustConfig {
    RobustConfig { deadline, ..Default::default() }
}

/// Runs independent scenarios in parallel on the process-default worker
/// pool (see [`eotora_util::pool::default_workers`]). Concurrency is capped
/// at the worker count regardless of how many scenarios are queued, and
/// results come back in scenario order, so the output is identical to
/// running each scenario serially with [`run`].
pub fn run_many(scenarios: &[Scenario]) -> Vec<SimulationResult> {
    eotora_util::pool::WorkerPool::with_default().map(scenarios, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_core::dpp::SolverKind;
    use eotora_core::fault::FaultSchedule;
    use eotora_util::pool::WorkerPool;

    fn robust_mode(faults: &FaultSchedule, robust: RobustConfig) -> DriverMode {
        DriverMode::Robust { faults: faults.clone(), robust }
    }

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
        let serial = WorkerPool::new(1).map(&scenarios, run);
        let bounded = WorkerPool::new(2).map(&scenarios, run);
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
        let modes = [
            DriverMode::Plain,
            robust_mode(&FaultSchedule::default(), robust_config(&scenario, None)),
        ];
        for mode in modes {
            let sink = eotora_obs::JsonlRecorder::new(Vec::new());
            let result = run_mode(&scenario, mode.clone(), Some(&sink));
            let bytes = sink.finish().expect("in-memory sink cannot fail");
            let analysis = eotora_obs::TraceAnalysis::from_reader(bytes.as_slice()).unwrap();
            assert!(analysis.malformed.is_empty(), "{mode:?}");
            assert_eq!(analysis.slots, 4, "{mode:?}");
            for name in ["p2a", "p2b", "queue_update", "slot_solve"] {
                assert!(analysis.spans.contains_key(name), "{mode:?}: missing span {name}");
            }
            assert!(analysis.bdma_rounds_per_slot.count() > 0, "{mode:?}");
            // The trace's queue trajectory matches the in-memory series.
            let traced: Vec<f64> = analysis.queue_by_slot.iter().map(|&(_, q)| q).collect();
            assert_eq!(traced, result.queue.values(), "{mode:?}");
            // Tracing must not perturb the run itself, whatever the mode.
            let untraced = run_mode(&scenario, mode, None);
            assert_eq!(untraced.latency, result.latency);
            assert_eq!(untraced.queue, result.queue);
        }
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
        // The robust solve runs the scenario's own solver, so its shard cap
        // reaches the robust P2-A step with no second setting.
        let s = Scenario::scale_up(24, 3, 5).with_horizon(2).with_bdma_rounds(1);
        let solves = |scenario: &Scenario| {
            let mode = robust_mode(&FaultSchedule::default(), robust_config(scenario, None));
            run_mode(scenario, mode, None).counters.get("shard.solves").copied().unwrap_or(0)
        };
        assert_eq!(solves(&s), 0);
        assert_eq!(solves(&s.clone().with_shards(0)), 3 * 2);
        assert_eq!(solves(&s.with_shards(2)), 2 * 2);
    }

    #[test]
    fn robust_run_is_deterministic_and_collects_counters() {
        let s = Scenario::paper(8, 13).with_horizon(6).with_bdma_rounds(1);
        let faults = eotora_core::fault::FaultSchedule::chaos_default(6, 16, 6);
        let robust = robust_config(&s, None);
        let a = run_mode(&s, robust_mode(&faults, robust), None);
        let b = run_mode(&s, robust_mode(&faults, robust), None);
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
        let r = run_mode(&s, robust_mode(&faults, robust_config(&s, None)), None);
        let subs = r.counters.get("fault.state_substitutions").copied().unwrap_or(0);
        assert!(subs >= 3, "expected at least one substitution per burst slot, got {subs}");
        assert!(r.latency.values().iter().all(|&l| l.is_finite() && l > 0.0));
    }

    #[test]
    fn zero_deadline_expires_every_slot() {
        let s = Scenario::paper(8, 15).with_horizon(5).with_bdma_rounds(2);
        let faults = eotora_core::fault::FaultSchedule::default();
        let robust = robust_config(&s, Some(std::time::Duration::ZERO));
        let r = run_mode(&s, robust_mode(&faults, robust), None);
        assert_eq!(r.counters.get("deadline.expirations").copied().unwrap_or(0), 5);
        assert!(r.latency.values().iter().all(|&l| l.is_finite() && l > 0.0));
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
