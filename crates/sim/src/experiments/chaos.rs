//! Chaos harness: the robust slot engine under injected failures.
//!
//! Two arms run the *same* scenario through the robust pipeline
//! ([`DriverMode::Robust`] through [`crate::runner::run_mode`]): the **baseline** arm sees an empty
//! [`FaultSchedule`], the **faulted** arm replays a scripted trace with
//! server crashes, a base-station outage, a fronthaul link flap, and a
//! corrupt-state burst. Because both arms use the same solver path, the
//! report isolates the cost of the *faults* (masking, repair, sanitization)
//! from any baseline solver difference.
//!
//! Expected shape: zero panics on both arms, every slot feasible, bounded
//! latency/cost degradation on the faulted arm, and a virtual queue that
//! stays finite (the masked-energy accounting never charges crashed
//! servers, so the queue cannot wind up from energy that was never spent).

use std::collections::BTreeMap;

use eotora_core::fault::FaultSchedule;
use eotora_obs::TelemetrySession;
use serde::{Deserialize, Serialize};

use crate::engine::DriverMode;
use crate::runner::{robust_config, run_mode, SimulationResult};
use crate::scenario::Scenario;

/// One arm (baseline or faulted) of the chaos comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosArm {
    /// "baseline" or "faulted".
    pub label: String,
    /// Final time-average latency (seconds).
    pub average_latency: f64,
    /// Final time-average energy cost ($/slot).
    pub average_cost: f64,
    /// Peak virtual-queue backlog over the run.
    pub max_queue: f64,
    /// Queue backlog averaged over the final 10% of slots.
    pub converged_queue: f64,
    /// Final values of the run's monotonic counters (`fault.*`,
    /// `deadline.*`, `slots`, ...).
    pub counters: BTreeMap<String, u64>,
    /// Worst [`eotora_obs::HealthStatus`] the health monitor reported at
    /// any point of the run (`"ok"` / `"degraded"` / `"critical"`). Worst,
    /// not final: chaos faults heal before the horizon, so the interesting
    /// signal is whether the monitor *noticed* the outage window.
    pub health: String,
}

/// Result of one baseline-vs-faulted chaos comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The fault-free robust run.
    pub baseline: ChaosArm,
    /// The same scenario replayed under the fault schedule.
    pub faulted: ChaosArm,
    /// `(faulted − baseline) / baseline` for time-average latency
    /// (positive = faults made latency worse).
    pub latency_degradation_rel: f64,
    /// `(faulted − baseline) / baseline` for time-average energy cost.
    pub cost_degradation_rel: f64,
    /// `(faulted − baseline) / max(baseline, 1)` for converged queue
    /// backlog.
    pub queue_growth_rel: f64,
}

fn arm(label: &str, result: &SimulationResult, health: String) -> ChaosArm {
    let window = (result.queue.len() / 10).max(1);
    ChaosArm {
        label: label.to_string(),
        average_latency: result.average_latency,
        average_cost: result.average_cost,
        max_queue: result.queue.values().iter().copied().fold(0.0, f64::max),
        converged_queue: result.queue.tail_average(window),
        counters: result.counters.clone(),
        health,
    }
}

/// One arm through the robust pipeline with an in-memory telemetry session
/// attached, returning the result plus the worst health status observed.
fn run_arm(scenario: &Scenario, faults: &FaultSchedule) -> (SimulationResult, String) {
    let robust = robust_config(scenario, None);
    let telemetry = TelemetrySession::in_memory(scenario.dpp.v, scenario.system.budget_per_slot);
    let mode = DriverMode::Robust { faults: faults.clone(), robust };
    let result = run_mode(scenario, mode, Some(&telemetry));
    let worst = telemetry.health_summary().worst.as_str().to_owned();
    (result, worst)
}

/// Runs the baseline and faulted arms of `scenario` under `faults` and
/// reports the degradation ratios.
pub fn chaos_report(scenario: &Scenario, faults: &FaultSchedule) -> ChaosReport {
    let (baseline, baseline_health) = run_arm(scenario, &FaultSchedule::default());
    let (faulted, faulted_health) = run_arm(scenario, faults);
    let rel = |f: f64, b: f64| if b == 0.0 { 0.0 } else { (f - b) / b };
    let baseline = arm("baseline", &baseline, baseline_health);
    let faulted = arm("faulted", &faulted, faulted_health);
    ChaosReport {
        latency_degradation_rel: rel(faulted.average_latency, baseline.average_latency),
        cost_degradation_rel: rel(faulted.average_cost, baseline.average_cost),
        queue_growth_rel: (faulted.converged_queue - baseline.converged_queue)
            / baseline.converged_queue.max(1.0),
        baseline,
        faulted,
    }
}

/// The default chaos run: `devices` devices over `horizon` slots under
/// [`FaultSchedule::chaos_default`] (two server crashes, one base-station
/// outage, one fronthaul flap, one corrupt-state burst, all healing before
/// the horizon).
pub fn chaos_default(devices: usize, horizon: u64, seed: u64) -> ChaosReport {
    let scenario = Scenario::paper(devices, seed).with_horizon(horizon);
    let topo = &scenario.system.topology;
    let num_servers = topo.num_clusters * topo.servers_per_cluster;
    let faults = FaultSchedule::chaos_default(horizon, num_servers, topo.num_base_stations);
    chaos_report(&scenario, &faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance run: 500 slots under the default chaos trace
    /// (≥2 server crashes, ≥1 link flap, ≥1 corrupt-state burst). Zero
    /// panics, every slot feasible and finite, bounded degradation.
    #[test]
    fn chaos_500_slots_bounded_degradation() {
        let report = chaos_default(10, 500, 99);

        // All fault classes actually fired.
        let c = &report.faulted.counters;
        assert!(c.get("fault.masked_resources").copied().unwrap_or(0) > 0);
        assert!(c.get("fault.state_substitutions").copied().unwrap_or(0) > 0);
        assert_eq!(c.get("slots").copied().unwrap_or(0), 500);
        // No deadline was configured, so none may expire.
        assert_eq!(c.get("deadline.expirations").copied().unwrap_or(0), 0);
        // Baseline arm saw no faults at all.
        let b = &report.baseline.counters;
        assert_eq!(b.get("fault.masked_resources").copied().unwrap_or(0), 0);
        assert_eq!(b.get("fault.state_substitutions").copied().unwrap_or(0), 0);

        // Bounded degradation: faults cost something but not everything.
        assert!(
            report.latency_degradation_rel.abs() < 0.5,
            "latency degradation {:.1}% (baseline {}, faulted {})",
            100.0 * report.latency_degradation_rel,
            report.baseline.average_latency,
            report.faulted.average_latency
        );
        assert!(report.baseline.average_latency.is_finite());
        assert!(report.faulted.average_latency.is_finite());
        assert!(report.faulted.average_latency > 0.0);
        assert!(report.faulted.max_queue.is_finite());
        // The queue must not wind up unboundedly: peak backlog stays within
        // a small multiple of the per-slot budget over 500 slots.
        assert!(report.faulted.max_queue < 50.0, "queue wound up to {}", report.faulted.max_queue);

        // The health monitor separates the arms: the clean run never leaves
        // Ok, while the fault windows (masked servers, corrupt-state burst)
        // push the faulted run to at least Degraded at some point.
        assert_eq!(report.baseline.health, "ok", "clean run should stay healthy");
        assert_ne!(report.faulted.health, "ok", "faulted run should trip the health monitor");
    }

    /// Every slot of a faulted run keeps producing feasible decisions and
    /// never assigns work to a crashed server (checked at the controller
    /// level, below the runner's aggregation).
    #[test]
    fn faulted_slots_stay_feasible_and_avoid_down_servers() {
        use eotora_core::dpp::{DppConfig, EotoraDpp};
        use eotora_core::robust::RobustConfig;
        use eotora_core::system::{MecSystem, SystemConfig};
        use eotora_obs::NoopRecorder;
        use eotora_states::{PaperStateConfig, StateProvider};

        let system = MecSystem::random(&SystemConfig::paper_defaults(8), 7);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 7);
        let mut dpp = EotoraDpp::new(system.clone(), DppConfig::default());
        let faults = FaultSchedule::chaos_default(20, 16, 6);
        let robust = RobustConfig::default();
        for slot in 0..20 {
            let beta = states.observe(slot, system.topology());
            let mask = faults.mask_at(slot);
            let (step, report) = dpp.step_robust(&beta, &mask, &robust, &NoopRecorder);
            let decision = &step.outcome.decision;
            assert!(decision.validate(&system).is_ok(), "slot {slot} infeasible");
            for a in &decision.assignments {
                assert!(
                    !mask.down_servers.contains(&a.server.index()),
                    "slot {slot} assigned a crashed server"
                );
            }
            assert!(report.solution.latency.is_finite());
        }
    }
}
