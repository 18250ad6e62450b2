//! Speculation A/B: the speculative pre-solve must be a pure
//! critical-path optimization.
//!
//! Two arms run the *same* scenario — same system, same state stream,
//! same controller config — one through [`run`], one through
//! [`run_mode`] in [`DriverMode::Speculative`]. Because a staged solve is adopted only on an
//! exact state match (at tolerance 0) and discarded otherwise, the
//! speculative arm must reproduce the plain arm's series bit for bit
//! regardless of hit rate; what changes is *when* the solve work happens.
//! The tier-1 tests pin both directions: a zero-hit (adversarial)
//! 500-slot run is decision-identical to the plain engine, and on the
//! deterministic periodic-price scenario the predictor hits on every slot
//! past the first price period.

use eotora_core::speculate::SpeculativeConfig;
use serde::{Deserialize, Serialize};

use crate::engine::DriverMode;
use crate::runner::{run, run_mode, SimulationResult};
use crate::scenario::Scenario;

/// One arm of the speculation A/B.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeculationArm {
    /// "plain" or "speculative".
    pub label: String,
    /// Final time-average latency (seconds).
    pub average_latency: f64,
    /// Final time-average energy cost ($/slot).
    pub average_cost: f64,
    /// Median per-slot critical-path wall time (seconds): the whole solve
    /// for the plain arm, just the repair pass for the speculative arm.
    pub critical_path_p50_s: f64,
}

/// Result of the speculation A/B experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeculationAbResult {
    /// The plain (always-solve-on-arrival) arm.
    pub plain: SpeculationArm,
    /// The speculative (stage-then-repair) arm.
    pub speculative: SpeculationArm,
    /// Staged solves adopted verbatim.
    pub hits: u64,
    /// Staged solves that warm-seeded a repair.
    pub near_hits: u64,
    /// Slots that fell back to the normal path.
    pub misses: u64,
    /// Assignments the repair pass moved off speculated profiles.
    pub repair_moves: u64,
    /// Staged solves discarded before comparison.
    pub staged_discards: u64,
    /// `hits / horizon`.
    pub hit_rate: f64,
    /// `|spec − plain| / plain` for time-average latency.
    pub latency_gap_rel: f64,
    /// `|spec − plain| / plain` for time-average energy cost.
    pub cost_gap_rel: f64,
    /// Whether the latency/cost/queue series matched bit for bit.
    pub series_identical: bool,
    /// `plain.critical_path_p50_s / speculative.critical_path_p50_s`
    /// (∞-guarded: 0.0 when the speculative p50 is 0).
    pub critical_path_speedup: f64,
}

fn arm(label: &str, result: &SimulationResult) -> SpeculationArm {
    SpeculationArm {
        label: label.to_string(),
        average_latency: result.average_latency,
        average_cost: result.average_cost,
        critical_path_p50_s: result.solve_time_quantile(0.5).unwrap_or(0.0),
    }
}

/// Runs the A/B: one plain and one speculative run of `scenario` under
/// `spec` (identical seeds and state streams), returning both arms, the
/// `spec.*` counter readouts, and the relative gaps.
pub fn speculation_ab(scenario: &Scenario, spec: &SpeculativeConfig) -> SpeculationAbResult {
    let plain = run(scenario);
    let speculative = run_mode(scenario, DriverMode::Speculative { spec: *spec }, None);
    let ctr = |name: &str| speculative.counters.get(name).copied().unwrap_or(0);
    let hits = ctr("spec.hits");
    let rel = |s: f64, p: f64| if p == 0.0 { 0.0 } else { (s - p).abs() / p };
    let plain_arm = arm("plain", &plain);
    let spec_arm = arm("speculative", &speculative);
    SpeculationAbResult {
        hits,
        near_hits: ctr("spec.near_hits"),
        misses: ctr("spec.misses"),
        repair_moves: ctr("spec.repair_moves"),
        staged_discards: ctr("spec.staged_discards"),
        hit_rate: hits as f64 / scenario.horizon.max(1) as f64,
        latency_gap_rel: rel(spec_arm.average_latency, plain_arm.average_latency),
        cost_gap_rel: rel(spec_arm.average_cost, plain_arm.average_cost),
        series_identical: speculative.latency == plain.latency
            && speculative.cost == plain.cost
            && speculative.queue == plain.queue,
        critical_path_speedup: if spec_arm.critical_path_p50_s > 0.0 {
            plain_arm.critical_path_p50_s / spec_arm.critical_path_p50_s
        } else {
            0.0
        },
        plain: plain_arm,
        speculative: spec_arm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_core::speculate::PredictorKind;

    #[test]
    fn zero_hit_speculative_run_is_decision_identical_over_500_slots() {
        // The acceptance pin: with hits disabled (adversarial predictor at
        // tolerance 0) the speculative engine must match the plain engine
        // decision for decision across a long horizon — speculation never
        // leaks into committed state.
        let scenario = Scenario::paper(20, 8181).with_horizon(500).with_bdma_rounds(2);
        let spec = SpeculativeConfig {
            predictor: PredictorKind::Adversarial,
            tolerance: 0.0,
            stage_when_busy: true,
            ..Default::default()
        };
        let ab = speculation_ab(&scenario, &spec);
        assert!(ab.series_identical, "speculative series diverged from plain");
        assert_eq!(ab.latency_gap_rel, 0.0);
        assert_eq!(ab.cost_gap_rel, 0.0);
        assert_eq!(ab.hits, 0);
        assert_eq!(ab.near_hits, 0);
        assert_eq!(ab.misses, 500);
    }

    #[test]
    fn periodic_price_hits_after_one_period_and_stays_identical() {
        let scenario = Scenario::periodic_price(10, 2727).with_horizon(100).with_bdma_rounds(2);
        let spec = SpeculativeConfig {
            predictor: PredictorKind::PeriodicPrice { period: 24 },
            tolerance: 0.0,
            stage_when_busy: true,
            ..Default::default()
        };
        let ab = speculation_ab(&scenario, &spec);
        assert!(ab.series_identical, "adopted slots must match plain solves bit for bit");
        // Slots 24..99 all adopt; only the first period misses.
        assert_eq!(ab.hits, 76);
        assert_eq!(ab.misses, 24);
        assert!(ab.hit_rate >= 0.5, "hit rate {}", ab.hit_rate);
        assert_eq!(ab.staged_discards, 0);
    }
}
