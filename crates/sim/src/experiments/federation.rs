//! Federation chaos harness: shared-budget control vs link quality.
//!
//! Four arms run the *same* fleet (devices, seeds, horizon, budget):
//!
//! * **global** — one controller over the whole fleet with the whole
//!   budget: the coordination upper bound.
//! * **clean** — the federation over a perfect peer link.
//! * **lossy** — the federation under seeded drops, duplication, delay,
//!   and reordering.
//! * **partitioned** — the lossy link plus a scheduled full partition of
//!   one region for a contiguous slot window.
//!
//! Expected shape: zero panics everywhere; every arm holds the fleet
//! time-average budget within the `O(V/T)` transient; the clean arm drops
//! nothing; the partitioned arm walks the stale → partitioned → heal
//! ladder (non-zero `fed.partitions` and `fed.stale_epochs`) while the
//! cut-off region freezes on its applied share — degrading latency,
//! never feasibility (applied shares sum ≤ 1 even under asymmetric
//! loss, via the two-phase round protocol in `eotora-federation`).

use std::collections::BTreeMap;

use eotora_federation::{LinkFaultConfig, PartitionWindow};
use serde::{Deserialize, Serialize};

use crate::durable::RunOutcome;
use crate::federation::{global_scenario, run_federation, FederationConfig};
use crate::runner::run;

/// One arm of the federation comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationArm {
    /// "global", "clean", "lossy", or "partitioned".
    pub label: String,
    /// Fleet time-average energy cost ($/slot), from the per-slot series.
    pub fleet_average_cost: f64,
    /// Mean of the regions' time-average latencies (the global arm's own
    /// average latency for the baseline).
    pub fleet_average_latency: f64,
    /// Whether the fleet cost stayed within `budget_tolerance` of `C̄`.
    pub budget_satisfied: bool,
    /// Final per-region budget shares (empty for the global arm).
    pub final_shares: Vec<f64>,
    /// Monotonic counters summed across regions (`fed.*` included).
    pub counters: BTreeMap<String, u64>,
}

/// Result of the global-vs-federated link-quality comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationChaosReport {
    /// The fleet budget every arm ran against.
    pub total_budget: f64,
    /// Absolute budget tolerance used for the satisfaction verdicts.
    pub budget_tolerance: f64,
    /// Single global controller (coordination upper bound).
    pub global: FederationArm,
    /// Federation over a perfect link.
    pub clean: FederationArm,
    /// Federation under drops/duplication/delay/reordering.
    pub lossy: FederationArm,
    /// Lossy link plus a full partition window on one region.
    pub partitioned: FederationArm,
}

impl FederationChaosReport {
    /// The arms in report order, for table rendering.
    pub fn arms(&self) -> [&FederationArm; 4] {
        [&self.global, &self.clean, &self.lossy, &self.partitioned]
    }
}

fn federated_arm(
    label: &str,
    cfg: &FederationConfig,
    faults: &LinkFaultConfig,
    tolerance: f64,
) -> FederationArm {
    let report = match run_federation(cfg, faults, None) {
        Ok(RunOutcome::Completed(report)) => report,
        Ok(RunOutcome::Interrupted { slot }) => {
            unreachable!("non-durable federation cannot interrupt (slot {slot})")
        }
        Err(e) => unreachable!("non-durable federation cannot fail: {e}"),
    };
    FederationArm {
        label: label.to_owned(),
        fleet_average_cost: report.fleet_average_cost,
        fleet_average_latency: report.fleet_average_latency,
        budget_satisfied: report.budget_satisfied(tolerance),
        final_shares: report.final_shares.clone(),
        counters: report.counters.clone(),
    }
}

/// The scripted partition window the default report uses: the last region
/// cut off for the middle ~third of the run.
pub fn default_partition(cfg: &FederationConfig) -> PartitionWindow {
    PartitionWindow {
        from_slot: cfg.horizon / 4,
        to_slot: cfg.horizon / 4 + cfg.horizon * 2 / 5,
        regions: vec![cfg.regions - 1],
    }
}

/// Runs all four arms of the federation comparison. `budget_tolerance` is
/// the absolute slack on the fleet time-average budget check (absorbing
/// the `O(V/T)` transient of short horizons).
pub fn federation_report(cfg: &FederationConfig, budget_tolerance: f64) -> FederationChaosReport {
    let global_result = run(&global_scenario(cfg));
    let global = FederationArm {
        label: "global".to_owned(),
        fleet_average_cost: global_result.cost.time_average(),
        fleet_average_latency: global_result.average_latency,
        budget_satisfied: global_result.cost.time_average() <= cfg.total_budget + budget_tolerance,
        final_shares: Vec::new(),
        counters: global_result.counters.clone(),
    };
    let lossy = LinkFaultConfig::lossy(cfg.seed);
    let mut partitioned = LinkFaultConfig::lossy(cfg.seed);
    partitioned.partitions = vec![default_partition(cfg)];
    FederationChaosReport {
        total_budget: cfg.total_budget,
        budget_tolerance,
        global,
        clean: federated_arm("clean", cfg, &LinkFaultConfig::clean(), budget_tolerance),
        lossy: federated_arm("lossy", cfg, &lossy, budget_tolerance),
        partitioned: federated_arm("partitioned", cfg, &partitioned, budget_tolerance),
    }
}

/// The default federation chaos run: `regions` regions over `devices`
/// devices and `horizon` slots, queue-proportional shares, sync every 10
/// slots, with a 25%-of-budget tolerance on the satisfaction verdicts.
pub fn federation_default(
    regions: u32,
    devices: usize,
    horizon: u64,
    seed: u64,
) -> FederationChaosReport {
    let cfg = FederationConfig::new(regions, devices, seed).with_horizon(horizon);
    let tolerance = 0.25 * cfg.total_budget;
    federation_report(&cfg, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_arms_hold_the_budget_and_the_ladder_fires() {
        let report = federation_default(3, 12, 60, 5);
        for arm in report.arms() {
            assert!(
                arm.budget_satisfied,
                "{} blew the budget: {}",
                arm.label, arm.fleet_average_cost
            );
            assert!(arm.fleet_average_latency.is_finite() && arm.fleet_average_latency > 0.0);
        }
        // Clean link: nothing dropped, no partitions.
        assert_eq!(report.clean.counters.get("fed.gossip_dropped").copied().unwrap_or(0), 0);
        assert_eq!(report.clean.counters.get("fed.partitions").copied().unwrap_or(0), 0);
        // Lossy link: drops observed, but no full partition.
        assert!(report.lossy.counters.get("fed.gossip_dropped").copied().unwrap_or(0) > 0);
        // Partitioned link: the degradation ladder fired and healed.
        let p = &report.partitioned.counters;
        assert!(p.get("fed.partitions").copied().unwrap_or(0) > 0);
        assert!(p.get("fed.stale_epochs").copied().unwrap_or(0) > 0);
        assert!(p.get("fed.budget_rebalances").copied().unwrap_or(0) > 0);
        // The global arm is a plain run: no federation counters at all.
        assert!(!report.global.counters.keys().any(|k| k.starts_with("fed.")));
    }

    #[test]
    fn default_partition_window_sits_inside_the_run() {
        let cfg = FederationConfig::new(4, 16, 100).with_horizon(100);
        let w = default_partition(&cfg);
        assert!(w.from_slot < w.to_slot && w.to_slot < cfg.horizon);
        assert_eq!(w.regions, vec![3]);
    }
}
