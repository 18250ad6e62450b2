//! Scenario definition: one self-contained, reproducible simulation run.

use eotora_core::dpp::DppConfig;
use eotora_core::system::SystemConfig;
use eotora_states::PaperStateConfig;
use serde::{Deserialize, Serialize};

/// Everything needed to reproduce a run: system, states, controller, length.
///
/// Serializable so experiment configurations can be stored alongside their
/// results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label shown in reports.
    pub label: String,
    /// System-instance generator configuration.
    pub system: SystemConfig,
    /// State-process configuration.
    pub states: PaperStateConfig,
    /// Online-controller configuration.
    pub dpp: DppConfig,
    /// Number of slots to simulate.
    pub horizon: u64,
    /// Master seed: system, states, and solver seeds derive from it.
    pub seed: u64,
}

impl Scenario {
    /// The paper's default setup with `num_devices` devices.
    pub fn paper(num_devices: usize, seed: u64) -> Self {
        Self {
            label: format!("paper-I{num_devices}"),
            system: SystemConfig::paper_defaults(num_devices),
            states: PaperStateConfig::default(),
            dpp: DppConfig { seed, ..Default::default() },
            horizon: 240,
            seed,
        }
    }

    /// A scale-out setup: `islands` disjoint BS clusters (see
    /// [`eotora_topology::RandomTopologyConfig::scale_up`]) with
    /// `num_devices` spread round-robin. The resource graph separates into
    /// one component per island, so `with_shards` turns the slot solve into
    /// `islands` parallel CGBA subgames. Used by the 10k–100k benches.
    pub fn scale_up(num_devices: usize, islands: usize, seed: u64) -> Self {
        Self {
            label: format!("scale-I{num_devices}x{islands}"),
            system: eotora_core::system::SystemConfig {
                topology: eotora_topology::RandomTopologyConfig::scale_up(num_devices, islands),
                ..SystemConfig::paper_defaults(num_devices)
            },
            states: PaperStateConfig::default(),
            dpp: DppConfig { seed, ..Default::default() },
            horizon: 240,
            seed,
        }
    }

    /// Switches the P2-A solver to the sharded CGBA engine, keeping the
    /// current solver's λ. `shards == 0` means one shard per connected
    /// component (auto); on topologies the partition pass refuses to cut,
    /// the sharded solver degrades to the sequential one.
    pub fn with_shards(mut self, shards: usize) -> Self {
        let lambda = match self.dpp.solver {
            eotora_core::dpp::SolverKind::Cgba { lambda }
            | eotora_core::dpp::SolverKind::ShardedCgba { lambda, .. } => lambda,
            _ => 0.0,
        };
        self.dpp.solver = eotora_core::dpp::SolverKind::ShardedCgba { lambda, shards };
        self
    }

    /// Sets the simulation length in slots.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the DPP penalty weight `V`.
    pub fn with_v(mut self, v: f64) -> Self {
        self.dpp.v = v;
        self
    }

    /// Sets the energy budget `C̄` ($/slot).
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.system.budget_per_slot = budget;
        self
    }

    /// Sets the P2-A solver variant.
    pub fn with_solver(mut self, solver: eotora_core::dpp::SolverKind) -> Self {
        self.dpp.solver = solver;
        self
    }

    /// Sets the label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the BDMA round count `z`.
    pub fn with_bdma_rounds(mut self, rounds: usize) -> Self {
        self.dpp.bdma_rounds = rounds;
        self
    }

    /// Sets the cross-slot warm-start policy (`Cold`, the default,
    /// reproduces the pre-warm-start solver bit for bit).
    pub fn with_start_policy(mut self, start: eotora_core::bdma::StartPolicy) -> Self {
        self.dpp.start = start;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_core::dpp::SolverKind;

    #[test]
    fn builder_chain() {
        let s = Scenario::paper(50, 3)
            .with_horizon(10)
            .with_v(200.0)
            .with_budget(1.5)
            .with_solver(SolverKind::Ropt)
            .with_bdma_rounds(2)
            .with_start_policy(eotora_core::bdma::StartPolicy::Warm)
            .with_label("x");
        assert_eq!(s.horizon, 10);
        assert_eq!(s.dpp.v, 200.0);
        assert_eq!(s.system.budget_per_slot, 1.5);
        assert_eq!(s.dpp.solver, SolverKind::Ropt);
        assert_eq!(s.dpp.bdma_rounds, 2);
        assert_eq!(s.dpp.start, eotora_core::bdma::StartPolicy::Warm);
        assert_eq!(s.label, "x");
    }

    #[test]
    fn scale_up_builds_island_topology_and_sharded_solver() {
        let s = Scenario::scale_up(120, 6, 9).with_shards(0);
        assert_eq!(s.label, "scale-I120x6");
        assert_eq!(s.system.topology.islands, 6);
        assert_eq!(s.system.topology.num_devices, 120);
        assert_eq!(s.dpp.solver, SolverKind::ShardedCgba { lambda: 0.0, shards: 0 });
        // with_shards preserves the sequential solver's λ.
        let lam =
            Scenario::paper(10, 1).with_solver(SolverKind::Cgba { lambda: 0.25 }).with_shards(4);
        assert_eq!(lam.dpp.solver, SolverKind::ShardedCgba { lambda: 0.25, shards: 4 });
    }

    #[test]
    fn serde_roundtrip() {
        let s = Scenario::paper(20, 1);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
