//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Four questions, each isolated with everything else held fixed:
//!
//! 1. [`bdma_rounds`] — how many BDMA alternation rounds `z` are worth it?
//!    (The paper fixes z = 5; Theorem 3 already holds at z = 1.)
//! 2. [`scheduling_rules`] — does the paper's max-gain player scheduling in
//!    CGBA beat a cheap round-robin scan?
//! 3. [`energy_families`] — does the controller behave sensibly across the
//!    energy-model families from the literature (quadratic \[7\]\[21\],
//!    linear \[8\], cubic DVFS), which the paper's "no presumed functional
//!    form" design explicitly allows?
//! 4. [`per_slot_vs_dpp`] — what does the *time-average* (vs per-slot)
//!    budget buy? This quantifies the core benefit of the Lyapunov design.

use std::sync::Arc;

use eotora_core::bdma::{solve_p2, BdmaConfig};
use eotora_core::dpp::{DppConfig, EotoraDpp};
use eotora_core::per_slot::PerSlotController;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::workspace::SlotWorkspace;
use eotora_core::CgbaSolver;
use eotora_energy::{CubicEnergy, EnergyModel, LinearEnergy};
use eotora_game::{CgbaConfig, SchedulingRule};
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;
use serde::{Deserialize, Serialize};

/// One row of the BDMA-rounds ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BdmaRoundsRow {
    /// Alternation rounds `z`.
    pub rounds: usize,
    /// Mean P2 objective across trials.
    pub objective: f64,
}

/// Sweeps the BDMA round count `z` on a fixed slot problem. Each round
/// count is an independent, fully seeded job, so the sweep runs on the
/// bounded worker pool with results in round-count order.
pub fn bdma_rounds(devices: usize, trials: usize, seed: u64) -> Vec<BdmaRoundsRow> {
    let rounds_list = [1usize, 2, 3, 5, 8];
    eotora_util::pool::WorkerPool::with_default().map(&rounds_list, |&rounds| {
        let mut total = 0.0;
        for trial in 0..trials {
            let s = seed + trial as u64 * 37;
            let system = MecSystem::random(&SystemConfig::paper_defaults(devices), s);
            let mut states =
                StateProvider::paper(system.topology(), &PaperStateConfig::default(), s);
            let state = states.observe(0, system.topology());
            let mut solver = CgbaSolver::default();
            let mut rng = Pcg32::seed(s);
            let sol = solve_p2(
                &system,
                &state,
                100.0,
                20.0,
                &BdmaConfig { rounds, ..Default::default() },
                &mut solver,
                &mut SlotWorkspace::new(),
                &mut rng,
                0,
                &eotora_obs::NoopRecorder,
                None,
            )
            .expect("an unmasked solve cannot fail");
            total += sol.solution.objective;
        }
        BdmaRoundsRow { rounds, objective: total / trials as f64 }
    })
}

/// One row of the CGBA-scheduling ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulingRow {
    /// Which rule ("max-gain" or "round-robin").
    pub rule: String,
    /// Mean converged objective.
    pub objective: f64,
    /// Mean best-response iterations to converge.
    pub iterations: f64,
}

/// Compares the paper's max-gain scheduling against round-robin. The two
/// rules are independent jobs on the bounded worker pool.
pub fn scheduling_rules(devices: usize, trials: usize, seed: u64) -> Vec<SchedulingRow> {
    let rules =
        [("max-gain", SchedulingRule::MaxGain), ("round-robin", SchedulingRule::RoundRobin)];
    eotora_util::pool::WorkerPool::with_default().map(&rules, |&(name, scheduling)| {
        let mut objective = 0.0;
        let mut iterations = 0.0;
        for trial in 0..trials {
            let s = seed + trial as u64 * 41;
            let system = MecSystem::random(&SystemConfig::paper_defaults(devices), s);
            let mut states =
                StateProvider::paper(system.topology(), &PaperStateConfig::default(), s);
            let state = states.observe(0, system.topology());
            let p2a =
                eotora_core::p2a::P2aProblem::build(&system, &state, &system.min_frequencies());
            let mut rng = Pcg32::seed(s);
            let cfg = CgbaConfig { scheduling, ..Default::default() };
            let report = p2a.solve_cgba(&cfg, &mut rng);
            assert!(report.converged);
            objective += report.total_cost;
            iterations += report.iterations as f64;
        }
        SchedulingRow {
            rule: name.to_string(),
            objective: objective / trials as f64,
            iterations: iterations / trials as f64,
        }
    })
}

/// One row of the energy-family ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyFamilyRow {
    /// Family name.
    pub family: String,
    /// Time-average latency over the run.
    pub average_latency: f64,
    /// Time-average energy cost over the run.
    pub average_cost: f64,
}

/// Runs the DPP controller under three convex energy families with matched
/// power at the frequency extremes, so differences come from curvature only.
pub fn energy_families(devices: usize, horizon: u64, seed: u64) -> Vec<EnergyFamilyRow> {
    // Matched endpoints per 4-core package: 27 W at 1.8 GHz, 78.5 W at 3.6 GHz.
    let (f_lo, f_hi, p_lo, p_hi) = (1.8, 3.6, 27.0, 78.5);
    let quadratic = eotora_energy::fit_i7_3770k();
    let slope = (p_hi - p_lo) / (f_hi - f_lo);
    let linear = LinearEnergy::new(slope, p_lo - slope * f_lo);
    let k = (p_hi - p_lo) / (f_hi * f_hi * f_hi - f_lo * f_lo * f_lo);
    let cubic = CubicEnergy::new(k, p_lo - k * f_lo * f_lo * f_lo);

    let families: Vec<(&str, Arc<dyn EnergyModel>)> = vec![
        ("quadratic (paper)", Arc::new(quadratic)),
        ("linear [8]", Arc::new(linear)),
        ("cubic DVFS", Arc::new(cubic)),
    ];

    // Each family is a full DPP run on its own system — independent, seeded
    // jobs for the bounded worker pool (results in family order).
    eotora_util::pool::WorkerPool::with_default().map(&families, |(name, base)| {
        let reference = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let topo = reference.topology().clone();
        let energy: Vec<Arc<dyn EnergyModel>> = topo
            .server_ids()
            .map(|n| {
                let scale = topo.server(n).cores as f64 / 4.0;
                Arc::new(ScaledArc { inner: base.clone(), scale }) as Arc<dyn EnergyModel>
            })
            .collect();
        let suitability: Vec<Vec<f64>> = (0..devices)
            .map(|i| {
                topo.server_ids()
                    .map(|n| reference.suitability(eotora_topology::DeviceId(i), n))
                    .collect()
            })
            .collect();
        let system = MecSystem::new(topo, energy, suitability, 1.0, 1.0);
        let mut states =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let mut dpp = EotoraDpp::new(
            system,
            DppConfig { v: 100.0, bdma_rounds: 1, seed, ..Default::default() },
        );
        for t in 0..horizon {
            let beta = states.observe(t, dpp.system().topology());
            dpp.step(&beta);
        }
        EnergyFamilyRow {
            family: name.to_string(),
            average_latency: dpp.average_latency(),
            average_cost: dpp.average_cost(),
        }
    })
}

/// `Arc`-sharing scale wrapper (the `eotora_energy::Scaled` owns a `Box`,
/// which cannot be cloned across the per-server fleet here).
#[derive(Debug)]
struct ScaledArc {
    inner: Arc<dyn EnergyModel>,
    scale: f64,
}

impl EnergyModel for ScaledArc {
    fn power_watts(&self, freq_hz: f64) -> f64 {
        self.scale * self.inner.power_watts(freq_hz)
    }
    fn power_derivative(&self, freq_hz: f64) -> f64 {
        self.scale * self.inner.power_derivative(freq_hz)
    }
}

/// Result of the per-slot-vs-DPP comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerSlotComparison {
    /// Time-average latency of the DPP controller.
    pub dpp_latency: f64,
    /// Time-average cost of the DPP controller.
    pub dpp_cost: f64,
    /// Time-average latency of the per-slot-budget controller.
    pub per_slot_latency: f64,
    /// Time-average cost of the per-slot-budget controller.
    pub per_slot_cost: f64,
    /// The shared budget in $/slot.
    pub budget: f64,
}

/// Compares DPP against the per-slot-budget controller at the same budget —
/// quantifying what time-averaging buys (the Lyapunov design's core value).
pub fn per_slot_vs_dpp(devices: usize, horizon: u64, budget: f64, seed: u64) -> PerSlotComparison {
    let system =
        MecSystem::random(&SystemConfig::paper_defaults(devices), seed).with_budget(budget);

    // The two controllers consume identically seeded (but independent)
    // state streams, so they are two jobs for the worker pool; index 0 is
    // per-slot, index 1 is DPP.
    let runs = eotora_util::pool::WorkerPool::with_default().map_indexed(2, |which| {
        let mut states =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        if which == 0 {
            let mut per_slot = PerSlotController::new(system.clone(), seed);
            for t in 0..horizon {
                let beta = states.observe(t, per_slot.system().topology());
                per_slot.step(&beta);
            }
            (per_slot.average_latency(), per_slot.average_cost())
        } else {
            let mut dpp = EotoraDpp::new(
                system.clone(),
                DppConfig { v: 100.0, bdma_rounds: 2, seed, ..Default::default() },
            );
            for t in 0..horizon {
                let beta = states.observe(t, dpp.system().topology());
                dpp.step(&beta);
            }
            (dpp.average_latency(), dpp.average_cost())
        }
    });
    PerSlotComparison {
        dpp_latency: runs[1].0,
        dpp_cost: runs[1].1,
        per_slot_latency: runs[0].0,
        per_slot_cost: runs[0].1,
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdma_rounds_monotone_improvement() {
        let rows = bdma_rounds(10, 2, 111);
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(
                w[1].objective <= w[0].objective + 1e-9,
                "objective should not worsen with more rounds: {rows:?}"
            );
        }
    }

    #[test]
    fn both_scheduling_rules_converge_to_similar_quality() {
        let rows = scheduling_rules(15, 3, 112);
        assert_eq!(rows.len(), 2);
        let (mg, rr) = (&rows[0], &rows[1]);
        // Equilibrium quality should be comparable (both are equilibria).
        assert!((mg.objective - rr.objective).abs() <= 0.10 * mg.objective);
        assert!(mg.iterations > 0.0 && rr.iterations > 0.0);
    }

    #[test]
    fn energy_families_all_meet_budget_and_order_by_curvature() {
        let rows = energy_families(8, 72, 113);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.average_cost <= 1.0 * 1.15, "{} cost {}", r.family, r.average_cost);
            assert!(r.average_latency > 0.0);
        }
    }

    #[test]
    fn dpp_beats_per_slot_budgeting() {
        let c = per_slot_vs_dpp(10, 72, 0.8, 114);
        assert!(c.per_slot_cost <= c.budget * (1.0 + 1e-6));
        assert!(c.dpp_cost <= c.budget * 1.15);
        assert!(
            c.dpp_latency < c.per_slot_latency,
            "DPP {} should beat per-slot {}",
            c.dpp_latency,
            c.per_slot_latency
        );
    }
}
