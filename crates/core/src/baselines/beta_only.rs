//! The β-only stationary policy of the paper's Lemma 2, as an executable
//! hindsight benchmark.
//!
//! Lemma 2 says an optimal policy exists that looks only at the current
//! state `β_t`, meets the budget on average, and attains the optimal
//! time-average latency `ρ*`. Theorem 4 then bounds DPP's latency by
//! `R·ρ* + BD/V` — so an executable β-only policy gives the yardstick that
//! makes the theorem *checkable*.
//!
//! The policy here is the Lagrangian form: a single fixed multiplier `μ`
//! prices energy, and every slot solves `min T_t + μ·C_t` (P2-A by CGBA,
//! frequencies in closed form — exactly the per-slot machinery DPP uses
//! with `Q(t)` frozen at `μ/V·V = μ`). [`BetaOnlyPolicy::tune`] bisects `μ`
//! *in hindsight* over a recorded state sequence until the average cost
//! meets the budget; running the tuned policy then yields the benchmark
//! latency. DPP, which needs no hindsight, should land close — asserted in
//! the tests and measured in the `beta_only_gap` experiment.

use eotora_obs::NoopRecorder;
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;

use crate::bdma::P2aSolver;
use crate::p2b::solve_p2b;
use crate::sharded::CgbaSolver;
use crate::system::MecSystem;
use crate::workspace::SlotWorkspace;

/// A tuned β-only (stationary Lagrangian) policy.
#[derive(Debug)]
pub struct BetaOnlyPolicy {
    system: MecSystem,
    /// The energy multiplier `μ` (dollars of latency per dollar of energy).
    pub multiplier: f64,
}

/// Metrics of one β-only evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaOnlyRun {
    /// Time-average latency across the pass.
    pub average_latency: f64,
    /// Time-average energy cost across the pass.
    pub average_cost: f64,
}

impl BetaOnlyPolicy {
    /// Creates a policy with an explicit multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is negative.
    pub fn new(system: MecSystem, multiplier: f64) -> Self {
        assert!(multiplier >= 0.0, "multiplier must be non-negative");
        Self { system, multiplier }
    }

    /// Evaluates the policy over a recorded state sequence.
    pub fn evaluate(&self, states: &[SystemState], seed: u64) -> BetaOnlyRun {
        assert!(!states.is_empty(), "need at least one state");
        let mut solver = CgbaSolver::default();
        let mut rng = Pcg32::seed_stream(seed, 0xBE7A);
        let mut workspace = SlotWorkspace::new();
        let mut latency_sum = 0.0;
        let mut cost_sum = 0.0;
        for state in states {
            // P2-A at minimum frequencies (as in BDMA round 1), then the
            // Lagrangian frequency step min T + μ·C == solve_p2b(v=1, q=μ).
            let p2a = workspace.prepare(&self.system, state, &self.system.min_frequencies());
            let choices = solver
                .solve(p2a, None, None, &|| false, &mut rng, &NoopRecorder)
                .expect("an unfiltered CGBA solve cannot fail");
            let assignments = p2a.assignments_from_choices(&choices);
            let sol = solve_p2b(&self.system, state, &assignments, 1.0, self.multiplier);
            latency_sum +=
                crate::latency::optimal_latency(&self.system, state, &assignments, &sol.freqs_hz)
                    .total();
            cost_sum += self.system.energy_cost(state.price_per_kwh, &sol.freqs_hz);
        }
        let n = states.len() as f64;
        BetaOnlyRun { average_latency: latency_sum / n, average_cost: cost_sum / n }
    }

    /// Tunes `μ` by bisection over the recorded states until the average
    /// cost meets the system's budget (the hindsight step), then returns the
    /// tuned policy. If even `μ = 0` (free energy) meets the budget, the
    /// constraint is slack and `μ = 0` is returned.
    pub fn tune(system: MecSystem, states: &[SystemState], seed: u64) -> Self {
        assert!(!states.is_empty(), "need at least one state");
        let budget = system.budget_per_slot();
        let eval = |mu: f64| Self::new(system.clone(), mu).evaluate(states, seed).average_cost;

        if eval(0.0) <= budget {
            return Self::new(system, 0.0);
        }
        // Grow an upper bracket, then bisect: average cost is non-increasing
        // in μ (heavier energy pricing never increases consumption).
        let mut hi = 1.0;
        let mut guard = 0;
        while eval(hi) > budget && guard < 60 {
            hi *= 4.0;
            guard += 1;
        }
        let mut lo = 0.0;
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if eval(mid) > budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Self::new(system, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpp::{DppConfig, EotoraDpp};
    use crate::system::SystemConfig;
    use eotora_states::{PaperStateConfig, StateProvider};

    fn record_states(system: &MecSystem, horizon: u64, seed: u64) -> Vec<SystemState> {
        let mut provider =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        (0..horizon).map(|t| provider.observe(t, system.topology())).collect()
    }

    #[test]
    fn tuned_policy_meets_budget() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(10), 201).with_budget(0.8);
        let states = record_states(&system, 72, 201);
        let policy = BetaOnlyPolicy::tune(system, &states, 1);
        let run = policy.evaluate(&states, 1);
        assert!(run.average_cost <= 0.8 * (1.0 + 1e-6), "cost {}", run.average_cost);
        assert!(policy.multiplier > 0.0, "a binding budget needs a positive multiplier");
    }

    #[test]
    fn slack_budget_means_zero_multiplier() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(8), 202).with_budget(100.0);
        let states = record_states(&system, 24, 202);
        let policy = BetaOnlyPolicy::tune(system, &states, 2);
        assert_eq!(policy.multiplier, 0.0);
    }

    #[test]
    fn latency_increases_as_multiplier_grows() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(10), 203);
        let states = record_states(&system, 24, 203);
        let l =
            |mu: f64| BetaOnlyPolicy::new(system.clone(), mu).evaluate(&states, 3).average_latency;
        assert!(l(0.0) <= l(10.0) + 1e-9);
        assert!(l(10.0) <= l(1000.0) + 1e-9);
    }

    #[test]
    fn dpp_approaches_the_beta_only_benchmark() {
        // Theorem 4's promise made empirical: the online controller (no
        // hindsight) lands within a modest factor of the hindsight-tuned
        // stationary policy at the same realized budget.
        let budget = 0.8;
        let system = MecSystem::random(&SystemConfig::paper_defaults(12), 204).with_budget(budget);
        let states = record_states(&system, 144, 204);
        let oracle = BetaOnlyPolicy::tune(system.clone(), &states, 4).evaluate(&states, 4);

        let mut dpp = EotoraDpp::new(
            system,
            DppConfig { v: 200.0, bdma_rounds: 2, seed: 204, ..Default::default() },
        );
        for state in &states {
            dpp.step(state);
        }
        assert!(dpp.average_cost() <= budget * 1.12, "DPP cost {}", dpp.average_cost());
        let ratio = dpp.average_latency() / oracle.average_latency;
        assert!(ratio <= 1.10, "DPP latency should approach the β-only benchmark: ratio {ratio}");
        // And the benchmark is genuinely meaningful: not slack.
        assert!(oracle.average_cost <= budget * (1.0 + 1e-6));
    }
}
