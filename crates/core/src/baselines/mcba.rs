//! MCBA: Markov chain Monte Carlo-Based Algorithm (paper baseline [36]).
//!
//! A Metropolis sampler over strategy profiles: propose changing one random
//! device to one random alternative strategy and accept with probability
//! `min(1, exp(−ΔT / temp))`, where `ΔT` is the change in total latency.
//! The temperature cools geometrically, and the best profile ever visited is
//! returned. This matches the paper's description of [36]: "a probabilistic
//! algorithm that randomly moves between neighboring decisions with a
//! probability related to the objective values" — it converges to the
//! optimum in distribution but needs many more iterations than CGBA
//! (the paper's Fig. 4–5 comparison, reproduced in the benches).

use eotora_game::{Profile, StrategyFilter};
use eotora_obs::Recorder;
use eotora_util::rng::Pcg32;

use crate::bdma::P2aSolver;
use crate::error::SolveError;
use crate::p2a::P2aProblem;

/// Parameters of the MCMC sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McbaConfig {
    /// Number of proposal steps.
    pub iterations: usize,
    /// Initial temperature as a fraction of the starting per-device latency
    /// (scale-free across instances).
    pub initial_temperature_rel: f64,
    /// Geometric cooling multiplier applied each step (in `(0, 1]`).
    pub cooling: f64,
}

impl Default for McbaConfig {
    fn default() -> Self {
        Self { iterations: 5_000, initial_temperature_rel: 0.05, cooling: 0.999 }
    }
}

/// The MCBA baseline solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct McbaSolver {
    /// Sampler parameters.
    pub config: McbaConfig,
}

impl McbaSolver {
    /// Creates a solver with a custom iteration budget.
    pub fn with_iterations(iterations: usize) -> Self {
        Self { config: McbaConfig { iterations, ..Default::default() } }
    }
}

impl P2aSolver for McbaSolver {
    fn name(&self) -> &'static str {
        "MCBA"
    }

    fn solve(
        &mut self,
        problem: &P2aProblem,
        _seed: Option<&[usize]>,
        filter: Option<&StrategyFilter>,
        _should_stop: &(dyn Fn() -> bool + Sync),
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Result<Vec<usize>, SolveError> {
        super::refuse_filter(self.name(), filter)?;
        let game = problem.game();
        let n = game.num_players();
        let mut profile = Profile::random(game, rng);
        let mut cost = profile.total_cost(game);
        let mut best_choices = profile.choices().to_vec();
        let mut best_cost = cost;
        let mut temp = (cost / n as f64) * self.config.initial_temperature_rel;
        let mut accepted = 0u64;

        for _ in 0..self.config.iterations {
            let i = rng.below(n);
            let n_strat = problem.num_strategies(i);
            if n_strat <= 1 {
                continue;
            }
            let old = profile.choices()[i];
            let mut proposal = rng.below(n_strat);
            if proposal == old {
                proposal = (proposal + 1) % n_strat;
            }
            profile.switch(game, i, proposal);
            let new_cost = profile.total_cost(game);
            let delta = new_cost - cost;
            let accept = delta <= 0.0 || { temp > 0.0 && rng.uniform() < (-delta / temp).exp() };
            if accept {
                accepted += 1;
                cost = new_cost;
                if cost < best_cost {
                    best_cost = cost;
                    best_choices = profile.choices().to_vec();
                }
            } else {
                profile.switch(game, i, old);
            }
            temp *= self.config.cooling;
        }
        if recorder.is_enabled() {
            recorder.add(eotora_obs::COUNTER_MCBA_PROPOSALS, self.config.iterations as u64);
            recorder.add(eotora_obs::COUNTER_MCBA_ACCEPTED, accepted);
        }
        Ok(best_choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{MecSystem, SystemConfig};
    use eotora_obs::NoopRecorder;

    fn solve(solver: &mut dyn P2aSolver, p2a: &P2aProblem, rng: &mut Pcg32) -> Vec<usize> {
        solver.solve(p2a, None, None, &|| false, rng, &NoopRecorder).unwrap()
    }
    use eotora_states::{PaperStateConfig, StateProvider};

    fn setup(devices: usize, seed: u64) -> (MecSystem, P2aProblem) {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
        (system, p2a)
    }

    #[test]
    fn improves_over_random_start() {
        let (_, p2a) = setup(20, 61);
        let mut rng = Pcg32::seed(1);
        let random_cost = p2a
            .total_latency(&(0..20).map(|i| rng.below(p2a.num_strategies(i))).collect::<Vec<_>>());
        let mut solver = McbaSolver::default();
        let choices = solve(&mut solver, &p2a, &mut rng);
        let mcba_cost = p2a.total_latency(&choices);
        assert!(mcba_cost < random_cost, "{mcba_cost} !< {random_cost}");
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let (_, p2a) = setup(15, 62);
        let cost = |iters: usize, seed: u64| {
            let mut rng = Pcg32::seed(seed);
            let mut solver = McbaSolver::with_iterations(iters);
            p2a.total_latency(&solve(&mut solver, &p2a, &mut rng))
        };
        // Average over seeds; MCMC is noisy per-run.
        let short: f64 = (0..5).map(|s| cost(200, s)).sum::<f64>() / 5.0;
        let long: f64 = (0..5).map(|s| cost(5_000, s)).sum::<f64>() / 5.0;
        assert!(long <= short * 1.02, "long {long} vs short {short}");
    }

    #[test]
    fn worse_than_or_close_to_cgba_on_average() {
        // The paper's Fig. 4 ordering: CGBA ≤ MCBA.
        use crate::sharded::CgbaSolver;
        let (_, p2a) = setup(25, 63);
        let mut mcba_sum = 0.0;
        let mut cgba_sum = 0.0;
        for seed in 0..5u64 {
            let mut rng = Pcg32::seed(seed);
            let mut m = McbaSolver::default();
            mcba_sum += p2a.total_latency(&solve(&mut m, &p2a, &mut rng));
            let mut rng = Pcg32::seed(seed);
            let mut c = CgbaSolver::default();
            cgba_sum += p2a.total_latency(&solve(&mut c, &p2a, &mut rng));
        }
        assert!(cgba_sum <= mcba_sum * 1.01, "cgba {cgba_sum} vs mcba {mcba_sum}");
    }

    #[test]
    fn handles_single_strategy_players() {
        // Tiny topology where every base station reaches the same cluster —
        // proposals that cannot move should be skipped gracefully.
        let system = MecSystem::random(&SystemConfig::tiny(3), 64);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 64);
        let state = p.observe(0, system.topology());
        let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
        let mut rng = Pcg32::seed(2);
        let mut solver = McbaSolver::with_iterations(100);
        let choices = solve(&mut solver, &p2a, &mut rng);
        assert_eq!(choices.len(), 3);
    }
}
