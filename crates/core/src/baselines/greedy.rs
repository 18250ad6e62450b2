//! Greedy marginal-cost assignment — a classic deterministic baseline for
//! min-Σ-load² problems, between ROPT and CGBA in quality.
//!
//! Devices are processed in descending order of compute demand (heaviest
//! first, the standard LPT-style ordering) and each takes the strategy with
//! the smallest *marginal* increase of the social cost against the loads
//! committed so far. One pass, no iteration — `O(I log I + I·S)` — so it is
//! also a useful warm start for CGBA and branch-and-bound.

use eotora_game::StrategyFilter;
use eotora_obs::Recorder;
use eotora_util::rng::Pcg32;

use crate::bdma::P2aSolver;
use crate::error::SolveError;
use crate::p2a::P2aProblem;

/// The greedy marginal-cost P2-A solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySolver;

impl GreedySolver {
    /// Runs the greedy pass and returns the strategy choices.
    pub fn assign(problem: &P2aProblem) -> Vec<usize> {
        let game = problem.game();
        let n_players = game.num_players();
        // Heaviest-first: order by each player's best-case standalone cost,
        // descending, so big tasks claim uncontended resources early.
        let mut order: Vec<usize> = (0..n_players).collect();
        let standalone: Vec<f64> = (0..n_players)
            .map(|i| {
                game.strategies(i)
                    .iter()
                    .map(|s| s.iter().map(|&(r, w)| game.resource_weight(r) * w * w).sum::<f64>())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        order.sort_by(|&a, &b| standalone[b].partial_cmp(&standalone[a]).expect("finite costs"));

        let mut loads = vec![0.0; game.num_resources()];
        let mut choices = vec![0usize; n_players];
        for &i in &order {
            let mut best = (0usize, f64::INFINITY);
            for (s, strat) in game.strategies(i).iter().enumerate() {
                let marginal: f64 = strat
                    .iter()
                    .map(|&(r, w)| game.resource_weight(r) * (2.0 * loads[r] * w + w * w))
                    .sum();
                if marginal < best.1 {
                    best = (s, marginal);
                }
            }
            choices[i] = best.0;
            for &(r, w) in &game.strategies(i)[best.0] {
                loads[r] += w;
            }
        }
        choices
    }
}

impl P2aSolver for GreedySolver {
    fn name(&self) -> &'static str {
        "GREEDY"
    }

    fn solve(
        &mut self,
        problem: &P2aProblem,
        _seed: Option<&[usize]>,
        filter: Option<&StrategyFilter>,
        _should_stop: &(dyn Fn() -> bool + Sync),
        _rng: &mut Pcg32,
        _recorder: &dyn Recorder,
    ) -> Result<Vec<usize>, SolveError> {
        super::refuse_filter(self.name(), filter)?;
        Ok(Self::assign(problem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoptSolver;
    use crate::system::{MecSystem, SystemConfig};
    use eotora_obs::NoopRecorder;
    use eotora_states::{PaperStateConfig, StateProvider};

    fn p2a(devices: usize, seed: u64) -> P2aProblem {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        P2aProblem::build(&system, &state, &system.min_frequencies())
    }

    #[test]
    fn greedy_is_deterministic() {
        let p = p2a(15, 71);
        assert_eq!(GreedySolver::assign(&p), GreedySolver::assign(&p));
    }

    #[test]
    fn greedy_beats_random_on_average() {
        let mut greedy_sum = 0.0;
        let mut ropt_sum = 0.0;
        for seed in 0..5u64 {
            let p = p2a(20, 72 + seed);
            greedy_sum += p.total_latency(&GreedySolver::assign(&p));
            let mut rng = Pcg32::seed(seed);
            let mut ropt = RoptSolver;
            let choices = ropt.solve(&p, None, None, &|| false, &mut rng, &NoopRecorder).unwrap();
            ropt_sum += p.total_latency(&choices);
        }
        assert!(greedy_sum < ropt_sum, "greedy {greedy_sum} vs ropt {ropt_sum}");
    }

    #[test]
    fn cgba_from_greedy_start_not_worse() {
        // CGBA run from the greedy profile: best-response moves only reduce
        // cost, so the outcome must be ≤ the greedy cost.
        use eotora_game::{cgba_from, CgbaConfig, CgbaScratch, Profile};
        let p = p2a(25, 80);
        let greedy = GreedySolver::assign(&p);
        let greedy_cost = p.total_latency(&greedy);
        let profile = Profile::from_choices(p.game(), greedy.clone());
        let config = CgbaConfig::default();
        let mut scratch = CgbaScratch::default();
        let report = cgba_from(p.game(), profile, &config, None, || false, false, &mut scratch);
        assert!(report.converged);
        assert!(report.total_cost <= greedy_cost + 1e-9);
        // And is an equilibrium, like any CGBA output.
        assert!(report.profile.is_lambda_equilibrium(p.game(), 0.0, 1e-9));
    }
}
