//! ROPT: random selection with optimal resource allocation.

use eotora_game::StrategyFilter;
use eotora_obs::Recorder;
use eotora_util::rng::Pcg32;

use crate::bdma::P2aSolver;
use crate::error::SolveError;
use crate::p2a::P2aProblem;

/// The ROPT baseline: every device draws a feasible strategy uniformly at
/// random. Bandwidth/compute allocation remains optimal (Lemma 1), matching
/// the paper's description "each MD randomly chooses a base station and an
/// edge server and uses the optimal ... resource allocation decision".
#[derive(Debug, Clone, Copy, Default)]
pub struct RoptSolver;

impl P2aSolver for RoptSolver {
    fn name(&self) -> &'static str {
        "ROPT"
    }

    fn solve(
        &mut self,
        problem: &P2aProblem,
        _seed: Option<&[usize]>,
        filter: Option<&StrategyFilter>,
        _should_stop: &(dyn Fn() -> bool + Sync),
        rng: &mut Pcg32,
        _recorder: &dyn Recorder,
    ) -> Result<Vec<usize>, SolveError> {
        super::refuse_filter(self.name(), filter)?;
        Ok((0..problem.game().num_players())
            .map(|i| rng.below(problem.num_strategies(i)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{MecSystem, SystemConfig};
    use eotora_obs::NoopRecorder;
    use eotora_states::{PaperStateConfig, StateProvider};

    #[test]
    fn produces_valid_choices() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(12), 51);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 51);
        let state = p.observe(0, system.topology());
        let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
        let mut rng = Pcg32::seed(1);
        let mut solver = RoptSolver;
        let choices = solver.solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder).unwrap();
        assert_eq!(choices.len(), 12);
        for (i, &s) in choices.iter().enumerate() {
            assert!(s < p2a.num_strategies(i));
        }
        // Assignments are feasible by construction.
        let assignments = p2a.assignments_from_choices(&choices);
        let topo = system.topology();
        for a in &assignments {
            assert!(topo.servers_reachable_from(a.base_station).contains(&a.server));
        }
    }

    #[test]
    fn different_draws_differ() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(20), 52);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 52);
        let state = p.observe(0, system.topology());
        let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
        let mut rng = Pcg32::seed(2);
        let mut solver = RoptSolver;
        let a = solver.solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder).unwrap();
        let b = solver.solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder).unwrap();
        assert_ne!(a, b);
    }
}
