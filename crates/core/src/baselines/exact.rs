//! Exact optimum for P2-A via branch-and-bound (the Gurobi substitute).
//!
//! Frames P2-A as a [`SequentialProblem`]: stage `i` assigns device `i` a
//! strategy; the state carries the current resource loads; the cumulative
//! cost is the social cost `Σ_r m_r·p_r²` so far. The completion bound gives
//! each unassigned device its cheapest marginal against the *current* loads
//! — admissible because loads only grow, so true marginals only exceed it.
//!
//! On the paper's Fig. 4 instance sizes (I ≈ 100) a full proof of optimality
//! is out of reach for any exact solver without commercial-grade cuts; the
//! node budget makes the search anytime: it returns the best incumbent and a
//! certified global lower bound (the min frontier bound), which the Fig. 4
//! harness reports alongside CGBA's ratio.

use eotora_game::StrategyFilter;
use eotora_obs::{NoopRecorder, Recorder};
use eotora_optim::branch_bound::{BnbOutcome, BranchAndBound, SequentialProblem};
use eotora_util::rng::Pcg32;

use crate::bdma::P2aSolver;
use crate::error::SolveError;
use crate::p2a::P2aProblem;
use crate::sharded::CgbaSolver;

/// Branch-and-bound state: per-resource loads plus accumulated cost.
#[derive(Debug, Clone)]
pub struct LoadState {
    loads: Vec<f64>,
    cost: f64,
}

struct P2aSequential<'a> {
    problem: &'a P2aProblem,
}

impl P2aSequential<'_> {
    fn marginal(&self, loads: &[f64], player: usize, strategy: usize) -> f64 {
        let game = self.problem.game();
        game.strategies(player)[strategy]
            .iter()
            .map(|&(r, w)| game.resource_weight(r) * (2.0 * loads[r] * w + w * w))
            .sum()
    }
}

impl SequentialProblem for P2aSequential<'_> {
    type State = LoadState;

    fn num_stages(&self) -> usize {
        self.problem.game().num_players()
    }

    fn num_choices(&self, stage: usize) -> usize {
        self.problem.num_strategies(stage)
    }

    fn root_state(&self) -> LoadState {
        LoadState { loads: vec![0.0; self.problem.game().num_resources()], cost: 0.0 }
    }

    fn apply(&self, state: &LoadState, stage: usize, choice: usize) -> Option<(LoadState, f64)> {
        let game = self.problem.game();
        let delta = self.marginal(&state.loads, stage, choice);
        let mut loads = state.loads.clone();
        for &(r, w) in &game.strategies(stage)[choice] {
            loads[r] += w;
        }
        let cost = state.cost + delta;
        Some((LoadState { loads, cost }, cost))
    }

    fn completion_bound(&self, state: &LoadState, stage: usize) -> f64 {
        (stage..self.num_stages())
            .map(|i| {
                (0..self.num_choices(i))
                    .map(|s| self.marginal(&state.loads, i, s))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

/// Outcome of an exact solve, including optimality certificates.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactReport {
    /// Best strategy choices found.
    pub choices: Vec<usize>,
    /// Latency `T_t` of [`ExactReport::choices`].
    pub latency: f64,
    /// Certified global lower bound on the optimum.
    pub lower_bound: f64,
    /// Whether the search proved optimality.
    pub proven_optimal: bool,
    /// Nodes expanded by the search.
    pub nodes_expanded: usize,
}

/// The exact (Gurobi-replacement) baseline.
#[derive(Debug, Clone)]
pub struct ExactSolver {
    /// Node budget for the branch-and-bound search.
    pub node_budget: usize,
    /// Warm-start the search with a CGBA incumbent (recommended; prunes
    /// aggressively and guarantees the result is never worse than CGBA).
    pub warm_start: bool,
}

impl Default for ExactSolver {
    fn default() -> Self {
        Self { node_budget: 2_000_000, warm_start: true }
    }
}

impl ExactSolver {
    /// Runs the search and returns the full report with bounds.
    pub fn solve_with_report(&self, problem: &P2aProblem, rng: &mut Pcg32) -> ExactReport {
        let incumbent = self.warm_start.then(|| {
            let mut cgba = CgbaSolver::default();
            cgba.solve(problem, None, None, &|| false, rng, &NoopRecorder)
                .expect("an unfiltered CGBA solve cannot fail")
        });
        self.solve_with_report_from(problem, incumbent.as_deref())
    }

    /// Runs the search from an explicit warm-start incumbent (e.g. the exact
    /// CGBA solution already measured by a comparison harness, mirroring how
    /// one would hand Gurobi a MIP start). The result is never worse than
    /// the incumbent.
    pub fn solve_with_report_from(
        &self,
        problem: &P2aProblem,
        incumbent: Option<&[usize]>,
    ) -> ExactReport {
        let seq = P2aSequential { problem };
        let solver = BranchAndBound::new().with_node_budget(self.node_budget);
        let result = solver.solve_with_incumbent(&seq, incumbent);
        let choices = result.best_choices.clone().expect("P2-A always has feasible assignments");
        ExactReport {
            latency: result.best_cost,
            lower_bound: result.lower_bound,
            proven_optimal: result.outcome == BnbOutcome::Optimal,
            nodes_expanded: result.nodes_expanded,
            choices,
        }
    }
}

impl P2aSolver for ExactSolver {
    fn name(&self) -> &'static str {
        "OPT"
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
        let report = self.solve_with_report(problem, rng);
        if recorder.is_enabled() {
            recorder.add(eotora_obs::COUNTER_BNB_NODES, report.nodes_expanded as u64);
            if report.proven_optimal {
                recorder.add(eotora_obs::COUNTER_BNB_PROVEN_OPTIMAL, 1);
            }
        }
        Ok(report.choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{MecSystem, SystemConfig};
    use eotora_states::{PaperStateConfig, StateProvider};
    use eotora_util::assert_close;

    fn setup(devices: usize, seed: u64) -> P2aProblem {
        let system = MecSystem::random(&SystemConfig::tiny(devices), seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        P2aProblem::build(&system, &state, &system.min_frequencies())
    }

    fn brute_force(problem: &P2aProblem) -> f64 {
        let n = problem.game().num_players();
        let mut best = f64::INFINITY;
        fn rec(problem: &P2aProblem, i: usize, n: usize, choices: &mut Vec<usize>, best: &mut f64) {
            if i == n {
                *best = (*best).min(problem.total_latency(choices));
                return;
            }
            for s in 0..problem.num_strategies(i) {
                choices.push(s);
                rec(problem, i + 1, n, choices, best);
                choices.pop();
            }
        }
        rec(problem, 0, n, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        for seed in 0..5u64 {
            let p2a = setup(4, 70 + seed);
            let exact = brute_force(&p2a);
            let mut rng = Pcg32::seed(seed);
            let report = ExactSolver::default().solve_with_report(&p2a, &mut rng);
            assert!(report.proven_optimal);
            assert_close!(report.latency, exact, 1e-9);
            assert_close!(report.lower_bound, report.latency, 1e-6);
        }
    }

    #[test]
    fn never_worse_than_cgba_with_warm_start() {
        let p2a = setup(8, 80);
        let mut rng = Pcg32::seed(5);
        let mut cgba = CgbaSolver::default();
        let choices = cgba.solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder).unwrap();
        let cgba_latency = p2a.total_latency(&choices);
        let mut rng = Pcg32::seed(5);
        let report = ExactSolver::default().solve_with_report(&p2a, &mut rng);
        assert!(report.latency <= cgba_latency + 1e-9);
    }

    #[test]
    fn cgba_within_theorem_ratio_of_exact() {
        // Theorem 2: T(CGBA(0)) ≤ 2.62 · T(OPT); empirically much tighter.
        for seed in 0..5u64 {
            let p2a = setup(6, 90 + seed);
            let mut rng = Pcg32::seed(seed);
            let report = ExactSolver::default().solve_with_report(&p2a, &mut rng);
            assert!(report.proven_optimal);
            let mut rng = Pcg32::seed(seed + 1);
            let mut cgba = CgbaSolver::default();
            let choices = cgba.solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder).unwrap();
            let cgba_latency = p2a.total_latency(&choices);
            let ratio = cgba_latency / report.latency;
            assert!(ratio <= 2.62 + 1e-9, "ratio {ratio}");
        }
    }

    #[test]
    fn budget_exhaustion_still_returns_incumbent_and_bound() {
        let p2a = setup(12, 100);
        let mut rng = Pcg32::seed(6);
        let solver = ExactSolver { node_budget: 50, warm_start: true };
        let report = solver.solve_with_report(&p2a, &mut rng);
        assert_eq!(report.choices.len(), 12);
        assert!(report.lower_bound <= report.latency + 1e-9);
        if !report.proven_optimal {
            assert!(report.lower_bound > 0.0);
        }
    }
}
