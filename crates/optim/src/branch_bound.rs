//! Generic best-first branch-and-bound over sequential discrete choices.
//!
//! This is the workspace's replacement for the commercial Gurobi solver the
//! paper uses as its optimal baseline (§VI-B, Fig. 4–5). The P2-A offloading
//! problem assigns every mobile device a (base station, server) pair; framed
//! sequentially — stage `i` picks device `i`'s pair — it fits the
//! [`SequentialProblem`] interface: monotone cumulative cost plus an
//! admissible completion bound.
//!
//! The solver is exact when it exhausts the search tree within its node
//! budget; otherwise it reports the best incumbent *and* the proven global
//! lower bound, so callers can still certify approximation ratios.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A minimization problem decomposed into a fixed sequence of discrete
/// choices (one per *stage*).
///
/// Implementations must satisfy two contracts for the solver to be exact:
///
/// * **Monotonicity** — the cumulative cost returned by
///   [`apply`](Self::apply) never decreases along a path.
/// * **Admissibility** — [`completion_bound`](Self::completion_bound) never
///   exceeds the true optimal cost-to-complete from the given state.
pub trait SequentialProblem {
    /// Solver state after a prefix of choices (e.g. accumulated resource
    /// loads). Cloned on branching, so keep it compact.
    type State: Clone;

    /// Total number of stages (choices to make).
    fn num_stages(&self) -> usize;

    /// Number of alternatives available at `stage`.
    fn num_choices(&self, stage: usize) -> usize;

    /// State before any choice has been made.
    fn root_state(&self) -> Self::State;

    /// Applies `choice` at `stage`, returning the successor state and the new
    /// *cumulative* cost, or `None` if the choice is infeasible.
    fn apply(&self, state: &Self::State, stage: usize, choice: usize)
        -> Option<(Self::State, f64)>;

    /// Admissible (never over-estimating) lower bound on the additional cost
    /// of completing stages `stage..num_stages` from `state`.
    ///
    /// Returning `0.0` is always sound and degrades the search to uniform
    /// cost; tighter bounds prune more.
    fn completion_bound(&self, state: &Self::State, stage: usize) -> f64;
}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BnbOutcome {
    /// Search tree exhausted; the incumbent is a proven optimum.
    Optimal,
    /// Node budget hit first; the incumbent is feasible but only
    /// `lower_bound`-certified.
    BudgetExhausted,
    /// No feasible assignment exists.
    Infeasible,
}

/// Result of a [`BranchAndBound::solve`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbResult {
    /// Best complete assignment found (one choice index per stage), if any.
    pub best_choices: Option<Vec<usize>>,
    /// Cost of `best_choices`; `+∞` when infeasible.
    pub best_cost: f64,
    /// Proven global lower bound on the optimum.
    pub lower_bound: f64,
    /// Number of nodes expanded.
    pub nodes_expanded: usize,
    /// Stop reason.
    pub outcome: BnbOutcome,
}

struct Node<S> {
    bound: f64,
    stage: usize,
    state: S,
    choices: Vec<usize>,
}

impl<S> PartialEq for Node<S> {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl<S> Eq for Node<S> {}
impl<S> PartialOrd for Node<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Node<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest bound first.
        // Tie-break on depth so deeper nodes (closer to completion) pop first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.stage.cmp(&other.stage))
    }
}

/// Best-first branch-and-bound driver.
///
/// # Examples
///
/// ```
/// use eotora_optim::branch_bound::{BranchAndBound, BnbOutcome, SequentialProblem};
///
/// /// Pick one number per stage; cost is their sum (min picks smallest each stage).
/// struct PickSmallest(Vec<Vec<f64>>);
///
/// impl SequentialProblem for PickSmallest {
///     type State = f64; // cumulative cost doubles as state
///     fn num_stages(&self) -> usize { self.0.len() }
///     fn num_choices(&self, s: usize) -> usize { self.0[s].len() }
///     fn root_state(&self) -> f64 { 0.0 }
///     fn apply(&self, st: &f64, s: usize, c: usize) -> Option<(f64, f64)> {
///         let cost = st + self.0[s][c];
///         Some((cost, cost))
///     }
///     fn completion_bound(&self, _: &f64, stage: usize) -> f64 {
///         self.0[stage..].iter().map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min)).sum()
///     }
/// }
///
/// let p = PickSmallest(vec![vec![3.0, 1.0], vec![5.0, 2.0]]);
/// let r = BranchAndBound::new().solve(&p);
/// assert_eq!(r.outcome, BnbOutcome::Optimal);
/// assert_eq!(r.best_cost, 3.0);
/// assert_eq!(r.best_choices, Some(vec![1, 1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchAndBound {
    node_budget: usize,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchAndBound {
    /// Creates a solver with a generous default node budget (2 million).
    pub fn new() -> Self {
        Self { node_budget: 2_000_000 }
    }

    /// Sets the maximum number of expanded nodes before the search gives up
    /// and reports [`BnbOutcome::BudgetExhausted`].
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        self.node_budget = budget;
        self
    }

    /// Runs the search on `problem`.
    ///
    /// An optional warm-start incumbent can be installed with
    /// [`solve_with_incumbent`](Self::solve_with_incumbent).
    pub fn solve<P: SequentialProblem>(&self, problem: &P) -> BnbResult {
        self.solve_with_incumbent(problem, None)
    }

    /// Runs the search, optionally seeded with a known-feasible assignment
    /// (`incumbent`) whose cost prunes the tree from the start. In the
    /// Fig. 4 harness the incumbent is CGBA's solution.
    ///
    /// # Panics
    ///
    /// Panics if the incumbent's length differs from `problem.num_stages()`
    /// or it is infeasible under `problem.apply`.
    pub fn solve_with_incumbent<P: SequentialProblem>(
        &self,
        problem: &P,
        incumbent: Option<&[usize]>,
    ) -> BnbResult {
        let stages = problem.num_stages();
        let mut best_cost = f64::INFINITY;
        let mut best_choices: Option<Vec<usize>> = None;

        if let Some(choices) = incumbent {
            assert_eq!(choices.len(), stages, "incumbent length mismatch");
            let mut state = problem.root_state();
            let mut cost = 0.0;
            for (stage, &c) in choices.iter().enumerate() {
                let (next, ncost) =
                    problem.apply(&state, stage, c).expect("incumbent must be feasible");
                state = next;
                cost = ncost;
            }
            best_cost = cost;
            best_choices = Some(choices.to_vec());
        }

        if stages == 0 {
            return BnbResult {
                best_choices: Some(Vec::new()),
                best_cost: 0.0,
                lower_bound: 0.0,
                nodes_expanded: 0,
                outcome: BnbOutcome::Optimal,
            };
        }

        let root = problem.root_state();
        let root_bound = problem.completion_bound(&root, 0);
        let mut heap: BinaryHeap<Node<P::State>> = BinaryHeap::new();
        heap.push(Node { bound: root_bound, stage: 0, state: root, choices: Vec::new() });

        let mut nodes_expanded = 0usize;
        // The min frontier bound when the budget runs out is still a valid
        // global lower bound (best-first popping order guarantees it).
        let mut frontier_bound = root_bound;

        while let Some(node) = heap.pop() {
            frontier_bound = node.bound;
            if node.bound >= best_cost {
                // Everything remaining is worse than the incumbent: optimal.
                return BnbResult {
                    best_choices,
                    best_cost,
                    lower_bound: best_cost.min(frontier_bound),
                    nodes_expanded,
                    outcome: BnbOutcome::Optimal,
                };
            }
            if nodes_expanded >= self.node_budget {
                let outcome = if best_choices.is_some() {
                    BnbOutcome::BudgetExhausted
                } else {
                    BnbOutcome::Infeasible
                };
                return BnbResult {
                    best_choices,
                    best_cost,
                    lower_bound: frontier_bound,
                    nodes_expanded,
                    outcome,
                };
            }
            nodes_expanded += 1;

            for choice in 0..problem.num_choices(node.stage) {
                let Some((state, cost)) = problem.apply(&node.state, node.stage, choice) else {
                    continue;
                };
                let next_stage = node.stage + 1;
                let mut choices = node.choices.clone();
                choices.push(choice);
                if next_stage == stages {
                    if cost < best_cost {
                        best_cost = cost;
                        best_choices = Some(choices);
                    }
                } else {
                    let bound = cost + problem.completion_bound(&state, next_stage);
                    if bound < best_cost {
                        heap.push(Node { bound, stage: next_stage, state, choices });
                    }
                }
            }
        }

        let outcome =
            if best_choices.is_some() { BnbOutcome::Optimal } else { BnbOutcome::Infeasible };
        BnbResult {
            lower_bound: if best_cost.is_finite() { best_cost } else { frontier_bound },
            best_choices,
            best_cost,
            nodes_expanded,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_util::rng::Pcg32;

    /// Toy assignment problem: stage i picks column c, cost Σ w[i][c].
    struct TableProblem {
        costs: Vec<Vec<f64>>,
    }

    impl SequentialProblem for TableProblem {
        type State = f64;
        fn num_stages(&self) -> usize {
            self.costs.len()
        }
        fn num_choices(&self, stage: usize) -> usize {
            self.costs[stage].len()
        }
        fn root_state(&self) -> f64 {
            0.0
        }
        fn apply(&self, state: &f64, stage: usize, choice: usize) -> Option<(f64, f64)> {
            let c = state + self.costs[stage][choice];
            Some((c, c))
        }
        fn completion_bound(&self, _: &f64, stage: usize) -> f64 {
            self.costs[stage..]
                .iter()
                .map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min))
                .sum()
        }
    }

    /// Quadratic-load problem mimicking P2-A's structure: each of I players
    /// picks one of R resources; cost = Σ_r load_r² with unit weights.
    struct QuadLoad {
        players: usize,
        resources: usize,
        weights: Vec<Vec<f64>>, // weights[i][r]
    }

    impl SequentialProblem for QuadLoad {
        type State = (Vec<f64>, f64); // (loads, cost)
        fn num_stages(&self) -> usize {
            self.players
        }
        fn num_choices(&self, _stage: usize) -> usize {
            self.resources
        }
        fn root_state(&self) -> Self::State {
            (vec![0.0; self.resources], 0.0)
        }
        fn apply(
            &self,
            state: &Self::State,
            stage: usize,
            choice: usize,
        ) -> Option<(Self::State, f64)> {
            let (loads, cost) = state;
            let w = self.weights[stage][choice];
            let old = loads[choice];
            let delta = (old + w) * (old + w) - old * old;
            let mut nl = loads.clone();
            nl[choice] = old + w;
            let nc = cost + delta;
            Some(((nl, nc), nc))
        }
        fn completion_bound(&self, state: &Self::State, stage: usize) -> f64 {
            // Each remaining player adds at least its cheapest marginal
            // against the *current* loads (loads only grow ⇒ admissible).
            let (loads, _) = state;
            self.weights[stage..]
                .iter()
                .map(|w| {
                    (0..self.resources)
                        .map(|r| 2.0 * loads[r] * w[r] + w[r] * w[r])
                        .fold(f64::INFINITY, f64::min)
                })
                .sum()
        }
    }

    fn brute_force(p: &QuadLoad) -> f64 {
        fn rec(p: &QuadLoad, stage: usize, loads: &mut Vec<f64>) -> f64 {
            if stage == p.players {
                return loads.iter().map(|l| l * l).sum();
            }
            let mut best = f64::INFINITY;
            for r in 0..p.resources {
                loads[r] += p.weights[stage][r];
                best = best.min(rec(p, stage + 1, loads));
                loads[r] -= p.weights[stage][r];
            }
            best
        }
        rec(p, 0, &mut vec![0.0; p.resources])
    }

    #[test]
    fn table_problem_optimal() {
        let p = TableProblem { costs: vec![vec![2.0, 9.0], vec![4.0, 1.0], vec![8.0, 3.0]] };
        let r = BranchAndBound::new().solve(&p);
        assert_eq!(r.outcome, BnbOutcome::Optimal);
        assert_eq!(r.best_cost, 6.0);
        assert_eq!(r.best_choices, Some(vec![0, 1, 1]));
        assert_eq!(r.lower_bound, r.best_cost);
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = TableProblem { costs: vec![] };
        let r = BranchAndBound::new().solve(&p);
        assert_eq!(r.outcome, BnbOutcome::Optimal);
        assert_eq!(r.best_cost, 0.0);
    }

    #[test]
    fn quad_load_matches_brute_force() {
        let mut rng = Pcg32::seed(99);
        for _ in 0..20 {
            let p = QuadLoad {
                players: 6,
                resources: 3,
                weights: (0..6)
                    .map(|_| (0..3).map(|_| rng.uniform_in(0.5, 2.0)).collect())
                    .collect(),
            };
            let exact = brute_force(&p);
            let r = BranchAndBound::new().solve(&p);
            assert_eq!(r.outcome, BnbOutcome::Optimal);
            assert!((r.best_cost - exact).abs() < 1e-9, "bnb {} vs brute {}", r.best_cost, exact);
        }
    }

    #[test]
    fn budget_exhaustion_reports_bound() {
        let mut rng = Pcg32::seed(5);
        let p = QuadLoad {
            players: 12,
            resources: 4,
            weights: (0..12).map(|_| (0..4).map(|_| rng.uniform_in(0.5, 2.0)).collect()).collect(),
        };
        let r = BranchAndBound::new().with_node_budget(10).solve(&p);
        // Either finished tiny tree (unlikely) or exhausted with a bound.
        if r.outcome == BnbOutcome::BudgetExhausted {
            assert!(r.lower_bound <= r.best_cost);
            assert!(r.best_choices.is_some());
        }
    }

    #[test]
    fn warm_start_incumbent_prunes_to_same_optimum() {
        let mut rng = Pcg32::seed(7);
        let p = QuadLoad {
            players: 6,
            resources: 3,
            weights: (0..6).map(|_| (0..3).map(|_| rng.uniform_in(0.5, 2.0)).collect()).collect(),
        };
        let cold = BranchAndBound::new().solve(&p);
        // Any feasible assignment works as incumbent; use all-zeros.
        let warm = BranchAndBound::new().solve_with_incumbent(&p, Some(&[0, 0, 0, 0, 0, 0]));
        assert_eq!(warm.outcome, BnbOutcome::Optimal);
        assert!((warm.best_cost - cold.best_cost).abs() < 1e-9);
        assert!(warm.nodes_expanded <= cold.nodes_expanded + 1);
    }

    /// Problem where some branches are infeasible.
    struct Gated;
    impl SequentialProblem for Gated {
        type State = u32;
        fn num_stages(&self) -> usize {
            2
        }
        fn num_choices(&self, _stage: usize) -> usize {
            2
        }
        fn root_state(&self) -> u32 {
            0
        }
        fn apply(&self, state: &u32, _stage: usize, choice: usize) -> Option<(u32, f64)> {
            // Choice 1 is always infeasible.
            if choice == 1 {
                None
            } else {
                Some((*state, 1.0 + *state as f64))
            }
        }
        fn completion_bound(&self, _: &u32, _: usize) -> f64 {
            0.0
        }
    }

    #[test]
    fn infeasible_choices_skipped() {
        let r = BranchAndBound::new().solve(&Gated);
        assert_eq!(r.outcome, BnbOutcome::Optimal);
        assert_eq!(r.best_choices, Some(vec![0, 0]));
    }

    /// Fully infeasible problem.
    struct NoWay;
    impl SequentialProblem for NoWay {
        type State = ();
        fn num_stages(&self) -> usize {
            1
        }
        fn num_choices(&self, _stage: usize) -> usize {
            3
        }
        fn root_state(&self) {}
        fn apply(&self, _: &(), _: usize, _: usize) -> Option<((), f64)> {
            None
        }
        fn completion_bound(&self, _: &(), _: usize) -> f64 {
            0.0
        }
    }

    #[test]
    fn infeasible_problem_detected() {
        let r = BranchAndBound::new().solve(&NoWay);
        assert_eq!(r.outcome, BnbOutcome::Infeasible);
        assert!(r.best_choices.is_none());
        assert!(r.best_cost.is_infinite());
    }

    #[test]
    #[should_panic(expected = "incumbent length")]
    fn bad_incumbent_length_panics() {
        let p = TableProblem { costs: vec![vec![1.0]] };
        BranchAndBound::new().solve_with_incumbent(&p, Some(&[0, 0]));
    }
}
