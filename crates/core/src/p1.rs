//! P1 — the communication-only special case behind Theorem 1.
//!
//! The paper proves EOTO NP-hard by restriction: one slot, zero task sizes,
//! one cluster, infinite fronthaul — leaving only the access-link assignment
//!
//! ```text
//! min_x  Σ_k (1/W^A_k) (Σ_i x_{i,k} √(d_i/h_{i,k}))²
//! s.t.   each device picks exactly one base station.
//! ```
//!
//! This is a weighted quadratic load-balancing problem; with two identical
//! stations and `h_{i,k} ≡ 1` it *is* PARTITION (split weights `√d_i` into
//! two sets with equal sums), which is the essence of the hardness proof.
//! This module makes the special case a first-class object:
//!
//! * [`P1Instance`] — the data, with evaluation and a congestion-game view
//!   (so CGBA applies verbatim),
//! * [`P1Instance::partition_family`] — the PARTITION-shaped instances used
//!   as a hardness witness: exact search cost grows exponentially while CGBA
//!   stays polynomial (exercised in the tests and benches),
//! * exact solving via the same branch-and-bound as P2-A,
//! * [`hardness_witness`] — the rows `figures -- --ablations` prints.

use eotora_game::{cgba, CgbaConfig, CongestionGame};
use eotora_optim::branch_bound::{BnbOutcome, BranchAndBound, SequentialProblem};
use eotora_util::rng::Pcg32;

/// A P1 instance: `I` devices, `K` stations, per-station bandwidth and
/// per-pair channel quality.
#[derive(Debug, Clone, PartialEq)]
pub struct P1Instance {
    /// Access bandwidths `W^A_k` in Hz.
    pub bandwidth_hz: Vec<f64>,
    /// Data lengths `d_i` in bits.
    pub data_bits: Vec<f64>,
    /// Spectral efficiencies `h[i][k]` in bit/s/Hz.
    pub efficiency: Vec<Vec<f64>>,
}

impl P1Instance {
    /// Creates an instance, validating dimensions and positivity.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is empty/mismatched or a value non-positive.
    pub fn new(bandwidth_hz: Vec<f64>, data_bits: Vec<f64>, efficiency: Vec<Vec<f64>>) -> Self {
        assert!(!bandwidth_hz.is_empty() && !data_bits.is_empty(), "empty instance");
        assert_eq!(efficiency.len(), data_bits.len(), "one efficiency row per device");
        for row in &efficiency {
            assert_eq!(row.len(), bandwidth_hz.len(), "one efficiency per station");
            assert!(row.iter().all(|&h| h > 0.0), "efficiencies must be positive");
        }
        assert!(bandwidth_hz.iter().all(|&w| w > 0.0), "bandwidths must be positive");
        assert!(data_bits.iter().all(|&d| d > 0.0), "data lengths must be positive");
        Self { bandwidth_hz, data_bits, efficiency }
    }

    /// Number of devices `I`.
    pub fn num_devices(&self) -> usize {
        self.data_bits.len()
    }

    /// Number of stations `K`.
    pub fn num_stations(&self) -> usize {
        self.bandwidth_hz.len()
    }

    /// The per-pair load weight `√(d_i / h_{i,k})`.
    pub fn weight(&self, i: usize, k: usize) -> f64 {
        (self.data_bits[i] / self.efficiency[i][k]).sqrt()
    }

    /// Objective value of an assignment (one station index per device).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` has the wrong length or an index out of range.
    pub fn objective(&self, assignment: &[usize]) -> f64 {
        assert_eq!(assignment.len(), self.num_devices(), "one station per device");
        let mut loads = vec![0.0; self.num_stations()];
        for (i, &k) in assignment.iter().enumerate() {
            loads[k] += self.weight(i, k);
        }
        loads.iter().zip(&self.bandwidth_hz).map(|(&l, &w)| l * l / w).sum()
    }

    /// The congestion-game view (stations are the only resources), enabling
    /// CGBA and all of `eotora-game` to run on P1 directly.
    pub fn as_game(&self) -> CongestionGame {
        let mut game = CongestionGame::new(self.bandwidth_hz.iter().map(|&w| 1.0 / w).collect());
        for i in 0..self.num_devices() {
            let strategies =
                (0..self.num_stations()).map(|k| vec![(k, self.weight(i, k))]).collect();
            game.add_player(strategies);
        }
        game
    }

    /// PARTITION-shaped hardness witnesses: two identical stations, unit
    /// efficiencies, and `n` integer-ish weights drawn from a narrow band so
    /// that many near-ties exist. The optimal split is (near-)balanced, but
    /// proving it requires exploring exponentially many subsets.
    pub fn partition_family(n: usize, rng: &mut Pcg32) -> Self {
        assert!(n >= 2, "need at least two devices");
        // d_i chosen so √d_i lands in [100, 110]: tight weights maximize ties.
        let data: Vec<f64> = (0..n).map(|_| rng.uniform_in(100.0, 110.0).powi(2)).collect();
        let eff = vec![vec![1.0, 1.0]; n];
        Self::new(vec![1.0, 1.0], data, eff)
    }
}

/// One row of the Theorem 1 hardness witness: exact search effort against
/// CGBA on one PARTITION-shaped instance.
#[derive(Debug, Clone, PartialEq)]
pub struct HardnessRow {
    /// Devices `n` split over the two stations.
    pub devices: usize,
    /// Branch-and-bound nodes expanded to prove the optimum.
    pub exact_nodes: usize,
    /// The proven optimum.
    pub optimum: f64,
    /// CGBA(0)'s cost from a random start.
    pub cgba_cost: f64,
    /// CGBA best-response moves to equilibrium.
    pub cgba_moves: usize,
}

/// Solves one [`P1Instance::partition_family`] instance per size in `sizes`
/// exactly (to proof, under the default node budget) and by CGBA(0). Each
/// size draws from its own stream of `seed`, so a size's row does not
/// depend on which other sizes run.
///
/// # Panics
///
/// Panics if the node budget runs out before an optimum is proven.
pub fn hardness_witness(sizes: &[usize], seed: u64) -> Vec<HardnessRow> {
    sizes
        .iter()
        .map(|&n| {
            let mut rng = Pcg32::seed_stream(seed, n as u64);
            let p = P1Instance::partition_family(n, &mut rng);
            let exact = BranchAndBound::new().solve(&P1Sequential { instance: &p });
            assert_eq!(exact.outcome, BnbOutcome::Optimal, "n = {n}: optimum not proven");
            let report = cgba(&p.as_game(), &CgbaConfig::default(), &mut rng);
            HardnessRow {
                devices: n,
                exact_nodes: exact.nodes_expanded,
                optimum: exact.best_cost,
                cgba_cost: report.total_cost,
                cgba_moves: report.iterations,
            }
        })
        .collect()
}

struct P1Sequential<'a> {
    instance: &'a P1Instance,
}

impl SequentialProblem for P1Sequential<'_> {
    type State = (Vec<f64>, f64); // (loads, cost)

    fn num_stages(&self) -> usize {
        self.instance.num_devices()
    }

    fn num_choices(&self, _stage: usize) -> usize {
        self.instance.num_stations()
    }

    fn root_state(&self) -> Self::State {
        (vec![0.0; self.instance.num_stations()], 0.0)
    }

    fn apply(
        &self,
        state: &Self::State,
        stage: usize,
        choice: usize,
    ) -> Option<(Self::State, f64)> {
        let (loads, cost) = state;
        let w = self.instance.weight(stage, choice);
        let inv_bw = 1.0 / self.instance.bandwidth_hz[choice];
        let delta = inv_bw * (2.0 * loads[choice] * w + w * w);
        let mut nl = loads.clone();
        nl[choice] += w;
        let nc = cost + delta;
        Some(((nl, nc), nc))
    }

    fn completion_bound(&self, state: &Self::State, stage: usize) -> f64 {
        let (loads, _) = state;
        (stage..self.num_stages())
            .map(|i| {
                (0..self.instance.num_stations())
                    .map(|k| {
                        let w = self.instance.weight(i, k);
                        (2.0 * loads[k] * w + w * w) / self.instance.bandwidth_hz[k]
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_game::Profile;

    impl P1Instance {
        /// Solves with CGBA(0) from a random start; returns `(assignment, cost)`.
        fn solve_cgba(&self, rng: &mut Pcg32) -> (Vec<usize>, f64) {
            let game = self.as_game();
            let report = cgba(&game, &CgbaConfig::default(), rng);
            let cost = report.total_cost;
            (report.profile.choices().to_vec(), cost)
        }

        /// Exact solve by branch-and-bound; `(assignment, cost, proven)`.
        fn solve_exact(&self, node_budget: usize) -> (Vec<usize>, f64, bool) {
            let seq = P1Sequential { instance: self };
            let result = BranchAndBound::new().with_node_budget(node_budget).solve(&seq);
            let choices = result.best_choices.expect("P1 always feasible");
            (choices, result.best_cost, result.outcome == BnbOutcome::Optimal)
        }
    }

    fn brute_force(p: &P1Instance) -> f64 {
        let (i, k) = (p.num_devices(), p.num_stations());
        let mut best = f64::INFINITY;
        for code in 0..k.pow(i as u32) {
            let mut c = code;
            let assignment: Vec<usize> = (0..i)
                .map(|_| {
                    let v = c % k;
                    c /= k;
                    v
                })
                .collect();
            best = best.min(p.objective(&assignment));
        }
        best
    }

    #[test]
    fn objective_matches_game_social_cost() {
        let mut rng = Pcg32::seed(1);
        let p = P1Instance::partition_family(6, &mut rng);
        let game = p.as_game();
        for _ in 0..20 {
            let assignment: Vec<usize> = (0..6).map(|_| rng.below(2)).collect();
            let via_game = Profile::from_choices(&game, assignment.clone()).total_cost(&game);
            assert!((via_game - p.objective(&assignment)).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_matches_brute_force_on_small_instances() {
        let mut rng = Pcg32::seed(2);
        for n in [4usize, 6, 8] {
            let p = P1Instance::partition_family(n, &mut rng);
            let (_, cost, proven) = p.solve_exact(1_000_000);
            assert!(proven);
            assert!((cost - brute_force(&p)).abs() < 1e-6 * cost);
        }
    }

    #[test]
    fn partition_optimum_is_nearly_balanced() {
        let mut rng = Pcg32::seed(3);
        let p = P1Instance::partition_family(10, &mut rng);
        let (assignment, _, proven) = p.solve_exact(5_000_000);
        assert!(proven);
        let mut loads = [0.0; 2];
        for (i, &k) in assignment.iter().enumerate() {
            loads[k] += p.weight(i, k);
        }
        let imbalance = (loads[0] - loads[1]).abs() / (loads[0] + loads[1]);
        assert!(imbalance < 0.05, "optimal split should be near-balanced: {loads:?}");
    }

    #[test]
    fn cgba_stays_within_theorem_bound_on_p1() {
        let mut rng = Pcg32::seed(4);
        for n in [6usize, 8, 10] {
            let p = P1Instance::partition_family(n, &mut rng);
            let (_, opt, proven) = p.solve_exact(5_000_000);
            assert!(proven);
            let (_, cgba_cost) = p.solve_cgba(&mut rng);
            assert!(cgba_cost <= 2.62 * opt + 1e-9, "n={n}: {cgba_cost} vs opt {opt}");
        }
    }

    #[test]
    fn hardness_witness_node_growth() {
        // The B&B effort on partition instances grows rapidly with n while
        // CGBA converges in a handful of moves — the practical face of
        // Theorem 1. (Kept small: the point is the *trend*.)
        let mut rng = Pcg32::seed(5);
        let nodes = |n: usize, rng: &mut Pcg32| {
            let p = P1Instance::partition_family(n, rng);
            let seq = P1Sequential { instance: &p };
            let r = BranchAndBound::new().solve(&seq);
            assert_eq!(r.outcome, BnbOutcome::Optimal);
            r.nodes_expanded
        };
        let small = nodes(6, &mut rng);
        let large = nodes(12, &mut rng);
        assert!(
            large > 4 * small,
            "exact effort should blow up: {small} nodes at n=6 vs {large} at n=12"
        );
    }

    #[test]
    fn heterogeneous_bandwidths_shift_load() {
        // A 4x-faster station should carry (weighted) more load at optimum.
        let p = P1Instance::new(vec![4.0, 1.0], vec![1.0; 8], vec![vec![1.0, 1.0]; 8]);
        let (assignment, _, proven) = p.solve_exact(1_000_000);
        assert!(proven);
        let fast = assignment.iter().filter(|&&k| k == 0).count();
        let slow = assignment.len() - fast;
        assert!(fast > slow, "fast station should carry more devices: {assignment:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_inputs() {
        P1Instance::new(vec![1.0], vec![0.0], vec![vec![1.0]]);
    }
}
