//! Fig. 4 & 5 — P2-A objective and wall-clock comparison:
//! CGBA(0) vs ROPT vs MCBA vs the exact optimum.
//!
//! Paper shapes: CGBA(0) is near-optimal (~1.02× OPT) and below MCBA and
//! ROPT; CGBA runs orders of magnitude faster than the exact solver, whose
//! time (like MCBA's) grows with `I`; ROPT's time is negligible and flat.

use std::time::Instant;

use eotora_core::baselines::{ExactSolver, McbaSolver, RoptSolver};
use eotora_core::bdma::P2aSolver;
use eotora_core::p2a::P2aProblem;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::CgbaSolver;
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2aComparisonConfig {
    /// Device counts to sweep (paper: 80, 90, …, 120).
    pub device_counts: Vec<usize>,
    /// Independent trials averaged per point.
    pub trials: usize,
    /// MCBA proposal steps per solve, per device (total = this × I, so the
    /// sampler's work grows with the instance as in the paper's Fig. 5).
    pub mcba_iterations_per_device: usize,
    /// Node budget for the exact solver (anytime incumbent + bound beyond).
    pub exact_node_budget: usize,
    /// Master seed.
    pub seed: u64,
}

impl P2aComparisonConfig {
    /// The paper's Fig. 4–5 sweep.
    ///
    /// The exact solver's node budget is kept modest: at I ≈ 100 no
    /// branch-and-bound (nor Gurobi, in reasonable time) proves optimality,
    /// so the run is anytime — warm-started at CGBA's solution, improving it
    /// when possible, and always reporting the certified lower bound.
    pub fn paper() -> Self {
        Self {
            device_counts: vec![80, 90, 100, 110, 120],
            trials: 3,
            mcba_iterations_per_device: 50,
            exact_node_budget: 2_000,
            seed: 2023,
        }
    }

    /// A fast scaled-down sweep for tests.
    pub fn small() -> Self {
        Self {
            device_counts: vec![8, 12],
            trials: 2,
            mcba_iterations_per_device: 50,
            exact_node_budget: 5_000,
            seed: 7,
        }
    }
}

/// Mean objective and wall time for one algorithm at one device count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoPoint {
    /// Mean P2-A objective (total latency `T_t`, seconds).
    pub objective: f64,
    /// Mean wall-clock solve time in seconds.
    pub time_s: f64,
}

/// One sweep point (fixed `I`), all algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2aComparisonRow {
    /// Number of devices `I`.
    pub devices: usize,
    /// CGBA(0).
    pub cgba: AlgoPoint,
    /// MCBA.
    pub mcba: AlgoPoint,
    /// ROPT.
    pub ropt: AlgoPoint,
    /// Exact branch-and-bound (warm-started; incumbent if budget-limited).
    pub exact: AlgoPoint,
    /// Mean certified lower bound from the exact solver.
    pub exact_lower_bound: f64,
    /// Fraction of trials where optimality was proven.
    pub proven_fraction: f64,
}

impl P2aComparisonRow {
    /// CGBA's mean ratio to the exact incumbent (the paper reports ~1.02).
    pub fn cgba_to_opt_ratio(&self) -> f64 {
        self.cgba.objective / self.exact.objective
    }
}

/// Runs the Fig. 4–5 sweep.
pub fn p2a_comparison(config: &P2aComparisonConfig) -> Vec<P2aComparisonRow> {
    config
        .device_counts
        .iter()
        .map(|&devices| {
            let mut acc = [(0.0, 0.0); 4]; // (objective, time) for cgba/mcba/ropt/exact
            let mut lb = 0.0;
            let mut proven = 0usize;
            for trial in 0..config.trials {
                let seed = config.seed + trial as u64 * 1_000;
                let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
                let mut states =
                    StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
                let state = states.observe(0, system.topology());
                let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());

                let mut timed = |solver: &mut dyn P2aSolver, slot: usize, rng_seed: u64| {
                    let mut rng = Pcg32::seed(rng_seed);
                    let started = Instant::now();
                    let choices = solver
                        .solve(&p2a, None, None, &|| false, &mut rng, &eotora_obs::NoopRecorder)
                        .expect("an unmasked solve cannot fail");
                    let elapsed = started.elapsed().as_secs_f64();
                    acc[slot].0 += p2a.total_latency(&choices);
                    acc[slot].1 += elapsed;
                    choices
                };
                let cgba_choices = timed(&mut CgbaSolver::default(), 0, seed + 1);
                timed(
                    &mut McbaSolver::with_iterations(config.mcba_iterations_per_device * devices),
                    1,
                    seed + 2,
                );
                timed(&mut RoptSolver, 2, seed + 3);

                // Warm-start the exact search with CGBA's solution (as one
                // would hand Gurobi a MIP start): OPT ≤ CGBA by construction.
                let exact = ExactSolver { node_budget: config.exact_node_budget, warm_start: true };
                let started = Instant::now();
                let report = exact.solve_with_report_from(&p2a, Some(&cgba_choices));
                acc[3].0 += report.latency;
                acc[3].1 += started.elapsed().as_secs_f64();
                lb += report.lower_bound;
                proven += usize::from(report.proven_optimal);
            }
            let n = config.trials as f64;
            let point = |i: usize| AlgoPoint { objective: acc[i].0 / n, time_s: acc[i].1 / n };
            P2aComparisonRow {
                devices,
                cgba: point(0),
                mcba: point(1),
                ropt: point(2),
                exact: point(3),
                exact_lower_bound: lb / n,
                proven_fraction: proven as f64 / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The small comparison every test reads, computed once per test
    /// binary: each run takes tens of seconds in a debug build.
    fn small_rows() -> &'static [P2aComparisonRow] {
        static ROWS: OnceLock<Vec<P2aComparisonRow>> = OnceLock::new();
        ROWS.get_or_init(|| p2a_comparison(&P2aComparisonConfig::small()))
    }

    #[test]
    fn ordering_matches_paper() {
        let rows = small_rows();
        assert_eq!(rows.len(), 2);
        for r in rows {
            // Fig. 4 ordering: OPT ≤ CGBA ≤ MCBA ≤ ROPT at paper scale. On
            // these scaled-down instances MCMC can out-search a Nash
            // equilibrium (small profile space), so the CGBA-vs-MCBA leg is
            // asserted only at paper scale by the `figures` run; here both
            // must beat ROPT and respect the exact bounds.
            assert!(
                r.exact.objective <= r.cgba.objective + 1e-9,
                "exact > cgba at I={}",
                r.devices
            );
            assert!(r.cgba.objective < r.ropt.objective, "cgba >= ropt at I={}", r.devices);
            assert!(r.mcba.objective < r.ropt.objective, "mcba >= ropt at I={}", r.devices);
            // Theorem 2 bound with certified LB.
            assert!(r.cgba.objective <= 2.62 * r.exact_lower_bound * 1.0001 + 1e-9);
            assert!(r.cgba_to_opt_ratio() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn objectives_grow_with_devices() {
        let rows = small_rows();
        assert!(rows[1].cgba.objective > rows[0].cgba.objective);
        assert!(rows[1].ropt.objective > rows[0].ropt.objective);
    }

    #[test]
    fn ropt_is_fastest() {
        for r in small_rows() {
            assert!(r.ropt.time_s <= r.cgba.time_s);
            assert!(r.ropt.time_s <= r.mcba.time_s);
        }
    }
}
