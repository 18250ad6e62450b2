//! Approximation-quality integration tests: CGBA and BDMA against exact
//! optima on instances small enough to certify.

use eotora_core::baselines::ExactSolver;
use eotora_core::bdma::{solve_p2, BdmaConfig, P2aSolver};
use eotora_core::p2a::P2aProblem;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::{CgbaSolver, SlotWorkspace};
use eotora_obs::NoopRecorder;
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn tiny_p2a(devices: usize, seed: u64) -> P2aProblem {
    let system = MecSystem::random(&SystemConfig::tiny(devices), seed);
    let mut provider = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
    let state = provider.observe(0, system.topology());
    P2aProblem::build(&system, &state, &system.min_frequencies())
}

#[test]
fn cgba_is_near_optimal_on_certifiable_instances() {
    // The paper reports CGBA(0) ≈ 1.02 × OPT (Fig. 4). On tiny instances we
    // can prove optimality and check the same band.
    let mut worst_ratio: f64 = 1.0;
    for seed in 0..10u64 {
        let p2a = tiny_p2a(5, 200 + seed);
        let mut rng = Pcg32::seed(seed);
        let report = ExactSolver { node_budget: 2_000_000, warm_start: false }
            .solve_with_report(&p2a, &mut rng);
        assert!(report.proven_optimal, "instance must be certifiable");
        let mut rng = Pcg32::seed(seed + 50);
        let cgba = CgbaSolver::default()
            .solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder)
            .unwrap();
        let ratio = p2a.total_latency(&cgba) / report.latency;
        assert!(ratio <= 2.62 + 1e-9, "Theorem 2 violated: {ratio}");
        worst_ratio = worst_ratio.max(ratio);
    }
    // Empirical near-optimality, matching the paper's observation.
    assert!(worst_ratio < 1.25, "CGBA should be near optimal, worst ratio {worst_ratio}");
}

#[test]
fn bdma_more_rounds_and_lambda_zero_never_lose_to_lambda_high() {
    // Sanity across the BDMA stack: z=5, λ=0 should be at least as good on
    // the P2 objective as z=1, λ=0.12 with the same randomness.
    let system = MecSystem::random(&SystemConfig::paper_defaults(15), 31);
    let mut provider = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 31);
    let state = provider.observe(0, system.topology());
    let (v, q) = (100.0, 20.0);

    let mut strong = CgbaSolver::new(0.0, 1);
    let mut weak = CgbaSolver::new(0.12, 1);
    let mut rng_a = Pcg32::seed(1);
    let mut rng_b = Pcg32::seed(1);
    let solve = |rounds: usize, solver: &mut CgbaSolver, rng: &mut Pcg32| {
        let (config, ws) = (BdmaConfig { rounds, ..Default::default() }, &mut SlotWorkspace::new());
        solve_p2(&system, &state, v, q, &config, solver, ws, rng, 0, &NoopRecorder, None).unwrap()
    };
    let good = solve(5, &mut strong, &mut rng_a).solution;
    let rough = solve(1, &mut weak, &mut rng_b).solution;
    assert!(good.objective <= rough.objective + 1e-9);
}

#[test]
fn exact_lower_bound_is_sound_under_any_budget() {
    // Truncated searches must never certify a bound above a feasible value.
    for seed in 0..5u64 {
        let p2a = tiny_p2a(7, 300 + seed);
        let mut rng = Pcg32::seed(seed);
        let full = ExactSolver { node_budget: 2_000_000, warm_start: false }
            .solve_with_report(&p2a, &mut rng);
        assert!(full.proven_optimal);
        for budget in [1usize, 10, 100, 1_000] {
            let mut rng = Pcg32::seed(seed);
            let truncated = ExactSolver { node_budget: budget, warm_start: true }
                .solve_with_report(&p2a, &mut rng);
            assert!(
                truncated.lower_bound <= full.latency + 1e-9,
                "budget {budget}: bound {} exceeds optimum {}",
                truncated.lower_bound,
                full.latency
            );
            assert!(truncated.latency >= full.latency - 1e-9, "incumbent beats optimum");
        }
    }
}

#[test]
fn game_potential_bounds_social_cost_identity() {
    // Across real instances: Σ_i T_i == Σ_r m_r p_r² and Φ ≤ Σ_i T_i ≤ 2Φ
    // (standard potential sandwich for affine congestion games).
    let p2a = tiny_p2a(10, 400);
    let game = p2a.game();
    let mut rng = Pcg32::seed(9);
    for _ in 0..50 {
        let profile = eotora_game::Profile::random(game, &mut rng);
        let total = profile.total_cost(game);
        let by_player: f64 = (0..game.num_players()).map(|i| profile.player_cost(game, i)).sum();
        assert!((total - by_player).abs() <= 1e-9 * total.max(1.0));
        let phi = profile.potential(game);
        assert!(phi <= total + 1e-9, "Φ ≤ T");
        assert!(total <= 2.0 * phi + 1e-9, "T ≤ 2Φ");
    }
}
