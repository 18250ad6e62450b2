//! Property test: the incremental dirty-set MaxGain scheduler picks the
//! same mover sequence and final profile as the naive full rescan, across
//! random games and random in-place weight updates (satellite of the
//! zero-rebuild engine refactor).

use eotora_game::{cgba_from, CgbaConfig, CgbaReport, CgbaScratch, CongestionGame, Profile};
use eotora_util::rng::Pcg32;
use proptest::prelude::*;

/// A random valid game: every strategy uses a non-empty set of distinct
/// resources with positive finite weights.
fn random_game(
    rng: &mut Pcg32,
    players: usize,
    resources: usize,
    max_strats: usize,
) -> CongestionGame {
    let weights: Vec<f64> = (0..resources).map(|_| rng.uniform_in(0.2, 3.0)).collect();
    let mut game = CongestionGame::new(weights);
    for _ in 0..players {
        let num_strats = 1 + rng.below(max_strats);
        let strategies = (0..num_strats)
            .map(|_| {
                let forced = rng.below(resources);
                let mut strategy = Vec::new();
                for r in 0..resources {
                    if r == forced || rng.below(3) == 0 {
                        strategy.push((r, rng.uniform_in(0.1, 2.0)));
                    }
                }
                strategy
            })
            .collect();
        game.add_player(strategies);
    }
    game.validate().expect("generated game is valid");
    game
}

/// The pre-refactor MaxGain loop, replicated through the public API only,
/// recording every move it makes.
fn naive_trace(
    game: &CongestionGame,
    initial: Profile,
    config: &CgbaConfig,
) -> (Vec<(usize, usize)>, CgbaReport) {
    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut moves = Vec::new();
    let mut converged = false;
    while moves.len() < config.max_iterations {
        let mut mover: Option<(usize, usize)> = None;
        let mut best_gap = 0.0;
        for i in 0..game.num_players() {
            let cost = profile.player_cost(game, i);
            let (s, br) = profile.best_response(game, i);
            if (1.0 - config.lambda) * cost > br {
                let gap = cost - br;
                if gap > best_gap {
                    best_gap = gap;
                    mover = Some((i, s));
                }
            }
        }
        match mover {
            Some((i, s)) => {
                profile.switch(game, i, s);
                moves.push((i, s));
            }
            None => {
                converged = true;
                break;
            }
        }
    }
    let total_cost = profile.total_cost(game);
    let iterations = moves.len();
    (moves, CgbaReport { profile, total_cost, initial_cost, iterations, converged })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn incremental_matches_naive_rescan(
        seed in 0u64..1_000_000,
        players in 1usize..12,
        resources in 1usize..6,
        max_strats in 1usize..5,
        lambda in 0usize..3,
    ) {
        let mut rng = Pcg32::seed(seed);
        let mut game = random_game(&mut rng, players, resources, max_strats);
        let config = CgbaConfig {
            lambda: [0.0, 0.05, 0.12][lambda],
            ..Default::default()
        };
        let mut scratch = CgbaScratch::default();
        // Solve, then perturb weights in place and re-solve with the SAME
        // scratch — the reuse path must stay equivalent after updates.
        for round in 0..3u64 {
            let initial = Profile::random(&game, &mut Pcg32::seed(seed ^ round));
            let (naive_moves, naive_report) = naive_trace(&game, initial.clone(), &config);
            let report = cgba_from(&game, initial, &config, None, || false, false, &mut scratch);
            prop_assert_eq!(scratch.moves(), &naive_moves[..]);
            prop_assert_eq!(&report, &naive_report);
            prop_assert!(report.converged);

            // Random in-place weight updates: a resource weight and one
            // strategy's player weights.
            let r = rng.below(resources);
            game.set_resource_weight(r, rng.uniform_in(0.2, 3.0));
            let i = rng.below(players);
            let s = rng.below(game.strategies(i).len());
            let fresh: Vec<f64> =
                game.strategies(i)[s].iter().map(|_| rng.uniform_in(0.1, 2.0)).collect();
            game.set_strategy_weights(i, s, &fresh);
        }
    }
}
