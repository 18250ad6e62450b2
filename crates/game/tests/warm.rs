//! Property tests for the warm-start CGBA path: from *any* seed profile —
//! random, the previous converged profile, or deliberately stale choices
//! repaired via [`Profile::from_retained_choices`] — a warm `cgba_from` run
//! must terminate at a true λ-equilibrium and pick the same mover sequence
//! as the pre-refactor naive rescan seeded identically (warm starts change
//! how fast the moves are found, never which moves are made).

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

/// The pre-refactor MaxGain loop through the public API only, recording
/// every move it makes.
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
    #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

    #[test]
    fn warm_path_matches_naive_and_reaches_equilibrium(
        seed in 0u64..1_000_000,
        players in 1usize..10,
        resources in 1usize..6,
        max_strats in 1usize..5,
        lambda in 0usize..3,
    ) {
        let mut rng = Pcg32::seed(seed);
        let mut game = random_game(&mut rng, players, resources, max_strats);
        let config = CgbaConfig { lambda: [0.0, 0.05, 0.12][lambda], ..Default::default() };
        let mut scratch = CgbaScratch::default();
        let mut prev_choices: Option<Vec<usize>> = None;
        // Round 0 starts random; later rounds reuse the previous converged
        // choices, sometimes deliberately staled out of range so the repair
        // path runs too. Weights drift in place between rounds, exactly
        // like successive slots of the online loop.
        for round in 0..4u64 {
            let initial = match &prev_choices {
                None => Profile::random(&game, &mut Pcg32::seed(seed ^ round)),
                Some(choices) => {
                    let mut stale = choices.clone();
                    for c in stale.iter_mut() {
                        if rng.below(4) == 0 {
                            *c += 100; // out of range; repair must clamp
                        }
                    }
                    Profile::from_retained_choices(&game, &stale)
                        .expect("player count unchanged")
                }
            };
            let (naive_moves, naive_report) = naive_trace(&game, initial.clone(), &config);
            let report = cgba_from(&game, initial, &config, None, || false, true, &mut scratch);
            prop_assert_eq!(scratch.moves(), &naive_moves[..]);
            prop_assert_eq!(&report, &naive_report);
            prop_assert!(report.converged);
            // True equilibrium: no improving unilateral move remains.
            prop_assert!(report.profile.is_lambda_equilibrium(&game, config.lambda, 0.0));
            prev_choices = Some(report.profile.choices().to_vec());

            let r = rng.below(resources);
            game.set_resource_weight(r, rng.uniform_in(0.2, 3.0));
            if rng.below(2) == 0 {
                let i = rng.below(players);
                let s = rng.below(game.strategies(i).len());
                let fresh: Vec<f64> =
                    game.strategies(i)[s].iter().map(|_| rng.uniform_in(0.1, 2.0)).collect();
                game.set_strategy_weights(i, s, &fresh);
            }
        }
    }
}

#[test]
fn unchanged_game_warm_rerun_makes_no_moves() {
    // Re-seeding with the converged profile on an untouched game must be
    // recognized as already-converged: zero moves, and (via the snapshot)
    // zero rescans.
    let mut rng = Pcg32::seed(7);
    let game = random_game(&mut rng, 6, 4, 3);
    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    let first = cgba_from(
        &game,
        Profile::random(&game, &mut Pcg32::seed(1)),
        &config,
        None,
        || false,
        true,
        &mut scratch,
    );
    assert!(first.converged);
    let again = cgba_from(
        &game,
        Profile::from_retained_choices(&game, first.profile.choices()).unwrap(),
        &config,
        None,
        || false,
        true,
        &mut scratch,
    );
    assert_eq!(again.iterations, 0);
    assert!(again.converged);
    // Loads are re-summed from scratch by the repair, so compare choices
    // (loads can differ in the last bit from the incremental updates).
    assert_eq!(again.profile.choices(), first.profile.choices());
}

#[test]
fn repair_clamps_or_rejects_stale_choices() {
    let mut rng = Pcg32::seed(11);
    let game = random_game(&mut rng, 5, 3, 4);
    // Out-of-range indices clamp to each player's last strategy.
    let repaired = Profile::from_retained_choices(&game, &[usize::MAX; 5]).unwrap();
    for (i, &c) in repaired.choices().iter().enumerate() {
        assert_eq!(c, game.strategies(i).len() - 1, "player {i}");
    }
    // A player-count mismatch is unrepairable.
    assert!(Profile::from_retained_choices(&game, &[0; 4]).is_none());
    assert!(Profile::from_retained_choices(&game, &[0; 6]).is_none());
}
