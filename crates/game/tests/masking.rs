//! Property tests for fault masking: CGBA on a filtered game must never
//! assign a strategy touching a masked resource, and lifting the filter
//! must restore bit-identical behavior to the never-masked cold path.

use eotora_game::{
    cgba_from, cgba_from_reference, CgbaConfig, CgbaScratch, CongestionGame, Profile,
    SchedulingRule, StrategyFilter,
};
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

/// A deterministic seed profile every player can occupy under `filter`:
/// each player's cheapest-alone allowed strategy. Mirrors the fault-path
/// cold start in `eotora-core`.
fn solo_seed(game: &CongestionGame, filter: &StrategyFilter) -> Profile {
    let choices: Vec<usize> = (0..game.num_players())
        .map(|i| Profile::solo_cheapest_filtered(game, i, filter).expect("player has a strategy"))
        .collect();
    Profile::from_choices(game, choices)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// Masked CGBA never lands any player on a strategy touching a masked
    /// resource (for players the mask leaves a choice; fully-masked players
    /// are re-allowed best-effort and exempt), and the run still converges
    /// to an equilibrium *of the filtered game* — under either scheduling
    /// rule.
    #[test]
    fn masked_cgba_never_touches_masked_resources(
        seed in 0u64..1_000_000,
        players in 1usize..10,
        resources in 2usize..6,
        max_strats in 1usize..5,
        scheduling in 0usize..2,
    ) {
        let mut rng = Pcg32::seed(seed);
        let game = random_game(&mut rng, players, resources, max_strats);
        let mut masked = vec![false; resources];
        // Mask a random non-empty proper subset of resources.
        masked[rng.below(resources)] = true;
        for m in masked.iter_mut() {
            if rng.below(3) == 0 {
                *m = true;
            }
        }
        let mut filter = StrategyFilter::from_masked_resources(game.structure(), &masked);
        // Best-effort: a player with nothing left keeps its full set (and is
        // exempt from the no-masked-resource guarantee below).
        let mut exempt = vec![false; players];
        for (i, e) in exempt.iter_mut().enumerate() {
            if filter.first_allowed(i).is_none() {
                filter.allow_all_for_player(i);
                *e = true;
            }
        }
        let config = CgbaConfig {
            scheduling: [SchedulingRule::MaxGain, SchedulingRule::RoundRobin][scheduling],
            ..Default::default()
        };
        let report = cgba_from(&game, solo_seed(&game, &filter), &config, Some(&filter),
            || false, false, &mut CgbaScratch::default());
        prop_assert!(report.converged);
        for (i, &s) in report.profile.choices().iter().enumerate() {
            prop_assert!(filter.is_allowed(i, s), "player {i} on disallowed strategy {s}");
            if !exempt[i] {
                for &(r, _) in &game.strategies(i)[s] {
                    prop_assert!(!masked[r], "player {i} touches masked resource {r}");
                }
            }
        }
        // Filtered equilibrium: no *allowed* unilateral improvement remains.
        for i in 0..players {
            let cost = report.profile.player_cost(&game, i);
            let (_, br) = report.profile.best_response_filtered(&game, i, &filter)
                .expect("filter leaves every player a strategy");
            prop_assert!(cost <= br + 1e-12, "player {i} can still improve: {cost} > {br}");
        }
    }

    /// Unmasking restores the never-masked cold path bit-for-bit: an
    /// all-allowing filter with no deadline reproduces `cgba_from_reference`
    /// exactly — same moves, same floats, same report.
    #[test]
    fn all_allowed_filter_is_bit_identical_to_reference(
        seed in 0u64..1_000_000,
        players in 1usize..10,
        resources in 1usize..6,
        max_strats in 1usize..5,
        lambda in 0usize..3,
        scheduling in 0usize..2,
    ) {
        let mut rng = Pcg32::seed(seed);
        let game = random_game(&mut rng, players, resources, max_strats);
        let config = CgbaConfig {
            lambda: [0.0, 0.05, 0.12][lambda],
            scheduling: [SchedulingRule::MaxGain, SchedulingRule::RoundRobin][scheduling],
            ..Default::default()
        };
        let initial = Profile::random(&game, &mut Pcg32::seed(seed ^ 0xABCD));
        let filter = StrategyFilter::allow_all(game.structure());
        let reference = cgba_from_reference(&game, initial.clone(), &config);
        let filtered = cgba_from(&game, initial, &config, Some(&filter), || false, false,
            &mut CgbaScratch::default());
        prop_assert_eq!(&filtered, &reference);
    }

    /// Satellite regression: the filtered repair path must land every
    /// displaced player on an *allowed* (reachable) strategy — clamping
    /// alone is not enough when the clamped choice is masked.
    #[test]
    fn filtered_repair_lands_on_allowed_strategies(
        seed in 0u64..1_000_000,
        players in 1usize..10,
        resources in 2usize..6,
        max_strats in 2usize..6,
    ) {
        let mut rng = Pcg32::seed(seed);
        let game = random_game(&mut rng, players, resources, max_strats);
        let masked_r = rng.below(resources);
        let mut masked = vec![false; resources];
        masked[masked_r] = true;
        let mut filter = StrategyFilter::from_masked_resources(game.structure(), &masked);
        for i in 0..players {
            if filter.first_allowed(i).is_none() {
                filter.allow_all_for_player(i);
            }
        }
        // Stale retained choices: deliberately out of range, so the clamp
        // runs first and may land on a masked strategy.
        let stale: Vec<usize> = (0..players).map(|_| usize::MAX - rng.below(3)).collect();
        let (repaired, displaced) =
            Profile::from_retained_choices_filtered(&game, &stale, &filter)
                .expect("player count matches");
        let mut expected_displaced = 0;
        for (i, &s) in repaired.choices().iter().enumerate() {
            prop_assert!(filter.is_allowed(i, s), "repair left player {i} on masked strategy");
            let clamped = (usize::MAX - 2).min(game.strategies(i).len() - 1);
            if !filter.is_allowed(i, clamped) {
                expected_displaced += 1;
            }
        }
        // Every stale index clamps to len-1, so displacement happens exactly
        // when the last strategy is disallowed.
        prop_assert_eq!(displaced, expected_displaced);

        // With an all-allowing filter the repair matches the legacy clamp
        // exactly, with zero displacements.
        let allow_all = StrategyFilter::allow_all(game.structure());
        let (plain, zero) =
            Profile::from_retained_choices_filtered(&game, &stale, &allow_all).unwrap();
        prop_assert_eq!(zero, 0);
        let legacy = Profile::from_retained_choices(&game, &stale).unwrap();
        prop_assert_eq!(plain, legacy);
    }
}

#[test]
fn count_mismatch_is_unrepairable() {
    let mut rng = Pcg32::seed(3);
    let game = random_game(&mut rng, 5, 3, 3);
    let filter = StrategyFilter::allow_all(game.structure());
    assert!(Profile::from_retained_choices_filtered(&game, &[0; 4], &filter).is_none());
    assert!(Profile::from_retained_choices_filtered(&game, &[0; 6], &filter).is_none());
}

#[test]
fn deadline_predicate_stops_the_loop_with_converged_false() {
    let mut rng = Pcg32::seed(21);
    let game = random_game(&mut rng, 8, 4, 4);
    let config = CgbaConfig::default();
    let filter = StrategyFilter::allow_all(game.structure());
    let initial = Profile::random(&game, &mut Pcg32::seed(99));
    let mut scratch = CgbaScratch::default();
    let full =
        cgba_from(&game, initial.clone(), &config, Some(&filter), || false, false, &mut scratch);
    // Stop after two iterations: the loop must return the best-so-far
    // profile without claiming convergence (unless it truly converged in
    // fewer moves).
    let mut polls = 0;
    let cut = cgba_from(
        &game,
        initial,
        &config,
        Some(&filter),
        move || {
            polls += 1;
            polls > 2
        },
        false,
        &mut scratch,
    );
    if full.iterations > 2 {
        assert!(!cut.converged);
        assert_eq!(cut.iterations, 2);
    } else {
        assert_eq!(cut, full);
    }
}
