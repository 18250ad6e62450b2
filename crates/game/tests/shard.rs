//! Property tests for the shard layer (satellites of the sharded slot
//! solve): [`ShardPlan::compute`] always yields a true partition, and on
//! separable games the per-shard CGBA runs are move-for-move identical to
//! the global MaxGain reference — the restriction argument the sharded
//! solver's decision-identity guarantee rests on.

use eotora_game::{
    cgba_from, CgbaConfig, CgbaScratch, CongestionGame, Profile, ShardPlan, SplitGame,
};
use eotora_util::rng::Pcg32;
use proptest::prelude::*;

/// `blocks` disconnected blocks of `res_per_block` resources each, with
/// `players_per_block` players per block added round-robin (so shard-local
/// player order interleaves with global order). Every strategy bundles
/// resources from its own block only — the resource graph has exactly
/// `blocks` connected components.
fn block_game(
    rng: &mut Pcg32,
    blocks: usize,
    players_per_block: usize,
    res_per_block: usize,
) -> CongestionGame {
    let weights: Vec<f64> = (0..blocks * res_per_block).map(|_| rng.uniform_in(0.2, 3.0)).collect();
    let mut game = CongestionGame::new(weights);
    for _ in 0..players_per_block {
        for b in 0..blocks {
            let base = b * res_per_block;
            // Every strategy bundles the block's shared last resource (like
            // the paper's fronthaul link), so the block's used resources
            // form a single connected component and no player is cut.
            let shared = base + res_per_block - 1;
            let num_strats = 2 + rng.below(2);
            let strategies = (0..num_strats)
                .map(|_| {
                    let forced = base + rng.below(res_per_block - 1);
                    let mut strategy = Vec::new();
                    for r in base..shared {
                        if r == forced || rng.below(2) == 0 {
                            strategy.push((r, rng.uniform_in(0.1, 2.0)));
                        }
                    }
                    strategy.push((shared, rng.uniform_in(0.1, 2.0)));
                    strategy
                })
                .collect();
            game.add_player(strategies);
        }
    }
    game.validate().expect("generated game is valid");
    game
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// Whatever the topology (separable, cut players, or a refused cut
    /// collapsing to the trivial plan), the plan is a true partition:
    /// every player lands in exactly one shard, no resource lands in two,
    /// shard player lists stay in ascending global order, and every
    /// retained strategy uses only its shard's resources (all of them, via
    /// the identity map, for non-cut players).
    #[test]
    fn plan_is_a_true_partition(
        seed in 0u64..500,
        blocks in 2usize..5,
        players_per_block in 1usize..4,
        cuts in 0usize..3,
    ) {
        let mut rng = Pcg32::seed(seed);
        let mut game = block_game(&mut rng, blocks, players_per_block, 3);
        for c in 0..cuts {
            let left = c % (blocks - 1);
            game.add_player(vec![
                vec![(left * 3, 1.0), (left * 3 + 1, 0.5)],
                vec![((left + 1) * 3, 1.0)],
            ]);
        }
        game.validate().expect("cut-extended game is valid");
        let plan = ShardPlan::compute(game.structure(), 0);

        let mut player_owner = vec![0usize; game.num_players()];
        let mut resource_owner = vec![0usize; game.num_resources()];
        for spec in plan.shards() {
            prop_assert!(spec.players().windows(2).all(|w| w[0] < w[1]));
            for &p in spec.players() {
                player_owner[p] += 1;
            }
            for &r in spec.resources() {
                resource_owner[r] += 1;
            }
        }
        prop_assert!(player_owner.iter().all(|&n| n == 1));
        // Resources never land in two shards; player-less components are
        // dropped from non-trivial plans, so coverage is only exact on the
        // trivial fallback.
        prop_assert!(resource_owner.iter().all(|&n| n <= 1));
        if plan.is_trivial() {
            prop_assert!(resource_owner.iter().all(|&n| n == 1));
        }

        for spec in plan.shards() {
            let in_shard: std::collections::HashSet<usize> =
                spec.resources().iter().copied().collect();
            for (li, &gi) in spec.players().iter().enumerate() {
                let map = spec.strategy_map(li);
                // An empty map is the identity and only non-cut players
                // (whose every strategy survives) may use it.
                let retained: Vec<usize> = if map.is_empty() {
                    prop_assert!(plan.is_trivial() || !plan.is_cut(gi));
                    (0..game.strategies(gi).len()).collect()
                } else {
                    prop_assert!(plan.is_cut(gi));
                    prop_assert!(map.windows(2).all(|w| w[0] < w[1]));
                    map.iter().map(|&s| s as usize).collect()
                };
                prop_assert!(!retained.is_empty());
                for gs in retained {
                    for &(r, _) in &game.strategies(gi)[gs] {
                        prop_assert!(
                            in_shard.contains(&r),
                            "player {} strategy {} uses resource {} outside its shard",
                            gi, gs, r
                        );
                    }
                }
            }
        }
    }

    /// On separable games, running CGBA per shard reproduces the global
    /// MaxGain run exactly: the global mover sequence restricted to a
    /// shard's players equals that shard's own mover sequence, and the
    /// merged converged choices equal the global ones.
    #[test]
    fn per_shard_solve_matches_global_move_for_move(
        seed in 0u64..300,
        blocks in 2usize..5,
        players_per_block in 1usize..4,
    ) {
        let mut rng = Pcg32::seed(seed);
        let game = block_game(&mut rng, blocks, players_per_block, 3);
        let config = CgbaConfig::default();
        let initial: Vec<usize> =
            (0..game.num_players()).map(|i| rng.below(game.strategies(i).len())).collect();

        let mut global_scratch = CgbaScratch::default();
        let report = cgba_from(
            &game,
            Profile::from_choices(&game, initial.clone()),
            &config,
            None,
            || false,
            false,
            &mut global_scratch,
        );
        prop_assert!(report.converged);

        let plan = ShardPlan::compute(game.structure(), 0);
        prop_assert_eq!(plan.num_shards(), blocks);
        prop_assert!(plan.cut_players().is_empty());

        let locals = plan.split_choices(&initial);
        let mut merged = vec![usize::MAX; game.num_players()];
        let mut shard_moves: Vec<Vec<(usize, usize)>> = Vec::new();
        for (s, spec) in plan.shards().iter().enumerate() {
            let (ls, lw) = spec.build_local(game.structure(), game.weights());
            let local = SplitGame { structure: &ls, weights: &lw };
            let mut scratch = CgbaScratch::default();
            let r = cgba_from(
                &local,
                Profile::from_choices(&local, locals[s].clone()),
                &config,
                None,
                || false,
                false,
                &mut scratch,
            );
            prop_assert!(r.converged);
            shard_moves.push(
                scratch
                    .moves()
                    .iter()
                    .map(|&(li, lsi)| (spec.players()[li], spec.global_strategy(li, lsi)))
                    .collect(),
            );
            for (li, &gi) in spec.players().iter().enumerate() {
                merged[gi] = spec.global_strategy(li, r.profile.choices()[li]);
            }
        }

        for (s, spec) in plan.shards().iter().enumerate() {
            let members: std::collections::HashSet<usize> =
                spec.players().iter().copied().collect();
            let restricted: Vec<(usize, usize)> = global_scratch
                .moves()
                .iter()
                .copied()
                .filter(|&(i, _)| members.contains(&i))
                .collect();
            prop_assert_eq!(&restricted, &shard_moves[s], "shard {} mover sequence diverged", s);
        }
        prop_assert_eq!(merged, report.profile.choices().to_vec());
    }
}
