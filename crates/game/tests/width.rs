//! Width equivalence of the range-split MaxGain kernel: a solve split over
//! 2 or 3 player ranges (one thread each) must make exactly the moves of
//! the serial scan — same `CgbaReport`, same `moves()`, same `probes()` —
//! with or without a strategy filter, at λ = 0 and λ > 0, converged or cut
//! short by `should_stop`, cold or warm. Widths are set explicitly, so
//! the tests split the same way on any host.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ThreadId;
use std::time::Duration;

use eotora_game::{
    cgba_from, CgbaConfig, CgbaReport, CgbaScratch, CongestionGame, GameRef, GameStructure,
    Profile, ResourceWeights, StrategyFilter,
};
use eotora_util::rng::Pcg32;
use proptest::prelude::*;

/// Entries the test games have at least: the kernel's split cutoff (3,360).
/// A game under it would scan serially at any width, which `solve_at`
/// asserts against.
const SPLIT_ENTRIES: usize = 3_360;

/// A random valid game with at least [`SPLIT_ENTRIES`] entries — the
/// sizes the kernel actually splits. Each strategy uses one to three
/// distinct resources, like the P2-A game's (server, access, fronthaul)
/// bundles.
fn split_size_game(rng: &mut Pcg32, players: usize, resources: usize) -> CongestionGame {
    let weights: Vec<f64> = (0..resources).map(|_| rng.uniform_in(0.2, 3.0)).collect();
    let mut game = CongestionGame::new(weights);
    let per_player = SPLIT_ENTRIES.div_ceil(players);
    for _ in 0..players {
        let num_strats = per_player + rng.below(per_player / 2 + 1);
        let strategies = (0..num_strats)
            .map(|_| {
                let mut strategy: Vec<(usize, f64)> = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let r = rng.below(resources);
                    if !strategy.iter().any(|&(sr, _)| sr == r) {
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

/// One solve at `width` on a fresh scratch: the report, the move trace
/// and the probe count.
fn solve_at(
    width: usize,
    game: &CongestionGame,
    initial: &Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    stop_after: usize,
) -> (CgbaReport, Vec<(usize, usize)>, u64) {
    let mut scratch = CgbaScratch::default();
    scratch.set_threads(width);
    let mut polls = 0;
    let should_stop = || {
        polls += 1;
        polls > stop_after
    };
    let report = cgba_from(game, initial.clone(), config, filter, should_stop, false, &mut scratch);
    assert_eq!(scratch.last_threads(), width, "the solve must split as asked");
    (report, scratch.moves().to_vec(), scratch.probes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    #[test]
    fn split_solves_match_the_serial_scan(
        seed in 0u64..1_000_000,
        players in 40usize..120,
        resources in 6usize..24,
        lambda in 0usize..2,
        filtered in 0usize..2,
        stop in 0usize..3,
    ) {
        let mut rng = Pcg32::seed(seed);
        let game = split_size_game(&mut rng, players, resources);
        let config = CgbaConfig { lambda: [0.0, 0.06][lambda], ..Default::default() };
        let filter = (filtered == 1).then(|| {
            let mut filter = StrategyFilter::allow_all(game.structure());
            for i in 0..players {
                for s in 0..game.strategies(i).len() {
                    if rng.below(4) == 0 {
                        filter.disallow(i, s);
                    }
                }
            }
            filter
        });
        // Never, early, or part-way through the dynamics.
        let stop_after = [usize::MAX, 1 + rng.below(4), 5 + rng.below(60)][stop];
        let initial = Profile::random(&game, &mut rng);

        let serial = solve_at(1, &game, &initial, &config, filter.as_ref(), stop_after);
        prop_assert!(serial.0.iterations > 0);
        prop_assert!(serial.0.converged || stop > 0);
        for width in [2, 3] {
            let split = solve_at(width, &game, &initial, &config, filter.as_ref(), stop_after);
            prop_assert_eq!(&split.0, &serial.0);
            prop_assert_eq!(&split.1, &serial.1);
            prop_assert_eq!(split.2, serial.2);
        }
    }

    /// Warm solves at width 2 — the warm snapshot's selective dirtying,
    /// then a weight update between calls — track the serial scratch move
    /// for move.
    #[test]
    fn split_warm_solves_match_the_serial_scan(
        seed in 0u64..1_000_000,
        players in 40usize..100,
        resources in 6usize..16,
    ) {
        let mut rng = Pcg32::seed(seed);
        let mut game = split_size_game(&mut rng, players, resources);
        let config = CgbaConfig::default();
        let mut serial = CgbaScratch::default();
        let mut split = CgbaScratch::default();
        split.set_threads(2);
        let mut profile = Profile::random(&game, &mut rng);
        for _ in 0..3 {
            let a = cgba_from(&game, profile.clone(), &config, None, || false, true, &mut serial);
            let b = cgba_from(&game, profile.clone(), &config, None, || false, true, &mut split);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(serial.moves(), split.moves());
            prop_assert_eq!(serial.probes(), split.probes());
            prop_assert_eq!(split.last_threads(), 2);
            profile = a.profile;
            let r = rng.below(resources);
            game.set_resource_weight(r, rng.uniform_in(0.2, 3.0));
            profile = Profile::from_choices(&game, profile.choices().to_vec());
        }
    }
}

#[test]
fn panicking_should_stop_propagates_out_of_a_split_solve() {
    let game = split_size_game(&mut Pcg32::seed(5), 64, 12);
    let initial = Profile::random(&game, &mut Pcg32::seed(6));
    let mut polls = 0;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut scratch = CgbaScratch::default();
        scratch.set_threads(2);
        let should_stop = || {
            polls += 1;
            assert!(polls < 4, "deadline probe failed");
            false
        };
        cgba_from(&game, initial, &CgbaConfig::default(), None, should_stop, false, &mut scratch)
    }));
    let payload = outcome.expect_err("the should_stop panic must reach the caller");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default();
    assert!(message.contains("deadline probe failed"), "unexpected panic payload: {message:?}");
    assert_eq!(polls, 4);
}

/// A game that panics when read from any thread but `home` — a stand-in
/// for a fault inside a range thread's phase. Until that fault, every
/// read on `home` sleeps: ranges go to whichever thread claims them
/// first, so a caller at full speed could scan every range before its
/// helper starts, and the fault would never happen.
struct HomeThreadOnly<'a> {
    game: &'a CongestionGame,
    home: ThreadId,
    faulted: AtomicBool,
}

impl GameRef for HomeThreadOnly<'_> {
    fn structure(&self) -> &GameStructure {
        if std::thread::current().id() != self.home {
            self.faulted.store(true, Ordering::Release);
            panic!("range thread fault");
        }
        if !self.faulted.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.game.structure()
    }
    fn weights(&self) -> &ResourceWeights {
        self.game.weights()
    }
}

#[test]
fn panicking_range_thread_propagates_out_of_a_split_solve() {
    let inner = split_size_game(&mut Pcg32::seed(7), 64, 12);
    let game = HomeThreadOnly {
        game: &inner,
        home: std::thread::current().id(),
        faulted: AtomicBool::new(false),
    };
    let initial = Profile::random(&inner, &mut Pcg32::seed(8));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut scratch = CgbaScratch::default();
        scratch.set_threads(2);
        cgba_from(&game, initial, &CgbaConfig::default(), None, || false, false, &mut scratch)
    }));
    assert!(game.faulted.load(Ordering::Acquire), "the helper never scanned a range");
    assert!(outcome.is_err(), "a range thread's panic must fail the solve, not hang or vanish");
}
