//! The paper's P2-A solver: CGBA(λ) best-response dynamics, on the whole
//! game or per BS-cluster shard merged deterministically.
//!
//! [`CgbaSolver::max_shards`] caps the shard count. The default cap `1` is
//! a trivial plan: one CGBA run on the global game, no local copy and no
//! `shard.*` counters — the paper's solver. On topologies whose base
//! stations reach disjoint server clusters (BS islands), the P2-A
//! congestion game is block-diagonal, and a larger cap (or `0`, one shard
//! per component) lets a [`ShardPlan`] split it into independent subgames,
//! each solved by its own CGBA run on a dense shard-local game, with the
//! per-shard choices merged back in a fixed order. Shards run on a bounded
//! [`WorkerPool`], so 100k–1M-device slots scale across cores while the
//! result stays independent of worker count.
//!
//! # Why the merge is decision-identical on separable games
//!
//! A move inside one component never changes costs or best-response gaps in
//! another (disjoint resources). Global MaxGain therefore interleaves
//! per-shard mover sequences; whenever it picks a player from shard `S`,
//! that player has the maximal gap *within `S`* — and the tie-break
//! (strict `>` scanning players in ascending index order, with shard-local
//! player order equal to ascending global order) picks the same player the
//! shard-local scan would. By induction each shard's subsequence equals the
//! shard-local MaxGain sequence from the same split initial profile, so the
//! converged profiles agree move for move. Local games preserve strategy
//! and resource order, so every cost is the *bit-identical* float sum. The
//! solver draws its random initial profile from the **global** game
//! whatever the cap, consuming the same RNG stream — on separable
//! topologies every cap gives the same decisions (pinned by tests).
//!
//! # Cut players and reconciliation
//!
//! Players whose strategy set spans components (devices covered by two
//! islands) are homed to the majority component; their out-of-home
//! strategies are invisible to the shard solve. After the merge, a bounded
//! number ([`RECONCILE_PASSES`]) of global best-response sweeps over the
//! (sorted) cut players restores their full-strategy-set response using
//! the exact CGBA move condition, so the merged profile stays a
//! λ-equilibrium for every non-cut player and the social-cost gap to the
//! sequential solve is small (≤ 1% on weakly cut topologies, pinned by
//! tests). When the cut is not weak, [`ShardPlan::compute`] already
//! collapses to a single shard and this module degrades exactly to the
//! sequential path.
//!
//! # Kernel threads
//!
//! Each shard's CGBA may also split its MaxGain scan over several threads
//! ([`CgbaScratch::set_threads`]; decisions never depend on it). The width
//! takes no knob of its own: it is the process worker count
//! ([`pool::default_workers`], the CLI's `--jobs`) divided by the plan's
//! shard count, at most `MAX_KERNEL_THREADS` (2), and 1 when the solve runs
//! inside a [`WorkerPool`] job (`run_many`, the sweeps, the ablations —
//! their sibling jobs hold the cores). The kernel itself keeps a shard
//! under its entry-count cutoff serial. So the paper's 100-device solve
//! uses both workers of a 2-core host, while a 4-shard plan on 2 workers
//! and every nested solve stay serial.
//!
//! # Seed, filter and deadline
//!
//! A seeded unfiltered solve runs on each shard's warm scratch, so cold
//! solves between warm rounds cannot wipe the warm snapshot. The robust
//! rounds pass a [`StrategyFilter`], projected onto each shard's local
//! view, and a deadline polled by every shard's kernel and before each
//! reconcile move; a shard the deadline cuts short merges its best-so-far
//! profile while the others still converge.

use std::sync::Mutex;

use eotora_game::{
    cgba_from, CgbaConfig, CgbaScratch, CongestionGame, GameRef, GameStructure, Profile,
    ResourceWeights, ShardPlan, SplitGame, StrategyFilter,
};
use eotora_obs::Recorder;
use eotora_util::pool::{self, WorkerPool};
use eotora_util::rng::Pcg32;

use crate::bdma::P2aSolver;
use crate::error::SolveError;
use crate::p2a::P2aProblem;

/// Upper bound on post-merge global best-response sweeps over the cut
/// players. Each sweep visits every cut player once in ascending order and
/// stops early when a sweep makes no move; four sweeps settle the small
/// cross-island interactions a weak cut leaves behind without reopening
/// the whole game.
pub const RECONCILE_PASSES: usize = 4;

/// Most threads one shard's CGBA kernel splits its scan over. Every split
/// measurement so far — the kernel's entry-count cutoff, its ranges per
/// thread and spin limit, and the perfbench pairs — was taken at width 2
/// on a 2-vCPU host; nothing shows wider splits gain on a larger one, and
/// each extra helper is a spinning thread per solve. Raise this only with
/// pairs measured on a host with more cores.
const MAX_KERNEL_THREADS: usize = 2;

/// One shard's solver state: the remapped local game (`None` under a
/// trivial plan, which solves on the global game directly) plus the cold
/// and warm CGBA scratches.
#[derive(Debug)]
struct ShardState {
    local: Option<(GameStructure, ResourceWeights)>,
    scratch: CgbaScratch,
    warm_scratch: CgbaScratch,
}

/// What one shard's CGBA run reports back to the merge.
struct ShardRun {
    choices: Vec<usize>,
    iterations: usize,
    probes: u64,
    converged: bool,
    /// Threads the shard's kernel scanned on.
    threads: usize,
}

/// Runs one shard's CGBA on `game` from `initial` on `scratch`.
fn run_shard<G: GameRef>(
    game: &G,
    initial: Vec<usize>,
    config: &CgbaConfig,
    warm: bool,
    filter: Option<&StrategyFilter>,
    should_stop: &(dyn Fn() -> bool + Sync),
    scratch: &mut CgbaScratch,
) -> ShardRun {
    let initial = Profile::from_choices(game, initial);
    let before = scratch.probes();
    let report = cgba_from(game, initial, config, filter, should_stop, warm, scratch);
    ShardRun {
        choices: report.profile.choices().to_vec(),
        iterations: report.iterations,
        probes: scratch.probes() - before,
        converged: report.converged,
        threads: scratch.last_threads(),
    }
}

/// The paper's [`P2aSolver`]: CGBA(λ), run per shard of a [`ShardPlan`] on
/// a bounded worker pool, then merged deterministically with cut players
/// reconciled. Owns the plan and per-shard state, rebuilt only when the
/// game *shape* or the shard cap changes (per-slot weight updates are
/// synced in place inside the shard jobs), so repeated solves — rounds ×
/// slots — allocate almost nothing.
#[derive(Debug)]
pub struct CgbaSolver {
    /// CGBA parameters (λ, iteration cap, scheduling rule) applied to
    /// every shard.
    pub config: CgbaConfig,
    /// Shard-count cap handed to [`ShardPlan::compute`]: `1` (the default)
    /// solves on the global game, `0` one shard per connected component,
    /// `N` at most `N` shards. On dense topologies the plan collapses to
    /// one shard whatever the cap, so sharding is always safe.
    pub max_shards: usize,
    plan: Option<ShardPlan>,
    /// The `max_shards` the cached plan was computed with.
    planned_shards: usize,
    shards: Vec<Mutex<ShardState>>,
    /// Kernel threads of the widest shard solve in the last solve.
    kernel_threads: usize,
}

impl Default for CgbaSolver {
    /// The paper's CGBA(0) on the global game.
    fn default() -> Self {
        Self::new(0.0, 1)
    }
}

impl CgbaSolver {
    /// CGBA with the given λ and shard cap.
    pub fn new(lambda: f64, max_shards: usize) -> Self {
        Self {
            config: CgbaConfig { lambda, ..Default::default() },
            max_shards,
            plan: None,
            planned_shards: 0,
            shards: Vec::new(),
            kernel_threads: 1,
        }
    }

    /// The plan of the most recent solve, if any — exposes shard counts
    /// and cut players for telemetry and benches.
    pub fn plan(&self) -> Option<&ShardPlan> {
        self.plan.as_ref()
    }

    /// Threads the widest shard's CGBA kernel ran on in the most recent
    /// solve (1 before any solve); see the module docs for the rule.
    pub fn kernel_threads(&self) -> usize {
        self.kernel_threads
    }

    /// (Re)computes the plan and per-shard local games when the shape or
    /// the shard cap changed; otherwise leaves them in place (weights are
    /// synced inside the shard jobs). A trivial plan builds no local game.
    fn ensure_plan(&mut self, game: &CongestionGame) {
        let structure = game.structure();
        if self.planned_shards == self.max_shards
            && self.plan.as_ref().is_some_and(|p| p.matches(structure))
        {
            return;
        }
        let plan = ShardPlan::compute(structure, self.max_shards);
        let trivial = plan.is_trivial();
        self.shards = plan
            .shards()
            .iter()
            .map(|spec| {
                Mutex::new(ShardState {
                    local: (!trivial).then(|| spec.build_local(structure, game.weights())),
                    scratch: CgbaScratch::default(),
                    warm_scratch: CgbaScratch::default(),
                })
            })
            .collect();
        self.plan = Some(plan);
        self.planned_shards = self.max_shards;
    }

    /// The solve body: split `initial_choices`, run CGBA per shard (on the
    /// warm scratch when `warm`), merge, reconcile cut players, emit
    /// counters.
    ///
    /// The filter is projected onto each shard's local view
    /// ([`StrategyFilter::project`]); cut players are reconciled with
    /// filtered best responses, polling `should_stop` before each one. On
    /// separable games with no filter (or an all-allowing one) and a
    /// never-firing `should_stop`, the merged choices equal the sequential
    /// solve move for move (see the module docs).
    fn solve_split(
        &mut self,
        problem: &P2aProblem,
        initial_choices: Vec<usize>,
        warm: bool,
        filter: Option<&StrategyFilter>,
        should_stop: &(dyn Fn() -> bool + Sync),
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        let game = problem.game();
        self.ensure_plan(game);
        let plan = self.plan.as_ref().expect("ensure_plan installed a plan");
        let locals = plan.split_choices(&initial_choices);
        let config = &self.config;
        let structure = game.structure();
        let weights = game.weights();
        let shards = &self.shards;
        // Judged on the calling thread: the shard jobs below may run on
        // pool workers themselves.
        let width = if WorkerPool::in_worker() {
            1
        } else {
            (pool::default_workers() / plan.num_shards()).clamp(1, MAX_KERNEL_THREADS)
        };
        let runs: Vec<ShardRun> = WorkerPool::with_default().map_indexed(plan.num_shards(), |s| {
            let state = &mut *shards[s].lock().expect("shard state poisoned");
            let ShardState { local, scratch, warm_scratch } = state;
            let scratch = if warm { warm_scratch } else { scratch };
            scratch.set_threads(width);
            let initial = locals[s].clone();
            match local {
                // A trivial plan solves on the global game: no local copy,
                // no sync, the filter as given.
                None => run_shard(game, initial, config, warm, filter, should_stop, scratch),
                Some((local_structure, local_weights)) => {
                    let spec = plan.shard(s);
                    spec.sync_local(structure, weights, local_structure, local_weights);
                    let local_filter = filter.map(|f| f.project(spec, local_structure));
                    let local_game =
                        SplitGame { structure: local_structure, weights: local_weights };
                    let filter = local_filter.as_ref();
                    run_shard(&local_game, initial, config, warm, filter, should_stop, scratch)
                }
            }
        });

        self.kernel_threads = runs.iter().map(|r| r.threads).max().unwrap_or(1);
        let mut merged = initial_choices;
        let choice_vecs: Vec<Vec<usize>> = runs.iter().map(|r| r.choices.clone()).collect();
        plan.merge_choices(&choice_vecs, &mut merged);

        let mut reconcile_moves = 0u64;
        if !plan.cut_players().is_empty() {
            let mut profile = Profile::from_choices(game, merged);
            'passes: for _ in 0..RECONCILE_PASSES {
                let mut moved = false;
                for &i in plan.cut_players() {
                    if should_stop() {
                        break 'passes;
                    }
                    let cost = profile.player_cost(game, i);
                    let best = match filter {
                        Some(f) => profile.best_response_filtered(game, i, f),
                        None => Some(profile.best_response(game, i)),
                    };
                    let Some((s, br)) = best else { continue };
                    if (1.0 - self.config.lambda) * cost > br {
                        profile.switch(game, i, s);
                        reconcile_moves += 1;
                        moved = true;
                    }
                }
                if !moved {
                    break;
                }
            }
            merged = profile.choices().to_vec();
        }

        if recorder.is_enabled() {
            let iterations: u64 = runs.iter().map(|r| r.iterations as u64).sum();
            recorder.add(eotora_obs::COUNTER_CGBA_ITERATIONS, iterations);
            recorder.add(eotora_obs::COUNTER_CGBA_PROBES, runs.iter().map(|r| r.probes).sum());
            if warm {
                recorder.add(eotora_obs::COUNTER_CGBA_WARM_MOVES, iterations);
            }
            if runs.iter().all(|r| r.converged) {
                recorder.add(eotora_obs::COUNTER_CGBA_CONVERGED, 1);
            }
            // Cap 1 is the sequential solve: it reports like the paper's
            // solver, with no shard counters.
            if self.max_shards != 1 {
                recorder.add(eotora_obs::COUNTER_SHARD_SOLVES, plan.num_shards() as u64);
                let degraded = runs.iter().filter(|r| !r.converged).count() as u64;
                if degraded > 0 {
                    recorder.add(eotora_obs::COUNTER_SHARD_DEADLINE_DEGRADED, degraded);
                }
                let cut_players = plan.cut_players().len() as u64;
                if cut_players > 0 {
                    recorder.add(eotora_obs::COUNTER_SHARD_CUT_PLAYERS, cut_players);
                    recorder.add(eotora_obs::COUNTER_SHARD_RECONCILE_MOVES, reconcile_moves);
                }
            }
        }
        merged
    }
}

impl P2aSolver for CgbaSolver {
    fn name(&self) -> &'static str {
        if self.max_shards == 1 {
            "CGBA"
        } else {
            "Sharded-CGBA"
        }
    }

    fn solve(
        &mut self,
        problem: &P2aProblem,
        seed: Option<&[usize]>,
        filter: Option<&StrategyFilter>,
        should_stop: &(dyn Fn() -> bool + Sync),
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Result<Vec<usize>, SolveError> {
        let game = problem.game();
        // A seed that no longer matches the game's player count cannot be
        // repaired: draw a random profile instead, from the *global* game
        // whatever the cap, so every cap consumes the same RNG stream.
        let (initial, warm) = match seed.and_then(|c| Profile::from_retained_choices(game, c)) {
            Some(profile) => (profile.choices().to_vec(), filter.is_none()),
            None => (Profile::random(game, rng).choices().to_vec(), false),
        };
        Ok(self.solve_split(problem, initial, warm, filter, should_stop, recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdma::{solve_p2, BdmaConfig};
    use crate::fault::AvailabilityMask;
    use crate::robust::RobustHooks;
    use crate::system::{MecSystem, SystemConfig};
    use crate::workspace::SlotWorkspace;
    use eotora_obs::NoopRecorder;
    use eotora_states::{PaperStateConfig, StateProvider, SystemState};
    use eotora_topology::RandomTopologyConfig;

    /// An unfiltered, never-stopped solve from `seed` (random without one).
    fn unfiltered(
        solver: &mut CgbaSolver,
        problem: &P2aProblem,
        seed: Option<&[usize]>,
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        solver.solve(problem, seed, None, &|| false, rng, recorder).unwrap()
    }

    /// The automatic cap: one shard per connected component.
    fn auto_sharded() -> CgbaSolver {
        CgbaSolver::new(0.0, 0)
    }

    fn island_system(
        devices: usize,
        islands: usize,
        straddlers: usize,
        seed: u64,
    ) -> (MecSystem, SystemState) {
        let mut topology = RandomTopologyConfig::scale_up(devices, islands);
        topology.island_straddlers = straddlers;
        let config = SystemConfig { topology, ..SystemConfig::paper_defaults(devices) };
        let system = MecSystem::random(&config, seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        (system, state)
    }

    #[test]
    fn sharded_solve_is_decision_identical_on_separable_topology() {
        let (system, state) = island_system(48, 4, 0, 7);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut sequential = CgbaSolver::default();
        let mut sharded = auto_sharded();
        let mut rng_a = Pcg32::seed(3);
        let mut rng_b = Pcg32::seed(3);
        let a = unfiltered(&mut sequential, &problem, None, &mut rng_a, &NoopRecorder);
        let b = unfiltered(&mut sharded, &problem, None, &mut rng_b, &NoopRecorder);
        assert_eq!(a, b, "sharded choices diverged from the sequential oracle");
        assert_eq!(rng_a, rng_b, "RNG streams diverged");
        let plan = sharded.plan().unwrap();
        assert!(plan.num_shards() > 1, "island topology produced {} shards", plan.num_shards());
        assert!(plan.cut_players().is_empty());

        // Warm (seeded) path from the converged profile must also agree.
        let a2 = unfiltered(&mut sequential, &problem, Some(&a), &mut rng_a, &NoopRecorder);
        let b2 = unfiltered(&mut sharded, &problem, Some(&b), &mut rng_b, &NoopRecorder);
        assert_eq!(a2, b2);
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn sharded_bdma_solution_matches_sequential_on_separable_topology() {
        let (system, state) = island_system(36, 3, 0, 21);
        let config = BdmaConfig { rounds: 3, ..Default::default() };
        let mut sequential = CgbaSolver::default();
        let mut sharded = auto_sharded();
        let run = |solver: &mut CgbaSolver| {
            let mut ws = SlotWorkspace::new();
            let mut rng = Pcg32::seed(5);
            let rec = &NoopRecorder;
            solve_p2(&system, &state, 100.0, 40.0, &config, solver, &mut ws, &mut rng, 0, rec, None)
                .unwrap()
                .solution
        };
        let sol_a = run(&mut sequential);
        let sol_b = run(&mut sharded);
        assert_eq!(sol_a, sol_b);
    }

    #[test]
    fn straddlers_are_reconciled_within_one_percent_social_cost() {
        let (system, state) = island_system(40, 4, 4, 11);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let game = problem.game();
        let mut sequential = CgbaSolver::default();
        let mut sharded = auto_sharded();
        let a = unfiltered(&mut sequential, &problem, None, &mut Pcg32::seed(9), &NoopRecorder);
        let b = unfiltered(&mut sharded, &problem, None, &mut Pcg32::seed(9), &NoopRecorder);
        let plan = sharded.plan().unwrap();
        assert!(!plan.cut_players().is_empty(), "straddlers should be cut players");
        let cost_a = Profile::from_choices(game, a).total_cost(game);
        let cost_b = Profile::from_choices(game, b.clone()).total_cost(game);
        assert!(
            cost_b <= cost_a * 1.01 + 1e-12,
            "sharded social cost {cost_b} more than 1% above sequential {cost_a}"
        );
        // Reconciliation ran to a fixpoint on this instance: every cut
        // player ends on a global best response (non-cut players may be
        // nudged slightly off theirs by those moves — that is exactly the
        // ≤1% social-cost gap asserted above).
        let profile = Profile::from_choices(game, b);
        for &i in plan.cut_players() {
            let cost = profile.player_cost(game, i);
            let (_, br) = profile.best_response(game, i);
            assert!(cost <= br + 1e-9, "cut player {i} not reconciled: {cost} vs {br}");
        }
    }

    #[test]
    fn dense_paper_topology_degrades_to_single_shard() {
        // paper_defaults coverage makes nearly every device a cut player —
        // the plan must refuse to cut and behave exactly sequentially.
        let system = MecSystem::random(&SystemConfig::paper_defaults(20), 33);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 33);
        let state = p.observe(0, system.topology());
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut sequential = CgbaSolver::default();
        let mut sharded = auto_sharded();
        let a = unfiltered(&mut sequential, &problem, None, &mut Pcg32::seed(1), &NoopRecorder);
        let b = unfiltered(&mut sharded, &problem, None, &mut Pcg32::seed(1), &NoopRecorder);
        assert_eq!(a, b);
        assert!(sharded.plan().unwrap().is_trivial());
    }

    #[test]
    fn filtered_sharded_matches_sequential_with_open_filter() {
        let (system, state) = island_system(30, 3, 0, 13);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let game = problem.game();
        let filter = StrategyFilter::allow_all(game.structure());
        let config = CgbaConfig::default();
        let initial = Profile::random(game, &mut Pcg32::seed(2));
        let mut scratch = CgbaScratch::default();
        let reference =
            cgba_from(game, initial.clone(), &config, Some(&filter), || false, false, &mut scratch);
        let mut sharded = auto_sharded();
        let rec = eotora_obs::LiveRegistry::new();
        let choices = sharded.solve_split(
            &problem,
            initial.choices().to_vec(),
            false,
            Some(&filter),
            &|| false,
            &rec,
        );
        assert!(rec.counter(eotora_obs::COUNTER_SHARD_SOLVES) > 1);
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_DEADLINE_DEGRADED), 0);
        assert_eq!(choices, reference.profile.choices());
        assert_eq!(rec.counter(eotora_obs::COUNTER_CGBA_CONVERGED), 1);
    }

    #[test]
    fn expired_deadline_degrades_every_shard_but_still_merges() {
        let (system, state) = island_system(30, 3, 0, 17);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let game = problem.game();
        let filter = StrategyFilter::allow_all(game.structure());
        let initial = Profile::random(game, &mut Pcg32::seed(4));
        let mut sharded = auto_sharded();
        let rec = eotora_obs::LiveRegistry::new();
        let choices = sharded.solve_split(
            &problem,
            initial.choices().to_vec(),
            false,
            Some(&filter),
            &|| true,
            &rec,
        );
        let shards_used = rec.counter(eotora_obs::COUNTER_SHARD_SOLVES);
        assert!(shards_used > 1);
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_DEADLINE_DEGRADED), shards_used);
        assert_eq!(rec.counter(eotora_obs::COUNTER_CGBA_CONVERGED), 0);
        assert_eq!(choices.len(), game.num_players());
    }

    #[test]
    fn shard_counters_are_emitted() {
        let (system, state) = island_system(40, 4, 2, 19);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut sharded = auto_sharded();
        let rec = eotora_obs::LiveRegistry::new();
        unfiltered(&mut sharded, &problem, None, &mut Pcg32::seed(6), &rec);
        let shards = sharded.plan().unwrap().num_shards() as u64;
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_SOLVES), shards);
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_CUT_PLAYERS), 2);
        assert!(rec.counter(eotora_obs::COUNTER_CGBA_ITERATIONS) > 0);
    }

    /// The paper's 100-device P2-A game (4,800 entries, far above
    /// the kernel's split cutoff) through a few BDMA slots on a 2-worker pool:
    /// the kernel splits in two, plain and under a robust mask, and every
    /// decision and CGBA counter equals the 1-worker serial run. Under the
    /// `naive-check` feature each split iteration is also checked against
    /// the full rescan.
    #[test]
    fn paper_scale_split_kernel_matches_the_serial_solve() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(100), 1);
        let mut provider = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 1);
        let states: Vec<SystemState> =
            (0..2).map(|t| provider.observe(t, system.topology())).collect();
        let mask = AvailabilityMask {
            down_servers: vec![1],
            severed_links: vec![(0, 2)],
            ..Default::default()
        };
        let config = BdmaConfig { rounds: 3, ..Default::default() };
        let run = |workers: usize, mask: Option<&AvailabilityMask>| {
            // Decisions never depend on the worker count, so tests running
            // alongside this one are unaffected by the process-wide value.
            pool::set_default_workers(workers);
            let mut solver = CgbaSolver::default();
            let mut ws = SlotWorkspace::new();
            let mut rng = Pcg32::seed(5);
            let rec = eotora_obs::LiveRegistry::new();
            let solutions: Vec<_> = (0..states.len())
                .map(|t| {
                    let hooks = mask.map(|mask| RobustHooks { mask, deadline: None });
                    let (state, slot) = (&states[t], t as u64);
                    solve_p2(
                        &system,
                        state,
                        100.0,
                        40.0,
                        &config,
                        &mut solver,
                        &mut ws,
                        &mut rng,
                        slot,
                        &rec,
                        hooks,
                    )
                    .unwrap()
                    .solution
                })
                .collect();
            pool::set_default_workers(0);
            let counters = [
                eotora_obs::COUNTER_CGBA_ITERATIONS,
                eotora_obs::COUNTER_CGBA_PROBES,
                eotora_obs::COUNTER_CGBA_CONVERGED,
            ]
            .map(|name| rec.counter(name));
            (solutions, counters, solver.kernel_threads())
        };
        for mask in [None, Some(&mask)] {
            let (serial, serial_counters, serial_threads) = run(1, mask);
            let (split, split_counters, split_threads) = run(2, mask);
            assert_eq!((serial_threads, split_threads), (1, 2));
            assert_eq!(split, serial, "masked: {}", mask.is_some());
            assert_eq!(split_counters, serial_counters);
        }
    }

    #[test]
    fn max_shards_cap_is_respected() {
        let (system, state) = island_system(48, 6, 0, 23);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut capped = CgbaSolver::new(0.0, 2);
        let mut auto = auto_sharded();
        let a = unfiltered(&mut capped, &problem, None, &mut Pcg32::seed(8), &NoopRecorder);
        let b = unfiltered(&mut auto, &problem, None, &mut Pcg32::seed(8), &NoopRecorder);
        assert_eq!(capped.plan().unwrap().num_shards(), 2);
        assert!(auto.plan().unwrap().num_shards() > 2);
        // Bin-packing changes which shards solve which component but not
        // the per-component dynamics: choices agree.
        assert_eq!(a, b);
    }
}
