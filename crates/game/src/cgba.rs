//! CGBA(λ) best-response dynamics (paper Algorithm 3) with an incremental
//! MaxGain scheduler.
//!
//! The naive MaxGain loop rescans every `(player, strategy)` cost each
//! iteration — O(I·S) work per move. A best-response move only changes the
//! loads of the resources in the mover's old and new strategies, so only
//! entries whose strategy touches one of those resources (plus the mover's
//! own entries) can change value. [`CgbaScratch`] caches per-entry costs and
//! uses [`GameStructure::touching`] to mark exactly those entries dirty,
//! recomputing each with the *same expression* the naive scan uses — the
//! mover sequence and every intermediate float are bit-identical to the
//! rescan (asserted per-iteration under `cfg(test)` or the `naive-check`
//! feature, and property-tested in `tests/incremental.rs`).
//!
//! Every solve runs this one kernel through [`cgba_from`]. It has two
//! hooks for the fault-tolerant path: an optional [`StrategyFilter`] whose
//! disallowed entries are never probed (their cached cost stays `+∞`, so
//! they never win a best response), and a `should_stop` predicate polled
//! at the top of every iteration (the anytime-deadline cut-off). The plain
//! path passes no filter and a never-firing predicate.
//!
//! [`cgba_from_reference`] keeps the pre-refactor rescan loop verbatim as
//! the equivalence oracle and benchmark baseline.

use serde::{Deserialize, Serialize};

use eotora_util::rng::Pcg32;

use crate::{validate_parts, GameRef, GameStructure, Profile, StrategyFilter};

/// How CGBA picks which improvable player moves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingRule {
    /// The paper's Algorithm 3 line 3: the player with the largest absolute
    /// improvement `T_i(z) − min T_i(·, z_{−i})`.
    #[default]
    MaxGain,
    /// Cyclic scan (ablation baseline): first improvable player in index
    /// order after the last mover.
    RoundRobin,
}

/// Configuration for [`cgba`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CgbaConfig {
    /// Approximation slack `λ ∈ [0, 0.125)`; larger converges faster with a
    /// worse guarantee (Theorem 2).
    pub lambda: f64,
    /// Hard iteration cap (the potential argument guarantees finite
    /// termination; this guards pathological float behaviour).
    pub max_iterations: usize,
    /// Player-selection rule.
    pub scheduling: SchedulingRule,
}

impl Default for CgbaConfig {
    fn default() -> Self {
        Self { lambda: 0.0, max_iterations: 1_000_000, scheduling: SchedulingRule::MaxGain }
    }
}

/// Outcome of a [`cgba`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgbaReport {
    /// Final profile `ẑ`.
    pub profile: Profile,
    /// Social cost `T(ẑ)` of the final profile.
    pub total_cost: f64,
    /// Social cost of the *seed* profile the dynamics started from — a
    /// uniformly random profile under [`cgba`], the caller-supplied (e.g.
    /// retained previous-slot) profile under [`cgba_from`].
    pub initial_cost: f64,
    /// Number of best-response moves performed.
    pub iterations: usize,
    /// Whether the λ-equilibrium condition was reached (vs. iteration cap).
    pub converged: bool,
}

/// Reusable state for the incremental MaxGain scheduler: cached
/// `(player, strategy)` costs in a flat arena plus dirty flags. Owning one
/// across [`cgba_from`] calls makes the steady-state solve allocation-free;
/// `CgbaScratch::reset` marks everything dirty at the start of each cold
/// call, so weight updates between calls need no bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct CgbaScratch {
    /// `offsets[i]..offsets[i+1]` indexes player `i`'s entries in the arena.
    offsets: Vec<usize>,
    /// Cached `Profile::strategy_cost` per `(player, strategy)` entry.
    strat_cost: Vec<f64>,
    entry_dirty: Vec<bool>,
    /// Cached `Profile::player_cost` per player.
    cur_cost: Vec<f64>,
    cur_dirty: Vec<bool>,
    /// Cached best response per player (valid when `!player_dirty`).
    best_s: Vec<usize>,
    best_cost: Vec<f64>,
    player_dirty: Vec<bool>,
    moves: Vec<(usize, usize)>,
    /// Move-local buffer of `(resource, pre-move load bits)` pairs.
    touched: Vec<(usize, u64)>,
    /// Warm-start snapshot of the last converged warm run (see
    /// [`cgba_from`]'s `warm` flag): when the next warm call starts from
    /// the snapshotted profile, only entries whose inputs changed bit
    /// pattern since that run need a rescan.
    snap_valid: bool,
    snap_choices: Vec<usize>,
    snap_loads: Vec<u64>,
    snap_weights: Vec<u64>,
    /// Flattened `(resource, weight bits)` of every strategy, in
    /// `(player, strategy, entry)` order — guards against structure drift
    /// and detects per-player weight updates exactly.
    snap_strat_resources: Vec<usize>,
    snap_strat_weights: Vec<u64>,
    /// Monotonic count of cost evaluations (`player_cost` /
    /// `strategy_cost` calls) performed by solves using this scratch —
    /// the hot path's unit of work, surfaced as the `cgba.probes`
    /// counter. Never reset, so callers can emit per-solve deltas.
    probes: u64,
}

impl CgbaScratch {
    /// Sizes the arena for `structure` and marks every cache entry dirty.
    fn reset(&mut self, structure: &GameStructure) {
        let n = structure.num_players();
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0;
        for i in 0..n {
            total += structure.strategies(i).len();
            self.offsets.push(total);
        }
        self.strat_cost.clear();
        self.strat_cost.resize(total, 0.0);
        self.entry_dirty.clear();
        self.entry_dirty.resize(total, true);
        self.cur_cost.clear();
        self.cur_cost.resize(n, 0.0);
        self.cur_dirty.clear();
        self.cur_dirty.resize(n, true);
        self.best_s.clear();
        self.best_s.resize(n, 0);
        self.best_cost.clear();
        self.best_cost.resize(n, 0.0);
        self.player_dirty.clear();
        self.player_dirty.resize(n, true);
        self.moves.clear();
        // A cold start means the caches will be rebuilt for an arbitrary
        // profile; any retained warm snapshot no longer describes them.
        self.snap_valid = false;
    }

    /// Attempts the warm first-iteration fast path: when `initial` is
    /// exactly the profile the last tracked run converged to, the caches in
    /// this scratch are still *valid* for every entry whose inputs (resource
    /// weight, resource load, own strategy weights) kept the same bit
    /// pattern — [`Profile::strategy_cost`] is deterministic, so a rescan
    /// would reproduce the cached float exactly. Marks dirty precisely the
    /// entries touching a changed resource or owned by a player whose
    /// strategy weights changed, and returns `true`.
    ///
    /// Returns `false` (caller must [`CgbaScratch::reset`]) when there is no
    /// snapshot, the seed differs from the snapshotted profile, or the game
    /// structure drifted (player/resource/strategy shape mismatch).
    fn try_warm<G: GameRef>(&mut self, game: &G, initial: &Profile) -> bool {
        if !self.snap_valid {
            return false;
        }
        let structure = game.structure();
        let weights = game.weights();
        let n = structure.num_players();
        if self.snap_choices != initial.choices
            || self.snap_weights.len() != structure.num_resources()
            || self.offsets.len() != n + 1
        {
            return false;
        }
        for i in 0..n {
            if self.offsets[i + 1] - self.offsets[i] != structure.strategies(i).len() {
                return false;
            }
        }

        self.entry_dirty.iter_mut().for_each(|e| *e = false);
        self.cur_dirty.iter_mut().for_each(|e| *e = false);
        self.player_dirty.iter_mut().for_each(|e| *e = false);
        self.moves.clear();

        // Pass 1: resources whose weight or load changed bit pattern dirty
        // every entry that touches them (and the current cost of players
        // whose *chosen* strategy touches them).
        for r in 0..self.snap_weights.len() {
            if weights.get(r).to_bits() == self.snap_weights[r]
                && initial.loads[r].to_bits() == self.snap_loads[r]
            {
                continue;
            }
            for &(p, ps) in structure.touching(r) {
                let (p, ps) = (p as usize, ps as usize);
                self.entry_dirty[self.offsets[p] + ps] = true;
                self.player_dirty[p] = true;
                if ps == initial.choices[p] {
                    self.cur_dirty[p] = true;
                }
            }
        }

        // Pass 2: per-player strategy weights. A changed weight in strategy
        // `s` dirties entry `(i, s)`; a change in the *chosen* strategy also
        // shifts the `own` term of every entry of `i` and `i`'s current
        // cost. Any drift in the resource lists themselves means this is a
        // different structure — bail out to a full reset.
        let mut idx = 0;
        for i in 0..n {
            for (s, strategy) in structure.strategies(i).iter().enumerate() {
                for &(r, w) in strategy {
                    if idx >= self.snap_strat_resources.len() || self.snap_strat_resources[idx] != r
                    {
                        return false;
                    }
                    if w.to_bits() != self.snap_strat_weights[idx] {
                        self.entry_dirty[self.offsets[i] + s] = true;
                        self.player_dirty[i] = true;
                        if s == initial.choices[i] {
                            for e in &mut self.entry_dirty[self.offsets[i]..self.offsets[i + 1]] {
                                *e = true;
                            }
                            self.cur_dirty[i] = true;
                        }
                    }
                    idx += 1;
                }
            }
        }
        idx == self.snap_strat_resources.len()
    }

    /// Records the converged profile plus the weight/load bit patterns its
    /// caches were computed against, enabling [`CgbaScratch::try_warm`] on
    /// the next call.
    fn store_snapshot<G: GameRef>(&mut self, game: &G, profile: &Profile) {
        let structure = game.structure();
        let weights = game.weights();
        self.snap_choices.clear();
        self.snap_choices.extend_from_slice(&profile.choices);
        self.snap_loads.clear();
        self.snap_loads.extend(profile.loads.iter().map(|l| l.to_bits()));
        self.snap_weights.clear();
        self.snap_weights.extend((0..structure.num_resources()).map(|r| weights.get(r).to_bits()));
        self.snap_strat_resources.clear();
        self.snap_strat_weights.clear();
        for i in 0..structure.num_players() {
            for strategy in structure.strategies(i) {
                for &(r, w) in strategy {
                    self.snap_strat_resources.push(r);
                    self.snap_strat_weights.push(w.to_bits());
                }
            }
        }
        self.snap_valid = true;
    }

    /// The `(player, strategy)` moves of the most recent run, in order —
    /// lets equivalence tests compare the incremental scheduler's decisions
    /// against a naive-rescan trace, not just the final profile.
    pub fn moves(&self) -> &[(usize, usize)] {
        &self.moves
    }

    /// Monotonic count of cost evaluations performed by every solve that
    /// used this scratch. Callers snapshot before/after a solve and emit
    /// the delta as the `cgba.probes` counter.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Performs player `i`'s move to strategy `s` (via [`Profile::switch`])
    /// and marks every cache entry the move invalidates.
    ///
    /// A non-mover's cached cost depends only on the *values* of its
    /// strategy's resource loads (and its own unchanged choice), so only
    /// resources whose load actually changed bit pattern can invalidate it.
    /// When the old and new strategy share a resource with the same weight
    /// (e.g. a server switch that keeps the base station), the `-w` then
    /// `+w` round-trip usually restores the load bits exactly — those
    /// entries would recompute to the identical float and stay valid, so
    /// the loads are snapshotted before the switch and compared after.
    fn apply_move<G: GameRef>(&mut self, game: &G, profile: &mut Profile, i: usize, s: usize) {
        let structure = game.structure();
        // The mover's own entries all change (its `own` contribution term
        // follows its current choice), as do its cost and best response.
        for e in &mut self.entry_dirty[self.offsets[i]..self.offsets[i + 1]] {
            *e = true;
        }
        self.player_dirty[i] = true;
        self.cur_dirty[i] = true;

        self.touched.clear();
        for strat in [profile.choices[i], s] {
            for &(r, _) in &structure.strategies(i)[strat] {
                if !self.touched.iter().any(|&(tr, _)| tr == r) {
                    self.touched.push((r, profile.loads[r].to_bits()));
                }
            }
        }
        profile.switch(game, i, s);
        for idx in 0..self.touched.len() {
            let (r, before) = self.touched[idx];
            if profile.loads[r].to_bits() == before {
                continue;
            }
            for &(p, ps) in structure.touching(r) {
                let (p, ps) = (p as usize, ps as usize);
                self.entry_dirty[self.offsets[p] + ps] = true;
                self.player_dirty[p] = true;
                // A player's *current* cost only moves if its chosen
                // strategy uses the touched resource.
                if ps == profile.choices[p] {
                    self.cur_dirty[p] = true;
                }
            }
        }
    }
}

/// Runs CGBA(λ) (paper Algorithm 3) from a uniformly random initial profile.
///
/// # Panics
///
/// Panics if the game has no players or `λ ∉ [0, 1)`. Validity of the game
/// is a construction-time concern ([`GameStructure::new`],
/// [`crate::ResourceWeights::new`]) and only debug-asserted here.
pub fn cgba<G: GameRef>(game: &G, config: &CgbaConfig, rng: &mut Pcg32) -> CgbaReport {
    let initial = Profile::random(game, rng);
    cgba_from(game, initial, config, None, || false, false, &mut CgbaScratch::default())
}

/// Runs CGBA(λ) from a caller-supplied initial profile on caller-owned
/// [`CgbaScratch`] — the entry point every solve goes through (owning the
/// scratch across calls makes the steady-state solve allocation-free).
///
/// - `filter` restricts each player's best response to the strategies it
///   allows. Players it leaves with *no* allowed strategy never move;
///   callers must seed `initial` with those players already on a
///   deliberate (best-effort) strategy. With a filter the game is fully
///   validated on every call, in release builds too: a filtered solve
///   serves input that may have bypassed the sanitizer.
/// - `should_stop` is polled at the top of every iteration; returning
///   `true` breaks out with `converged == false` and the best-so-far
///   profile (the anytime-deadline hook).
/// - `warm` enables the first-iteration fast path: when `initial` equals
///   the profile the previous warm call on this scratch converged to, only
///   cache entries whose inputs changed bit pattern since then are
///   rescanned (the scratch's `try_warm` step). It falls back to a full
///   reset whenever the snapshot does not apply, and it is ignored with a
///   filter or under RoundRobin, which have no snapshot to reuse.
///
/// With no filter (or an all-allowing one) and a never-firing
/// `should_stop`, the result is bit-identical to [`cgba_from_reference`]
/// for the same game, initial profile, and config, warm or not: warm
/// starts change how fast the mover sequence is found, never which moves
/// are made (property-tested in `tests/warm.rs` and `tests/masking.rs`).
///
/// # Panics
///
/// Same conditions as [`cgba`]; with a filter, also if the game fails
/// validation.
pub fn cgba_from<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    should_stop: impl FnMut() -> bool,
    warm: bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    let structure = game.structure();
    assert!(structure.num_players() > 0, "game has no players");
    assert!((0.0..1.0).contains(&config.lambda), "lambda must be in [0, 1)");
    if filter.is_some() {
        validate_parts(structure, game.weights()).expect("game must validate before solving");
    } else {
        debug_assert!(
            validate_parts(structure, game.weights()).is_ok(),
            "game must validate before solving"
        );
    }
    let warm = warm && filter.is_none() && config.scheduling == SchedulingRule::MaxGain;
    if !(warm && scratch.try_warm(game, &initial)) {
        scratch.reset(structure);
    }
    let report = run_kernel(game, initial, config, filter, should_stop, scratch);
    // Only a converged MaxGain run leaves every cache entry clean (the
    // final no-mover scan refreshed them all); an iteration-capped or
    // stopped exit leaves stale entries behind and cannot seed the fast
    // path.
    if warm && report.converged {
        scratch.store_snapshot(game, &report.profile);
    } else {
        scratch.snap_valid = false;
    }
    report
}

/// Dispatches to the scheduler's kernel. `filter` and `should_stop` are
/// the fault-tolerance hooks (see the module docs); the plain path passes
/// `None` and a never-firing predicate.
fn run_kernel<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    debug_assert!(
        filter.is_none_or(|f| f.num_players() == game.structure().num_players()),
        "filter built for a different game"
    );
    match config.scheduling {
        SchedulingRule::MaxGain => {
            cgba_max_gain(game, initial, config, filter, should_stop, scratch)
        }
        SchedulingRule::RoundRobin => {
            cgba_round_robin(game, initial, config, filter, should_stop, scratch)
        }
    }
}

/// Incremental MaxGain loop: refresh dirty cache entries, pick the max-gap
/// mover from the caches, dirty only what the move invalidates.
/// Disallowed entries are never probed; their cached cost is `+∞`.
fn cgba_max_gain<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    mut should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut iterations = 0;
    let mut converged = false;
    let n = game.structure().num_players();

    while iterations < config.max_iterations {
        if should_stop() {
            break;
        }
        let mut mover: Option<(usize, usize)> = None; // (player, strategy)
        let mut best_gap = 0.0;
        for i in 0..n {
            if scratch.cur_dirty[i] {
                scratch.cur_cost[i] = profile.player_cost(game, i);
                scratch.cur_dirty[i] = false;
                scratch.probes += 1;
            }
            if scratch.player_dirty[i] {
                let off = scratch.offsets[i];
                let mut best = (profile.choices[i], f64::INFINITY);
                for s in 0..(scratch.offsets[i + 1] - off) {
                    if scratch.entry_dirty[off + s] {
                        scratch.strat_cost[off + s] = if filter.is_none_or(|f| f.is_allowed(i, s)) {
                            scratch.probes += 1;
                            profile.strategy_cost(game, i, s)
                        } else {
                            f64::INFINITY
                        };
                        scratch.entry_dirty[off + s] = false;
                    }
                    let cost = scratch.strat_cost[off + s];
                    if cost < best.1 {
                        best = (s, cost);
                    }
                }
                scratch.best_s[i] = best.0;
                scratch.best_cost[i] = best.1;
                scratch.player_dirty[i] = false;
            }
            let cost = scratch.cur_cost[i];
            let br = scratch.best_cost[i];
            if (1.0 - config.lambda) * cost > br {
                let gap = cost - br;
                if gap > best_gap {
                    best_gap = gap;
                    mover = Some((i, scratch.best_s[i]));
                }
            }
        }
        #[cfg(any(test, feature = "naive-check"))]
        assert_eq!(
            mover,
            naive_max_gain_mover(game, &profile, config, filter),
            "incremental MaxGain diverged from naive rescan at iteration {iterations}"
        );
        match mover {
            Some((i, s)) => {
                scratch.apply_move(game, &mut profile, i, s);
                scratch.moves.push((i, s));
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// Player `i`'s best response over the strategies `filter` allows (all of
/// them without a filter); `None` when the filter allows none.
fn best_response_in<G: GameRef>(
    game: &G,
    profile: &Profile,
    i: usize,
    filter: Option<&StrategyFilter>,
) -> Option<(usize, f64)> {
    match filter {
        Some(f) => profile.best_response_filtered(game, i, f),
        None => Some(profile.best_response(game, i)),
    }
}

/// RoundRobin is an ablation baseline, not a hot path: keep the naive scan.
fn cgba_round_robin<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    mut should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut iterations = 0;
    let mut converged = false;
    let mut rr_cursor = 0usize;
    let n = game.structure().num_players();

    while iterations < config.max_iterations {
        if should_stop() {
            break;
        }
        let mut mover: Option<(usize, usize)> = None;
        for step in 0..n {
            let i = (rr_cursor + step) % n;
            let cost = profile.player_cost(game, i);
            let best = best_response_in(game, &profile, i, filter);
            scratch.probes += 1 + filter
                .map_or(game.structure().strategies(i).len(), |f| f.allowed_count(i))
                as u64;
            let Some((s, br)) = best else { continue };
            if (1.0 - config.lambda) * cost > br {
                mover = Some((i, s));
                rr_cursor = (i + 1) % n;
                break;
            }
        }
        match mover {
            Some((i, s)) => {
                profile.switch(game, i, s);
                scratch.moves.push((i, s));
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// One step of the pre-refactor MaxGain selection: full rescan of every
/// player's cost and (filtered) best response. The incremental loop
/// asserts against this each iteration under `cfg(test)` / the
/// `naive-check` feature, so every filtered and deadline-cut solve is
/// checked move by move.
#[cfg(any(test, feature = "naive-check"))]
fn naive_max_gain_mover<G: GameRef>(
    game: &G,
    profile: &Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
) -> Option<(usize, usize)> {
    let mut mover: Option<(usize, usize)> = None;
    let mut best_gap = 0.0;
    for i in 0..game.structure().num_players() {
        let cost = profile.player_cost(game, i);
        let Some((s, br)) = best_response_in(game, profile, i, filter) else {
            continue;
        };
        if (1.0 - config.lambda) * cost > br {
            let gap = cost - br;
            if gap > best_gap {
                best_gap = gap;
                mover = Some((i, s));
            }
        }
    }
    mover
}

/// Runs the pre-refactor CGBA(λ) loop from a random initial profile — the
/// equivalence oracle and benchmark baseline. See [`cgba_from_reference`].
///
/// # Panics
///
/// Panics if the game has no players, `λ ∉ [0, 1)`, or the game fails
/// validation.
pub fn cgba_reference<G: GameRef>(game: &G, config: &CgbaConfig, rng: &mut Pcg32) -> CgbaReport {
    let initial = Profile::random(game, rng);
    cgba_from_reference(game, initial, config)
}

/// The pre-refactor `cgba_from` body, verbatim: full validation on entry
/// and a naive O(I·S) rescan per move. Kept as the oracle the incremental
/// path is tested (and benchmarked) against; not used on any hot path.
///
/// # Panics
///
/// Same conditions as [`cgba_reference`].
pub fn cgba_from_reference<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
) -> CgbaReport {
    let n = game.structure().num_players();
    assert!(n > 0, "game has no players");
    assert!((0.0..1.0).contains(&config.lambda), "lambda must be in [0, 1)");
    validate_parts(game.structure(), game.weights()).expect("game must validate before solving");

    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut iterations = 0;
    let mut converged = false;
    let mut rr_cursor = 0usize;

    while iterations < config.max_iterations {
        // Find the mover per the scheduling rule.
        let mut mover: Option<(usize, usize)> = None; // (player, strategy)
        match config.scheduling {
            SchedulingRule::MaxGain => {
                let mut best_gap = 0.0;
                for i in 0..n {
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
            }
            SchedulingRule::RoundRobin => {
                for step in 0..n {
                    let i = (rr_cursor + step) % n;
                    let cost = profile.player_cost(game, i);
                    let (s, br) = profile.best_response(game, i);
                    if (1.0 - config.lambda) * cost > br {
                        mover = Some((i, s));
                        rr_cursor = (i + 1) % n;
                        break;
                    }
                }
            }
        }
        match mover {
            Some((i, s)) => {
                profile.switch(game, i, s);
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// Exhaustively computes the social optimum of a *small* game.
///
/// Returns the optimal choices and cost. The profile space must not exceed
/// `max_profiles` (guard against accidental exponential blowups).
///
/// # Errors
///
/// Returns the actual profile-space size when it exceeds `max_profiles`.
///
/// # Examples
///
/// ```
/// use eotora_game::{brute_force_optimum, CongestionGame};
///
/// let mut g = CongestionGame::new(vec![1.0, 1.0]);
/// g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
/// g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
/// let (choices, cost) = brute_force_optimum(&g, 1_000_000).unwrap();
/// assert_eq!(cost, 2.0); // spread across the two resources
/// assert_ne!(choices[0], choices[1]);
/// ```
pub fn brute_force_optimum<G: GameRef>(
    game: &G,
    max_profiles: u128,
) -> Result<(Vec<usize>, f64), u128> {
    let structure = game.structure();
    let mut space: u128 = 1;
    for i in 0..structure.num_players() {
        space = space.saturating_mul(structure.strategies(i).len() as u128);
        if space > max_profiles {
            return Err(space);
        }
    }
    let n = structure.num_players();
    let mut choices = vec![0usize; n];
    let mut best_choices = choices.clone();
    let mut best = f64::INFINITY;
    loop {
        let cost = Profile::from_choices(game, choices.clone()).total_cost(game);
        if cost < best {
            best = cost;
            best_choices = choices.clone();
        }
        // Odometer increment over the mixed-radix strategy space.
        let mut i = 0;
        loop {
            if i == n {
                return Ok((best_choices, best));
            }
            choices[i] += 1;
            if choices[i] < structure.strategies(i).len() {
                break;
            }
            choices[i] = 0;
            i += 1;
        }
    }
}

/// Empirical price-of-anarchy scan: runs CGBA(0) from `samples` random
/// starts and compares the worst equilibrium found against the brute-force
/// optimum. For weighted congestion games with affine costs the true PoA is
/// at most 2.62 (the constant in the paper's Theorem 2).
///
/// # Errors
///
/// Propagates [`brute_force_optimum`]'s size guard.
pub fn empirical_price_of_anarchy<G: GameRef>(
    game: &G,
    samples: usize,
    max_profiles: u128,
    rng: &mut Pcg32,
) -> Result<f64, u128> {
    let (_, opt) = brute_force_optimum(game, max_profiles)?;
    let mut worst: f64 = 1.0;
    for _ in 0..samples {
        let report = cgba(game, &CgbaConfig::default(), rng);
        if opt > 0.0 {
            worst = worst.max(report.total_cost / opt);
        }
    }
    Ok(worst)
}
