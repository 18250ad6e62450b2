//! CGBA(λ) best-response dynamics (paper Algorithm 3) with an incremental
//! MaxGain scheduler.
//!
//! The naive MaxGain loop rescans every `(player, strategy)` cost each
//! iteration — O(I·S) work per move. A best-response move only changes the
//! loads of the resources in the mover's old and new strategies, so only
//! entries whose strategy touches one of those resources (plus the mover's
//! own entries) can change value. [`CgbaScratch`] caches per-entry costs and
//! uses [`GameStructure::touching`] to mark exactly those entries dirty,
//! recomputing each to the *same float* the naive scan's
//! [`Profile::strategy_cost`] gives. The refresh takes the player's own
//! load out of a per-range load buffer once per dirty player instead of
//! searching for it in every probe (see `RangeCache::phase` for why the
//! floats agree). The mover sequence and every intermediate float are
//! bit-identical to the rescan: under `cfg(test)` or the `naive-check`
//! feature each move is asserted against a full rescan and, after each
//! phase, every cached cost against [`Profile::strategy_cost`] and
//! [`Profile::player_cost`]; `tests/incremental.rs` property-tests it.
//!
//! Every solve runs this one kernel through [`cgba_from`]. It has two
//! hooks for the fault-tolerant path: an optional [`StrategyFilter`] whose
//! disallowed entries are never probed (their cached cost stays `+∞`, so
//! they never win a best response), and a `should_stop` predicate polled
//! at the top of every iteration (the anytime-deadline cut-off). The plain
//! path passes no filter and a never-firing predicate.
//!
//! # Range-split MaxGain
//!
//! [`CgbaScratch::set_threads`] splits each MaxGain iteration's
//! refresh-and-scan across threads without changing a single move. The
//! players are cut into contiguous ranges with about equal entry counts,
//! each owning its slice of the caches (`split_at_mut`). One iteration is
//! one *phase* per range, then a move:
//!
//! 1. each range marks its own players' entries from the last move's
//!    changed-resource list, refreshes its dirty entries and finds its
//!    local max-gap candidate (the first player on a tie, as in the serial
//!    scan), reading the shared [`MoveState`] under a read lock;
//! 2. the calling thread combines the candidates in range order: a later
//!    range wins only on a strictly larger gap, so the winner is the
//!    serial scan's first player with the largest gap;
//! 3. with every range done, the calling thread alone takes the write
//!    lock, runs the `naive-check` assert and makes the move; it polls
//!    `should_stop` before starting the next phase.
//!
//! The [`CgbaReport`], [`CgbaScratch::moves`] and the probe count are
//! therefore bit-identical at every width (property-tested in
//! `tests/width.rs`). Helpers come from the process-lifetime crew of
//! [`eotora_util::pool`]: a solve claims up to `width − 1` of them for its
//! move loop ([`pool::with_helpers`]), and no OS thread is started per
//! solve once the crew has grown to the width in use. Inside a
//! `WorkerPool` job a solve claims only idle helpers, so it runs serially
//! while its sibling jobs hold the cores. The hand-off is a phase epoch
//! and a done count, waited on by spinning, then yielding: a slot has
//! hundreds of phases of tens of microseconds each, too short to park a
//! thread on. There are several ranges per thread, each claimed per phase
//! by whichever thread gets to it first: every thread starts on its own
//! block and then takes any range still unclaimed, so a helper that is
//! descheduled, still waking or slower this phase never stalls it — nor
//! does a helper the crew could not supply. A drop guard on each side
//! turns a panic on either into a panic of the solve instead of a hang,
//! and the crew waits for every helper before the solve returns. A game
//! under `MIN_SPLIT_ENTRIES` entries runs serially whatever width was
//! allowed. The warm-start bookkeeping, RoundRobin and
//! [`cgba_from_reference`] stay serial.
//!
//! [`cgba_from_reference`] keeps the pre-refactor rescan loop verbatim as
//! the equivalence oracle and benchmark baseline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use serde::{Deserialize, Serialize};

use eotora_util::pool::{self, SPIN_LIMIT};
use eotora_util::rng::Pcg32;

use crate::{validate_parts, GameRef, GameStructure, Profile, StrategyFilter};

/// Entry count (`Σ_i |Z_i|` over all players) below which a MaxGain solve
/// runs serially whatever [`CgbaScratch::set_threads`] allows: a phase's
/// scan work that small is on the order of the phase hand-off, so a second
/// thread costs more than it saves.
///
/// Measured on a 2-vCPU VM with helpers from the pool's crew (no thread
/// started per solve): cold CGBA(0) solves of the paper's P2-A game (48
/// entries per device), width 2 against the serial kernel in 10–12
/// alternating pairs per size in one process, the cutoff forced to 0.
/// Over five sweeps the median split/serial time read 1.06–1.61× at 960
/// entries, 0.86–1.40× at 1,440, 0.81–1.20× at 1,920, 0.92–1.13× at 2,400
/// and 0.53–1.09× at 4,800; over seven, 0.79–1.16× at 2,880 and
/// 0.63–1.05× at 3,840; over four, 0.66–1.14× at 3,360. Width 2 won the
/// median in at most two of five sweeps up to 2,400 entries, three of
/// seven at 2,880, two of four at 3,360, five of seven at 3,840 and four
/// of five at 4,800, so the cutoff sits at 3,360. The host's shared second
/// vCPU is what swings one size across sweeps. The same harness on
/// helpers spawned per solve read 1.38–1.50× at 960 entries and
/// 0.81–0.84× at 3,840: what makes small games lose is the hand-off in
/// every phase, not the spawn (a spawned helper starts late and leaves
/// the first phases to the caller). Every figure here,
/// [`RANGES_PER_THREAD`] and [`SPIN_LIMIT`] were measured at width 2 only,
/// so the production width rule (`eotora_core::sharded`) also caps the
/// width at 2.
const MIN_SPLIT_ENTRIES: usize = 3_360;

/// Ranges per thread of a split solve. Each thread starts on its own block
/// of ranges and then takes any range still unclaimed, so finer ranges let
/// a thread that finished early — or a helper that started late — share
/// the rest of the phase.
const RANGES_PER_THREAD: usize = 4;

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
    /// Reused buffer for [`MoveState`]'s changed-resource list.
    changed: Vec<(usize, u64)>,
    /// One excluded-load buffer of `num_resources` floats per range of the
    /// last MaxGain solve, back to back (see [`RangeCache::phase`]). Sized
    /// on the calling thread, so helper threads never allocate.
    excl: Vec<f64>,
    /// Most threads each MaxGain iteration may be split over (0 and 1:
    /// serial).
    threads: usize,
    /// Threads the most recent solve on this scratch scanned on (0 before
    /// the first solve).
    last_threads: usize,
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

    /// Lets each iteration of every later MaxGain solve on this scratch
    /// split across up to `threads` threads: the calling thread plus
    /// helpers claimed from the pool's crew for the solve, scanning
    /// contiguous player ranges. A solve runs serially on a game under the
    /// split cutoff (3,360 entries), and the width is clamped to the player
    /// count; 0 or 1 (the default) is the serial scan. The report,
    /// [`CgbaScratch::moves`] and [`CgbaScratch::probes`] never depend on
    /// it (see the module docs); RoundRobin ignores it.
    /// [`CgbaScratch::last_threads`] reports the width a solve actually
    /// used.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Threads the most recent solve on this scratch scanned on: 1 for a
    /// serial scan (RoundRobin, a game under the split cutoff, width 1)
    /// and before any solve. Fewer than the split width when the crew
    /// could not supply a helper: the host refused a thread, or the solve
    /// ran inside a pool batch and found no idle helper.
    pub fn last_threads(&self) -> usize {
        self.last_threads.max(1)
    }

    /// The width a MaxGain solve on the game this scratch was last sized
    /// for ([`CgbaScratch::reset`] or a matching warm start) splits over.
    fn split_width(&self) -> usize {
        let players = self.offsets.len() - 1;
        let entries = self.offsets[players];
        if entries < MIN_SPLIT_ENTRIES {
            1
        } else {
            self.threads.clamp(1, players)
        }
    }
}

/// What a phase reads besides its own range: the profile, the move that
/// led to it, and that move's changed resources. The calling thread writes
/// it only between phases.
struct MoveState {
    profile: Profile,
    /// The last move `(player, strategy)`; `None` before the first.
    last: Option<(usize, usize)>,
    /// The last move's resources whose load changed bit pattern, with
    /// their pre-move load bits.
    changed: Vec<(usize, u64)>,
}

impl MoveState {
    /// Performs player `i`'s move to strategy `s` (via [`Profile::switch`])
    /// and records it with the resources it changed.
    ///
    /// A non-mover's cached cost depends only on the *values* of its
    /// strategy's resource loads (and its own unchanged choice), so only
    /// resources whose load actually changed bit pattern can invalidate
    /// it. When the old and new strategy share a resource with the same
    /// weight (e.g. a server switch that keeps the base station), the `-w`
    /// then `+w` round-trip usually restores the load bits exactly — those
    /// entries would recompute to the identical float and stay valid, so
    /// the loads are snapshotted before the switch and compared after.
    fn advance<G: GameRef>(&mut self, game: &G, (i, s): (usize, usize)) {
        let Self { profile, last, changed } = self;
        let structure = game.structure();
        changed.clear();
        for strat in [profile.choices[i], s] {
            for &(r, _) in &structure.strategies(i)[strat] {
                if !changed.iter().any(|&(cr, _)| cr == r) {
                    changed.push((r, profile.loads[r].to_bits()));
                }
            }
        }
        profile.switch(game, i, s);
        changed.retain(|&(r, before)| profile.loads[r].to_bits() != before);
        *last = Some((i, s));
    }
}

/// One contiguous player range's share of a [`CgbaScratch`]: the cache
/// slices of players `lo..hi` and of their entries. Ranges are cut from
/// the scratch with `split_at_mut`, so no two ranges share a cache entry.
struct RangeCache<'a> {
    lo: usize,
    hi: usize,
    /// The scratch's full `offsets`; this range's entries start at
    /// `offsets[lo]`.
    offsets: &'a [usize],
    strat_cost: &'a mut [f64],
    entry_dirty: &'a mut [bool],
    cur_cost: &'a mut [f64],
    cur_dirty: &'a mut [bool],
    best_s: &'a mut [usize],
    best_cost: &'a mut [f64],
    player_dirty: &'a mut [bool],
    /// This range's excluded-load buffer, one float per resource: level
    /// with the profile's loads between phases.
    excl: &'a mut [f64],
}

/// A range's MaxGain candidate for one iteration.
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    /// The range's max-gap `(player, strategy)` (the first player on a
    /// tie); `None` when no player in it improves by more than λ.
    mover: Option<(usize, usize)>,
    /// That mover's gap `T_i(z) − min T_i(·, z_{−i})` (0 without one).
    gap: f64,
    /// Cost evaluations the phase spent.
    probes: u64,
}

impl Candidate {
    /// Folds in the candidate of a *later* range: it wins only on a
    /// strictly larger gap — the serial scan's tie-break.
    fn merge(&mut self, later: Candidate) {
        if later.gap > self.gap {
            self.mover = later.mover;
            self.gap = later.gap;
        }
        self.probes += later.probes;
    }
}

impl<'a> RangeCache<'a> {
    /// The whole scratch as one range.
    fn whole(scratch: &'a mut CgbaScratch) -> Self {
        Self {
            lo: 0,
            hi: scratch.offsets.len() - 1,
            offsets: &scratch.offsets,
            strat_cost: &mut scratch.strat_cost,
            entry_dirty: &mut scratch.entry_dirty,
            cur_cost: &mut scratch.cur_cost,
            cur_dirty: &mut scratch.cur_dirty,
            best_s: &mut scratch.best_s,
            best_cost: &mut scratch.best_cost,
            player_dirty: &mut scratch.player_dirty,
            excl: &mut scratch.excl,
        }
    }

    /// Cuts the range into `width` non-empty contiguous ranges with about
    /// equal entry counts, in player order. The load buffer must hold
    /// `width` equal parts, one per range.
    fn split(mut self, width: usize) -> Vec<Self> {
        let n = self.hi - self.lo;
        debug_assert!((2..=n).contains(&width), "width {width} for {n} players");
        let total = self.offsets[self.hi] - self.offsets[self.lo];
        let mut cuts = Vec::with_capacity(width - 1);
        let mut prev = self.lo;
        for k in 1..width {
            let target = self.offsets[self.lo] + total * k / width;
            let at = self.offsets.partition_point(|&o| o < target);
            prev = at.clamp(prev + 1, self.hi - (width - k));
            cuts.push(prev);
        }
        let resources = self.excl.len() / width;
        let mut ranges: Vec<Self> =
            cuts.into_iter().rev().map(|at| self.split_off(at, resources)).collect();
        ranges.push(self);
        ranges.reverse();
        ranges
    }

    /// Splits players `at..hi` off into their own range, keeping `lo..at`;
    /// the new range takes the last `resources` floats of the load buffer.
    fn split_off(&mut self, at: usize, resources: usize) -> Self {
        fn tail<'b, T>(slice: &mut &'b mut [T], at: usize) -> &'b mut [T] {
            let (head, tail) = std::mem::take(slice).split_at_mut(at);
            *slice = head;
            tail
        }
        let players = at - self.lo;
        let entries = self.offsets[at] - self.offsets[self.lo];
        let kept = self.excl.len() - resources;
        let split = Self {
            lo: at,
            hi: self.hi,
            offsets: self.offsets,
            strat_cost: tail(&mut self.strat_cost, entries),
            entry_dirty: tail(&mut self.entry_dirty, entries),
            cur_cost: tail(&mut self.cur_cost, players),
            cur_dirty: tail(&mut self.cur_dirty, players),
            best_s: tail(&mut self.best_s, players),
            best_cost: tail(&mut self.best_cost, players),
            player_dirty: tail(&mut self.player_dirty, players),
            excl: tail(&mut self.excl, kept),
        };
        self.hi = at;
        split
    }

    /// One phase: marks what the last move invalidated in this range,
    /// refreshes the range's dirty entries against the profile, and
    /// returns its candidate. Disallowed entries are never probed; their
    /// cached cost is `+∞`.
    ///
    /// A dirty player's entries are probed against the range's
    /// excluded-load buffer: `excl[r] = loads[r] − cw` for each `(r, cw)`
    /// of its current strategy, written once before its entries and
    /// restored to `loads[r]` after them, so each probe is
    /// `Σ m_r·w·(excl[r] + w)` with no search for the player's own load.
    /// That is bit for bit [`Profile::strategy_cost`], which computes
    /// `loads[r] − own + w` with `own = cw` on the current strategy's
    /// resources and `own = 0.0` elsewhere: the first case is the same two
    /// operations in the same order, and `x − 0.0` is `x` for every finite
    /// `x`, `±0.0` included. A strategy never lists a resource twice
    /// (`validate_parts`), so at most one `cw` applies per resource.
    fn phase<G: GameRef>(
        &mut self,
        game: &G,
        state: &MoveState,
        lambda: f64,
        filter: Option<&StrategyFilter>,
    ) -> Candidate {
        let MoveState { profile, last, changed } = state;
        let Self {
            lo,
            hi,
            offsets,
            strat_cost,
            entry_dirty,
            cur_cost,
            cur_dirty,
            best_s,
            best_cost,
            player_dirty,
            excl,
        } = self;
        let (lo, hi, offsets) = (*lo, *hi, *offsets);
        let base = offsets[lo];
        let loads = &profile.loads;
        // The buffer is brought level with the loads at a solve's first
        // phase, then follows the loads each move changed.
        if last.is_none() {
            excl.copy_from_slice(loads);
        }
        // The mover's own entries all change (its `own` contribution term
        // follows its current choice), as do its cost and best response.
        if let Some((i, _)) = last.filter(|&(i, _)| (lo..hi).contains(&i)) {
            entry_dirty[offsets[i] - base..offsets[i + 1] - base].fill(true);
            player_dirty[i - lo] = true;
            cur_dirty[i - lo] = true;
        }
        let structure = game.structure();
        for &(r, _) in changed {
            excl[r] = loads[r];
            // `touching` is in ascending player order: this range's pairs
            // are one contiguous run.
            let touching = structure.touching(r);
            let start = touching.partition_point(|&(p, _)| (p as usize) < lo);
            for &(p, ps) in &touching[start..] {
                let (p, ps) = (p as usize, ps as usize);
                if p >= hi {
                    break;
                }
                entry_dirty[offsets[p] + ps - base] = true;
                player_dirty[p - lo] = true;
                // A player's *current* cost only moves if its chosen
                // strategy uses the touched resource.
                if ps == profile.choices[p] {
                    cur_dirty[p - lo] = true;
                }
            }
        }

        let weights = game.weights();
        let mut found = Candidate::default();
        for i in lo..hi {
            let k = i - lo;
            if cur_dirty[k] {
                cur_cost[k] = profile.player_cost(game, i);
                cur_dirty[k] = false;
                found.probes += 1;
            }
            if player_dirty[k] {
                let strategies = structure.strategies(i);
                let current = &strategies[profile.choices[i]];
                for &(r, cw) in current {
                    excl[r] = loads[r] - cw;
                }
                let entries = offsets[i] - base..offsets[i + 1] - base;
                let mut best = (profile.choices[i], f64::INFINITY);
                for (s, (cost, dirty)) in strat_cost[entries.clone()]
                    .iter_mut()
                    .zip(&mut entry_dirty[entries])
                    .enumerate()
                {
                    if *dirty {
                        *cost = if filter.is_none_or(|f| f.is_allowed(i, s)) {
                            found.probes += 1;
                            let mut probe = 0.0;
                            for &(r, w) in &strategies[s] {
                                probe += weights.get(r) * w * (excl[r] + w);
                            }
                            probe
                        } else {
                            f64::INFINITY
                        };
                        *dirty = false;
                    }
                    if *cost < best.1 {
                        best = (s, *cost);
                    }
                }
                for &(r, _) in current {
                    excl[r] = loads[r];
                }
                best_s[k] = best.0;
                best_cost[k] = best.1;
                player_dirty[k] = false;
            }
            let cost = cur_cost[k];
            let br = best_cost[k];
            if (1.0 - lambda) * cost > br {
                let gap = cost - br;
                if gap > found.gap {
                    found.gap = gap;
                    found.mover = Some((i, best_s[k]));
                }
            }
        }
        // The float-level oracle: every cached cost of the range, refreshed
        // this phase or kept from an earlier one, is what a rescan gives.
        #[cfg(any(test, feature = "naive-check"))]
        for i in lo..hi {
            let k = i - lo;
            assert_eq!(
                cur_cost[k].to_bits(),
                profile.player_cost(game, i).to_bits(),
                "cached cost of player {i} diverged from Profile::player_cost"
            );
            for s in 0..structure.strategies(i).len() {
                let expected = if filter.is_none_or(|f| f.is_allowed(i, s)) {
                    profile.strategy_cost(game, i, s)
                } else {
                    f64::INFINITY
                };
                assert_eq!(
                    strat_cost[offsets[i] + s - base].to_bits(),
                    expected.to_bits(),
                    "cached cost of ({i}, {s}) diverged from Profile::strategy_cost"
                );
            }
        }
        found
    }
}

/// Spins, then yields, until `ready()` holds. Phases last tens of
/// microseconds, shorter than parking and waking a thread; yielding after
/// [`SPIN_LIMIT`] keeps an oversubscribed host making progress.
fn wait_for(ready: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// One range of a split solve, with the claim that hands it to exactly one
/// thread per phase.
struct Range<'a> {
    /// The last phase this range was claimed for. Claiming phase `e`
    /// swaps `e − 1` for `e`, so one thread wins and a thread that wakes
    /// after the phase is over wins nothing.
    claimed: AtomicUsize,
    /// The range's caches and its candidate from the last phase.
    slot: Mutex<(RangeCache<'a>, Candidate)>,
}

/// The threads of a split solve — the caller and its helpers — over
/// [`RANGES_PER_THREAD`] ranges per thread. Phase `e` starts when the
/// caller bumps `epoch` to `e`. Every thread then claims ranges — its own
/// block first, then any still unclaimed — and runs the claimed ranges'
/// phases under one read lock of the [`MoveState`]; `done` counts finished
/// ranges. A helper the host has not scheduled yet thus never stalls a
/// phase: the caller runs its ranges instead. Once every range is done,
/// the caller alone takes the write lock to make the move, and no helper
/// reads the state again before the next bump.
struct Team<'a> {
    ranges: Vec<Range<'a>>,
    epoch: AtomicUsize,
    done: AtomicUsize,
    /// Set once the caller leaves the move loop, by return or unwinding.
    quit: AtomicBool,
    /// Set when a helper unwinds.
    failed: AtomicBool,
}

impl<'a> Team<'a> {
    fn new(ranges: Vec<RangeCache<'a>>) -> Self {
        Self {
            ranges: ranges
                .into_iter()
                .map(|cache| Range {
                    claimed: AtomicUsize::new(0),
                    slot: Mutex::new((cache, Candidate::default())),
                })
                .collect(),
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            quit: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }

    /// Claims and runs every range of phase `epoch` no thread has claimed
    /// yet, starting from range `first` and wrapping around.
    fn work<G: GameRef>(
        &self,
        epoch: usize,
        first: usize,
        state: &RwLock<MoveState>,
        game: &G,
        lambda: f64,
        filter: Option<&StrategyFilter>,
    ) {
        let mut read = None;
        let mut ran = 0;
        for range in self.ranges[first..].iter().chain(&self.ranges[..first]) {
            if range
                .claimed
                .compare_exchange(epoch - 1, epoch, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let state = read.get_or_insert_with(|| state.read().expect("CGBA move state poisoned"));
            let mut slot = range.slot.lock().expect("CGBA range poisoned");
            let (cache, found) = &mut *slot;
            *found = cache.phase(game, state, lambda, filter);
            ran += 1;
        }
        // Count the ranges only once the read lock is released, so the
        // caller's write lock never waits on it.
        drop(read);
        if ran > 0 {
            self.done.fetch_add(ran, Ordering::Release);
        }
    }

    /// Caller: runs one phase over every range and returns the combined
    /// candidate, folded in range order.
    ///
    /// # Panics
    ///
    /// Panics if a helper panicked.
    fn phase<G: GameRef>(
        &self,
        state: &RwLock<MoveState>,
        game: &G,
        lambda: f64,
        filter: Option<&StrategyFilter>,
    ) -> Candidate {
        // Every range of the previous phase was counted before the caller
        // got here, so no stale increment can race this reset.
        self.done.store(0, Ordering::Relaxed);
        let epoch = self.epoch.fetch_add(1, Ordering::Release) + 1;
        self.work(epoch, 0, state, game, lambda, filter);
        wait_for(|| {
            self.done.load(Ordering::Acquire) == self.ranges.len()
                || self.failed.load(Ordering::Acquire)
        });
        assert!(!self.failed.load(Ordering::Acquire), "a CGBA range thread panicked");
        let mut found = Candidate::default();
        for range in &self.ranges {
            found.merge(range.slot.lock().expect("CGBA range poisoned").1);
        }
        found
    }

    /// A helper's loop: waits for each phase and works it, starting from
    /// range `first` (its own block), until the caller quits.
    fn serve<G: GameRef>(
        &self,
        first: usize,
        state: &RwLock<MoveState>,
        game: &G,
        lambda: f64,
        filter: Option<&StrategyFilter>,
    ) {
        let _flag = FlagUnwind(&self.failed);
        let mut seen = 0;
        loop {
            wait_for(|| {
                self.quit.load(Ordering::Acquire) || self.epoch.load(Ordering::Acquire) != seen
            });
            if self.quit.load(Ordering::Acquire) {
                return;
            }
            seen = self.epoch.load(Ordering::Acquire);
            self.work(seen, first, state, game, lambda, filter);
        }
    }
}

/// Releases the helpers when the caller leaves the move loop — also by
/// unwinding, so a panicking `should_stop` or `naive-check` assert cannot
/// leave them spinning while the crew waits for them.
struct ReleaseHelpers<'t, 'a>(&'t Team<'a>);

impl Drop for ReleaseHelpers<'_, '_> {
    fn drop(&mut self) {
        self.0.quit.store(true, Ordering::Release);
    }
}

/// Raises its flag if the owning helper unwinds, so the caller stops
/// waiting for it and panics too.
struct FlagUnwind<'a>(&'a AtomicBool);

impl Drop for FlagUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
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
/// mover from the caches, dirty only what the move invalidates — on one
/// thread, or split over the scratch's player ranges (see the module docs).
fn cgba_max_gain<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    let initial_cost = initial.total_cost(game);
    let width = scratch.split_width();
    let ranges = if width == 1 {
        1
    } else {
        (width * RANGES_PER_THREAD).min(game.structure().num_players())
    };
    scratch.excl.resize(ranges * game.structure().num_resources(), 0.0);
    let mut threads = 1;
    let mut changed = std::mem::take(&mut scratch.changed);
    changed.clear();
    let state = RwLock::new(MoveState { profile: initial, last: None, changed });
    let moves = std::mem::take(&mut scratch.moves);
    let mut mover = MoveLoop { game, config, filter, state: &state, moves, probes: 0 };
    let lambda = config.lambda;
    let mut whole = RangeCache::whole(scratch);
    let (iterations, converged) = if width == 1 {
        mover.run(should_stop, || {
            whole.phase(game, &state.read().expect("CGBA move state poisoned"), lambda, filter)
        })
    } else {
        let team = Team::new(whole.split(ranges));
        // Helper `k` starts each phase on its own block of ranges. A helper
        // the crew could not supply leaves its ranges to the threads
        // running: each range is claimed by whoever reaches it.
        let serve = |k: usize| team.serve(k * ranges / width, &state, game, lambda, filter);
        pool::with_helpers(width - 1, &serve, |helpers| {
            // Releases the helpers however the caller leaves the move loop,
            // before `with_helpers` waits for them.
            let _release = ReleaseHelpers(&team);
            threads += helpers;
            mover.run(should_stop, || team.phase(&state, game, lambda, filter))
        })
    };
    let MoveLoop { moves, probes, .. } = mover;
    let MoveState { profile, changed, .. } = state.into_inner().expect("CGBA move state poisoned");
    scratch.last_threads = threads;
    scratch.probes += probes;
    scratch.moves = moves;
    scratch.changed = changed;
    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// The calling thread's side of a MaxGain solve: the move loop. Only it
/// writes the [`MoveState`], and only between phases.
struct MoveLoop<'a, G> {
    game: &'a G,
    config: &'a CgbaConfig,
    /// Read only by the `naive-check` oracle.
    #[cfg_attr(not(any(test, feature = "naive-check")), allow(dead_code))]
    filter: Option<&'a StrategyFilter>,
    state: &'a RwLock<MoveState>,
    moves: Vec<(usize, usize)>,
    probes: u64,
}

impl<G: GameRef> MoveLoop<'_, G> {
    /// Moves until no player improves by more than λ (converged), until
    /// `should_stop` fires, or up to the iteration cap. `scan` runs one
    /// phase over every range and returns the combined candidate. Returns
    /// `(iterations, converged)`.
    fn run(
        &mut self,
        mut should_stop: impl FnMut() -> bool,
        mut scan: impl FnMut() -> Candidate,
    ) -> (usize, bool) {
        let mut iterations = 0;
        while iterations < self.config.max_iterations {
            if should_stop() {
                break;
            }
            let found = scan();
            self.probes += found.probes;
            let mut state = self.state.write().expect("CGBA move state poisoned");
            #[cfg(any(test, feature = "naive-check"))]
            assert_eq!(
                found.mover,
                naive_max_gain_mover(self.game, &state.profile, self.config, self.filter),
                "incremental MaxGain diverged from naive rescan at iteration {iterations}"
            );
            let Some(m) = found.mover else {
                return (iterations, true);
            };
            state.advance(self.game, m);
            self.moves.push(m);
            iterations += 1;
        }
        (iterations, false)
    }
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
    scratch.last_threads = 1;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CongestionGame;

    /// `players` players with `strategies` one- or two-resource strategies
    /// each over 12 resources.
    fn game(players: usize, strategies: usize, seed: u64) -> CongestionGame {
        let mut rng = Pcg32::seed(seed);
        let mut game = CongestionGame::new((0..12).map(|_| rng.uniform_in(0.2, 3.0)).collect());
        for _ in 0..players {
            game.add_player(
                (0..strategies)
                    .map(|_| {
                        let r = rng.below(12);
                        let mut strategy = vec![(r, rng.uniform_in(0.1, 2.0))];
                        if rng.below(2) == 0 {
                            strategy.push(((r + 1 + rng.below(11)) % 12, rng.uniform_in(0.1, 2.0)));
                        }
                        strategy
                    })
                    .collect(),
            );
        }
        game
    }

    fn solve(game: &CongestionGame, threads: usize) -> (CgbaReport, CgbaScratch) {
        let initial = Profile::random(game, &mut Pcg32::seed(9));
        let mut scratch = CgbaScratch::default();
        scratch.set_threads(threads);
        let report =
            cgba_from(game, initial, &CgbaConfig::default(), None, || false, false, &mut scratch);
        (report, scratch)
    }

    #[test]
    fn games_under_the_cutoff_scan_serially() {
        assert_eq!(MIN_SPLIT_ENTRIES % 40, 0);
        let per_player = MIN_SPLIT_ENTRIES / 40;
        for (strategies, threads) in [(per_player - 1, 1), (per_player, 2)] {
            let game = game(40, strategies, 3);
            let (serial, serial_scratch) = solve(&game, 1);
            let (split, scratch) = solve(&game, 2);
            assert_eq!(scratch.last_threads(), threads, "{} entries", 40 * strategies);
            assert_eq!(split, serial);
            assert_eq!(scratch.moves(), serial_scratch.moves());
        }
    }

    /// The excluded-load probe must reproduce `Profile::strategy_cost` bit
    /// for bit on the cases its identity argument names, at every width:
    /// players whose every candidate uses exactly the resources of their
    /// current strategy (each probe subtracts an own load on every
    /// resource), players whose moves drive a private resource back to
    /// exactly `0.0` (probed as `0.0 + w`), and filtered entries. The
    /// phase's own oracle checks every cached float; this pins the
    /// report, moves and probes against the serial run and, unfiltered,
    /// against the rescan reference.
    #[test]
    fn excluded_load_probes_match_the_reference_at_every_width() {
        let (players, per_player, shared) = (40, MIN_SPLIT_ENTRIES / 40 + 8, 12);
        let mut rng = Pcg32::seed(17);
        let mut game = CongestionGame::new(
            (0..shared + 2 * players).map(|_| rng.uniform_in(0.2, 3.0)).collect(),
        );
        for i in 0..players {
            let private = (shared + 2 * i, rng.uniform_in(0.1, 2.0));
            let strategies = (0..per_player)
                .map(|s| match i % 3 {
                    0 => [i % shared, (i + 5) % shared]
                        .map(|r| (r, rng.uniform_in(0.1, 2.0)))
                        .to_vec(),
                    1 => vec![
                        (private.0 + s % 2, private.1),
                        (rng.below(shared), rng.uniform_in(0.1, 2.0)),
                    ],
                    _ => vec![(rng.below(shared), rng.uniform_in(0.1, 2.0))],
                })
                .collect();
            game.add_player(strategies);
        }
        let initial = Profile::random(&game, &mut Pcg32::seed(5));
        let mut filter = StrategyFilter::allow_all(game.structure());
        for i in 0..players {
            for s in (i % 4..per_player).step_by(4) {
                filter.disallow(i, s);
            }
        }
        let config = CgbaConfig::default();
        let reference = cgba_from_reference(&game, initial.clone(), &config);
        for filter in [None, Some(&filter)] {
            let mut serial = None;
            for width in 1..=3 {
                let mut scratch = CgbaScratch::default();
                scratch.set_threads(width);
                let report = cgba_from(
                    &game,
                    initial.clone(),
                    &config,
                    filter,
                    || false,
                    false,
                    &mut scratch,
                );
                assert_eq!(scratch.last_threads(), width);
                let run = (report, scratch.moves().to_vec(), scratch.probes());
                let serial = serial.get_or_insert_with(|| run.clone());
                assert_eq!(&run, serial, "width {width}, filtered: {}", filter.is_some());
            }
            let (report, moves, _) = serial.take().expect("width 1 ran");
            assert!(
                moves.iter().any(|&(i, _)| i % 3 == 0),
                "a player over fixed resources must move"
            );
            // A player that ends on its other private resource left the
            // first one at exactly 0.0 on the way.
            assert!((0..players).any(|i| i % 3 == 1
                && report.profile.choices()[i] % 2 != initial.choices()[i] % 2
                && report.profile.loads()[shared + 2 * i + initial.choices()[i] % 2] == 0.0));
            if filter.is_none() {
                assert_eq!(report, reference);
            }
        }
    }

    /// A crew that supplies fewer helpers than the width asks for (a host
    /// refusing a thread part-way through the claim) must neither hang the
    /// solve nor change it: the helpers running and the caller share the
    /// missing helper's ranges.
    #[test]
    fn a_refused_helper_leaves_its_ranges_to_the_running_threads() {
        let game = game(70, 48, 4);
        let (serial, serial_scratch) = solve(&game, 1);
        for allowed in [0, 1] {
            pool::refuse_helpers_after(allowed);
            let (split, scratch) = solve(&game, 3);
            pool::refuse_helpers_after(usize::MAX);
            assert_eq!(scratch.last_threads(), 1 + allowed);
            assert_eq!(split, serial);
            assert_eq!(scratch.moves(), serial_scratch.moves());
            assert_eq!(scratch.probes(), serial_scratch.probes());
        }
    }
}
