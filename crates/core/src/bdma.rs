//! BDMA — Benders'-Decomposition-Motivated Algorithm for P2 (Alg. 2).
//!
//! P2 couples discrete decisions `(x, y)` with continuous frequencies `Ω`.
//! BDMA(z) alternates, for `z` rounds, between
//!
//! 1. **P2-A** — fix `Ω`, pick `(x, y)` (a congestion-game solver; the
//!    paper's choice is CGBA, with ROPT/MCBA as baselines — see
//!    [`crate::baselines`]), and
//! 2. **P2-B** — fix `(x, y)`, optimize `Ω` exactly
//!    ([`crate::p2b::solve_p2b`]),
//!
//! keeping the best `(x̄, ȳ, Ω̄)` by the P2 objective
//! `f = V·T_t + Q(t)·Θ(Ω, p_t)`. Theorem 3 gives the per-slot guarantee
//! `R = 2.62·R_F/(1−8λ)` already for `z = 1` starting from `Ω = Ω^L`;
//! additional rounds only improve the incumbent (asserted in tests).

use std::fmt;

use eotora_game::{
    cgba_from_reference, cgba_from_with_scratch, cgba_warm_from_with_scratch, CgbaConfig,
    CgbaReport, CgbaScratch, Profile,
};
use eotora_obs::{NoopRecorder, Recorder, SpanGuard, TraceEvent};
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;
use serde::{Deserialize, Serialize};

use crate::decision::Assignment;
use crate::p2a::P2aProblem;
use crate::p2b::solve_p2b;
use crate::system::MecSystem;
use crate::workspace::SlotWorkspace;

/// A pluggable solver for the P2-A subproblem (the `(x, y)` step).
///
/// Returning *strategy choices* (indices into each player's strategy list)
/// rather than raw assignments keeps feasibility by construction.
pub trait P2aSolver: fmt::Debug {
    /// Short name used in experiment reports ("CGBA", "ROPT", "MCBA", ...).
    fn name(&self) -> &'static str;

    /// Produces one strategy choice per device.
    fn solve(&mut self, problem: &P2aProblem, rng: &mut Pcg32) -> Vec<usize>;

    /// Like [`P2aSolver::solve`], additionally reporting solver-specific
    /// counters (CGBA best-response iterations, MCBA proposal acceptances,
    /// branch-and-bound nodes, ...) into `recorder`. The default ignores
    /// the recorder.
    fn solve_with(
        &mut self,
        problem: &P2aProblem,
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        let _ = recorder;
        self.solve(problem, rng)
    }

    /// Like [`P2aSolver::solve_with`], additionally offered `seed` — the
    /// previous converged strategy choices (from the last slot, or the last
    /// BDMA round) as a warm start. Solvers that cannot exploit a seed
    /// (ROPT, MCBA, greedy, exact) ignore it and fall back to
    /// [`P2aSolver::solve_with`]; `seed = None` must behave exactly like
    /// [`P2aSolver::solve_with`], including RNG consumption.
    fn solve_seeded(
        &mut self,
        problem: &P2aProblem,
        seed: Option<&[usize]>,
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        let _ = seed;
        self.solve_with(problem, rng, recorder)
    }
}

/// The paper's P2-A solver: CGBA(λ) best-response dynamics. Owns a
/// [`CgbaScratch`] so repeated solves (rounds × slots) are allocation-free,
/// plus a second scratch dedicated to seeded (warm) solves: cold restarts
/// between warm rounds would otherwise wipe the converged-profile snapshot
/// the warm fast path re-scans against, turning every warm start back into
/// a full scan.
#[derive(Debug, Clone, Default)]
pub struct CgbaSolver {
    /// CGBA parameters (λ, iteration cap, scheduling rule).
    pub config: CgbaConfig,
    scratch: CgbaScratch,
    warm_scratch: CgbaScratch,
}

impl CgbaSolver {
    /// CGBA with the given λ and default scheduling.
    pub fn with_lambda(lambda: f64) -> Self {
        Self { config: CgbaConfig { lambda, ..Default::default() }, ..Default::default() }
    }
}

impl P2aSolver for CgbaSolver {
    fn name(&self) -> &'static str {
        "CGBA"
    }

    fn solve(&mut self, problem: &P2aProblem, rng: &mut Pcg32) -> Vec<usize> {
        self.solve_with(problem, rng, &NoopRecorder)
    }

    fn solve_with(
        &mut self,
        problem: &P2aProblem,
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        let initial = Profile::random(problem.game(), rng);
        let probes_before = self.scratch.probes();
        let report =
            cgba_from_with_scratch(problem.game(), initial, &self.config, &mut self.scratch);
        CgbaTally::of(&report, self.scratch.probes() - probes_before, false).emit(recorder);
        report.profile.choices().to_vec()
    }

    fn solve_seeded(
        &mut self,
        problem: &P2aProblem,
        seed: Option<&[usize]>,
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        // A seed that no longer matches the game's player count cannot be
        // repaired — fall back to the cold path (which must stay identical
        // to `solve_with`, RNG draws included).
        let warm_seed = seed.and_then(|c| Profile::from_retained_choices(problem.game(), c));
        let Some(initial) = warm_seed else {
            return self.solve_with(problem, rng, recorder);
        };
        let probes_before = self.warm_scratch.probes();
        let report = cgba_warm_from_with_scratch(
            problem.game(),
            initial,
            &self.config,
            &mut self.warm_scratch,
        );
        CgbaTally::of(&report, self.warm_scratch.probes() - probes_before, true).emit(recorder);
        report.profile.choices().to_vec()
    }
}

/// One P2-A CGBA solve's work, emitted as the `cgba.*` counters (plus
/// `shard.*` for a sharded solve). Every CGBA solve reports through
/// [`CgbaTally::emit`]: sequential, sharded, plain and robust.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CgbaTally {
    pub iterations: u64,
    pub probes: u64,
    pub converged: bool,
    pub warm: bool,
    /// `None` for a sequential solve.
    pub shards: Option<ShardTally>,
}

/// The `shard.*` counts of a sharded solve: shards solved, shards the
/// deadline cut short, cut players, and reconcile moves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardTally {
    pub solves: u64,
    pub degraded: u64,
    pub cut_players: u64,
    pub reconcile_moves: u64,
}

impl CgbaTally {
    /// The tally of one sequential run.
    pub(crate) fn of(report: &CgbaReport, probes: u64, warm: bool) -> Self {
        Self {
            iterations: report.iterations as u64,
            probes,
            converged: report.converged,
            warm,
            shards: None,
        }
    }

    /// Adds the counters to `recorder`.
    pub(crate) fn emit(&self, recorder: &dyn Recorder) {
        if !recorder.is_enabled() {
            return;
        }
        recorder.add(eotora_obs::COUNTER_CGBA_ITERATIONS, self.iterations);
        recorder.add(eotora_obs::COUNTER_CGBA_PROBES, self.probes);
        if self.warm {
            recorder.add(eotora_obs::COUNTER_CGBA_WARM_MOVES, self.iterations);
        }
        if self.converged {
            recorder.add(eotora_obs::COUNTER_CGBA_CONVERGED, 1);
        }
        let Some(shards) = self.shards else { return };
        recorder.add(eotora_obs::COUNTER_SHARD_SOLVES, shards.solves);
        if shards.degraded > 0 {
            recorder.add(eotora_obs::COUNTER_SHARD_DEADLINE_DEGRADED, shards.degraded);
        }
        if shards.cut_players > 0 {
            recorder.add(eotora_obs::COUNTER_SHARD_CUT_PLAYERS, shards.cut_players);
            recorder.add(eotora_obs::COUNTER_SHARD_RECONCILE_MOVES, shards.reconcile_moves);
        }
    }
}

/// How each slot's BDMA solve is initialized.
///
/// The paper's Algorithm 2 starts every slot cold: `Ω ← Ω^L` and a
/// uniformly random CGBA profile. System states are temporally correlated,
/// so the previous slot's converged `(profile, Ω̄)` is usually near the new
/// slot's equilibrium — warm policies reuse it and converge in far fewer
/// best-response moves (and, with ε termination, fewer BDMA rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StartPolicy {
    /// The paper-faithful initialization. Default, and required for the
    /// bit-identity guarantee against [`solve_p2_reference`].
    #[default]
    Cold,
    /// Seed round 0's P2-A with the retained previous-slot profile
    /// (repaired against the current game) and start P2-B's alternation
    /// from the retained frequencies instead of `Ω^L`; rounds after the
    /// first chain from the previous round's converged profile, so every
    /// CGBA run rides the incremental snapshot fast path. When the chain
    /// ε-stalls, some slots spend one cold exploration probe (every third
    /// slot, or every slot while probes keep winning materially — see
    /// DESIGN.md §5c); a probe that beats the incumbent hands its basin to
    /// the chain. Use [`StartPolicy::WarmWithRestart`] to force
    /// unconditional round-0 restart races on drifting traces.
    Warm,
    /// [`StartPolicy::Warm`], but every `period`-th slot additionally races
    /// one cold random restart and keeps the better P2-A profile — guards
    /// against the warm seed pinning the dynamics in a sticky local
    /// equilibrium on drifting traces.
    WarmWithRestart {
        /// Race a restart whenever `slot % period == 0` (`period = 1` races
        /// every slot; `period = 0` never races, i.e. plain `Warm`).
        period: u64,
    },
}

/// Configuration for [`solve_p2`].
#[derive(Debug, Clone)]
pub struct BdmaConfig {
    /// Number of alternation rounds `z` (paper default in §VI-C: 5).
    pub rounds: usize,
    /// Relative early-termination threshold: under a warm [`StartPolicy`],
    /// stop alternating once a round improves the incumbent objective by
    /// less than `epsilon · |f|`, reporting `rounds_used ≤ z`. Ignored
    /// under [`StartPolicy::Cold`], which always runs all `z` rounds (the
    /// bit-identity guarantee pins the RNG stream). Safe by the incumbent's
    /// round monotonicity: the kept solution is never worse than any
    /// earlier round's.
    pub epsilon: f64,
    /// Cross-slot initialization policy.
    pub start: StartPolicy,
}

impl Default for BdmaConfig {
    fn default() -> Self {
        Self { rounds: 5, epsilon: 1e-9, start: StartPolicy::Cold }
    }
}

/// Relative objective margin above which a winning exploration probe marks
/// the retained basin as stale (raising the next slot's probe rate, see
/// [`SlotWorkspace::set_probe_hot`]). Deliberately much coarser than
/// [`BdmaConfig::epsilon`]: large games have many near-equivalent
/// equilibria, so probes *routinely* win by dust — only a material win
/// says the chain is stuck somewhere genuinely worse.
const PROBE_HOT_MARGIN: f64 = 1e-3;

/// A P2 solution `(x̄, ȳ, Ω̄)` with its objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Solution {
    /// Per-device `(base station, server)` assignment.
    pub assignments: Vec<Assignment>,
    /// Per-server frequencies in Hz.
    pub freqs_hz: Vec<f64>,
    /// `f(x̄, ȳ, Ω̄) = V·T_t + Q·Θ`.
    pub objective: f64,
    /// Latency `T_t` at the solution (under Lemma 1 allocation).
    pub latency: f64,
    /// Energy cost `C_t` at the solution, in dollars.
    pub energy_cost: f64,
    /// BDMA rounds actually executed (`= z` cold; `≤ z` under a warm
    /// [`StartPolicy`] with ε early termination).
    pub rounds_used: usize,
}

/// Runs BDMA(z) for one slot with the given P2-A solver (Alg. 2).
///
/// Convenience wrapper over [`solve_p2_with`] that records nothing.
///
/// # Panics
///
/// Panics if `config.rounds == 0` or `v` is not positive.
pub fn solve_p2(
    system: &MecSystem,
    state: &SystemState,
    v: f64,
    queue: f64,
    config: &BdmaConfig,
    p2a_solver: &mut dyn P2aSolver,
    rng: &mut Pcg32,
) -> P2Solution {
    solve_p2_with(system, state, v, queue, config, p2a_solver, rng, 0, &NoopRecorder)
}

/// Runs BDMA(z) for one slot, reporting per-round instrumentation.
///
/// Each alternation round emits a `p2a` and a `p2b` span plus one
/// `bdma_iteration` event carrying the candidate objective, whether it
/// displaced the incumbent, and both phase durations; `bdma_rounds` /
/// `bdma_accepted` counters track totals. `slot` only labels the emitted
/// events — it does not affect the solve.
///
/// # Panics
///
/// Panics if `config.rounds == 0` or `v` is not positive.
#[allow(clippy::too_many_arguments)]
pub fn solve_p2_with(
    system: &MecSystem,
    state: &SystemState,
    v: f64,
    queue: f64,
    config: &BdmaConfig,
    p2a_solver: &mut dyn P2aSolver,
    rng: &mut Pcg32,
    slot: u64,
    recorder: &dyn Recorder,
) -> P2Solution {
    let mut workspace = SlotWorkspace::new();
    solve_p2_in(system, state, v, queue, config, p2a_solver, rng, slot, recorder, &mut workspace)
}

/// Runs BDMA(z) for one slot against a caller-owned [`SlotWorkspace`] — the
/// zero-rebuild entry point. The first call builds the P2-A game; every
/// later call (and every round within a call) refreshes its weights in
/// place. Results are bit-identical to [`solve_p2_with`] /
/// [`solve_p2_reference`] for the same inputs and RNG stream.
///
/// The workspace must always be passed the same `system` (a changed
/// topology shape falls back to a fresh build).
///
/// # Panics
///
/// Panics if `config.rounds == 0` or `v` is not positive.
#[allow(clippy::too_many_arguments)]
pub fn solve_p2_in(
    system: &MecSystem,
    state: &SystemState,
    v: f64,
    queue: f64,
    config: &BdmaConfig,
    p2a_solver: &mut dyn P2aSolver,
    rng: &mut Pcg32,
    slot: u64,
    recorder: &dyn Recorder,
    workspace: &mut SlotWorkspace,
) -> P2Solution {
    assert!(config.rounds > 0, "BDMA needs at least one round");
    assert!(v > 0.0, "penalty weight must be positive");

    let warm = config.start != StartPolicy::Cold;
    // Copy the retained seeds out before `prepare` takes the mutable borrow
    // (steady-state cost: one small copy per slot, warm modes only).
    let retained_choices: Option<Vec<usize>> =
        if warm { workspace.retained_choices().map(<[usize]>::to_vec) } else { None };
    let retained_freqs: Option<Vec<f64>> = if warm {
        workspace
            .retained_freqs()
            .filter(|f| f.len() == system.min_frequencies().len())
            .map(<[f64]>::to_vec)
    } else {
        None
    };

    let mut best: Option<P2Solution> = None;
    // The last *warm-path* converged profile — what the next slot's round 0
    // is seeded with. Kept separate from the incumbent's choices because
    // the warm CGBA scratch snapshots its own last converged profile: only
    // a seed equal to that snapshot rides the incremental fast path.
    let mut chain_choices: Vec<usize> = Vec::new();
    let mut last_choices: Option<Vec<usize>> = None;
    // At most one cold probe per slot, spent only after the warm chain
    // stalls: it buys exploration (a chance to escape a stale basin)
    // without paying a full random restart every round. The baseline rate
    // is every third slot — a basin rarely goes stale within a couple of
    // slots, and skipping keeps the typical slot at pure chain cost (a
    // probe costs a full cold solve, an order of magnitude more than a
    // chained round) — but while probes keep *winning* (the retained basin
    // is drifting stale) every slot probes until they stop paying.
    let probe_allowed = slot.is_multiple_of(3) || workspace.probe_hot();
    let mut probe_next = false;
    let mut probe_won = false;
    let mut explored = false;
    let mut rounds_used = 0;

    for round in 0..config.rounds {
        // Line 3: solve P2-A at the current frequencies.
        let p2a_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2A);
        let p2a = if round == 0 {
            // Line 1 of Alg. 2: Ω ← Ω^L — or, warm, the previous slot's Ω̄
            // (P2-B's alternation then continues where the last slot ended).
            match &retained_freqs {
                Some(freqs) => workspace.prepare(system, state, freqs),
                None => workspace.prepare(system, state, &system.min_frequencies()),
            }
        } else {
            workspace.refresh_frequencies(system)
        };
        // Warm rounds seed P2-A with the nearest converged profile: the
        // previous slot's chain end in round 0, the previous round's result
        // after (only server weights moved between rounds, so the CGBA
        // snapshot fast path re-scans almost nobody). A probe round runs
        // cold — `solve_seeded(None)` is `solve_with` on the solver's cold
        // scratch, leaving the warm snapshot intact.
        let probe = warm && probe_next;
        probe_next = false;
        let seed = if !warm || probe {
            None
        } else if round == 0 {
            retained_choices.as_deref()
        } else {
            last_choices.as_deref()
        };
        let race_restart = round == 0
            && seed.is_some()
            && matches!(config.start, StartPolicy::WarmWithRestart { period }
                if period > 0 && slot.is_multiple_of(period));
        let choices = if race_restart {
            // Cold and seeded runs use separate scratches, so the race
            // leaves the warm snapshot of the seeded run intact either way.
            let cold = p2a_solver.solve_with(p2a, rng, recorder);
            let seeded = p2a_solver.solve_seeded(p2a, seed, rng, recorder);
            let game = p2a.game();
            let social = |c: &[usize]| Profile::from_choices(game, c.to_vec()).total_cost(game);
            if social(&cold) < social(&seeded) {
                cold
            } else {
                seeded
            }
        } else {
            p2a_solver.solve_seeded(p2a, seed, rng, recorder)
        };
        let assignments = p2a.assignments_from_choices(&choices);
        let p2a_nanos = p2a_span.finish().unwrap_or(0);
        // Line 4: solve P2-B at the chosen assignment.
        let p2b_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2B);
        let p2b = solve_p2b(system, state, &assignments, v, queue);
        let p2b_nanos = p2b_span.finish().unwrap_or(0);
        // Latch the new frequencies for the next round's refresh (this
        // replaces the old per-round `freqs_hz.clone()`).
        workspace.set_freqs(&p2b.freqs_hz);
        // Lines 5–7: keep the incumbent with the best P2 objective.
        let latency =
            crate::latency::optimal_latency(system, state, &assignments, &p2b.freqs_hz).total();
        let energy_cost = system.energy_cost(state.price_per_kwh, &p2b.freqs_hz);
        let candidate = P2Solution {
            assignments,
            freqs_hz: p2b.freqs_hz,
            objective: p2b.objective,
            latency,
            energy_cost,
            rounds_used: 0,
        };
        let prev_objective = best.as_ref().map(|b| b.objective);
        let accepted = best.as_ref().is_none_or(|b| candidate.objective < b.objective);
        if recorder.is_enabled() {
            recorder.record(&TraceEvent::BdmaIteration {
                slot,
                round: round as u64 + 1,
                objective: candidate.objective,
                accepted,
                p2a_nanos,
                p2b_nanos,
            });
            recorder.add(eotora_obs::COUNTER_BDMA_ROUNDS, 1);
            if accepted {
                recorder.add(eotora_obs::COUNTER_BDMA_ACCEPTED, 1);
            }
        }
        if accepted {
            best = Some(candidate);
        }
        if warm && !probe {
            chain_choices.clear();
            chain_choices.extend_from_slice(&choices);
        }
        rounds_used = round + 1;
        last_choices = Some(choices);
        // ε early termination (warm modes only — Cold must consume the same
        // RNG stream as the reference): the incumbent is monotone over
        // rounds, so stopping on a sub-ε round keeps every guarantee of the
        // rounds already run. On probing slots the first stall spends the
        // cold probe instead of exiting; a probe that beats the incumbent
        // by ε keeps the loop alive (the chain adopts its basin through
        // `last_choices`), a probe that doesn't ends the slot.
        if warm && round >= 1 {
            let prev = prev_objective.expect("rounds after the first have an incumbent");
            let improvement = prev - best.as_ref().expect("incumbent exists").objective;
            if improvement <= config.epsilon * prev.abs() {
                if explored || !probe_allowed {
                    break;
                }
                explored = true;
                probe_next = true;
            } else if probe && improvement > PROBE_HOT_MARGIN * prev.abs() {
                // The probe found a *materially* better basin, not ε-dust:
                // the retained basin is stale, so keep probing next slot.
                // Sub-margin wins are routine equilibrium-selection noise
                // (near-equivalent equilibria abound at scale) and must not
                // escalate the probe rate.
                probe_won = true;
            }
        }
    }
    if recorder.is_enabled() && rounds_used < config.rounds {
        recorder.add(eotora_obs::COUNTER_BDMA_ROUNDS_SAVED, (config.rounds - rounds_used) as u64);
    }
    let mut best = best.expect("at least one round ran");
    best.rounds_used = rounds_used;
    if warm {
        // Seed the next slot from the chain end (which matches the warm
        // scratch's snapshot), not the incumbent: the returned solution is
        // still the incumbent, only the seeding differs.
        workspace.retain_solution(&chain_choices, &best.freqs_hz);
        workspace.set_probe_hot(probe_won);
    }
    best
}

/// The pre-refactor BDMA(z) loop, verbatim: a fresh [`P2aProblem::build`]
/// and full game validation every round, the naive-rescan
/// [`cgba_from_reference`] as the P2-A step, and a frequency clone per
/// round. Kept as the equivalence oracle and benchmark baseline for the
/// zero-rebuild path — it must produce bit-identical [`P2Solution`]s to
/// [`solve_p2_in`] with a [`CgbaSolver`] for the same inputs and RNG
/// stream.
///
/// # Panics
///
/// Panics if `config.rounds == 0` or `v` is not positive.
pub fn solve_p2_reference(
    system: &MecSystem,
    state: &SystemState,
    v: f64,
    queue: f64,
    config: &BdmaConfig,
    cgba_config: &CgbaConfig,
    rng: &mut Pcg32,
) -> P2Solution {
    assert!(config.rounds > 0, "BDMA needs at least one round");
    assert!(v > 0.0, "penalty weight must be positive");

    // Line 1 of Alg. 2: Ω ← Ω^L.
    let mut freqs = system.min_frequencies();
    let mut best: Option<P2Solution> = None;

    for _ in 0..config.rounds {
        let p2a = P2aProblem::build(system, state, &freqs);
        let initial = Profile::random(p2a.game(), rng);
        let report = cgba_from_reference(p2a.game(), initial, cgba_config);
        let assignments = p2a.assignments_from_choices(report.profile.choices());
        let p2b = solve_p2b(system, state, &assignments, v, queue);
        freqs = p2b.freqs_hz.clone();
        let latency =
            crate::latency::optimal_latency(system, state, &assignments, &p2b.freqs_hz).total();
        let energy_cost = system.energy_cost(state.price_per_kwh, &p2b.freqs_hz);
        let candidate = P2Solution {
            assignments,
            freqs_hz: p2b.freqs_hz,
            objective: p2b.objective,
            latency,
            energy_cost,
            rounds_used: 0,
        };
        if best.as_ref().is_none_or(|b| candidate.objective < b.objective) {
            best = Some(candidate);
        }
    }
    let mut best = best.expect("at least one round ran");
    // The reference loop always runs all z rounds (it predates warm starts
    // and ε termination; `config.epsilon`/`config.start` are ignored).
    best.rounds_used = config.rounds;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use eotora_states::{PaperStateConfig, StateProvider};
    use eotora_util::assert_close;

    fn setup(devices: usize, seed: u64) -> (MecSystem, SystemState) {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        (system, state)
    }

    fn run(
        system: &MecSystem,
        state: &SystemState,
        v: f64,
        q: f64,
        rounds: usize,
        seed: u64,
    ) -> P2Solution {
        let mut solver = CgbaSolver::default();
        let mut rng = Pcg32::seed(seed);
        solve_p2(
            system,
            state,
            v,
            q,
            &BdmaConfig { rounds, ..Default::default() },
            &mut solver,
            &mut rng,
        )
    }

    #[test]
    fn solution_is_feasible() {
        let (system, state) = setup(25, 41);
        let sol = run(&system, &state, 100.0, 50.0, 5, 1);
        let decision =
            crate::allocation::optimal_allocation(&system, &state, &sol.assignments, &sol.freqs_hz);
        decision.validate(&system).unwrap();
    }

    #[test]
    fn more_rounds_never_hurt() {
        let (system, state) = setup(20, 42);
        // Identical RNG seeds: round r's trajectory is a prefix, so the
        // incumbent can only improve.
        let obj: Vec<f64> =
            [1, 2, 5].iter().map(|&z| run(&system, &state, 100.0, 80.0, z, 7).objective).collect();
        assert!(obj[1] <= obj[0] + 1e-9);
        assert!(obj[2] <= obj[1] + 1e-9);
    }

    #[test]
    fn objective_decomposition() {
        let (system, state) = setup(15, 43);
        let (v, q) = (120.0, 60.0);
        let sol = run(&system, &state, v, q, 3, 2);
        let excess = sol.energy_cost - system.budget_per_slot();
        assert_close!(sol.objective, v * sol.latency + q * excess, 1e-9);
    }

    #[test]
    fn zero_queue_runs_hot() {
        // Without queue pressure BDMA should use max frequencies on loaded
        // servers — energy cost near the fleet maximum.
        let (system, state) = setup(30, 44);
        let sol = run(&system, &state, 100.0, 0.0, 3, 3);
        let max_cost = system.energy_cost(state.price_per_kwh, &system.max_frequencies());
        // All 16 servers are typically loaded with 30 devices; allow slack
        // for unloaded servers parked at F^L.
        assert!(sol.energy_cost > 0.85 * max_cost, "{} vs {max_cost}", sol.energy_cost);
    }

    #[test]
    fn heavy_queue_runs_cold() {
        let (system, state) = setup(30, 45);
        let sol = run(&system, &state, 1.0, 1e9, 3, 4);
        let min_cost = system.energy_cost(state.price_per_kwh, &system.min_frequencies());
        assert_close!(sol.energy_cost, min_cost, 1e-3);
    }

    /// Asserts Theorem 3's per-slot bound `f(sol) ≤ R·V·T(any) + Q·Θ(any)`
    /// against a batch of random feasible decisions with R = 2.62·R_F
    /// (λ = 0).
    fn assert_theorem3_bound(
        system: &MecSystem,
        state: &SystemState,
        sol: &P2Solution,
        v: f64,
        q: f64,
        label: &str,
    ) {
        let r = 2.62 * system.topology().max_frequency_ratio();
        let mut rng = Pcg32::seed(99);
        let topo = system.topology();
        let devices = state.task_cycles.len();
        for _ in 0..50 {
            let assignments: Vec<Assignment> = (0..devices)
                .map(|_| {
                    let k = eotora_topology::BaseStationId(rng.below(topo.num_base_stations()));
                    let server = *rng.pick(&topo.servers_reachable_from(k)).unwrap();
                    Assignment { base_station: k, server }
                })
                .collect();
            let freqs: Vec<f64> = topo
                .server_ids()
                .map(|n| {
                    let s = topo.server(n);
                    rng.uniform_in(s.freq_min_hz, s.freq_max_hz)
                })
                .collect();
            let t_ref =
                crate::latency::optimal_latency(system, state, &assignments, &freqs).total();
            let theta_ref = system.constraint_excess(state.price_per_kwh, &freqs);
            assert!(
                sol.objective <= r * v * t_ref + q * theta_ref + 1e-6,
                "Theorem 3 bound violated ({label}): {} > {}",
                sol.objective,
                r * v * t_ref + q * theta_ref
            );
        }
    }

    /// Runs `slots` consecutive warm-started slot solves against one shared
    /// workspace (so every slot after the first is genuinely seeded from
    /// the previous incumbent), returning the per-slot solutions and the
    /// states that produced them.
    fn run_warm_slots(
        devices: usize,
        seed: u64,
        v: f64,
        config: &BdmaConfig,
        slots: u64,
    ) -> (MecSystem, Vec<SystemState>, Vec<P2Solution>) {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let mut provider =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let mut solver = CgbaSolver::default();
        let mut workspace = SlotWorkspace::new();
        let mut rng = Pcg32::seed_stream(seed, 0xD99);
        let mut queue = 0.0;
        let mut states = Vec::new();
        let mut sols = Vec::new();
        for slot in 0..slots {
            let state = provider.observe(slot, system.topology());
            let sol = solve_p2_in(
                &system,
                &state,
                v,
                queue,
                config,
                &mut solver,
                &mut rng,
                slot,
                &NoopRecorder,
                &mut workspace,
            );
            queue = (queue + sol.energy_cost - system.budget_per_slot()).max(0.0);
            states.push(state);
            sols.push(sol);
        }
        (system, states, sols)
    }

    #[test]
    fn per_slot_guarantee_vs_reference_decisions() {
        // Theorem 3 for the paper-faithful cold path…
        let (system, state) = setup(12, 46);
        let (v, q) = (100.0, 40.0);
        let sol = run(&system, &state, v, q, 5, 5);
        assert_theorem3_bound(&system, &state, &sol, v, q, "cold");

        // …and for `Warm`: the warm seed only changes where the dynamics
        // start, CGBA still converges to a λ-equilibrium and BDMA's round-1
        // guarantee covers the incumbent, so the same bound must hold at
        // every slot of a warm-started run (queue = 0 keeps Θ's weight out
        // of the per-slot comparison).
        let config = BdmaConfig { rounds: 5, epsilon: 1e-9, start: StartPolicy::Warm };
        let (system, states, sols) = run_warm_slots(12, 46, v, &config, 4);
        for (slot, (state, sol)) in states.iter().zip(&sols).enumerate() {
            assert!(sol.rounds_used >= 1 && sol.rounds_used <= 5, "slot {slot}");
            assert_theorem3_bound(&system, state, sol, v, 0.0, &format!("warm slot {slot}"));
        }
    }

    #[test]
    fn warm_early_termination_cuts_rounds() {
        let config = BdmaConfig { rounds: 5, epsilon: 1e-9, start: StartPolicy::Warm };
        let (system, _, sols) = run_warm_slots(15, 52, 100.0, &config, 6);
        let total: usize = sols.iter().map(|s| s.rounds_used).sum();
        assert!(
            total < 5 * sols.len(),
            "ε termination never fired: {total} rounds over {} slots",
            sols.len()
        );
        let _ = system;
    }

    #[test]
    fn warm_with_restart_stays_feasible_and_bounded() {
        let config = BdmaConfig {
            rounds: 3,
            epsilon: 1e-9,
            start: StartPolicy::WarmWithRestart { period: 2 },
        };
        let (system, states, sols) = run_warm_slots(12, 53, 100.0, &config, 5);
        for (state, sol) in states.iter().zip(&sols) {
            let decision = crate::allocation::optimal_allocation(
                &system,
                state,
                &sol.assignments,
                &sol.freqs_hz,
            );
            decision.validate(&system).unwrap();
            assert_theorem3_bound(&system, state, sol, 100.0, 0.0, "warm+restart");
        }
    }

    #[test]
    fn solve_seeded_without_seed_matches_solve_with() {
        // The Cold path routes through `solve_seeded(seed: None)`, which
        // must consume the same RNG stream and produce the same choices as
        // the plain `solve_with` (the bit-identity guarantee rides on it).
        let (system, state) = setup(10, 54);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut a = CgbaSolver::default();
        let mut b = CgbaSolver::default();
        let mut rng_a = Pcg32::seed(17);
        let mut rng_b = Pcg32::seed(17);
        let plain = a.solve_with(&problem, &mut rng_a, &NoopRecorder);
        let seeded = b.solve_seeded(&problem, None, &mut rng_b, &NoopRecorder);
        assert_eq!(plain, seeded);
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let (system, state) = setup(4, 47);
        run(&system, &state, 1.0, 0.0, 0, 1);
    }

    #[test]
    fn workspace_path_matches_reference_across_slots() {
        // The zero-rebuild path (reused workspace + incremental CGBA) must
        // be bit-identical to the pre-refactor loop across a stream of
        // slots with varying states and queue backlogs.
        use crate::workspace::SlotWorkspace;
        use eotora_states::{PaperStateConfig, StateProvider};

        let system = MecSystem::random(&crate::system::SystemConfig::paper_defaults(16), 48);
        let mut provider =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), 48);
        let config = BdmaConfig { rounds: 3, ..Default::default() };
        let mut solver = CgbaSolver::default();
        let mut workspace = SlotWorkspace::new();
        let mut rng_new = Pcg32::seed(9);
        let mut rng_ref = Pcg32::seed(9);
        let mut queue = 0.0;
        for slot in 0..6u64 {
            let state = provider.observe(slot, system.topology());
            let v = 100.0;
            let sol = solve_p2_in(
                &system,
                &state,
                v,
                queue,
                &config,
                &mut solver,
                &mut rng_new,
                slot,
                &NoopRecorder,
                &mut workspace,
            );
            let reference = solve_p2_reference(
                &system,
                &state,
                v,
                queue,
                &config,
                &solver.config,
                &mut rng_ref,
            );
            assert_eq!(sol, reference, "slot {slot}");
            // Evolve the queue like DPP would, so later slots see different
            // backlogs.
            queue = (queue + sol.energy_cost - system.budget_per_slot()).max(0.0);
        }
    }

    #[test]
    fn solve_p2_with_matches_reference() {
        // The temp-workspace wrapper is the same computation.
        let (system, state) = setup(12, 49);
        let mut solver = CgbaSolver::default();
        let sol = solve_p2(
            &system,
            &state,
            80.0,
            30.0,
            &BdmaConfig { rounds: 2, ..Default::default() },
            &mut solver,
            &mut Pcg32::seed(11),
        );
        let reference = solve_p2_reference(
            &system,
            &state,
            80.0,
            30.0,
            &BdmaConfig { rounds: 2, ..Default::default() },
            &CgbaConfig::default(),
            &mut Pcg32::seed(11),
        );
        assert_eq!(sol, reference);
    }
}
