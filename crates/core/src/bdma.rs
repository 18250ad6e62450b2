//! BDMA — Benders'-Decomposition-Motivated Algorithm for P2 (Alg. 2).
//!
//! P2 couples discrete decisions `(x, y)` with continuous frequencies `Ω`.
//! BDMA(z) alternates, for `z` rounds, between
//!
//! 1. **P2-A** — fix `Ω`, pick `(x, y)` (a congestion-game solver; the
//!    paper's choice is CGBA, see [`crate::sharded`], with ROPT/MCBA as
//!    baselines — see [`crate::baselines`]), and
//! 2. **P2-B** — fix `(x, y)`, optimize `Ω` exactly
//!    ([`crate::p2b::solve_p2b`]),
//!
//! keeping the best `(x̄, ȳ, Ω̄)` by the P2 objective
//! `f = V·T_t + Q(t)·Θ(Ω, p_t)`. Theorem 3 gives the per-slot guarantee
//! `R = 2.62·R_F/(1−8λ)` already for `z = 1` starting from `Ω = Ω^L`;
//! additional rounds only improve the incumbent (asserted in tests).
//!
//! [`solve_p2`] is the one loop. Its seed comes from the [`StartPolicy`]
//! (the paper's `Cold` random profile, or `Warm`), and the optional
//! [`RobustHooks`] — the slot's availability mask and deadline — turn on
//! the fault-tolerant behaviour described in [`crate::robust`].

use std::fmt;
use std::time::Instant;

use eotora_game::{cgba_from_reference, CgbaConfig, Profile, StrategyFilter};
use eotora_obs::{Recorder, SpanGuard, TraceEvent};
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;
use serde::{Deserialize, Serialize};

use crate::decision::Assignment;
use crate::error::SolveError;
use crate::p2a::P2aProblem;
use crate::p2b::solve_p2b;
use crate::robust::{check_state_well_formed, masked_seed, RobustHooks, RobustReport, RETRY_LIMIT};
use crate::system::MecSystem;
use crate::workspace::SlotWorkspace;

/// A pluggable solver for the P2-A subproblem (the `(x, y)` step).
///
/// Returning *strategy choices* (indices into each player's strategy list)
/// rather than raw assignments keeps feasibility by construction.
pub trait P2aSolver: fmt::Debug {
    /// Short name used in experiment reports ("CGBA", "ROPT", "MCBA", ...).
    fn name(&self) -> &'static str;

    /// Produces one strategy choice per device, reporting solver-specific
    /// counters (CGBA iterations, MCBA acceptances, B&B nodes, ...) into
    /// `recorder`. `seed` is the previous converged choices as a warm start
    /// (ignored by solvers that cannot use one; without it CGBA draws a
    /// random profile from `rng`), `filter` the strategies an availability
    /// mask allows, and `should_stop` the anytime deadline.
    ///
    /// # Errors
    ///
    /// [`SolveError::FilterUnsupported`] from a solver given a filter it
    /// cannot honour — it must not silently ignore the mask.
    fn solve(
        &mut self,
        problem: &P2aProblem,
        seed: Option<&[usize]>,
        filter: Option<&StrategyFilter>,
        should_stop: &(dyn Fn() -> bool + Sync),
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Result<Vec<usize>, SolveError>;
}

/// How each slot's BDMA solve is initialized.
///
/// The paper's Algorithm 2 starts every slot cold: `Ω ← Ω^L` and a
/// uniformly random CGBA profile. System states are temporally correlated,
/// so the previous slot's converged `(profile, Ω̄)` is usually near the new
/// slot's equilibrium — `Warm` reuses it and converges in far fewer
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
    /// the chain.
    Warm,
}

/// Configuration for [`solve_p2`].
#[derive(Debug, Clone)]
pub struct BdmaConfig {
    /// Number of alternation rounds `z` (paper default in §VI-C: 5).
    pub rounds: usize,
    /// Relative early-termination threshold: under [`StartPolicy::Warm`],
    /// stop alternating once a round improves the incumbent objective by
    /// less than `epsilon · |f|`, reporting `rounds_used ≤ z`. Ignored
    /// under [`StartPolicy::Cold`], which always runs all `z` rounds (the
    /// bit-identity guarantee pins the RNG stream), and by the robust
    /// solve. Safe by the incumbent's round monotonicity: the kept
    /// solution is never worse than any earlier round's.
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
    /// Energy cost `C_t` at the solution, in dollars (down servers draw
    /// nothing).
    pub energy_cost: f64,
    /// BDMA rounds actually executed (`= z` cold; `≤ z` under
    /// [`StartPolicy::Warm`] with ε early termination, or when the robust
    /// deadline cuts the solve short).
    pub rounds_used: usize,
}

/// Parks every down server at its minimum frequency `F^L`.
fn park_down(freqs: &mut [f64], down: &[bool], min_freqs: &[f64]) {
    for (n, _) in down.iter().enumerate().filter(|&(_, &d)| d) {
        freqs[n] = min_freqs[n];
    }
}

/// Runs BDMA(z) for one slot (Alg. 2) against a caller-owned
/// [`SlotWorkspace`], which must always be passed the same `system`: the
/// first call builds the P2-A game, every later round refreshes its
/// weights in place. Each round emits a `p2a` and a `p2b` span and one
/// `bdma_iteration` event (`slot` labels it and paces Warm's probes).
///
/// **Without hooks** the seed comes from `config.start`: `Cold` draws a
/// random profile every round from `Ω^L` and is bit-identical to
/// [`solve_p2_reference`] for the same RNG stream; `Warm` seeds from the
/// workspace's retained profile and frequencies (see [`StartPolicy::Warm`]).
///
/// **With hooks** (see [`crate::robust`]) nothing is drawn from `rng`: the
/// seed is the retained profile repaired against the mask, or each
/// device's cheapest allowed strategy, chained across rounds. The seed
/// incumbent is checkpointed before round 1, down servers are held at
/// `F^L` and charged no energy, a non-finite candidate is retried from the
/// solo seed at most [`RETRY_LIMIT`] times, and the deadline is polled
/// between rounds and inside the P2-A kernel.
///
/// # Errors
///
/// Only with hooks: [`SolveError::NonFinite`] for a malformed state or a
/// non-finite seed incumbent, [`SolveError::NoAllowedStrategy`] if some
/// device has no strategy at all, and [`SolveError::FilterUnsupported`]
/// from a baseline P2-A solver.
///
/// # Panics
///
/// Panics if `config.rounds == 0` or `v` is not positive.
#[allow(clippy::too_many_arguments)]
pub fn solve_p2(
    system: &MecSystem,
    state: &SystemState,
    v: f64,
    queue: f64,
    config: &BdmaConfig,
    p2a: &mut dyn P2aSolver,
    workspace: &mut SlotWorkspace,
    rng: &mut Pcg32,
    slot: u64,
    recorder: &dyn Recorder,
    hooks: Option<RobustHooks<'_>>,
) -> Result<RobustReport, SolveError> {
    assert!(config.rounds > 0, "BDMA needs at least one round");
    assert!(v > 0.0, "penalty weight must be positive");
    let start = Instant::now();
    let deadline = hooks.and_then(|h| h.deadline);
    let expired = || deadline.is_some_and(|d| start.elapsed() >= d);
    let robust = hooks.is_some();
    if robust {
        // Corrupt observations must surface as a catchable error before
        // they reach game construction, whose invariants assume clean
        // inputs.
        check_state_well_formed(state)?;
    }
    let warm = !robust && config.start != StartPolicy::Cold;
    let retained = robust || warm;
    let min_freqs = system.min_frequencies();
    let down = hooks.map_or_else(
        || vec![false; min_freqs.len()],
        |h| h.mask.down_server_flags(min_freqs.len()),
    );

    // Line 1 of Alg. 2: Ω ← Ω^L — or, seeding from the previous slot, its
    // Ω̄ (P2-B's alternation then continues where the last slot ended).
    // Down servers are parked at their minimum either way.
    let mut current: Option<Vec<usize>> =
        if retained { workspace.retained_choices().map(<[usize]>::to_vec) } else { None };
    let mut freqs = match workspace.retained_freqs() {
        Some(f) if retained && f.len() == min_freqs.len() => f.to_vec(),
        _ => min_freqs.clone(),
    };
    park_down(&mut freqs, &down, &min_freqs);

    // The P2 objective, with the energy *actually spent* (no down server
    // draws any; with none down this is the plain energy cost, term for
    // term).
    let evaluate = |assignments: &[Assignment], f: &[f64]| {
        let latency = crate::latency::optimal_latency(system, state, assignments, f).total();
        let energy = system.energy_cost_masked(state.price_per_kwh, f, &down);
        (latency, energy, v * latency + queue * (energy - system.budget_per_slot()))
    };

    let mut incumbent: Option<P2Solution> = None;
    let mut incumbent_choices = Vec::new();
    let masked = {
        let problem = workspace.prepare(system, state, &freqs);
        match hooks {
            None => None,
            Some(h) => {
                let masked = masked_seed(problem, h.mask, current.as_deref())?;
                // Checkpoint the seed incumbent before any round runs:
                // from here on the solve can be cut at any instant and
                // still return something feasible.
                let assignments = problem.assignments_from_choices(&masked.seed);
                let (latency, energy_cost, objective) = evaluate(&assignments, &freqs);
                if !objective.is_finite() {
                    return Err(SolveError::NonFinite { context: "seed objective", index: 0 });
                }
                incumbent = Some(P2Solution {
                    assignments,
                    freqs_hz: freqs,
                    objective,
                    latency,
                    energy_cost,
                    rounds_used: 0,
                });
                incumbent_choices.clone_from(&masked.seed);
                current = Some(masked.seed.clone());
                Some(masked)
            }
        }
    };
    let filter = masked.as_ref().map(|m| &m.effect.filter);

    // The last *warm-path* converged profile — what the next slot's round
    // 0 is seeded with. Kept separate from the incumbent's choices because
    // the warm CGBA scratch snapshots its own last converged profile: only
    // a seed equal to that snapshot rides the incremental fast path.
    let mut chain_choices: Vec<usize> = Vec::new();
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
    let mut retries = 0u32;
    let mut rounds_used = 0;
    let mut deadline_expired = false;
    let mut round = 0;
    while round < config.rounds {
        if expired() {
            deadline_expired = true;
            break;
        }
        // Line 3: solve P2-A at the current frequencies, seeded with the
        // nearest converged profile: the retained one in round 1, the
        // previous round's result after (only server weights moved between
        // rounds, so the CGBA snapshot fast path re-scans almost nobody).
        // A probe round runs cold, on the solver's cold scratch, leaving
        // the warm snapshot intact.
        let p2a_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2A);
        let problem = workspace.refresh_frequencies(system);
        let probe = warm && probe_next;
        probe_next = false;
        let seed = if probe { None } else { current.as_deref() };
        let choices = p2a.solve(problem, seed, filter, &expired, rng, recorder)?;
        let assignments = problem.assignments_from_choices(&choices);
        let p2a_nanos = p2a_span.finish().unwrap_or(0);
        // Line 4: solve P2-B at the chosen assignment.
        let p2b_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2B);
        let mut cand_freqs = solve_p2b(system, state, &assignments, v, queue).freqs_hz;
        let p2b_nanos = p2b_span.finish().unwrap_or(0);
        park_down(&mut cand_freqs, &down, &min_freqs);
        let (latency, energy_cost, objective) = evaluate(&assignments, &cand_freqs);
        round += 1;
        if robust && !objective.is_finite() {
            // A transient numeric failure: retry from the solo seed at
            // minimum frequencies, or, past the limit, degrade to the
            // incumbent rather than keep burning the deadline.
            if retries >= RETRY_LIMIT {
                break;
            }
            retries += 1;
            current = masked.as_ref().map(|m| m.solo.clone());
            workspace.set_freqs(&min_freqs);
            continue;
        }
        // Latch the new frequencies for the next round's refresh.
        workspace.set_freqs(&cand_freqs);
        rounds_used = round;
        // Lines 5–7: keep the incumbent with the best P2 objective.
        let prev_objective = incumbent.as_ref().map(|b| b.objective);
        let accepted = prev_objective.is_none_or(|prev| objective < prev);
        if recorder.is_enabled() {
            recorder.record(&TraceEvent::BdmaIteration {
                slot,
                round: round as u64,
                objective,
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
            incumbent = Some(P2Solution {
                assignments,
                freqs_hz: cand_freqs,
                objective,
                latency,
                energy_cost,
                rounds_used: 0,
            });
            if robust {
                incumbent_choices.clone_from(&choices);
            }
        }
        if warm && !probe {
            chain_choices.clone_from(&choices);
        }
        if retained {
            current = Some(choices);
        }
        if expired() {
            deadline_expired = true;
            break;
        }
        // ε early termination (Warm only — Cold must consume the same RNG
        // stream as the reference): the incumbent is monotone over rounds,
        // so stopping on a sub-ε round keeps every guarantee of the rounds
        // already run. On probing slots the first stall spends the cold
        // probe instead of exiting; a probe that beats the incumbent by ε
        // keeps the loop alive (the chain adopts its basin through
        // `current`), a probe that doesn't ends the slot.
        if warm && round >= 2 {
            let prev = prev_objective.expect("rounds after the first have an incumbent");
            let improvement = prev - incumbent.as_ref().expect("incumbent exists").objective;
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
    if warm && recorder.is_enabled() && rounds_used < config.rounds {
        recorder.add(eotora_obs::COUNTER_BDMA_ROUNDS_SAVED, (config.rounds - rounds_used) as u64);
    }
    let mut solution = incumbent.expect("a robust seed or at least one round");
    solution.rounds_used = rounds_used;
    if warm {
        // Seed the next slot from the chain end (which matches the warm
        // scratch's snapshot), not the incumbent: the returned solution is
        // still the incumbent, only the seeding differs.
        workspace.retain_solution(&chain_choices, &solution.freqs_hz);
        workspace.set_probe_hot(probe_won);
    } else if robust {
        workspace.retain_solution(&incumbent_choices, &solution.freqs_hz);
    }

    let (masked_resources, best_effort_players, repaired_players) =
        masked.as_ref().map_or((0, 0, 0), |m| {
            (m.effect.masked_resources, m.effect.best_effort_players, m.repaired)
        });
    if recorder.is_enabled() {
        if masked_resources > 0 {
            recorder.add(eotora_obs::COUNTER_FAULT_MASKED_RESOURCES, masked_resources);
        }
        if repaired_players + best_effort_players > 0 {
            recorder.add(
                eotora_obs::COUNTER_FAULT_REPAIRED_PLAYERS,
                repaired_players + best_effort_players,
            );
        }
        if deadline_expired {
            recorder.add(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS, 1);
        }
        if retries > 0 {
            recorder.add(eotora_obs::COUNTER_ROBUST_RETRIES, u64::from(retries));
        }
    }
    Ok(RobustReport {
        solution,
        masked_resources,
        repaired_players,
        best_effort_players,
        deadline_expired,
        retries,
    })
}

/// The pre-refactor BDMA(z) loop, verbatim: a fresh [`P2aProblem::build`]
/// and full game validation every round, the naive-rescan
/// [`cgba_from_reference`] as the P2-A step, and a frequency clone per
/// round. Kept as the equivalence oracle and benchmark baseline for
/// [`solve_p2`] — it must produce bit-identical [`P2Solution`]s to a Cold
/// [`solve_p2`] with a [`crate::sharded::CgbaSolver`] for the same inputs and
/// RNG stream.
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
    use crate::sharded::CgbaSolver;
    use crate::system::SystemConfig;
    use eotora_obs::NoopRecorder;
    use eotora_states::{PaperStateConfig, StateProvider};
    use eotora_util::assert_close;

    fn setup(devices: usize, seed: u64) -> (MecSystem, SystemState) {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        (system, state)
    }

    /// A plain (hook-free) controller: a CGBA solver and its workspace.
    #[derive(Default)]
    struct Controller {
        solver: CgbaSolver,
        ws: SlotWorkspace,
    }

    impl Controller {
        fn solve(
            &mut self,
            (system, state): (&MecSystem, &SystemState),
            (v, q): (f64, f64),
            config: &BdmaConfig,
            rng: &mut Pcg32,
            slot: u64,
        ) -> P2Solution {
            let (solver, ws, rec) = (&mut self.solver, &mut self.ws, &NoopRecorder);
            solve_p2(system, state, v, q, config, solver, ws, rng, slot, rec, None)
                .unwrap()
                .solution
        }
    }

    /// One plain slot solve on a fresh workspace.
    fn solve_fresh(
        system: &MecSystem,
        state: &SystemState,
        v: f64,
        q: f64,
        config: &BdmaConfig,
        rng: &mut Pcg32,
    ) -> P2Solution {
        Controller::default().solve((system, state), (v, q), config, rng, 0)
    }

    fn run(
        system: &MecSystem,
        state: &SystemState,
        v: f64,
        q: f64,
        rounds: usize,
        seed: u64,
    ) -> P2Solution {
        let config = BdmaConfig { rounds, ..Default::default() };
        solve_fresh(system, state, v, q, &config, &mut Pcg32::seed(seed))
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
        let mut controller = Controller::default();
        let mut rng = Pcg32::seed_stream(seed, 0xD99);
        let mut queue = 0.0;
        let mut states = Vec::new();
        let mut sols = Vec::new();
        for slot in 0..slots {
            let state = provider.observe(slot, system.topology());
            let sol = controller.solve((&system, &state), (v, queue), config, &mut rng, slot);
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
        use eotora_states::{PaperStateConfig, StateProvider};

        let system = MecSystem::random(&crate::system::SystemConfig::paper_defaults(16), 48);
        let mut provider =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), 48);
        let config = BdmaConfig { rounds: 3, ..Default::default() };
        let mut controller = Controller::default();
        let mut rng_new = Pcg32::seed(9);
        let mut rng_ref = Pcg32::seed(9);
        let mut queue = 0.0;
        for slot in 0..6u64 {
            let state = provider.observe(slot, system.topology());
            let v = 100.0;
            let sol = controller.solve((&system, &state), (v, queue), &config, &mut rng_new, slot);
            let reference = solve_p2_reference(
                &system,
                &state,
                v,
                queue,
                &config,
                &controller.solver.config,
                &mut rng_ref,
            );
            assert_eq!(sol, reference, "slot {slot}");
            // Evolve the queue like DPP would, so later slots see different
            // backlogs.
            queue = (queue + sol.energy_cost - system.budget_per_slot()).max(0.0);
        }
    }

    #[test]
    fn fresh_workspace_solve_matches_reference() {
        // A solve on a fresh workspace is the same computation.
        let (system, state) = setup(12, 49);
        let sol = solve_fresh(
            &system,
            &state,
            80.0,
            30.0,
            &BdmaConfig { rounds: 2, ..Default::default() },
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
