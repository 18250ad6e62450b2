//! The fault-tolerant anytime P2 solve: failure masking + solve deadlines.
//!
//! The paper-faithful path ([`crate::bdma::solve_p2_in`]) assumes every
//! server, station, and fronthaul edge is up and that it may run to
//! completion. This module keeps the controller producing *feasible*
//! decisions when neither holds:
//!
//! * **Failure masking** — an [`AvailabilityMask`] is lowered to a
//!   [`eotora_game::StrategyFilter`] over the unchanged game shape, so the
//!   CGBA solve simply never considers strategies touching a failed
//!   component (see [`crate::fault`]). Retained warm profiles are repaired
//!   against the masked game: displaced devices fall back to their cheapest
//!   reachable alternative. Energy accounting charges only servers that are
//!   actually up ([`crate::system::MecSystem::energy_cost_masked`]), so the
//!   virtual queue reflects energy actually spent.
//! * **Anytime deadlines** — the solve checkpoints an incumbent *before*
//!   the first BDMA round (the repaired previous profile, or each device's
//!   cheapest-alone allowed strategy on a cold start, at parked
//!   frequencies) and re-checkpoints after every improving round. A
//!   wall-clock deadline is polled between rounds and inside every CGBA
//!   iteration; expiry returns the incumbent — the degradation ladder
//!   "warm incumbent → repaired previous profile → cheapest-reachable
//!   cold seed" is realized by what the incumbent happens to be when the
//!   clock runs out.
//! * **Bounded retries** — a round whose candidate objective comes out
//!   non-finite (transient numeric failure) is retried from the
//!   deterministic solo seed at minimum frequencies, at most
//!   [`RobustConfig::max_retries`] times; exhaustion returns the incumbent.
//!
//! The P2-A step runs the same incremental CGBA kernel as the paper path,
//! through [`ShardedCgbaSolver`] with the filter and the deadline as the
//! kernel's two hooks; [`RobustConfig::shards`] picks a sequential (`1`)
//! or sharded solve. The caller owns that solver next to its
//! [`SlotWorkspace`], so the shard plan and the CGBA scratch are reused
//! across rounds and slots, and it emits the same `cgba.*` / `shard.*`
//! counters as the paper path.
//!
//! Unlike the paper path, the robust solve is deterministic given its
//! inputs (no RNG): the seed profile is the repaired retained profile or
//! the solo-cheapest profile, never a random one. Determinism is what makes
//! chaos runs reproducible and the deadline the *only* source of run-to-run
//! variation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::{Duration, Instant};

use eotora_game::{CgbaConfig, Profile};
use eotora_obs::{Recorder, SpanGuard, TraceEvent};
use eotora_states::SystemState;

use crate::bdma::P2Solution;
use crate::decision::{Assignment, SlotDecision};
use crate::error::SolveError;
use crate::fault::AvailabilityMask;
use crate::p2b::solve_p2b;
use crate::sharded::ShardedCgbaSolver;
use crate::system::MecSystem;
use crate::workspace::SlotWorkspace;

/// Configuration of the robust per-slot solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustConfig {
    /// Wall-clock budget for one slot's solve; `None` disables the
    /// anytime cutoff. Polled between BDMA rounds and inside every CGBA
    /// iteration, so expiry latency is one best-response scan, not one
    /// round. The speculative pre-solve reuses the same budget semantics
    /// for its staged solve ([`crate::speculate::SpeculativeConfig::deadline`]),
    /// enforced post hoc there because adoption needs the full bit-exact
    /// result.
    pub deadline: Option<Duration>,
    /// BDMA alternation rounds `z` (upper bound; the deadline may stop
    /// earlier).
    pub rounds: usize,
    /// Immediate retries allowed when a round's candidate objective is
    /// non-finite.
    pub max_retries: u32,
    /// CGBA approximation slack λ.
    pub lambda: f64,
    /// Shard cap for the P2-A step, in [`eotora_game::ShardPlan::compute`]'s
    /// convention: `1` (the default) solves sequentially, `0` one shard per
    /// BS-cluster component, `N` at most `N` shards. On dense topologies
    /// the plan collapses to one shard either way, so sharding is always
    /// safe; a shard that misses the deadline degrades alone while the
    /// rest still converge.
    pub shards: usize,
    /// Whether the engine runs the state sanitizer ahead of the solve
    /// (consumed by the simulation runner, not by
    /// [`solve_p2_robust`] itself). Disabling it lets corrupt
    /// observations reach the solver — a diagnostic mode that forces
    /// the ladder to escalate, exercising the lifeboat and the
    /// flight-recorder postmortem path.
    pub sanitize: bool,
}

impl Default for RobustConfig {
    fn default() -> Self {
        Self { deadline: None, rounds: 5, max_retries: 2, lambda: 0.0, shards: 1, sanitize: true }
    }
}

/// What one robust slot solve did, besides the solution itself.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustReport {
    /// The incumbent solution (always finite and feasible).
    pub solution: P2Solution,
    /// Game resources masked out this slot.
    pub masked_resources: u64,
    /// Players displaced off their retained strategy by the mask and
    /// repaired onto their cheapest allowed alternative.
    pub repaired_players: u64,
    /// Players whose entire strategy set was masked and were re-allowed
    /// wholesale (best-effort).
    pub best_effort_players: u64,
    /// Whether the wall-clock deadline cut the solve short.
    pub deadline_expired: bool,
    /// Non-finite-candidate retries spent.
    pub retries: u32,
}

/// Solves one slot's P2 under an availability mask with an anytime
/// deadline. `p2a` is the caller's long-lived P2-A solver; its λ and shard
/// cap are set from `config`. Emits the usual `p2a`/`p2b` spans,
/// `bdma_iteration` events and BDMA / CGBA counters, plus the `fault.*` /
/// `deadline.*` counters, into `recorder`.
///
/// # Errors
///
/// [`SolveError::NoAllowedStrategy`] if some device has no strategy at all
/// (an invalid game — masking alone cannot cause this, the best-effort
/// re-allow guarantees a non-empty set); [`SolveError::NonFinite`] if even
/// the seed incumbent evaluates non-finite (corrupt state that the
/// sanitizer should have caught upstream).
#[allow(clippy::too_many_arguments)]
pub fn solve_p2_robust(
    system: &MecSystem,
    state: &SystemState,
    v: f64,
    queue: f64,
    mask: &AvailabilityMask,
    config: &RobustConfig,
    workspace: &mut SlotWorkspace,
    p2a: &mut ShardedCgbaSolver,
    slot: u64,
    recorder: &dyn Recorder,
) -> Result<RobustReport, SolveError> {
    let start = Instant::now();
    let expired = || config.deadline.is_some_and(|d| start.elapsed() >= d);
    // Pre-flight: corrupt observations (NaN cycles, negative bits, infinite
    // spectral efficiency) must surface as a catchable SolveError before
    // they reach game construction, whose invariants assume clean inputs.
    // Reached only when the sanitizer is disabled or was itself defeated.
    check_state_well_formed(state)?;
    let min_freqs = system.min_frequencies();
    let down = mask.down_server_flags(system.topology().num_servers());

    // Starting frequencies: the retained previous-slot frequencies when
    // their shape still matches, else Ω^L — with every down server parked
    // at its minimum either way.
    let retained_choices: Option<Vec<usize>> = workspace.retained_choices().map(<[usize]>::to_vec);
    let mut freqs = match workspace.retained_freqs() {
        Some(f) if f.len() == min_freqs.len() => f.to_vec(),
        _ => min_freqs.clone(),
    };
    for (n, &d) in down.iter().enumerate() {
        if d {
            freqs[n] = min_freqs[n];
        }
    }

    // Lower the mask onto the prepared problem and build the seed profile:
    // the repaired retained profile when one exists, else each device's
    // cheapest-alone allowed strategy (also the retry fallback basin).
    let (effect, seed_choices, solo_choices, seed_assignments, repaired_players) = {
        let problem = workspace.prepare(system, state, &freqs);
        let effect = mask.strategy_filter(problem);
        let game = problem.game();
        let mut solo = Vec::with_capacity(game.num_players());
        for i in 0..game.num_players() {
            match Profile::solo_cheapest_filtered(game, i, &effect.filter) {
                Some(s) => solo.push(s),
                None => return Err(SolveError::NoAllowedStrategy { device: i }),
            }
        }
        let (seed, repaired) = match retained_choices
            .as_deref()
            .and_then(|c| Profile::from_retained_choices_filtered(game, c, &effect.filter))
        {
            Some((profile, displaced)) => (profile.choices().to_vec(), displaced as u64),
            None => (solo.clone(), 0),
        };
        let assignments = problem.assignments_from_choices(&seed);
        (effect, seed, solo, assignments, repaired)
    };

    // The robust objective: latency under the Lemma 1 allocation plus
    // queue-weighted excess of the energy *actually spent* (down servers
    // draw nothing).
    let evaluate = |assignments: &[Assignment], f: &[f64]| {
        let latency = crate::latency::optimal_latency(system, state, assignments, f).total();
        let energy = system.energy_cost_masked(state.price_per_kwh, f, &effect.down_servers);
        (latency, energy, v * latency + queue * (energy - system.budget_per_slot()))
    };

    // Checkpoint the seed incumbent before any round runs: from here on the
    // solve can be cut at any instant and still return something feasible.
    let (lat, energy, objective) = evaluate(&seed_assignments, &freqs);
    if !objective.is_finite() {
        return Err(SolveError::NonFinite { context: "seed objective", index: 0 });
    }
    let mut incumbent = P2Solution {
        assignments: seed_assignments,
        freqs_hz: freqs.clone(),
        objective,
        latency: lat,
        energy_cost: energy,
        rounds_used: 0,
    };
    let mut incumbent_choices = seed_choices.clone();

    p2a.config = CgbaConfig { lambda: config.lambda, ..Default::default() };
    p2a.max_shards = config.shards;
    let mut current = seed_choices;
    let mut retries = 0u32;
    let mut rounds_used = 0usize;
    let mut deadline_expired = false;
    let mut round = 0usize;
    while round < config.rounds {
        if expired() {
            deadline_expired = true;
            break;
        }
        let p2a_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2A);
        let (choices, assignments) = {
            let problem = workspace.refresh_frequencies(system);
            let choices = p2a.solve_split(
                problem,
                std::mem::take(&mut current),
                false,
                Some(&effect.filter),
                &expired,
                recorder,
            );
            let assignments = problem.assignments_from_choices(&choices);
            (choices, assignments)
        };
        let p2a_nanos = p2a_span.finish().unwrap_or(0);
        let p2b_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2B);
        let p2b = solve_p2b(system, state, &assignments, v, queue);
        let p2b_nanos = p2b_span.finish().unwrap_or(0);
        let mut cand_freqs = p2b.freqs_hz;
        for (n, &d) in effect.down_servers.iter().enumerate() {
            if d {
                cand_freqs[n] = min_freqs[n];
            }
        }
        let (lat, energy, objective) = evaluate(&assignments, &cand_freqs);
        round += 1;
        if !objective.is_finite() {
            if retries >= config.max_retries {
                // Retry budget exhausted: degrade to the incumbent rather
                // than keep burning the deadline on a hopeless basin.
                break;
            }
            retries += 1;
            current = solo_choices.clone();
            workspace.set_freqs(&min_freqs);
            continue;
        }
        workspace.set_freqs(&cand_freqs);
        rounds_used = round;
        let accepted = objective < incumbent.objective;
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
            incumbent = P2Solution {
                assignments,
                freqs_hz: cand_freqs,
                objective,
                latency: lat,
                energy_cost: energy,
                rounds_used: 0,
            };
            incumbent_choices = choices.clone();
        }
        current = choices;
        if expired() {
            deadline_expired = true;
            break;
        }
    }
    incumbent.rounds_used = rounds_used;
    workspace.retain_solution(&incumbent_choices, &incumbent.freqs_hz);
    if recorder.is_enabled() {
        if effect.masked_resources > 0 {
            recorder.add(eotora_obs::COUNTER_FAULT_MASKED_RESOURCES, effect.masked_resources);
        }
        let repaired_total = repaired_players + effect.best_effort_players;
        if repaired_total > 0 {
            recorder.add(eotora_obs::COUNTER_FAULT_REPAIRED_PLAYERS, repaired_total);
        }
        if deadline_expired {
            recorder.add(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS, 1);
        }
        if retries > 0 {
            recorder.add(eotora_obs::COUNTER_ROBUST_RETRIES, u64::from(retries));
        }
    }
    Ok(RobustReport {
        solution: incumbent,
        masked_resources: effect.masked_resources,
        repaired_players,
        best_effort_players: effect.best_effort_players,
        deadline_expired,
        retries,
    })
}

/// Rejects observations whose entries would violate the congestion game's
/// input invariants (finite, positive workload and channel terms; finite
/// price). The sanitizer screens these out on the normal path; this guard
/// is what turns a *bypassed* sanitizer into a recoverable
/// [`SolveError::NonFinite`] instead of a downstream panic.
fn check_state_well_formed(state: &SystemState) -> Result<(), SolveError> {
    let bad = |x: f64| !x.is_finite() || x <= 0.0;
    if let Some(i) = state.task_cycles.iter().position(|&x| bad(x)) {
        return Err(SolveError::NonFinite { context: "task_cycles", index: i });
    }
    if let Some(i) = state.data_bits.iter().position(|&x| bad(x)) {
        return Err(SolveError::NonFinite { context: "data_bits", index: i });
    }
    for (i, row) in state.spectral_efficiency.iter().enumerate() {
        if row.iter().any(|&x| bad(x)) {
            return Err(SolveError::NonFinite { context: "spectral_efficiency", index: i });
        }
    }
    if !state.price_per_kwh.is_finite() {
        return Err(SolveError::NonFinite { context: "price_per_kwh", index: 0 });
    }
    Ok(())
}

/// The absolute bottom of the degradation ladder: every device offloads
/// via base station 0 to its first reachable server, all servers parked at
/// minimum frequency, equal shares. Valid for any topology (every station
/// reaches at least one server by construction), independent of the
/// observed state — the slot the controller emits when even the seed
/// incumbent is unusable. The latency/objective it reports may be
/// non-finite if the state itself is corrupt; the *decision* is feasible
/// regardless.
pub fn lifeboat_report(
    system: &MecSystem,
    state: &SystemState,
    v: f64,
    queue: f64,
    down: &[bool],
) -> RobustReport {
    let topo = system.topology();
    let station = eotora_topology::BaseStationId(0);
    let server = topo.servers_reachable_from(station)[0];
    let assignments = vec![Assignment { base_station: station, server }; topo.num_devices()];
    let freqs = system.min_frequencies();
    let decision = equal_share_decision(system, &assignments, &freqs);
    let latency = crate::latency::latency_under(system, state, &decision).total();
    let energy = system.energy_cost_masked(state.price_per_kwh, &freqs, down);
    let objective = v * latency + queue * (energy - system.budget_per_slot());
    RobustReport {
        solution: P2Solution {
            assignments,
            freqs_hz: freqs,
            objective,
            latency,
            energy_cost: energy,
            rounds_used: 0,
        },
        masked_resources: 0,
        repaired_players: 0,
        best_effort_players: 0,
        deadline_expired: false,
        retries: 0,
    }
}

/// The last rung of the degradation ladder below Lemma 1: equal shares on
/// every resource. Strictly worse latency than
/// [`crate::allocation::optimal_allocation`], but always valid for any
/// assignment the topology allows — used when the closed-form allocation
/// itself reports corrupt input.
pub fn equal_share_decision(
    system: &MecSystem,
    assignments: &[Assignment],
    freqs_hz: &[f64],
) -> SlotDecision {
    let topo = system.topology();
    let mut per_station = vec![0usize; topo.num_base_stations()];
    let mut per_server = vec![0usize; topo.num_servers()];
    for a in assignments {
        per_station[a.base_station.index()] += 1;
        per_server[a.server.index()] += 1;
    }
    let mut access_share = Vec::with_capacity(assignments.len());
    let mut fronthaul_share = Vec::with_capacity(assignments.len());
    let mut compute_share = Vec::with_capacity(assignments.len());
    for a in assignments {
        let station_share = 1.0 / per_station[a.base_station.index()] as f64;
        access_share.push(station_share);
        fronthaul_share.push(station_share);
        compute_share.push(1.0 / per_server[a.server.index()] as f64);
    }
    SlotDecision {
        assignments: assignments.to_vec(),
        access_share,
        fronthaul_share,
        compute_share,
        frequencies_hz: freqs_hz.to_vec(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use eotora_obs::{MetricsRecorder, NoopRecorder};
    use eotora_states::{PaperStateConfig, StateProvider};

    fn setup(devices: usize, seed: u64) -> (MecSystem, SystemState) {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        (system, state)
    }

    #[test]
    fn unmasked_solve_is_finite_feasible_and_deterministic() {
        let (system, state) = setup(12, 51);
        let run = || {
            let mut ws = SlotWorkspace::new();
            let mut p2a = ShardedCgbaSolver::default();
            solve_p2_robust(
                &system,
                &state,
                100.0,
                0.0,
                &AvailabilityMask::default(),
                &RobustConfig::default(),
                &mut ws,
                &mut p2a,
                0,
                &NoopRecorder,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.solution.objective.is_finite());
        assert_eq!(a.masked_resources, 0);
        assert_eq!(a.repaired_players, 0);
        assert!(!a.deadline_expired);
        let d = crate::allocation::optimal_allocation(
            &system,
            &state,
            &a.solution.assignments,
            &a.solution.freqs_hz,
        );
        d.validate(&system).unwrap();
    }

    #[test]
    fn masked_solve_avoids_down_server_and_charges_it_nothing() {
        let (system, state) = setup(14, 52);
        let mask = AvailabilityMask {
            down_servers: vec![0],
            down_stations: vec![],
            severed_links: vec![],
        };
        let mut ws = SlotWorkspace::new();
        let mut p2a = ShardedCgbaSolver::default();
        let r = solve_p2_robust(
            &system,
            &state,
            100.0,
            5.0,
            &mask,
            &RobustConfig::default(),
            &mut ws,
            &mut p2a,
            0,
            &NoopRecorder,
        )
        .unwrap();
        assert!(r.masked_resources >= 1);
        for a in &r.solution.assignments {
            assert_ne!(a.server.index(), 0, "device routed to the crashed server");
        }
        // Energy accounting must exclude server 0 entirely.
        let down = mask.down_server_flags(system.topology().num_servers());
        let masked_cost =
            system.energy_cost_masked(state.price_per_kwh, &r.solution.freqs_hz, &down);
        assert_eq!(r.solution.energy_cost, masked_cost);
        assert!(masked_cost < system.energy_cost(state.price_per_kwh, &r.solution.freqs_hz));
    }

    #[test]
    fn warm_profile_is_repaired_when_its_server_crashes() {
        let (system, state) = setup(10, 53);
        let mut ws = SlotWorkspace::new();
        let mut p2a = ShardedCgbaSolver::default();
        // Slot 0: fault-free, retains a warm profile.
        let first = solve_p2_robust(
            &system,
            &state,
            100.0,
            0.0,
            &AvailabilityMask::default(),
            &RobustConfig::default(),
            &mut ws,
            &mut p2a,
            0,
            &NoopRecorder,
        )
        .unwrap();
        // Crash the server that serves the most devices.
        let mut load = vec![0usize; system.topology().num_servers()];
        for a in &first.solution.assignments {
            load[a.server.index()] += 1;
        }
        let crashed = load.iter().enumerate().max_by_key(|&(_, &l)| l).unwrap().0;
        let mask = AvailabilityMask {
            down_servers: vec![crashed],
            down_stations: vec![],
            severed_links: vec![],
        };
        let r = solve_p2_robust(
            &system,
            &state,
            100.0,
            0.0,
            &mask,
            &RobustConfig::default(),
            &mut ws,
            &mut p2a,
            1,
            &NoopRecorder,
        )
        .unwrap();
        assert_eq!(r.repaired_players, load[crashed] as u64);
        for a in &r.solution.assignments {
            assert_ne!(a.server.index(), crashed);
        }
    }

    #[test]
    fn zero_deadline_returns_the_seed_incumbent_immediately() {
        let (system, state) = setup(20, 54);
        let mut ws = SlotWorkspace::new();
        let mut p2a = ShardedCgbaSolver::default();
        let rec = MetricsRecorder::new();
        let config = RobustConfig { deadline: Some(Duration::ZERO), ..Default::default() };
        let r = solve_p2_robust(
            &system,
            &state,
            100.0,
            0.0,
            &AvailabilityMask::default(),
            &config,
            &mut ws,
            &mut p2a,
            0,
            &rec,
        )
        .unwrap();
        assert!(r.deadline_expired);
        assert_eq!(r.solution.rounds_used, 0);
        assert!(r.solution.objective.is_finite());
        assert_eq!(rec.counter(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS), 1);
        // The seed decision is still feasible.
        crate::allocation::try_optimal_allocation(
            &system,
            &state,
            &r.solution.assignments,
            &r.solution.freqs_hz,
        )
        .unwrap()
        .validate(&system)
        .unwrap();
    }

    #[test]
    fn no_deadline_runs_all_rounds_and_counts_nothing() {
        let (system, state) = setup(10, 55);
        let mut ws = SlotWorkspace::new();
        let mut p2a = ShardedCgbaSolver::default();
        let rec = MetricsRecorder::new();
        let config = RobustConfig { rounds: 3, ..Default::default() };
        let r = solve_p2_robust(
            &system,
            &state,
            100.0,
            0.0,
            &AvailabilityMask::default(),
            &config,
            &mut ws,
            &mut p2a,
            0,
            &rec,
        )
        .unwrap();
        assert!(!r.deadline_expired);
        assert_eq!(r.solution.rounds_used, 3);
        assert_eq!(rec.counter(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS), 0);
        assert_eq!(rec.counter(eotora_obs::COUNTER_BDMA_ROUNDS), 3);
        // The P2-A step reports like the plain sequential CGBA solver: work
        // counters every round, no shard counters at `shards = 1`.
        assert!(rec.counter(eotora_obs::COUNTER_CGBA_ITERATIONS) > 0);
        assert!(rec.counter(eotora_obs::COUNTER_CGBA_PROBES) > 0);
        assert_eq!(rec.counter(eotora_obs::COUNTER_CGBA_CONVERGED), 3);
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_SOLVES), 0);
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_CUT_PLAYERS), 0);
    }

    #[test]
    fn fault_counters_are_emitted() {
        let (system, state) = setup(8, 56);
        let mut ws = SlotWorkspace::new();
        let mut p2a = ShardedCgbaSolver::default();
        let rec = MetricsRecorder::new();
        let mask = AvailabilityMask {
            down_servers: vec![1],
            down_stations: vec![],
            severed_links: vec![],
        };
        solve_p2_robust(
            &system,
            &state,
            100.0,
            0.0,
            &mask,
            &RobustConfig::default(),
            &mut ws,
            &mut p2a,
            0,
            &rec,
        )
        .unwrap();
        assert!(rec.counter(eotora_obs::COUNTER_FAULT_MASKED_RESOURCES) >= 1);
    }

    #[test]
    fn sharded_robust_solve_matches_sequential_on_islands() {
        // The robust solve is RNG-free, so on a separable island topology
        // the sharded P2-A step must reproduce the sequential run exactly —
        // also with a server down inside one island.
        let sys_config = SystemConfig {
            topology: eotora_topology::RandomTopologyConfig::scale_up(30, 3),
            ..SystemConfig::paper_defaults(30)
        };
        let system = MecSystem::random(&sys_config, 61);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 61);
        let state = p.observe(0, system.topology());
        let run = |shards: usize, mask: &AvailabilityMask, rec: &dyn Recorder| {
            let mut ws = SlotWorkspace::new();
            let mut p2a = ShardedCgbaSolver::default();
            solve_p2_robust(
                &system,
                &state,
                100.0,
                0.0,
                mask,
                &RobustConfig { shards, ..Default::default() },
                &mut ws,
                &mut p2a,
                0,
                rec,
            )
            .unwrap()
        };
        let server_down = AvailabilityMask {
            down_servers: vec![0],
            down_stations: vec![],
            severed_links: vec![],
        };
        for mask in [AvailabilityMask::default(), server_down] {
            let rec = MetricsRecorder::new();
            let auto = run(0, &mask, &rec);
            assert_eq!(run(1, &mask, &NoopRecorder), auto);
            let rounds = auto.solution.rounds_used as u64;
            assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_SOLVES), 3 * rounds);
        }
    }

    #[test]
    fn equal_share_fallback_validates() {
        let (system, state) = setup(9, 57);
        let mut ws = SlotWorkspace::new();
        let mut p2a = ShardedCgbaSolver::default();
        let r = solve_p2_robust(
            &system,
            &state,
            100.0,
            0.0,
            &AvailabilityMask::default(),
            &RobustConfig::default(),
            &mut ws,
            &mut p2a,
            0,
            &NoopRecorder,
        )
        .unwrap();
        let d = equal_share_decision(&system, &r.solution.assignments, &r.solution.freqs_hz);
        d.validate(&system).unwrap();
        let _ = state;
    }
}
