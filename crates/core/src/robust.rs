//! The fault-tolerant anytime P2 solve: failure masking + solve deadlines.
//!
//! The paper-faithful loop assumes every server, station, and fronthaul
//! edge is up and that it may run to completion. [`RobustHooks`] — the
//! slot's [`AvailabilityMask`] and deadline — switch the one BDMA loop
//! ([`crate::bdma::solve_p2`]) to behaviour that keeps the controller
//! producing *feasible* decisions when neither holds:
//!
//! * **Failure masking** — the mask is lowered to a
//!   [`eotora_game::StrategyFilter`] over the unchanged game shape, so the
//!   CGBA solve simply never considers strategies touching a failed
//!   component (see [`crate::fault`]). Retained profiles are repaired
//!   against the masked game: displaced devices fall back to their cheapest
//!   reachable alternative. Down servers are held at their minimum
//!   frequency, and energy accounting charges only servers that are
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
//!   [`RETRY_LIMIT`] times; exhaustion returns the incumbent.
//!
//! The P2-A step runs the controller's own solver with the filter and the
//! deadline as hooks, so rounds, λ and shards come from the controller's
//! configuration. Only CGBA honours a filter; a baseline solver refuses it
//! with [`SolveError::FilterUnsupported`], and the controller falls back to
//! the lifeboat decision rather than silently solve another problem.
//!
//! Unlike the paper path, the robust solve is deterministic given its
//! inputs (no RNG): the seed profile is the repaired retained profile or
//! the solo-cheapest profile, never a random one. Determinism is what makes
//! chaos runs reproducible and the deadline the *only* source of run-to-run
//! variation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Duration;

use eotora_game::Profile;
use eotora_states::SystemState;

use crate::bdma::P2Solution;
use crate::decision::{Assignment, SlotDecision};
use crate::error::SolveError;
use crate::fault::{AvailabilityMask, MaskEffect};
use crate::p2a::P2aProblem;
use crate::system::MecSystem;

/// Immediate retries allowed when a robust round's candidate objective is
/// non-finite.
pub const RETRY_LIMIT: u32 = 2;

/// Configuration of the robust per-slot solve. Rounds, λ and shards are
/// the controller's own ([`crate::dpp::DppConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustConfig {
    /// Wall-clock budget for one slot's solve; `None` disables the
    /// anytime cutoff. Polled between BDMA rounds and inside every CGBA
    /// iteration, so expiry latency is one best-response scan, not one
    /// round.
    pub deadline: Option<Duration>,
    /// Whether the engine runs the state sanitizer ahead of the solve
    /// (consumed by the simulation runner, not by the solve itself).
    /// Disabling it lets corrupt observations reach the solver — a
    /// diagnostic mode that forces the ladder to escalate, exercising the
    /// lifeboat and the flight-recorder postmortem path.
    pub sanitize: bool,
}

impl Default for RobustConfig {
    fn default() -> Self {
        Self { deadline: None, sanitize: true }
    }
}

/// The robust hooks of one slot's BDMA solve ([`crate::bdma::solve_p2`]).
#[derive(Debug, Clone, Copy)]
pub struct RobustHooks<'a> {
    /// The components down this slot.
    pub mask: &'a AvailabilityMask,
    /// Wall-clock budget for the solve; `None` runs every round.
    pub deadline: Option<Duration>,
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

/// The start of a robust solve: the mask lowered onto the prepared
/// problem, each device's cheapest-alone allowed strategy (also the retry
/// basin), and the seed profile.
pub(crate) struct MaskedSeed {
    pub effect: MaskEffect,
    pub solo: Vec<usize>,
    /// The repaired retained profile when one exists, else `solo`.
    pub seed: Vec<usize>,
    /// Players the mask displaced off the retained profile.
    pub repaired: u64,
}

/// Builds the [`MaskedSeed`] of `mask` on `problem`, repairing `retained`.
///
/// # Errors
///
/// [`SolveError::NoAllowedStrategy`] if some device has no strategy at all
/// (an invalid game — masking alone cannot cause this, the best-effort
/// re-allow guarantees a non-empty set).
pub(crate) fn masked_seed(
    problem: &P2aProblem,
    mask: &AvailabilityMask,
    retained: Option<&[usize]>,
) -> Result<MaskedSeed, SolveError> {
    let effect = mask.strategy_filter(problem);
    let game = problem.game();
    let mut solo = Vec::with_capacity(game.num_players());
    for i in 0..game.num_players() {
        match Profile::solo_cheapest_filtered(game, i, &effect.filter) {
            Some(s) => solo.push(s),
            None => return Err(SolveError::NoAllowedStrategy { device: i }),
        }
    }
    let (seed, repaired) = match retained
        .and_then(|c| Profile::from_retained_choices_filtered(game, c, &effect.filter))
    {
        Some((profile, displaced)) => (profile.choices().to_vec(), displaced as u64),
        None => (solo.clone(), 0),
    };
    Ok(MaskedSeed { effect, solo, seed, repaired })
}

/// Rejects observations whose entries would violate the congestion game's
/// input invariants (finite, positive workload and channel terms; finite
/// price). The sanitizer screens these out on the normal path; this guard
/// is what turns a *bypassed* sanitizer into a recoverable
/// [`SolveError::NonFinite`] instead of a downstream panic.
pub(crate) fn check_state_well_formed(state: &SystemState) -> Result<(), SolveError> {
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
    use crate::bdma::{solve_p2, BdmaConfig};
    use crate::sharded::CgbaSolver;
    use crate::system::SystemConfig;
    use crate::workspace::SlotWorkspace;
    use eotora_obs::{MetricsRecorder, NoopRecorder, Recorder};
    use eotora_states::{PaperStateConfig, StateProvider};
    use eotora_util::rng::Pcg32;

    /// A controller's robust-solve state: its workspace and P2-A solver,
    /// plus the BDMA rounds and deadline each slot runs with.
    struct Controller {
        ws: SlotWorkspace,
        p2a: CgbaSolver,
        rounds: usize,
        deadline: Option<Duration>,
    }

    impl Controller {
        fn new() -> Self {
            Self { ws: SlotWorkspace::new(), p2a: CgbaSolver::default(), rounds: 5, deadline: None }
        }

        /// One robust slot solve through the BDMA loop, at V = 100.
        fn solve(
            &mut self,
            (system, state): (&MecSystem, &SystemState),
            queue: f64,
            mask: &AvailabilityMask,
            slot: u64,
            rec: &dyn Recorder,
        ) -> Result<RobustReport, SolveError> {
            let config = BdmaConfig { rounds: self.rounds, ..Default::default() };
            let hooks = Some(RobustHooks { mask, deadline: self.deadline });
            let (p2a, ws, rng) = (&mut self.p2a, &mut self.ws, &mut Pcg32::seed(0));
            solve_p2(system, state, 100.0, queue, &config, p2a, ws, rng, slot, rec, hooks)
        }
    }

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
            let none = AvailabilityMask::default();
            Controller::new().solve((&system, &state), 0.0, &none, 0, &NoopRecorder).unwrap()
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
        let r = Controller::new().solve((&system, &state), 5.0, &mask, 0, &NoopRecorder).unwrap();
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
        let mut controller = Controller::new();
        // Slot 0: fault-free, retains a warm profile.
        let none = AvailabilityMask::default();
        let first = controller.solve((&system, &state), 0.0, &none, 0, &NoopRecorder).unwrap();
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
        let r = controller.solve((&system, &state), 0.0, &mask, 1, &NoopRecorder).unwrap();
        assert_eq!(r.repaired_players, load[crashed] as u64);
        for a in &r.solution.assignments {
            assert_ne!(a.server.index(), crashed);
        }
    }

    #[test]
    fn zero_deadline_returns_the_seed_incumbent_immediately() {
        let (system, state) = setup(20, 54);
        let mut controller = Controller { deadline: Some(Duration::ZERO), ..Controller::new() };
        let rec = MetricsRecorder::new();
        let none = AvailabilityMask::default();
        let r = controller.solve((&system, &state), 0.0, &none, 0, &rec).unwrap();
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
        let mut controller = Controller { rounds: 3, ..Controller::new() };
        let rec = MetricsRecorder::new();
        let none = AvailabilityMask::default();
        let r = controller.solve((&system, &state), 0.0, &none, 0, &rec).unwrap();
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
        let rec = MetricsRecorder::new();
        let mask = AvailabilityMask {
            down_servers: vec![1],
            down_stations: vec![],
            severed_links: vec![],
        };
        Controller::new().solve((&system, &state), 0.0, &mask, 0, &rec).unwrap();
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
            let mut controller =
                Controller { p2a: CgbaSolver::new(0.0, shards), ..Controller::new() };
            controller.solve((&system, &state), 0.0, mask, 0, rec).unwrap()
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
        let none = AvailabilityMask::default();
        let r = Controller::new().solve((&system, &state), 0.0, &none, 0, &NoopRecorder).unwrap();
        let d = equal_share_decision(&system, &r.solution.assignments, &r.solution.freqs_hz);
        d.validate(&system).unwrap();
        let _ = state;
    }
}
