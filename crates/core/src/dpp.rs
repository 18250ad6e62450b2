//! The BDMA-based DPP online controller (paper Algorithm 1).
//!
//! Per slot: observe `β_t`, call BDMA to get `(x̄, ȳ, Ω̄)` for the
//! drift-plus-penalty objective `V·T_t + Q(t)·Θ`, recover the Lemma 1
//! allocation `(Φ*, Ψ*)`, execute, and update the virtual queue
//! `Q(t+1) = max{Q(t) + C_t − C̄, 0}`. The virtual queue and step types come
//! from `eotora-lyapunov`; this module is the loop itself, with the
//! pluggable P2-A algorithm (giving the paper's *BDMA-based*, *ROPT-based*,
//! and *MCBA-based* DPP variants).

use std::fmt;

use eotora_lyapunov::{ControllerCheckpoint, DppStep, SlotOutcome, VirtualQueue};
use eotora_obs::{NoopRecorder, Recorder, SpanGuard, TraceEvent};
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;
use eotora_util::stats::Welford;
use serde::{Deserialize, Serialize};

use crate::allocation::{optimal_allocation, try_optimal_allocation};
use crate::baselines::{ExactSolver, GreedySolver, McbaConfig, McbaSolver, RoptSolver};
use crate::bdma::{solve_p2, BdmaConfig, P2aSolver, StartPolicy};
use crate::decision::SlotDecision;
use crate::error::SolveError;
use crate::fault::AvailabilityMask;
use crate::robust::{equal_share_decision, RobustConfig, RobustHooks, RobustReport};
use crate::sharded::CgbaSolver;
use crate::system::MecSystem;
use crate::workspace::SlotWorkspace;

/// Which P2-A algorithm drives the per-slot solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SolverKind {
    /// The paper's algorithm: CGBA(λ).
    Cgba {
        /// Approximation slack λ.
        lambda: f64,
    },
    /// CGBA(λ) run per BS-cluster shard on a worker pool and merged
    /// deterministically (see [`crate::sharded`]). Decision-identical to
    /// [`SolverKind::Cgba`] on separable topologies.
    ShardedCgba {
        /// Approximation slack λ.
        lambda: f64,
        /// Shard cap handed to the plan (`0` = one shard per component).
        shards: usize,
    },
    /// Random selection (ROPT-based DPP baseline).
    Ropt,
    /// Deterministic heaviest-first marginal-cost assignment.
    Greedy,
    /// MCMC sampling (MCBA-based DPP baseline).
    Mcba {
        /// Proposal steps per solve.
        iterations: usize,
    },
    /// Branch-and-bound exact optimum (only viable on small instances).
    Exact {
        /// Node budget per solve.
        node_budget: usize,
    },
}

impl SolverKind {
    fn instantiate(self) -> Box<dyn P2aSolver> {
        match self {
            Self::Cgba { lambda } => Box::new(CgbaSolver::new(lambda, 1)),
            Self::ShardedCgba { lambda, shards } => Box::new(CgbaSolver::new(lambda, shards)),
            Self::Ropt => Box::new(RoptSolver),
            Self::Greedy => Box::new(GreedySolver),
            Self::Mcba { iterations } => {
                Box::new(McbaSolver { config: McbaConfig { iterations, ..Default::default() } })
            }
            Self::Exact { node_budget } => Box::new(ExactSolver { node_budget, warm_start: true }),
        }
    }

    /// Whether the solver honours an availability mask, which the robust
    /// engine needs: only CGBA does, the baselines solve the unmasked game.
    pub fn supports_masks(self) -> bool {
        matches!(self, Self::Cgba { .. } | Self::ShardedCgba { .. })
    }

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Self::Cgba { .. } => "BDMA-based DPP",
            Self::ShardedCgba { .. } => "Sharded-BDMA-based DPP",
            Self::Ropt => "ROPT-based DPP",
            Self::Greedy => "Greedy-based DPP",
            Self::Mcba { .. } => "MCBA-based DPP",
            Self::Exact { .. } => "OPT-based DPP",
        }
    }
}

/// Configuration of the online controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DppConfig {
    /// Penalty weight `V` (latency emphasis; Theorem 4's `O(1/V)` knob).
    pub v: f64,
    /// Initial queue backlog `Q(1)`.
    pub initial_queue: f64,
    /// BDMA alternation rounds `z`.
    pub bdma_rounds: usize,
    /// Relative ε for BDMA early termination under a warm start policy
    /// (see [`BdmaConfig::epsilon`]; ignored under [`StartPolicy::Cold`]).
    pub bdma_epsilon: f64,
    /// Cross-slot warm-start policy for the per-slot BDMA solve. The
    /// default `Cold` keeps runs bit-identical to the paper-faithful
    /// reference path; figure runs stay on it for paper fidelity.
    pub start: StartPolicy,
    /// P2-A solver plugged into BDMA.
    pub solver: SolverKind,
    /// RNG seed for the solver's internal randomness.
    pub seed: u64,
}

impl Default for DppConfig {
    fn default() -> Self {
        Self {
            v: 100.0,
            initial_queue: 0.0,
            bdma_rounds: 5,
            bdma_epsilon: 1e-9,
            start: StartPolicy::Cold,
            solver: SolverKind::Cgba { lambda: 0.0 },
            seed: 0,
        }
    }
}

/// The per-slot P2 solve [`EotoraDpp`] steps through. Owns a
/// [`SlotWorkspace`] so steady-state slots refresh the P2-A game in place
/// instead of rebuilding it (see [`crate::workspace`]), and the one P2-A
/// solver both the plain and the robust step run.
struct EotoraSlotSolver {
    system: MecSystem,
    bdma: BdmaConfig,
    p2a: Box<dyn P2aSolver>,
    rng: Pcg32,
    workspace: SlotWorkspace,
}

impl fmt::Debug for EotoraSlotSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EotoraSlotSolver")
            .field("p2a", &self.p2a)
            .field("bdma_rounds", &self.bdma.rounds)
            .finish()
    }
}

impl EotoraSlotSolver {
    /// Runs the BDMA loop for one slot, emitting `p2a`/`p2b` spans and
    /// `bdma_iteration` events into `recorder` (`slot` labels those
    /// events); `hooks` switch on the robust behaviour.
    fn solve_p2(
        &mut self,
        state: &SystemState,
        v: f64,
        q: f64,
        slot: u64,
        recorder: &dyn Recorder,
        hooks: Option<RobustHooks<'_>>,
    ) -> Result<RobustReport, SolveError> {
        let Self { system, bdma, p2a, rng, workspace } = self;
        solve_p2(system, state, v, q, bdma, p2a.as_mut(), workspace, rng, slot, recorder, hooks)
    }

    /// Solves one slot on the plain path and recovers the Lemma 1
    /// allocation.
    fn solve_recorded(
        &mut self,
        state: &SystemState,
        v: f64,
        q: f64,
        slot: u64,
        recorder: &dyn Recorder,
    ) -> SlotOutcome<SlotDecision> {
        let sol = self
            .solve_p2(state, v, q, slot, recorder, None)
            .expect("an unmasked solve without a deadline cannot fail")
            .solution;
        let decision = optimal_allocation(&self.system, state, &sol.assignments, &sol.freqs_hz);
        debug_assert!(decision.validate(&self.system).is_ok());
        SlotOutcome {
            decision,
            objective: sol.latency,
            constraint_excess: sol.energy_cost - self.system.budget_per_slot(),
        }
    }
}

/// The full online controller: Algorithm 1 ready to be stepped slot by slot.
///
/// # Examples
///
/// ```
/// use eotora_core::dpp::{DppConfig, EotoraDpp};
/// use eotora_core::system::{MecSystem, SystemConfig};
/// use eotora_states::{PaperStateConfig, StateProvider};
///
/// let system = MecSystem::random(&SystemConfig::paper_defaults(10), 1);
/// let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 1);
/// let mut dpp = EotoraDpp::new(system, DppConfig { v: 50.0, ..Default::default() });
/// let beta = states.observe(0, dpp.system().topology());
/// let step = dpp.step(&beta);
/// assert!(step.outcome.objective > 0.0);
/// assert!(dpp.queue_backlog() >= 0.0);
/// ```
#[derive(Debug)]
pub struct EotoraDpp {
    solver: EotoraSlotSolver,
    queue: VirtualQueue,
    slots: u64,
    objective_avg: Welford,
    excess_avg: Welford,
    config: DppConfig,
}

impl EotoraDpp {
    /// Builds the controller for `system` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.v` is not positive or `config.initial_queue` is
    /// negative.
    pub fn new(system: MecSystem, config: DppConfig) -> Self {
        assert!(config.v > 0.0, "penalty weight V must be positive");
        let solver = EotoraSlotSolver {
            system,
            bdma: BdmaConfig {
                rounds: config.bdma_rounds,
                epsilon: config.bdma_epsilon,
                start: config.start,
            },
            p2a: config.solver.instantiate(),
            rng: Pcg32::seed_stream(config.seed, 0xD99),
            // A fresh workspace is a pure cache: the first slot builds the
            // P2-A game, later slots refresh it in place with identical
            // numerics (so checkpoint/resume stays bit-exact).
            workspace: SlotWorkspace::new(),
        };
        Self {
            solver,
            queue: VirtualQueue::new(config.initial_queue),
            slots: 0,
            objective_avg: Welford::new(),
            excess_avg: Welford::new(),
            config,
        }
    }

    /// The system instance being controlled.
    pub fn system(&self) -> &MecSystem {
        &self.solver.system
    }

    /// Replaces the budget `C̄` the virtual queue is charged against —
    /// the federation rebalance path. Only future queue updates (and the
    /// robust ladder's excess readout) see the new value; the P2 solve
    /// itself never reads the budget, so decisions within a slot are
    /// unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn set_budget_per_slot(&mut self, budget_per_slot: f64) {
        self.solver.system.set_budget_per_slot(budget_per_slot);
    }

    /// The configuration in force.
    pub fn config(&self) -> &DppConfig {
        &self.config
    }

    /// Executes one slot of Algorithm 1 for the observed state `β_t`.
    pub fn step(&mut self, state: &SystemState) -> DppStep<SlotDecision> {
        self.step_with(state, &NoopRecorder)
    }

    /// Executes one slot, emitting instrumentation into `recorder`: the
    /// BDMA `p2a`/`p2b` spans and `bdma_iteration` events from the P2
    /// solve, plus a `queue_update` span and event for the virtual-queue
    /// update `Q(t+1) = max{Q(t) + C_t − C̄, 0}` (eq. 21).
    pub fn step_with(
        &mut self,
        state: &SystemState,
        recorder: &dyn Recorder,
    ) -> DppStep<SlotDecision> {
        let slot = self.slots;
        let queue_before = self.queue.backlog();
        let outcome =
            self.solver.solve_recorded(state, self.config.v, queue_before, slot, recorder);
        self.finish_slot(slot, queue_before, outcome, recorder)
    }

    /// The common tail of every slot step: virtual-queue update (eq. 21),
    /// running averages, slot counter. Shared by the plain and the robust
    /// step so the two cannot drift apart.
    fn finish_slot(
        &mut self,
        slot: u64,
        queue_before: f64,
        outcome: SlotOutcome<SlotDecision>,
        recorder: &dyn Recorder,
    ) -> DppStep<SlotDecision> {
        let update_span = SpanGuard::new(recorder, eotora_obs::SPAN_QUEUE_UPDATE);
        let queue_after = self.queue.update(outcome.constraint_excess);
        update_span.finish();
        if recorder.is_enabled() {
            recorder.record(&TraceEvent::QueueUpdate {
                slot,
                before: queue_before,
                after: queue_after,
                excess: outcome.constraint_excess,
            });
        }
        self.objective_avg.push(outcome.objective);
        self.excess_avg.push(outcome.constraint_excess);
        self.slots += 1;
        DppStep { slot, queue_before, queue_after, outcome }
    }

    /// Executes one slot through the fault-tolerant path (see
    /// [`crate::robust`]): `mask` excludes failed components from the
    /// solve, `robust.deadline` bounds the slot's wall-clock with a
    /// checkpointed incumbent, and the virtual queue is charged only for
    /// energy actually spent (down servers draw nothing). Rounds, λ and
    /// shards are the controller's own. This path never panics on degraded
    /// inputs: a solve that cannot even seed an incumbent (corrupt state
    /// that bypassed sanitization) or whose P2-A solver cannot honour the
    /// mask (a baseline) falls back to the topology-only lifeboat
    /// decision, and a failed Lemma 1 allocation falls back to equal
    /// shares.
    ///
    /// Callers should sanitize observations first
    /// ([`crate::sanitize::StateSanitizer`]); the fallbacks here are the
    /// last line of defense, not the intended recovery path.
    pub fn step_robust(
        &mut self,
        state: &SystemState,
        mask: &AvailabilityMask,
        robust: &RobustConfig,
        recorder: &dyn Recorder,
    ) -> (DppStep<SlotDecision>, RobustReport) {
        let slot = self.slots;
        let queue_before = self.queue.backlog();
        let down = mask.down_server_flags(self.solver.system.topology().num_servers());
        let hooks = RobustHooks { mask, deadline: robust.deadline };
        let report = self
            .solver
            .solve_p2(state, self.config.v, queue_before, slot, recorder, Some(hooks))
            .unwrap_or_else(|_| {
                // Escalation past the first rung: record it so live telemetry
                // can trip a postmortem dump at the moment of failure.
                recorder.add(eotora_obs::COUNTER_ROBUST_SOLVE_ERRORS, 1);
                recorder.add(eotora_obs::COUNTER_ROBUST_LIFEBOAT_DECISIONS, 1);
                crate::robust::lifeboat_report(
                    &self.solver.system,
                    state,
                    self.config.v,
                    queue_before,
                    &down,
                )
            });
        let system = &self.solver.system;
        let decision = try_optimal_allocation(
            system,
            state,
            &report.solution.assignments,
            &report.solution.freqs_hz,
        )
        .unwrap_or_else(|_| {
            recorder.add(eotora_obs::COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS, 1);
            equal_share_decision(system, &report.solution.assignments, &report.solution.freqs_hz)
        });
        debug_assert!(decision.validate(system).is_ok());
        let excess = report.solution.energy_cost - system.budget_per_slot();
        let outcome =
            SlotOutcome { decision, objective: report.solution.latency, constraint_excess: excess };
        (self.finish_slot(slot, queue_before, outcome, recorder), report)
    }

    /// Current virtual-queue backlog `Q(t)`.
    pub fn queue_backlog(&self) -> f64 {
        self.queue.backlog()
    }

    /// Running time-average latency `(1/T) Σ T_t`.
    pub fn average_latency(&self) -> f64 {
        self.objective_avg.mean()
    }

    /// Running time-average constraint excess `(1/T) Σ (C_t − C̄)`.
    pub fn average_excess(&self) -> f64 {
        self.excess_avg.mean()
    }

    /// Running time-average energy cost `(1/T) Σ C_t`.
    pub fn average_cost(&self) -> f64 {
        self.average_excess() + self.system().budget_per_slot()
    }

    /// Slots executed so far.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Snapshots everything needed to resume this controller after a
    /// restart: queue, averages, slot count, and the solver's RNG stream.
    pub fn checkpoint(&self) -> DppCheckpoint {
        DppCheckpoint {
            controller: ControllerCheckpoint {
                queue: self.queue.backlog(),
                slots: self.slots,
                objective_avg: self.objective_avg,
                excess_avg: self.excess_avg,
            },
            rng: self.solver.rng.clone(),
            config: self.config,
        }
    }

    /// Rebuilds a controller from a checkpoint. Feeding it the same state
    /// stream from the checkpointed slot onward reproduces the uninterrupted
    /// run exactly (asserted in tests).
    pub fn resume(system: MecSystem, checkpoint: &DppCheckpoint) -> Self {
        let mut dpp = Self::new(system, checkpoint.config);
        dpp.queue = VirtualQueue::new(checkpoint.controller.queue);
        dpp.slots = checkpoint.controller.slots;
        dpp.objective_avg = checkpoint.controller.objective_avg;
        dpp.excess_avg = checkpoint.controller.excess_avg;
        dpp.solver.rng = checkpoint.rng.clone();
        dpp
    }

    /// Snapshots the *full* resumable controller state: the
    /// [`DppCheckpoint`] plus the warm-start workspace. Unlike
    /// [`EotoraDpp::checkpoint`], resuming from this reproduces warm-start
    /// ([`StartPolicy::Warm`]) trajectories bit-identically too.
    pub fn checkpoint_full(&self) -> crate::checkpoint::ControllerState {
        crate::checkpoint::ControllerState {
            dpp: self.checkpoint(),
            workspace: self.solver.workspace.snapshot(),
        }
    }

    /// Rebuilds a controller from a full checkpoint (see
    /// [`EotoraDpp::checkpoint_full`]).
    pub fn resume_full(system: MecSystem, state: &crate::checkpoint::ControllerState) -> Self {
        let mut dpp = Self::resume(system, &state.dpp);
        dpp.solver.workspace.restore(&state.workspace);
        dpp
    }
}

/// Serializable resume point for [`EotoraDpp`] (see
/// [`EotoraDpp::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DppCheckpoint {
    /// Queue/averages/slot snapshot.
    pub controller: ControllerCheckpoint,
    /// Solver RNG stream position.
    pub rng: Pcg32,
    /// The configuration of the checkpointed controller.
    pub config: DppConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use eotora_states::{PaperStateConfig, StateProvider};

    fn run(v: f64, solver: SolverKind, slots: u64, devices: usize) -> EotoraDpp {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), 7);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 7);
        let mut dpp =
            EotoraDpp::new(system, DppConfig { v, solver, bdma_rounds: 2, ..Default::default() });
        for t in 0..slots {
            let beta = states.observe(t, dpp.system().topology());
            let step = dpp.step(&beta);
            assert!(step.queue_after >= 0.0);
            assert!(step.outcome.objective > 0.0);
        }
        dpp
    }

    #[test]
    fn queue_rises_then_stabilizes() {
        let dpp = run(100.0, SolverKind::Cgba { lambda: 0.0 }, 60, 15);
        assert_eq!(dpp.slots(), 60);
        // After 60 hourly slots the queue should be finite and bounded.
        assert!(dpp.queue_backlog() < 1e4);
    }

    #[test]
    fn budget_respected_on_time_average() {
        let dpp = run(50.0, SolverKind::Cgba { lambda: 0.0 }, 120, 15);
        // Time-average excess converges toward ≤ 0; allow the O(V/T)
        // transient at this horizon.
        assert!(dpp.average_excess() < 0.12, "excess {}", dpp.average_excess());
        assert!(dpp.average_cost() > 0.0);
    }

    #[test]
    fn larger_v_gives_lower_latency() {
        let lo = run(5.0, SolverKind::Cgba { lambda: 0.0 }, 80, 15);
        let hi = run(500.0, SolverKind::Cgba { lambda: 0.0 }, 80, 15);
        assert!(
            hi.average_latency() <= lo.average_latency() + 1e-9,
            "V=500 latency {} vs V=5 latency {}",
            hi.average_latency(),
            lo.average_latency()
        );
    }

    #[test]
    fn bdma_beats_ropt_based_dpp() {
        let bdma = run(100.0, SolverKind::Cgba { lambda: 0.0 }, 40, 20);
        let ropt = run(100.0, SolverKind::Ropt, 40, 20);
        assert!(bdma.average_latency() < ropt.average_latency());
    }

    #[test]
    fn decisions_are_always_feasible() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(12), 8);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 8);
        let mut dpp = EotoraDpp::new(system, DppConfig::default());
        for t in 0..10 {
            let beta = states.observe(t, dpp.system().topology());
            let step = dpp.step(&beta);
            step.outcome.decision.validate(dpp.system()).unwrap();
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let system = MecSystem::random(&SystemConfig::paper_defaults(10), 9);
            let mut states =
                StateProvider::paper(system.topology(), &PaperStateConfig::default(), 9);
            let mut dpp = EotoraDpp::new(system, DppConfig { seed: 42, ..Default::default() });
            let mut latencies = Vec::new();
            for t in 0..10 {
                let beta = states.observe(t, dpp.system().topology());
                latencies.push(dpp.step(&beta).outcome.objective);
            }
            latencies
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run() {
        let mk_system = || MecSystem::random(&SystemConfig::paper_defaults(8), 10);
        let config = DppConfig { bdma_rounds: 2, seed: 5, ..Default::default() };

        // Continuous 16-slot run.
        let mut states =
            StateProvider::paper(mk_system().topology(), &PaperStateConfig::default(), 10);
        let mut continuous = EotoraDpp::new(mk_system(), config);
        let mut reference = Vec::new();
        for t in 0..16 {
            let beta = states.observe(t, continuous.system().topology());
            reference.push(continuous.step(&beta).outcome.objective);
        }

        // 8 slots, serialize checkpoint, resume, 8 more.
        let mut states =
            StateProvider::paper(mk_system().topology(), &PaperStateConfig::default(), 10);
        let mut first = EotoraDpp::new(mk_system(), config);
        let mut observed = Vec::new();
        for t in 0..8 {
            let beta = states.observe(t, first.system().topology());
            observed.push(first.step(&beta).outcome.objective);
        }
        let json = serde_json::to_string(&first.checkpoint()).unwrap();
        let cp: DppCheckpoint = serde_json::from_str(&json).unwrap();
        let mut resumed = EotoraDpp::resume(mk_system(), &cp);
        for t in 8..16 {
            let beta = states.observe(t, resumed.system().topology());
            observed.push(resumed.step(&beta).outcome.objective);
        }
        assert_eq!(observed, reference);
        assert_eq!(resumed.slots(), 16);
    }

    #[test]
    fn step_with_emits_spans_events_and_counters() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(8), 11);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 11);
        let mut dpp = EotoraDpp::new(system, DppConfig { bdma_rounds: 2, ..Default::default() });
        let rec = eotora_obs::LiveRegistry::new();
        for t in 0..4 {
            let beta = states.observe(t, dpp.system().topology());
            dpp.step_with(&beta, &rec);
        }
        // 4 slots × 2 BDMA rounds each.
        assert_eq!(rec.span_histogram(eotora_obs::SPAN_P2A).count(), 8);
        assert_eq!(rec.span_histogram(eotora_obs::SPAN_P2B).count(), 8);
        assert_eq!(rec.span_histogram(eotora_obs::SPAN_QUEUE_UPDATE).count(), 4);
        assert_eq!(rec.counter(eotora_obs::COUNTER_BDMA_ROUNDS), 8);
        assert!(rec.counter(eotora_obs::COUNTER_BDMA_ACCEPTED) >= 4);
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let mk = |recorded: bool| {
            let system = MecSystem::random(&SystemConfig::paper_defaults(8), 12);
            let mut states =
                StateProvider::paper(system.topology(), &PaperStateConfig::default(), 12);
            let mut dpp = EotoraDpp::new(system, DppConfig { seed: 3, ..Default::default() });
            let rec = eotora_obs::LiveRegistry::new();
            let mut out = Vec::new();
            for t in 0..6 {
                let beta = states.observe(t, dpp.system().topology());
                let step = if recorded { dpp.step_with(&beta, &rec) } else { dpp.step(&beta) };
                out.push((step.outcome.objective, step.queue_after));
            }
            out
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn robust_steps_stay_feasible_through_a_crash_window() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(12), 21);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 21);
        let mut dpp = EotoraDpp::new(system, DppConfig { bdma_rounds: 2, ..Default::default() });
        let robust = RobustConfig::default();
        for t in 0..12 {
            let beta = states.observe(t, dpp.system().topology());
            let mask = if (4..8).contains(&t) {
                AvailabilityMask {
                    down_servers: vec![0, 3],
                    down_stations: vec![],
                    severed_links: vec![],
                }
            } else {
                AvailabilityMask::default()
            };
            let (step, report) = dpp.step_robust(&beta, &mask, &robust, &NoopRecorder);
            step.outcome.decision.validate(dpp.system()).unwrap();
            assert!(step.queue_after >= 0.0);
            if (4..8).contains(&t) {
                assert!(report.masked_resources >= 2);
                for a in &step.outcome.decision.assignments {
                    assert!(a.server.index() != 0 && a.server.index() != 3);
                }
            }
        }
        assert_eq!(dpp.slots(), 12);
    }

    #[test]
    fn robust_queue_charges_only_masked_energy() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(10), 22);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 22);
        let mut dpp = EotoraDpp::new(system, DppConfig::default());
        let beta = states.observe(0, dpp.system().topology());
        let mask = AvailabilityMask {
            down_servers: vec![2],
            down_stations: vec![],
            severed_links: vec![],
        };
        let (step, report) =
            dpp.step_robust(&beta, &mask, &crate::robust::RobustConfig::default(), &NoopRecorder);
        let down = mask.down_server_flags(dpp.system().topology().num_servers());
        let masked_cost =
            dpp.system().energy_cost_masked(beta.price_per_kwh, &report.solution.freqs_hz, &down);
        let expected = (masked_cost - dpp.system().budget_per_slot()).max(0.0);
        assert!((step.queue_after - expected).abs() < 1e-12);
    }

    #[test]
    fn robust_step_on_a_baseline_solver_is_a_counted_lifeboat() {
        // ROPT cannot honour an availability mask: the robust step must
        // fall back to the lifeboat decision and count it, never solve
        // the slot with some other (CGBA) solver.
        let system = MecSystem::random(&SystemConfig::paper_defaults(10), 23);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 23);
        let config = DppConfig { solver: SolverKind::Ropt, ..Default::default() };
        let mut dpp = EotoraDpp::new(system, config);
        let beta = states.observe(0, dpp.system().topology());
        let mask = AvailabilityMask::default();
        let down = mask.down_server_flags(dpp.system().topology().num_servers());
        let lifeboat = crate::robust::lifeboat_report(dpp.system(), &beta, config.v, 0.0, &down);
        let rec = eotora_obs::LiveRegistry::new();
        let (step, report) = dpp.step_robust(&beta, &mask, &RobustConfig::default(), &rec);
        assert_eq!(report, lifeboat);
        assert_eq!(rec.counter(eotora_obs::COUNTER_ROBUST_SOLVE_ERRORS), 1);
        assert_eq!(rec.counter(eotora_obs::COUNTER_ROBUST_LIFEBOAT_DECISIONS), 1);
        assert_eq!(rec.counter(eotora_obs::COUNTER_CGBA_ITERATIONS), 0);
        assert_eq!(rec.counter(eotora_obs::COUNTER_BDMA_ROUNDS), 0);
        step.outcome.decision.validate(dpp.system()).unwrap();
    }

    #[test]
    fn solver_names_match_paper_legends() {
        assert_eq!(SolverKind::Cgba { lambda: 0.0 }.name(), "BDMA-based DPP");
        assert_eq!(
            SolverKind::ShardedCgba { lambda: 0.0, shards: 0 }.name(),
            "Sharded-BDMA-based DPP"
        );
        assert_eq!(SolverKind::Ropt.name(), "ROPT-based DPP");
        assert_eq!(SolverKind::Greedy.name(), "Greedy-based DPP");
        assert_eq!(SolverKind::Mcba { iterations: 100 }.name(), "MCBA-based DPP");
        assert_eq!(SolverKind::Exact { node_budget: 10 }.name(), "OPT-based DPP");
    }
}
