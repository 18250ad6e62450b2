//! A per-slot-budget controller — the natural alternative to DPP that
//! enforces `C_t ≤ C̄` at *every* slot instead of on time average.
//!
//! This is the ablation DESIGN.md calls "why time-averaging matters":
//! a per-slot constraint cannot shift energy spending into cheap-price
//! hours, so for the same budget it must run slower clocks during expensive
//! hours and ends up with strictly worse latency than DPP (verified in the
//! `ablation_per_slot` experiment and tests).
//!
//! Mechanically, each slot solves
//!
//! ```text
//! min_Ω  T_t(x̄, ȳ, Ω)   s.t.  C_t(Ω, p_t) ≤ C̄,  Ω ∈ [F^L, F^U]
//! ```
//!
//! by bisecting the Lagrange multiplier `μ ≥ 0` of the cost constraint: for
//! each candidate `μ`, the inner problem `min T_t + μ·C_t` is exactly a
//! P2-B instance (solved per server in closed form), and the attained cost
//! `C_t(μ)` is non-increasing in `μ`, so the smallest feasible `μ` is found
//! by bisection. The discrete `(x̄, ȳ)` comes from the same pluggable P2-A
//! solver the DPP controller uses.

use eotora_obs::{NoopRecorder, Recorder, SpanGuard};
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;

use crate::allocation::optimal_allocation;
use crate::bdma::{P2aSolver, StartPolicy};
use crate::decision::SlotDecision;
use crate::p2b::solve_p2b;
use crate::sharded::CgbaSolver;
use crate::system::MecSystem;
use crate::workspace::SlotWorkspace;

/// Result of one per-slot-budget step.
#[derive(Debug, Clone, PartialEq)]
pub struct PerSlotStep {
    /// The executed decision.
    pub decision: SlotDecision,
    /// Latency `T_t` this slot.
    pub latency: f64,
    /// Energy cost `C_t` this slot (always ≤ the budget, up to bisection
    /// tolerance, whenever the budget is attainable).
    pub energy_cost: f64,
    /// The Lagrange multiplier that enforced the budget (0 when slack).
    pub multiplier: f64,
}

/// The per-slot-budget controller.
#[derive(Debug)]
pub struct PerSlotController {
    system: MecSystem,
    p2a: Box<dyn P2aSolver>,
    rng: Pcg32,
    workspace: SlotWorkspace,
    start: StartPolicy,
    latency_sum: f64,
    cost_sum: f64,
    slots: u64,
}

impl PerSlotController {
    /// Creates a controller using CGBA(0) for the discrete subproblem.
    pub fn new(system: MecSystem, seed: u64) -> Self {
        Self::with_solver(system, Box::new(CgbaSolver::default()), seed)
    }

    /// Creates a controller with a custom P2-A solver.
    pub fn with_solver(system: MecSystem, p2a: Box<dyn P2aSolver>, seed: u64) -> Self {
        Self {
            system,
            p2a,
            rng: Pcg32::seed_stream(seed, 0x9E51),
            workspace: SlotWorkspace::new(),
            start: StartPolicy::Cold,
            latency_sum: 0.0,
            cost_sum: 0.0,
            slots: 0,
        }
    }

    /// Sets the cross-slot warm-start policy for the P2-A solve (the P2-A
    /// game here always sits at `Ω^L`, so only the profile seed applies;
    /// `Cold`, the default, reproduces the pre-warm-start behaviour
    /// exactly).
    #[must_use]
    pub fn with_start_policy(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// The system under control.
    pub fn system(&self) -> &MecSystem {
        &self.system
    }

    /// Running time-average latency.
    pub fn average_latency(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.latency_sum / self.slots as f64
        }
    }

    /// Running time-average energy cost.
    pub fn average_cost(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.cost_sum / self.slots as f64
        }
    }

    /// Executes one slot: pick `(x, y)` at minimum frequencies, then scale
    /// frequencies up as far as this slot's budget allows.
    pub fn step(&mut self, state: &SystemState) -> PerSlotStep {
        self.step_with(state, &NoopRecorder)
    }

    /// Executes one slot, emitting a `p2a` span for the discrete solve and
    /// a `p2b` span covering the whole multiplier search (each bisection
    /// probe is one P2-B instance; `per_slot_probes` counts them).
    pub fn step_with(&mut self, state: &SystemState, recorder: &dyn Recorder) -> PerSlotStep {
        let min_freqs = self.system.min_frequencies();
        let seed: Option<Vec<usize>> = if self.start == StartPolicy::Cold {
            None
        } else {
            self.workspace.retained_choices().map(<[usize]>::to_vec)
        };
        let p2a_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2A);
        let p2a = self.workspace.prepare(&self.system, state, &min_freqs);
        let choices = self
            .p2a
            .solve(p2a, seed.as_deref(), None, &|| false, &mut self.rng, recorder)
            .expect("an unfiltered P2-A solve cannot fail");
        let assignments = p2a.assignments_from_choices(&choices);
        p2a_span.finish();
        if self.start != StartPolicy::Cold {
            self.workspace.retain_solution(&choices, &min_freqs);
        }

        // Reuse the P2-B machinery: solve_p2b(v=1, queue=μ) minimizes
        // T_t + μ·(C_t − C̄), whose Ω-part is exactly our Lagrangian.
        let budget = self.system.budget_per_slot();
        let probes = std::cell::Cell::new(0u64);
        let solve_at = |mu: f64| {
            probes.set(probes.get() + 1);
            solve_p2b(&self.system, state, &assignments, 1.0, mu)
        };
        let cost_of = |freqs: &[f64]| self.system.energy_cost(state.price_per_kwh, freqs);

        let p2b_span = SpanGuard::new(recorder, eotora_obs::SPAN_P2B);
        let free = solve_at(0.0);
        let (freqs, multiplier) = if cost_of(&free.freqs_hz) <= budget {
            (free.freqs_hz, 0.0)
        } else {
            // Find μ_hi with feasible cost (doubling), then bisect to the
            // smallest feasible multiplier.
            let mut lo = 0.0;
            let mut hi = 1.0;
            let mut hi_sol = solve_at(hi);
            let mut guard = 0;
            while cost_of(&hi_sol.freqs_hz) > budget && guard < 60 {
                hi *= 4.0;
                hi_sol = solve_at(hi);
                guard += 1;
            }
            let mut feasible = hi_sol.freqs_hz.clone();
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                let sol = solve_at(mid);
                if cost_of(&sol.freqs_hz) <= budget {
                    hi = mid;
                    feasible = sol.freqs_hz;
                } else {
                    lo = mid;
                }
            }
            (feasible, hi)
        };
        p2b_span.finish();
        if recorder.is_enabled() {
            recorder.add(eotora_obs::COUNTER_PER_SLOT_PROBES, probes.get());
        }

        let latency =
            crate::latency::optimal_latency(&self.system, state, &assignments, &freqs).total();
        let energy_cost = cost_of(&freqs);
        let decision = optimal_allocation(&self.system, state, &assignments, &freqs);
        self.latency_sum += latency;
        self.cost_sum += energy_cost;
        self.slots += 1;
        PerSlotStep { decision, latency, energy_cost, multiplier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpp::{DppConfig, EotoraDpp};
    use crate::system::SystemConfig;
    use eotora_states::{PaperStateConfig, StateProvider};

    fn system(devices: usize, seed: u64, budget: f64) -> MecSystem {
        MecSystem::random(&SystemConfig::paper_defaults(devices), seed).with_budget(budget)
    }

    #[test]
    fn per_slot_budget_is_enforced_every_slot() {
        let sys = system(12, 91, 0.9);
        let mut states = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 91);
        let mut ctl = PerSlotController::new(sys, 91);
        for t in 0..24 {
            let beta = states.observe(t, ctl.system().topology());
            let step = ctl.step(&beta);
            assert!(
                step.energy_cost <= ctl.system().budget_per_slot() * (1.0 + 1e-6),
                "slot {t}: cost {} over budget",
                step.energy_cost
            );
            step.decision.validate(ctl.system()).unwrap();
        }
    }

    #[test]
    fn slack_budget_means_zero_multiplier_and_max_speed() {
        let sys = system(10, 92, 100.0); // effectively unconstrained
        let mut states = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 92);
        let mut ctl = PerSlotController::new(sys, 92);
        let beta = states.observe(0, ctl.system().topology());
        let step = ctl.step(&beta);
        assert_eq!(step.multiplier, 0.0);
    }

    #[test]
    fn unattainable_budget_degrades_to_min_frequencies() {
        let sys = system(8, 93, 0.01); // below the min-frequency floor
        let mut states = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 93);
        let mut ctl = PerSlotController::new(sys, 93);
        let beta = states.observe(0, ctl.system().topology());
        let step = ctl.step(&beta);
        let floor = ctl.system().energy_cost(beta.price_per_kwh, &ctl.system().min_frequencies());
        assert!((step.energy_cost - floor).abs() < 1e-6);
    }

    #[test]
    fn step_with_emits_phase_spans() {
        let sys = system(10, 95, 0.9);
        let mut states = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 95);
        let mut ctl = PerSlotController::new(sys, 95);
        let rec = eotora_obs::LiveRegistry::new();
        for t in 0..3 {
            let beta = states.observe(t, ctl.system().topology());
            ctl.step_with(&beta, &rec);
        }
        assert_eq!(rec.span_histogram(eotora_obs::SPAN_P2A).count(), 3);
        assert_eq!(rec.span_histogram(eotora_obs::SPAN_P2B).count(), 3);
        // At least the μ = 0 probe every slot.
        assert!(rec.counter(eotora_obs::COUNTER_PER_SLOT_PROBES) >= 3);
    }

    #[test]
    fn dpp_dominates_per_slot_budgeting() {
        // The core ablation: same long-run budget, DPP exploits cheap hours
        // and achieves lower average latency.
        let budget = 0.8;
        let sys = system(15, 94, budget);
        let mut states_a = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 94);
        let mut states_b = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 94);

        let mut per_slot = PerSlotController::new(sys.clone(), 94);
        let mut dpp = EotoraDpp::new(
            sys,
            DppConfig { v: 100.0, bdma_rounds: 2, seed: 94, ..Default::default() },
        );
        for t in 0..96 {
            let beta = states_a.observe(t, per_slot.system().topology());
            per_slot.step(&beta);
            let beta = states_b.observe(t, dpp.system().topology());
            dpp.step(&beta);
        }
        // Both meet the budget on average (per-slot trivially, DPP by Thm 4
        // up to the transient)…
        assert!(per_slot.average_cost() <= budget * (1.0 + 1e-6));
        assert!(dpp.average_cost() <= budget * 1.10);
        // …but DPP converts the same budget into strictly less latency.
        assert!(
            dpp.average_latency() < per_slot.average_latency(),
            "DPP {} should beat per-slot {}",
            dpp.average_latency(),
            per_slot.average_latency()
        );
    }
}
