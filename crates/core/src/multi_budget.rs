//! Multi-budget DPP: one energy budget (and virtual queue) per server room.
//!
//! The paper's single constraint bounds the *fleet-wide* cost. Operators of
//! real edge sites often contract electricity per room, which needs one
//! time-average constraint per cluster `m`:
//!
//! ```text
//! lim (1/T) Σ_t E[C_{m,t}(Ω_t, p_t)] ≤ C̄_m      for every room m
//! ```
//!
//! The drift-plus-penalty machinery generalizes directly (this is the
//! extension hook listed in DESIGN.md): keep a queue `Q_m(t)` per room and
//! solve, each slot,
//!
//! ```text
//! min  V·T_t + Σ_m Q_m(t)·(C_{m,t} − C̄_m)
//! ```
//!
//! which stays **separable per server** in the frequency step — a server in
//! room `m` simply uses `Q_m` instead of the global `Q` — so BDMA carries
//! over unchanged apart from the bookkeeping, implemented here.

use eotora_lyapunov::MultiQueue;
use eotora_obs::NoopRecorder;
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;

use crate::allocation::optimal_allocation;
use crate::bdma::P2aSolver;
use crate::decision::{Assignment, SlotDecision};
use crate::latency::optimal_latency;
use crate::p2a::P2aProblem;
use crate::sharded::CgbaSolver;
use crate::system::MecSystem;
use eotora_optim::scalar::minimize_bisection;

/// Result of one multi-budget DPP step.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBudgetStep {
    /// The executed decision.
    pub decision: SlotDecision,
    /// Latency `T_t` this slot.
    pub latency: f64,
    /// Per-cluster energy cost `C_{m,t}` this slot, in dollars.
    pub cluster_costs: Vec<f64>,
    /// Queue backlogs `Q_m(t+1)` after the update.
    pub backlogs: Vec<f64>,
}

/// The per-room-budget online controller.
#[derive(Debug)]
pub struct MultiBudgetDpp {
    system: MecSystem,
    budgets: Vec<f64>,
    queues: MultiQueue,
    v: f64,
    bdma_rounds: usize,
    p2a: Box<dyn P2aSolver>,
    rng: Pcg32,
    latency_sum: f64,
    cost_sums: Vec<f64>,
    slots: u64,
}

impl MultiBudgetDpp {
    /// Creates a controller with one budget per cluster (in cluster-id
    /// order), CGBA(0) as the P2-A solver, and `z` BDMA rounds.
    ///
    /// # Panics
    ///
    /// Panics if `budgets.len()` differs from the cluster count, any budget
    /// is non-positive, or `v`/`bdma_rounds` are non-positive.
    pub fn new(
        system: MecSystem,
        budgets: Vec<f64>,
        v: f64,
        bdma_rounds: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(budgets.len(), system.topology().num_clusters(), "one budget per server room");
        assert!(budgets.iter().all(|&b| b > 0.0), "budgets must be positive");
        assert!(v > 0.0, "penalty weight must be positive");
        assert!(bdma_rounds > 0, "BDMA needs at least one round");
        let queues = MultiQueue::new(budgets.len());
        let cost_sums = vec![0.0; budgets.len()];
        Self {
            system,
            budgets,
            queues,
            v,
            bdma_rounds,
            p2a: Box::new(CgbaSolver::default()),
            rng: Pcg32::seed_stream(seed, 0x3B_D9),
            latency_sum: 0.0,
            cost_sums,
            slots: 0,
        }
    }

    /// The system under control.
    pub fn system(&self) -> &MecSystem {
        &self.system
    }

    /// Current backlogs `Q_m(t)`.
    pub fn backlogs(&self) -> Vec<f64> {
        self.queues.backlogs()
    }

    /// Running time-average latency.
    pub fn average_latency(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.latency_sum / self.slots as f64
        }
    }

    /// Running time-average cost per cluster.
    pub fn average_cluster_costs(&self) -> Vec<f64> {
        if self.slots == 0 {
            self.cost_sums.clone()
        } else {
            self.cost_sums.iter().map(|&c| c / self.slots as f64).collect()
        }
    }

    /// Per-cluster energy cost at the given frequencies and price.
    fn cluster_costs(&self, price: f64, freqs_hz: &[f64]) -> Vec<f64> {
        let topo = self.system.topology();
        let mut costs = vec![0.0; topo.num_clusters()];
        for n in topo.server_ids() {
            let watts = self.system.energy_model(n).power_watts(freqs_hz[n.index()]);
            costs[topo.server(n).cluster.index()] +=
                eotora_energy::energy_cost_dollars(price, watts, self.system.slot_hours());
        }
        costs
    }

    /// Frequency step: per-server bisection with the *owning room's* queue.
    fn solve_frequencies(&self, state: &SystemState, assignments: &[Assignment]) -> Vec<f64> {
        let topo = self.system.topology();
        let loads = crate::p2b::processing_loads(&self.system, state, assignments);
        let kwh = self.system.slot_hours() / 1000.0;
        let backlogs = self.queues.backlogs();
        topo.server_ids()
            .map(|n| {
                let srv = topo.server(n);
                let a_n = loads[n.index()];
                if a_n == 0.0 {
                    return srv.freq_min_hz;
                }
                let q_m = backlogs[srv.cluster.index()];
                let cost_w = q_m * state.price_per_kwh * kwh;
                let model = self.system.energy_model(n);
                let v = self.v;
                minimize_bisection(
                    |w| v * a_n / w + cost_w * model.power_watts(w),
                    |w| -v * a_n / (w * w) + cost_w * model.power_derivative(w),
                    srv.freq_min_hz,
                    srv.freq_max_hz,
                    1.0,
                    200,
                )
                .x
            })
            .collect()
    }

    /// Executes one slot of the multi-budget Algorithm 1.
    pub fn step(&mut self, state: &SystemState) -> MultiBudgetStep {
        // BDMA alternation with the per-cluster drift objective.
        let mut freqs = self.system.min_frequencies();
        let mut best: Option<(f64, Vec<Assignment>, Vec<f64>)> = None;
        for _ in 0..self.bdma_rounds {
            let p2a = P2aProblem::build(&self.system, state, &freqs);
            let choices = self
                .p2a
                .solve(&p2a, None, None, &|| false, &mut self.rng, &NoopRecorder)
                .expect("an unfiltered P2-A solve cannot fail");
            let assignments = p2a.assignments_from_choices(&choices);
            freqs = self.solve_frequencies(state, &assignments);
            let latency = optimal_latency(&self.system, state, &assignments, &freqs).total();
            let costs = self.cluster_costs(state.price_per_kwh, &freqs);
            let excesses: Vec<f64> =
                costs.iter().zip(&self.budgets).map(|(&c, &b)| c - b).collect();
            let objective = self.v * latency + self.queues.drift_weight(&excesses);
            if best.as_ref().is_none_or(|(obj, _, _)| objective < *obj) {
                best = Some((objective, assignments, freqs.clone()));
            }
        }
        let (_, assignments, freqs) = best.expect("at least one round ran");

        let latency = optimal_latency(&self.system, state, &assignments, &freqs).total();
        let cluster_costs = self.cluster_costs(state.price_per_kwh, &freqs);
        let excesses: Vec<f64> =
            cluster_costs.iter().zip(&self.budgets).map(|(&c, &b)| c - b).collect();
        self.queues.update(&excesses);
        self.latency_sum += latency;
        for (sum, &c) in self.cost_sums.iter_mut().zip(&cluster_costs) {
            *sum += c;
        }
        self.slots += 1;

        let decision = optimal_allocation(&self.system, state, &assignments, &freqs);
        MultiBudgetStep { decision, latency, cluster_costs, backlogs: self.queues.backlogs() }
    }
}

/// Splits a fleet-wide budget into per-cluster budgets proportional to each
/// room's maximum power draw — a sensible default for migrating from the
/// single-budget formulation.
pub fn proportional_budgets(system: &MecSystem, total: f64) -> Vec<f64> {
    let topo = system.topology();
    let max_freqs = system.max_frequencies();
    let mut room_power = vec![0.0; topo.num_clusters()];
    for n in topo.server_ids() {
        room_power[topo.server(n).cluster.index()] +=
            system.energy_model(n).power_watts(max_freqs[n.index()]);
    }
    let total_power: f64 = room_power.iter().sum();
    room_power.iter().map(|&p| total * p / total_power).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use eotora_states::{PaperStateConfig, StateProvider};

    fn setup(devices: usize, seed: u64) -> MecSystem {
        MecSystem::random(&SystemConfig::paper_defaults(devices), seed)
    }

    #[test]
    fn per_cluster_budgets_honored_on_average() {
        let sys = setup(12, 101);
        let budgets = proportional_budgets(&sys, 1.0);
        assert_eq!(budgets.len(), 2);
        let mut states = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 101);
        let mut ctl = MultiBudgetDpp::new(sys, budgets.clone(), 60.0, 1, 101);
        for t in 0..150 {
            let beta = states.observe(t, ctl.system().topology());
            let step = ctl.step(&beta);
            step.decision.validate(ctl.system()).unwrap();
        }
        for (avg, budget) in ctl.average_cluster_costs().iter().zip(&budgets) {
            assert!(
                avg <= &(budget * 1.12),
                "cluster average {avg} exceeds budget {budget} beyond the transient"
            );
        }
    }

    #[test]
    fn tight_room_throttles_only_that_room() {
        // Room 0 gets a starvation budget, room 1 a generous one: room 0's
        // queue must grow while room 1's stays near zero.
        let sys = setup(10, 102);
        let generous = proportional_budgets(&sys, 3.0);
        let budgets = vec![0.02, generous[1]];
        let mut states = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 102);
        let mut ctl = MultiBudgetDpp::new(sys, budgets, 60.0, 1, 102);
        for t in 0..48 {
            let beta = states.observe(t, ctl.system().topology());
            ctl.step(&beta);
        }
        let backlogs = ctl.backlogs();
        assert!(backlogs[0] > 1.0, "starved room queue should grow, got {backlogs:?}");
        assert!(backlogs[1] < backlogs[0] * 0.2, "generous room should stay low: {backlogs:?}");
    }

    #[test]
    fn proportional_budgets_sum_to_total() {
        let sys = setup(6, 103);
        let b = proportional_budgets(&sys, 2.5);
        assert!((b.iter().sum::<f64>() - 2.5).abs() < 1e-9);
        assert!(b.iter().all(|&x| x > 0.0));
    }

    #[test]
    #[should_panic(expected = "one budget per server room")]
    fn wrong_budget_count_panics() {
        let sys = setup(4, 104);
        MultiBudgetDpp::new(sys, vec![1.0], 10.0, 1, 0);
    }

    #[test]
    fn reduces_to_single_budget_behaviour_when_budgets_match() {
        // With both rooms given ample budgets the controller should run the
        // fleet fast (near the unconstrained latency), like single-queue DPP
        // with a slack budget.
        let sys = setup(10, 105);
        let budgets = proportional_budgets(&sys, 50.0);
        let mut states = StateProvider::paper(sys.topology(), &PaperStateConfig::default(), 105);
        let mut ctl = MultiBudgetDpp::new(sys, budgets, 100.0, 1, 105);
        let mut last = None;
        for t in 0..6 {
            let beta = states.observe(t, ctl.system().topology());
            last = Some(ctl.step(&beta));
        }
        let step = last.unwrap();
        // Queues never fill (budget slack), so clocks stay at max for
        // loaded servers: latency equals the max-frequency latency.
        assert!(step.backlogs.iter().all(|&q| q == 0.0));
    }
}
