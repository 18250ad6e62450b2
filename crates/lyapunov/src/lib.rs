//! Lyapunov stochastic optimization: the virtual queues of paper §V.
//!
//! The paper converts the time-average energy-cost constraint
//! `lim (1/T) Σ E[Θ(Ω_t, p_t)] ≤ 0` into a **virtual queue**
//! `Q(t+1) = max{Q(t) + θ(t), 0}` (eq. 21) and, each slot, solves
//!
//! ```text
//! min  V · objective(α_t)  +  Q(t) · constraint_excess(α_t)      (P2)
//! ```
//!
//! Queue stability then implies the constraint holds on time average, and
//! Theorem 4 gives an `O(1/V)` optimality gap growing with the state period
//! `D`. This crate holds the problem-agnostic pieces of that loop; the loop
//! itself (paper Algorithm 1) is `eotora_core::dpp::EotoraDpp`:
//!
//! * [`VirtualQueue`] — the scalar queue with its update rule.
//! * [`SlotOutcome`] / [`DppStep`] — one slot's decision and metrics, and
//!   the queue backlog before and after it.
//! * [`ControllerCheckpoint`] — the loop's serializable dynamic state.
//! * [`MultiQueue`] — the multi-constraint generalization (one queue per
//!   constraint), the extension hook DESIGN.md lists.
//!
//! # Examples
//!
//! ```
//! use eotora_lyapunov::VirtualQueue;
//!
//! // One slot overspends the budget by 1, the next underspends it by 0.4.
//! let mut q = VirtualQueue::new(0.0);
//! assert_eq!(q.update(1.0), 1.0); // max(0 + 1, 0)
//! assert_eq!(q.update(-0.4), 0.6);
//! ```

use serde::{Deserialize, Serialize};

use eotora_util::stats::Welford;

/// The scalar virtual queue `Q(t)` of eq. (21).
///
/// # Examples
///
/// ```
/// use eotora_lyapunov::VirtualQueue;
///
/// let mut q = VirtualQueue::new(0.0);
/// q.update(3.0);
/// q.update(-5.0);
/// assert_eq!(q.backlog(), 0.0); // clamped at zero
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VirtualQueue {
    backlog: f64,
}

impl VirtualQueue {
    /// Creates a queue with initial backlog `Q(1) = q0`.
    ///
    /// # Panics
    ///
    /// Panics if `q0` is negative or non-finite.
    pub fn new(q0: f64) -> Self {
        assert!(q0 >= 0.0 && q0.is_finite(), "initial backlog must be non-negative");
        Self { backlog: q0 }
    }

    /// Current backlog `Q(t)`.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Applies `Q(t+1) = max{Q(t) + excess, 0}` and returns the new backlog.
    pub fn update(&mut self, excess: f64) -> f64 {
        self.backlog = (self.backlog + excess).max(0.0);
        self.backlog
    }
}

/// Decision plus per-slot metrics of one solved slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome<D> {
    /// The decision `α_t` to execute this slot.
    pub decision: D,
    /// The objective term (the paper's latency `T_t`).
    pub objective: f64,
    /// The constraint excess `θ(t)` (the paper's `C_t − C̄`); negative when
    /// under budget.
    pub constraint_excess: f64,
}

/// Result of one controller step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DppStep<D> {
    /// Slot index (0-based count of steps taken before this one).
    pub slot: u64,
    /// Queue backlog used when solving (i.e. `Q(t)`).
    pub queue_before: f64,
    /// Queue backlog after the update (i.e. `Q(t+1)`).
    pub queue_after: f64,
    /// The solver outcome executed this slot.
    pub outcome: SlotOutcome<D>,
}

/// Serializable snapshot of a DPP loop's dynamic state (queue, slot
/// count, running averages) — everything needed to resume a run after a
/// restart, given the same solver and states.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerCheckpoint {
    /// Queue backlog `Q(t)` at checkpoint time.
    pub queue: f64,
    /// Slots executed so far.
    pub slots: u64,
    /// Running objective average state.
    pub objective_avg: Welford,
    /// Running constraint-excess average state.
    pub excess_avg: Welford,
}

/// One virtual queue per constraint — the multi-budget generalization
/// (e.g. a separate energy budget per server room).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiQueue {
    queues: Vec<VirtualQueue>,
}

impl MultiQueue {
    /// Creates `n` queues, all starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one queue");
        Self { queues: vec![VirtualQueue::new(0.0); n] }
    }

    /// Number of constraints tracked.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether there are no queues (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Backlogs `Q_j(t)`.
    pub fn backlogs(&self) -> Vec<f64> {
        self.queues.iter().map(VirtualQueue::backlog).collect()
    }

    /// The weighted drift term `Σ_j Q_j(t) · excess_j` to add to the slot
    /// objective.
    ///
    /// # Panics
    ///
    /// Panics if `excesses.len()` differs from the queue count.
    pub fn drift_weight(&self, excesses: &[f64]) -> f64 {
        assert_eq!(excesses.len(), self.queues.len(), "one excess per queue");
        self.queues.iter().zip(excesses).map(|(q, &e)| q.backlog() * e).sum()
    }

    /// Updates every queue with its realized excess.
    ///
    /// # Panics
    ///
    /// Panics if `excesses.len()` differs from the queue count.
    pub fn update(&mut self, excesses: &[f64]) {
        assert_eq!(excesses.len(), self.queues.len(), "one excess per queue");
        for (q, &e) in self.queues.iter_mut().zip(excesses) {
            q.update(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_util::assert_close;
    use eotora_util::rng::Pcg32;

    #[test]
    fn queue_dynamics_match_eq_21() {
        let mut q = VirtualQueue::new(2.0);
        assert_eq!(q.update(3.0), 5.0);
        assert_eq!(q.update(-1.5), 3.5);
        assert_eq!(q.update(-10.0), 0.0);
        assert_eq!(q.update(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_initial_backlog_panics() {
        VirtualQueue::new(-1.0);
    }

    #[test]
    fn checkpoint_serde_roundtrip() {
        let mut objective_avg = Welford::new();
        let mut excess_avg = Welford::new();
        for x in [1.5, 2.5, 4.0] {
            objective_avg.push(x);
            excess_avg.push(x - 2.0);
        }
        let cp = ControllerCheckpoint { queue: 3.5, slots: 3, objective_avg, excess_avg };
        let json = serde_json::to_string(&cp).unwrap();
        let back: ControllerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn multi_queue_drift_and_update() {
        let mut mq = MultiQueue::new(3);
        assert_eq!(mq.len(), 3);
        assert!(!mq.is_empty());
        mq.update(&[1.0, -1.0, 2.0]);
        assert_eq!(mq.backlogs(), vec![1.0, 0.0, 2.0]);
        let w = mq.drift_weight(&[0.5, 10.0, 1.0]);
        assert_close!(w, 1.0 * 0.5 + 0.0 * 10.0 + 2.0 * 1.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "one excess per queue")]
    fn multi_queue_length_mismatch_panics() {
        MultiQueue::new(2).update(&[1.0]);
    }

    #[test]
    fn random_excess_sequence_keeps_queue_nonnegative() {
        let mut rng = Pcg32::seed(44);
        let mut q = VirtualQueue::new(0.0);
        for _ in 0..10_000 {
            q.update(rng.uniform_in(-2.0, 2.0));
            assert!(q.backlog() >= 0.0);
        }
    }
}
