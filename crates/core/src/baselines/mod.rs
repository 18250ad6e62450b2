//! Baseline solvers for P2-A (paper §VI-B).
//!
//! * [`RoptSolver`] — each device picks a uniformly random feasible
//!   (station, server) pair; resource allocation stays optimal via Lemma 1.
//! * [`McbaSolver`] — Markov-chain Monte Carlo over strategy profiles
//!   (Ma et al., INFOCOM 2020): single-device proposals accepted with
//!   Metropolis probability under a cooling temperature; best-seen profile
//!   returned.
//! * [`GreedySolver`] — deterministic heaviest-first marginal-cost
//!   assignment (one pass; also a good warm start).
//! * [`BetaOnlyPolicy`] — the hindsight-tuned stationary Lagrangian policy
//!   of Lemma 2, the benchmark Theorem 4 compares DPP against.
//! * [`ExactSolver`] — the Gurobi replacement: best-first branch-and-bound
//!   over device assignments with an admissible marginal-cost bound,
//!   optionally warm-started by CGBA. Exact on small instances; on large
//!   ones returns the incumbent plus a certified lower bound.

use eotora_game::StrategyFilter;

use crate::error::SolveError;

mod beta_only;
mod exact;
mod greedy;
mod mcba;
mod ropt;

pub use beta_only::{BetaOnlyPolicy, BetaOnlyRun};
pub use exact::{ExactReport, ExactSolver};
pub use greedy::GreedySolver;
pub use mcba::{McbaConfig, McbaSolver};
pub use ropt::RoptSolver;

/// Refuses an availability mask: a baseline solves the unmasked game only,
/// and must not silently ignore the mask.
fn refuse_filter(solver: &'static str, filter: Option<&StrategyFilter>) -> Result<(), SolveError> {
    match filter {
        Some(_) => Err(SolveError::FilterUnsupported { solver }),
        None => Ok(()),
    }
}
