//! `eotora-core` — the paper's primary contribution: **E**nergy-aware
//! **O**nline **T**ask **O**ffloading and **R**esource **A**llocation for
//! mobile edge computing (Liu et al., ICDCS 2023).
//!
//! # Problem
//!
//! Each slot `t`, every mobile device generates a task (`f_{i,t}` cycles,
//! `d_{i,t}` bits). The controller observes `β_t = (f_t, d_t, h_t, p_t)` and
//! picks `α_t = (x_t, y_t, Ψ_t, Φ_t, Ω_t)` — base station, server, bandwidth
//! shares, compute shares, and per-server clock frequencies — to minimize
//! long-run average latency subject to the time-average energy-cost budget
//! `C̄` (problem *EOTORA*).
//!
//! # Pipeline (one module per paper artifact)
//!
//! | Module | Paper | Content |
//! |---|---|---|
//! | [`system`] | §III-A | [`system::MecSystem`]: topology + energy models + suitability `σ_{i,n}` + budget |
//! | [`decision`] | §III-B | decision types and feasibility validation (constraints (1)–(6)) |
//! | [`allocation`] | Lemma 1 | closed-form optimal `Φ*, Ψ*` |
//! | [`latency`] | eqs. (7)–(11), (18)–(20) | latency under arbitrary and optimal allocations |
//! | [`p2a`] | §V-B | the P2-A ↔ weighted-congestion-game mapping |
//! | [`p2b`] | §V-A | separable convex frequency scaling (the CVX substitute) |
//! | [`bdma`] | Alg. 2 | BDMA(z): alternate P2-A and P2-B, keep the best |
//! | [`dpp`] | Alg. 1 | BDMA-based DPP online controller (plugs into `eotora-lyapunov`) |
//! | [`workspace`] | — | [`workspace::SlotWorkspace`]: reusable per-slot solver state (zero-rebuild engine) |
//! | [`baselines`] | §VI | ROPT, MCBA (MCMC), and the exact branch-and-bound optimum |
//! | [`fault`] | — | [`fault::AvailabilityMask`] + [`fault::FaultSchedule`]: failure model and scripted traces |
//! | [`robust`] | — | [`robust::solve_p2_robust`]: fault-masked anytime solve with checkpointed incumbents |
//! | [`sharded`] | — | [`sharded::ShardedCgbaSolver`]: per-cluster CGBA subgames solved in parallel and merged deterministically |
//! | [`sanitize`] | — | [`sanitize::StateSanitizer`]: `β_t` validation with last-known-good substitution |
//! | [`checkpoint`] | — | [`checkpoint::ControllerState`]: full serializable resume state (queue + workspace + sanitizer) |
//! | [`error`] | — | [`error::SolveError`]: typed recoverable failures for the degradation ladder |
//!
//! # Examples
//!
//! ```
//! use eotora_core::dpp::{DppConfig, EotoraDpp};
//! use eotora_core::system::{MecSystem, SystemConfig};
//! use eotora_states::{PaperStateConfig, StateProvider};
//!
//! let system = MecSystem::random(&SystemConfig::paper_defaults(20), 7);
//! let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 7);
//! let mut controller = EotoraDpp::new(system.clone(), DppConfig::default());
//!
//! for slot in 0..3 {
//!     let beta = states.observe(slot, controller.system().topology());
//!     let step = controller.step(&beta);
//!     assert!(step.outcome.objective > 0.0);
//! }
//! ```

pub mod allocation;
pub mod baselines;
pub mod bdma;
pub mod checkpoint;
pub mod decision;
pub mod dpp;
pub mod error;
pub mod fault;
pub mod latency;
pub mod multi_budget;
pub mod p1;
pub mod p2a;
pub mod p2b;
pub mod per_slot;
pub mod robust;
pub mod sanitize;
pub mod sharded;
pub mod system;
pub mod workspace;

pub use checkpoint::{ControllerState, SanitizerSnapshot, WorkspaceSnapshot};
pub use decision::{Assignment, SlotDecision};
pub use dpp::{DppConfig, EotoraDpp};
pub use error::SolveError;
pub use fault::{AvailabilityMask, FaultAction, FaultEvent, FaultSchedule};
pub use multi_budget::MultiBudgetDpp;
pub use per_slot::PerSlotController;
pub use robust::{solve_p2_robust, RobustConfig, RobustReport};
pub use sanitize::{SanitizeDefaults, SanitizeLimits, StateSanitizer};
pub use sharded::ShardedCgbaSolver;
pub use system::{MecSystem, SystemConfig};
pub use workspace::SlotWorkspace;
