//! One harness per figure of the paper's evaluation (§VI).
//!
//! Every harness takes an explicit config (so tests run scaled-down
//! versions) and returns plain serializable data; rendering lives in
//! [`crate::report`] and the `eotora-bench` `figures` binary. The expected
//! qualitative shapes are documented per module and recorded against
//! measurements in EXPERIMENTS.md.
//!
//! | Module | Paper figure | Shape that must reproduce |
//! |---|---|---|
//! | [`traces`] | Fig. 2 | periodic non-iid price & workload traces |
//! | [`energy_fit`] | Fig. 3 | quadratic fit through i7 points; perturbed per-server curves |
//! | [`p2a_comparison`] | Fig. 4–5 | CGBA ≈ OPT ≪ MCBA < ROPT; CGBA ≫ faster than OPT |
//! | [`lambda_sweep`] | Fig. 6 | iterations fall as λ grows; objective stays near-optimal |
//! | [`queue_trace`] | Fig. 7 | Q(t) rises, converges, oscillates with price |
//! | [`v_sweep`] | Fig. 8 | backlog ~ linear in V; latency decreasing in V |
//! | [`budget_sweep`] | Fig. 9 | BDMA-DPP dominates; avg cost ≤ budget |
//! | [`ablations`] | (extensions) | BDMA rounds, CGBA scheduling, energy families, per-slot vs time-average budget |
//! | [`fairness`] | (extensions) | per-device Jain fairness of equilibria vs random placement |
//! | [`beta_only_gap`] | (theory check) | DPP vs the hindsight β-only policy of Lemma 2; O(1/V) gap |
//! | [`warm_ab`] | (extensions) | warm-started solves match cold control quality within 1% |
//! | [`chaos`] | (robustness) | injected failures: bounded degradation, zero panics, feasible slots |
//! | [`federation`] | (robustness) | shared budget over an unreliable peer link: budget held on clean/lossy/partitioned links, degradation ladder fires and heals |

pub mod ablations;
pub mod beta_only_gap;
pub mod budget_sweep;
pub mod chaos;
pub mod energy_fit;
pub mod fairness;
pub mod federation;
pub mod lambda_sweep;
pub mod p2a_comparison;
pub mod queue_trace;
pub mod traces;
pub mod v_sweep;
pub mod warm_ab;
