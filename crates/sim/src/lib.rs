//! Simulation engine and experiment harnesses for the `eotora` workspace.
//!
//! Layers:
//!
//! * [`scenario`] — a serializable bundle of everything a run needs (system,
//!   states, controller, horizon, seeds).
//! * [`runner`] — executes a scenario slot by slot, collecting per-slot
//!   series (latency, energy cost, queue backlog, wall-clock solve time) and
//!   summarizing them. [`runner::run_mode`] runs any [`DriverMode`] with an
//!   optional trace sink ([`runner::run`] is its plain shorthand), and
//!   [`runner::run_many`] fans independent scenarios out over the bounded
//!   worker pool.
//! * [`experiments`] — one module per figure of the paper's evaluation
//!   (§VI): each returns plain data structs that the `figures` binary and
//!   the Criterion benches render. EXPERIMENTS.md records paper-vs-measured
//!   shapes for all of them.
//! * [`engine`] — the reusable per-slot [`engine::StepDriver`] every
//!   front-end solves through: the batch loops here and the
//!   `eotora-server` daemon share one engine, which is what makes their
//!   decision streams bit-identical.
//! * [`durable`] — crash-safe runs: checkpointed controller snapshots plus
//!   a checksummed write-ahead slot journal, with deterministic
//!   kill–resume ([`durable::run_durable`] in any journalable
//!   [`DriverMode`] / [`durable::resume_durable`]).
//! * [`options`] — the one engine-options schema shared by the CLI and
//!   the server config, and the configs built from it.
//! * [`federation`] — federated multi-region control: N per-region
//!   drivers sharing one fleet budget over an unreliable, checkpointable
//!   peer link ([`federation::run_federation`]).
//! * [`report`] — minimal ASCII-table and CSV rendering for those results.
//! * [`svg`] — dependency-free SVG line charts, so regenerated figures can
//!   be compared visually with the paper's.
//!
//! # Examples
//!
//! ```
//! use eotora_sim::scenario::Scenario;
//! use eotora_sim::runner::run;
//!
//! let scenario = Scenario::paper(12, 1).with_horizon(5);
//! let result = run(&scenario);
//! assert_eq!(result.latency.len(), 5);
//! assert!(result.latency.time_average() > 0.0);
//! ```

pub mod durable;
pub mod engine;
pub mod experiments;
pub mod federation;
pub mod options;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod svg;

pub use durable::{
    open_session, resume_durable, run_durable, DurabilityConfig, DurableRun, DurableSession,
    RunManifest, MANIFEST_VERSION,
};
pub use engine::{DriverMode, DriverTuning, StepDriver, StepReport};
pub use federation::{
    read_federation_manifest, region_scenario, run_federation, run_standalone, FederationConfig,
    FederationManifest, FederationReport, FederationRun, FED_MANIFEST_VERSION,
};
pub use options::{
    EngineOption, EngineOptions, OptionError, Surface, DURABILITY_OPTIONS, ENGINE_OPTIONS,
};
pub use runner::{robust_config, run, run_many, run_mode, SimulationResult};
pub use scenario::Scenario;
