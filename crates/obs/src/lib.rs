//! Observability for the eotora DPP/BDMA pipeline.
//!
//! This crate provides the recording side of the pipeline's
//! instrumentation: a [`Recorder`] trait that the solvers and the
//! simulation runner emit into, plus its implementations —
//!
//! * [`NoopRecorder`]: recording disabled; every hook is a no-op and
//!   [`SpanGuard`]s skip the clock reads entirely, so instrumented code
//!   costs nothing when tracing is off.
//! * [`LiveRegistry`]: live aggregation — atomic counters and gauges and
//!   one log-linear [`Histogram`] per span name with quantile readout,
//!   exported as Prometheus text or JSONL snapshots. [`TelemetrySession`]
//!   wraps it with health rules and a postmortem [`FlightRecorder`]; the
//!   registry is a run's only live store of counters and span histograms,
//!   and every health reader builds its [`HealthSample`] from counter
//!   totals with [`HealthSample::from_counters`].
//! * [`JsonlRecorder`]: a structured JSONL sink writing one
//!   [`TraceRecord`] per line (`slot`, `span`, `counter`,
//!   `queue_update`, `bdma_iteration` events with sequence numbers and
//!   wall-clock nanos), replayable with [`trace::TraceAnalysis`].
//!
//! [`TeeRecorder`] fans a single event stream out to two recorders, so
//! a run can feed live telemetry and stream JSONL simultaneously. The
//! per-slot stage times behind `SimulationResult::per_stage_solve_time`
//! are not kept here: the step driver writes them into each slot's
//! journal record.

mod event;
mod flight;
pub mod health;
mod histogram;
mod jsonl;
mod live;
pub mod names;
mod recorder;
mod session;
pub mod trace;

pub use event::{TraceEvent, TraceRecord};
pub use flight::{install_panic_hook, FlightRecorder, FLIGHT_CAPACITY};
pub use health::{
    HealthEvent, HealthMonitor, HealthRule, HealthSample, HealthStatus, HealthSummary,
};
pub use histogram::Histogram;
pub use jsonl::JsonlRecorder;
pub use live::{prometheus_name, LiveRegistry, RegistrySnapshot, SpanStats};
pub use recorder::{NoopRecorder, Recorder, SpanGuard, TeeRecorder};
pub use session::{TelemetryConfig, TelemetrySession};
pub use trace::TraceAnalysis;

// Every metric name is defined once in [`names`]; the glob re-export
// keeps the historical `eotora_obs::COUNTER_*` / `SPAN_*` paths alive.
pub use names::*;
