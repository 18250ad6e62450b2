//! Observability for the eotora DPP/BDMA pipeline.
//!
//! This crate provides the recording side of the pipeline's
//! instrumentation: a [`Recorder`] trait that the solvers and the
//! simulation runner emit into, plus its implementations —
//!
//! * [`NoopRecorder`]: recording disabled; every hook is a no-op and
//!   [`SpanGuard`]s skip the clock reads entirely, so instrumented code
//!   costs nothing when tracing is off.
//! * [`LiveRegistry`]: lock-free live aggregation — per-span log-linear
//!   [`Histogram`]s with quantile readout, counters and gauges, exported
//!   as Prometheus text or JSONL snapshots; [`TelemetrySession`] wraps it
//!   with health rules and a postmortem [`FlightRecorder`].
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
pub use flight::{install_panic_hook, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use health::{
    HealthEvent, HealthMonitor, HealthRule, HealthSample, HealthStatus, HealthSummary,
};
pub use histogram::Histogram;
pub use jsonl::JsonlRecorder;
pub use live::{prometheus_name, LiveRegistry, RegistrySnapshot, ShardedHistogram, SpanStats};
pub use recorder::{NoopRecorder, Recorder, SpanGuard, TeeRecorder};
pub use session::{TelemetryConfig, TelemetrySession};
pub use trace::TraceAnalysis;

// Every metric name is defined once in [`names`]; the glob re-export
// keeps the historical `eotora_obs::COUNTER_*` / `SPAN_*` paths alive.
pub use names::*;
