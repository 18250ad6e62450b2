//! The run-level telemetry driver: live registry + health monitor +
//! flight recorder behind one [`Recorder`].
//!
//! [`TelemetrySession`] is wired into the engine as an ordinary sink,
//! so it derives everything — gauges, health signals, postmortem
//! triggers — purely from the event stream without touching the
//! deterministic simulation state. Per completed slot it:
//!
//! 1. updates the run gauges (queue backlog, running averages, budget
//!    residual) in the [`LiveRegistry`],
//! 2. feeds the [`HealthMonitor`] and converts any rule transitions
//!    into `health.to_*` counters, the `health_level` gauge, and
//!    [`TraceEvent::Health`] flight entries,
//! 3. every `metrics_every` slots rewrites/appends the `--metrics-out`
//!    file (Prometheus text for `.prom`, JSONL snapshots otherwise).
//!
//! The registry is the run's only live store of counters and span
//! histograms: the flight ring keeps events, and each `Counter` event it
//! holds is stamped with the registry's total at that moment.
//!
//! Robust-ladder escalation counters ([`ESCALATION_COUNTERS`]) trigger
//! a flight-recorder postmortem dump into `postmortem_dir`, and a panic
//! hook dumps the ring to `flight-panic.jsonl` there as a last resort.
//! I/O errors are latched and surfaced by [`TelemetrySession::finish`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::PathBuf;

use serde::{Serialize, Value};

use crate::event::TraceEvent;
use crate::flight::{install_panic_hook, FlightRecorder};
use crate::health::{HealthMonitor, HealthSample, HealthSummary, ESCALATION_COUNTERS};
use crate::live::{LiveRegistry, RegistrySnapshot};
use crate::names;
use crate::recorder::Recorder;

/// Cap on per-run postmortem bundles, so a long corrupt burst cannot
/// fill the disk with near-identical dumps.
const MAX_POSTMORTEMS: u64 = 8;

/// Configuration for a [`TelemetrySession`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Drift-plus-penalty weight V of the run (scales queue health
    /// thresholds).
    pub v: f64,
    /// Per-slot energy budget C̄ ($/slot); `<= 0` disables the budget
    /// signal.
    pub budget: f64,
    /// Where to write periodic metric snapshots. `.prom` extension
    /// selects Prometheus text exposition (file rewritten each
    /// interval); anything else appends JSONL snapshot lines.
    pub metrics_out: Option<PathBuf>,
    /// Snapshot interval in slots (0 = only a final snapshot).
    pub metrics_every: u64,
    /// Where postmortem flight dumps land (`None` disables dumping;
    /// health and counters still work).
    pub postmortem_dir: Option<PathBuf>,
}

struct SessionInner {
    monitor: HealthMonitor,
    slots: u64,
    latency_sum: f64,
    cost_sum: f64,
    jsonl: Option<io::BufWriter<std::fs::File>>,
    prev_snapshot: Option<RegistrySnapshot>,
    io_error: Option<io::Error>,
    postmortems: u64,
    last_postmortem_slot: Option<u64>,
}

/// Live telemetry for one run. Implements [`Recorder`]; thread it into
/// any entry point that takes a sink.
pub struct TelemetrySession {
    registry: LiveRegistry,
    flight: FlightRecorder,
    config: TelemetryConfig,
    prom: bool,
    inner: RefCell<SessionInner>,
}

impl TelemetrySession {
    /// Builds a session; opens the metrics sink eagerly so path errors
    /// surface on the first [`TelemetrySession::finish`] rather than
    /// silently dropping every snapshot.
    pub fn new(config: TelemetryConfig) -> Self {
        let prom =
            config.metrics_out.as_deref().and_then(|p| p.extension()).is_some_and(|e| e == "prom");
        let mut io_error = None;
        let jsonl = match config.metrics_out.as_deref() {
            Some(path) if !prom => match std::fs::File::create(path) {
                Ok(f) => Some(io::BufWriter::new(f)),
                Err(e) => {
                    io_error = Some(e);
                    None
                }
            },
            _ => None,
        };
        let flight = FlightRecorder::default();
        if let Some(dir) = config.postmortem_dir.as_deref() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                io_error.get_or_insert(e);
            }
            install_panic_hook();
            flight.register_for_panic(dir.join("flight-panic.jsonl"));
        }
        let registry = LiveRegistry::new();
        registry.gauge(names::GAUGE_CONFIG_V, config.v);
        registry.gauge(names::GAUGE_CONFIG_BUDGET, config.budget);
        registry.gauge(names::GAUGE_HEALTH_LEVEL, 0.0);
        let monitor = HealthMonitor::paper_defaults(config.v, config.budget);
        TelemetrySession {
            registry,
            flight,
            config,
            prom,
            inner: RefCell::new(SessionInner {
                monitor,
                slots: 0,
                latency_sum: 0.0,
                cost_sum: 0.0,
                jsonl,
                prev_snapshot: None,
                io_error,
                postmortems: 0,
                last_postmortem_slot: None,
            }),
        }
    }

    /// A file-less session (health + live registry only) — what the
    /// chaos harness and tests use.
    pub fn in_memory(v: f64, budget: f64) -> Self {
        Self::new(TelemetryConfig { v, budget, ..TelemetryConfig::default() })
    }

    /// The configuration this session was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The live registry backing this session.
    pub fn registry(&self) -> &LiveRegistry {
        &self.registry
    }

    /// Current health roll-up (callable mid-run).
    pub fn health_summary(&self) -> HealthSummary {
        self.inner.borrow().monitor.summary()
    }

    /// Postmortem bundles dumped so far.
    pub fn postmortems(&self) -> u64 {
        self.inner.borrow().postmortems
    }

    /// Escalates on behalf of an external supervisor (the server
    /// watchdog): dumps a flight-recorder postmortem bundle now, under
    /// the same per-run cap and same-slot dedup as the robust-ladder
    /// triggers. Returns `true` if a bundle was written.
    pub fn force_postmortem(&self) -> bool {
        let before = self.postmortems();
        self.maybe_postmortem();
        self.postmortems() > before
    }

    /// Writes the final snapshot, flushes the metrics sink, and returns
    /// the health summary (or the first latched I/O error).
    pub fn finish(self) -> io::Result<HealthSummary> {
        let slots = self.inner.borrow().slots;
        self.write_metrics(slots);
        let mut inner = self.inner.into_inner();
        if let Some(err) = inner.io_error.take() {
            return Err(err);
        }
        if let Some(mut w) = inner.jsonl.take() {
            w.flush()?;
        }
        Ok(inner.monitor.summary())
    }

    fn write_metrics(&self, slot: u64) {
        if self.config.metrics_out.is_none() {
            return;
        }
        let snapshot = self.registry.snapshot(slot);
        let mut inner = self.inner.borrow_mut();
        if self.prom {
            let text = self.registry.to_prometheus();
            if let Some(path) = self.config.metrics_out.as_deref() {
                if let Err(e) = std::fs::write(path, text) {
                    inner.io_error.get_or_insert(e);
                }
            }
        } else if inner.jsonl.is_some() {
            let deltas = inner
                .prev_snapshot
                .as_ref()
                .map(|prev| snapshot.counter_diff(prev))
                .unwrap_or_default();
            let mut value = snapshot.to_value();
            if let Value::Object(fields) = &mut value {
                fields.push(("deltas".to_owned(), deltas.to_value()));
            }
            match serde_json::to_string(&value) {
                Ok(mut line) => {
                    line.push('\n');
                    let result = inner
                        .jsonl
                        .as_mut()
                        .map(|w| w.write_all(line.as_bytes()))
                        .unwrap_or(Ok(()));
                    if let Err(e) = result {
                        inner.io_error.get_or_insert(e);
                        inner.jsonl = None;
                    }
                }
                Err(e) => {
                    inner.io_error.get_or_insert(io::Error::other(e));
                }
            }
        }
        inner.prev_snapshot = Some(snapshot);
    }

    fn maybe_postmortem(&self) {
        let Some(dir) = self.config.postmortem_dir.as_deref() else {
            return;
        };
        let path = {
            let mut inner = self.inner.borrow_mut();
            if inner.postmortems >= MAX_POSTMORTEMS
                || inner.last_postmortem_slot == Some(inner.slots)
            {
                return;
            }
            inner.postmortems += 1;
            inner.last_postmortem_slot = Some(inner.slots);
            dir.join(format!("flight-slot{}.jsonl", inner.slots))
        };
        match self.flight.dump_to_path(&path) {
            Ok(_) => self.registry.add(names::COUNTER_FLIGHT_POSTMORTEMS, 1),
            Err(e) => {
                self.inner.borrow_mut().io_error.get_or_insert(e);
            }
        }
    }

    fn observe_slot(&self, slot: u64, latency: f64, cost: f64, queue: f64) {
        let journal_p99_ms = {
            let h = self.registry.span_histogram(names::SPAN_JOURNAL_APPEND);
            h.quantile(0.99).unwrap_or(0.0) / 1e6
        };
        let (events, overall, due) = {
            let mut inner = self.inner.borrow_mut();
            inner.slots = slot + 1;
            inner.latency_sum += latency;
            inner.cost_sum += cost;
            let slots = inner.slots as f64;
            let avg_latency = inner.latency_sum / slots;
            let avg_cost = inner.cost_sum / slots;
            self.registry.gauge(names::GAUGE_QUEUE_BACKLOG, queue);
            self.registry.gauge(names::GAUGE_AVG_LATENCY, avg_latency);
            self.registry.gauge(names::GAUGE_AVG_COST, avg_cost);
            if self.config.budget > 0.0 {
                self.registry.gauge(names::GAUGE_BUDGET_RESIDUAL, self.config.budget - avg_cost);
            }
            let sample =
                HealthSample::from_counters(slot, queue, avg_cost, journal_p99_ms, |name| {
                    self.registry.counter(name)
                });
            let events = inner.monitor.observe(sample);
            if let Some(trend) = inner.monitor.last_value("queue_trend") {
                self.registry.gauge(names::GAUGE_QUEUE_TREND, trend);
            }
            let overall = inner.monitor.overall();
            let due = self.config.metrics_every > 0 && inner.slots % self.config.metrics_every == 0;
            (events, overall, due)
        };
        for event in &events {
            let counter = match event.to {
                crate::health::HealthStatus::Ok => names::COUNTER_HEALTH_TO_OK,
                crate::health::HealthStatus::Degraded => names::COUNTER_HEALTH_TO_DEGRADED,
                crate::health::HealthStatus::Critical => names::COUNTER_HEALTH_TO_CRITICAL,
            };
            self.registry.add(counter, 1);
            self.flight.record(TraceEvent::Health {
                slot: event.slot,
                rule: event.rule.to_owned(),
                from: event.from.as_str().to_owned(),
                to: event.to.as_str().to_owned(),
                value: event.value,
            });
        }
        self.registry.gauge(names::GAUGE_HEALTH_LEVEL, overall.level());
        if due {
            self.write_metrics(slot + 1);
        }
    }
}

impl Recorder for TelemetrySession {
    fn is_enabled(&self) -> bool {
        true
    }

    fn span_ns(&self, name: &str, nanos: u64) {
        self.registry.span_ns(name, nanos);
        self.flight.record(TraceEvent::Span { name: name.to_owned(), nanos });
    }

    fn add(&self, name: &str, delta: u64) {
        self.registry.add(name, delta);
        let value = self.registry.counter(name);
        self.flight.record(TraceEvent::Counter { name: name.to_owned(), value });
        if ESCALATION_COUNTERS.contains(&name) {
            self.maybe_postmortem();
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        self.registry.gauge(name, value);
    }

    fn record(&self, event: &TraceEvent) {
        self.flight.record(event.clone());
        if let TraceEvent::Slot { slot, latency, cost, queue, .. } = *event {
            self.observe_slot(slot, latency, cost, queue);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::health::HealthStatus;

    fn slot_event(slot: u64, cost: f64, queue: f64) -> TraceEvent {
        TraceEvent::Slot { slot, objective: 1.0, latency: 0.2, cost, queue }
    }

    #[test]
    fn clean_slots_keep_health_ok_and_update_gauges() {
        let session = TelemetrySession::in_memory(100.0, 1.0);
        for t in 0..10 {
            session.add(names::COUNTER_SLOTS, 1);
            session.record(&slot_event(t, 0.5, 1.0));
        }
        assert_eq!(session.health_summary().final_status, HealthStatus::Ok);
        let reg = session.registry();
        assert_eq!(reg.gauge_value(names::GAUGE_QUEUE_BACKLOG), Some(1.0));
        assert_eq!(reg.gauge_value(names::GAUGE_BUDGET_RESIDUAL), Some(0.5));
        assert_eq!(reg.gauge_value(names::GAUGE_HEALTH_LEVEL), Some(0.0));
        assert_eq!(reg.counter(names::COUNTER_SLOTS), 10);
    }

    /// Counter events in the flight ring carry running totals.
    #[test]
    fn counters_record_running_totals() {
        let session = TelemetrySession::in_memory(100.0, 1.0);
        session.add(names::COUNTER_SLOTS, 1);
        session.add(names::COUNTER_SLOTS, 1);
        let mut buf = Vec::new();
        session.flight.dump_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(r#""value":1"#));
        assert!(text.contains(r#""value":2"#));
    }

    /// Every counter a postmortem lists shows the registry's total at
    /// dump time, as its last entry for that name.
    #[test]
    fn postmortem_counters_equal_registry_totals() {
        let dir = std::env::temp_dir().join(format!("eotora-session-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = TelemetrySession::new(TelemetryConfig {
            v: 100.0,
            budget: 1.0,
            postmortem_dir: Some(dir.clone()),
            ..TelemetryConfig::default()
        });
        for t in 0..3 {
            session.add(names::COUNTER_BDMA_ROUNDS, t + 2);
            session.add(names::COUNTER_FAULT_MASKED_RESOURCES, 1);
            session.add(names::COUNTER_SLOTS, 1);
            session.record(&slot_event(t, 0.5, 1.0));
        }
        session.add(names::COUNTER_ROBUST_SOLVE_ERRORS, 1);
        let text = std::fs::read_to_string(dir.join("flight-slot3.jsonl")).unwrap();
        let mut last = std::collections::BTreeMap::new();
        for line in text.lines() {
            let record: crate::TraceRecord = serde_json::from_str(line).unwrap();
            if let TraceEvent::Counter { name, value } = record.event {
                last.insert(name, value);
            }
        }
        assert_eq!(last.len(), 4);
        for (name, value) in &last {
            assert_eq!(*value, session.registry().counter(name), "{name}");
        }
        assert_eq!(last[names::COUNTER_BDMA_ROUNDS], 2 + 3 + 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_counters_degrade_health_and_emit_transition() {
        let session = TelemetrySession::in_memory(100.0, 1.0);
        session.record(&slot_event(0, 0.5, 1.0));
        session.add(names::COUNTER_FAULT_MASKED_RESOURCES, 3);
        session.record(&slot_event(1, 0.5, 1.0));
        let summary = session.health_summary();
        assert_eq!(summary.final_status, HealthStatus::Degraded);
        let reg = session.registry();
        assert_eq!(reg.counter(names::COUNTER_HEALTH_TO_DEGRADED), 1);
        assert_eq!(reg.gauge_value(names::GAUGE_HEALTH_LEVEL), Some(1.0));
    }

    #[test]
    fn escalation_trigger_dumps_a_postmortem_bundle() {
        let dir = std::env::temp_dir().join(format!("eotora-session-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = TelemetrySession::new(TelemetryConfig {
            v: 100.0,
            budget: 1.0,
            postmortem_dir: Some(dir.clone()),
            ..TelemetryConfig::default()
        });
        session.record(&slot_event(0, 0.5, 1.0));
        session.span_ns(names::SPAN_SLOT_SOLVE, 1_000);
        session.add(names::COUNTER_ROBUST_SOLVE_ERRORS, 1);
        session.add(names::COUNTER_ROBUST_LIFEBOAT_DECISIONS, 1); // same slot: no second dump
        assert_eq!(session.postmortems(), 1);
        let path = dir.join("flight-slot1.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            let record: crate::TraceRecord = serde_json::from_str(line).unwrap();
            let _ = record;
        }
        assert!(text.contains("slot_solve"));
        assert_eq!(session.registry().counter(names::COUNTER_FLIGHT_POSTMORTEMS), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_metrics_snapshots_are_parseable_and_diffed() {
        let dir = std::env::temp_dir().join(format!("eotora-session-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let session = TelemetrySession::new(TelemetryConfig {
            v: 100.0,
            budget: 1.0,
            metrics_out: Some(path.clone()),
            metrics_every: 2,
            ..TelemetryConfig::default()
        });
        for t in 0..4 {
            session.add(names::COUNTER_SLOTS, 1);
            session.record(&slot_event(t, 0.5, 1.0));
        }
        session.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "2 periodic + 1 final snapshot");
        for line in &lines {
            let snap: RegistrySnapshot = serde_json::from_str(line).unwrap();
            assert!(snap.counters.contains_key(names::COUNTER_SLOTS));
        }
        // The second periodic line's deltas record 2 new slots.
        assert!(lines[1].contains(r#""deltas":{"#));
        assert!(lines[1].contains(r#""slots":2"#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prom_metrics_out_rewrites_exposition() {
        let dir = std::env::temp_dir().join(format!("eotora-session-prom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let session = TelemetrySession::new(TelemetryConfig {
            v: 100.0,
            budget: 1.0,
            metrics_out: Some(path.clone()),
            metrics_every: 1,
            ..TelemetryConfig::default()
        });
        session.add(names::COUNTER_SLOTS, 1);
        session.record(&slot_event(0, 0.5, 1.0));
        session.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("eotora_slots_total 1"));
        assert!(text.contains("# TYPE eotora_health_level gauge"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
