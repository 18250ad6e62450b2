//! Live metric registry: atomic counters and gauges, one log-linear
//! histogram per span name, with Prometheus-style exposition.
//!
//! [`LiveRegistry`] pre-allocates one slot per entry of
//! [`crate::names::ALL`], so a counter or gauge update is a `HashMap`
//! probe on an interned `&'static str` plus one relaxed atomic op — no
//! allocation, sub-microsecond. A span records into its name's
//! [`Histogram`] behind a lock that stays uncontended because one thread
//! steps a run and makes every update; the registry is still `Sync`, and
//! writers on other threads are only serialized.
//!
//! Names outside the static registry still record (into mutex-guarded
//! overflow maps) so experimental counters are never silently dropped —
//! they are just slower and exported without help text.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::event::TraceEvent;
use crate::histogram::{bucket_upper_bound, Histogram};
use crate::names::{self, MetricKind};
use crate::recorder::Recorder;

/// Summary statistics of one span histogram inside a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Median duration (ns, ~6.25% bucket error).
    pub p50_ns: u64,
    /// 95th-percentile duration (ns).
    pub p95_ns: u64,
    /// 99th-percentile duration (ns).
    pub p99_ns: u64,
    /// Exact maximum duration (ns).
    pub max_ns: u64,
    /// Exact mean duration (ns).
    pub mean_ns: f64,
}

impl SpanStats {
    fn from_histogram(h: &Histogram) -> Option<Self> {
        let q = |q: f64| h.quantile(q).map(|v| v as u64).unwrap_or(0);
        (h.count() > 0).then(|| SpanStats {
            count: h.count(),
            p50_ns: q(0.5),
            p95_ns: q(0.95),
            p99_ns: q(0.99),
            max_ns: h.max().unwrap_or(0),
            mean_ns: h.mean().unwrap_or(0.0),
        })
    }
}

/// A point-in-time copy of a [`LiveRegistry`]: one JSON line of the
/// `--metrics-out` stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Slots completed when the snapshot was taken.
    pub slot: u64,
    /// All counters (registered ones always present, even at zero).
    pub counters: BTreeMap<String, u64>,
    /// Gauges that have been set (NaN-valued gauges are omitted).
    pub gauges: BTreeMap<String, f64>,
    /// Non-empty span histograms, summarized.
    pub spans: BTreeMap<String, SpanStats>,
}

impl RegistrySnapshot {
    /// Counter deltas `self − prev` (saturating; counters absent from
    /// `prev` count from zero). Zero deltas are omitted.
    pub fn counter_diff(&self, prev: &RegistrySnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter_map(|(name, &now)| {
                let before = prev.counters.get(name).copied().unwrap_or(0);
                let delta = now.saturating_sub(before);
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect()
    }
}

/// Maps a metric name onto the Prometheus name charset: characters
/// outside `[a-zA-Z0-9_:]` become `_`, and the `eotora_` namespace
/// prefix is prepended.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("eotora_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// The always-on live telemetry registry.
///
/// Implements [`Recorder`], so it drops into any pipeline slot that
/// takes `&dyn Recorder`: spans feed per-name histograms, counter
/// increments feed atomic counters, gauges feed atomic f64 cells.
/// Structured [`TraceEvent`]s are ignored here — the session layer
/// (`TelemetrySession`) derives gauges and health from them.
pub struct LiveRegistry {
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicU64>,
    histograms: Vec<Mutex<Histogram>>,
    counter_index: HashMap<&'static str, usize>,
    gauge_index: HashMap<&'static str, usize>,
    histogram_index: HashMap<&'static str, usize>,
    overflow_counters: Mutex<BTreeMap<String, u64>>,
    overflow_gauges: Mutex<BTreeMap<String, f64>>,
    overflow_spans: Mutex<BTreeMap<String, Histogram>>,
}

impl Default for LiveRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl LiveRegistry {
    /// A registry with one pre-allocated slot per [`names::ALL`] entry.
    pub fn new() -> Self {
        let mut counter_index = HashMap::new();
        let mut gauge_index = HashMap::new();
        let mut histogram_index = HashMap::new();
        for def in names::ALL {
            match def.kind {
                MetricKind::Counter => {
                    let idx = counter_index.len();
                    counter_index.insert(def.name, idx);
                }
                MetricKind::Gauge => {
                    let idx = gauge_index.len();
                    gauge_index.insert(def.name, idx);
                }
                MetricKind::Histogram => {
                    let idx = histogram_index.len();
                    histogram_index.insert(def.name, idx);
                }
            }
        }
        LiveRegistry {
            counters: (0..counter_index.len()).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..gauge_index.len()).map(|_| AtomicU64::new(f64::NAN.to_bits())).collect(),
            histograms: (0..histogram_index.len()).map(|_| Mutex::default()).collect(),
            counter_index,
            gauge_index,
            histogram_index,
            overflow_counters: Mutex::new(BTreeMap::new()),
            overflow_gauges: Mutex::new(BTreeMap::new()),
            overflow_spans: Mutex::new(BTreeMap::new()),
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        if let Some(&idx) = self.counter_index.get(name) {
            return self.counters[idx].load(Relaxed);
        }
        lock_or_recover(&self.overflow_counters).get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (`None` until first set).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        if let Some(&idx) = self.gauge_index.get(name) {
            let v = f64::from_bits(self.gauges[idx].load(Relaxed));
            return (!v.is_nan()).then_some(v);
        }
        lock_or_recover(&self.overflow_gauges).get(name).copied()
    }

    /// A copy of a span histogram (empty if never recorded).
    pub fn span_histogram(&self, name: &str) -> Histogram {
        if let Some(&idx) = self.histogram_index.get(name) {
            return lock_or_recover(&self.histograms[idx]).clone();
        }
        lock_or_recover(&self.overflow_spans).get(name).cloned().unwrap_or_default()
    }

    /// Takes a point-in-time snapshot, stamped with `slot`.
    pub fn snapshot(&self, slot: u64) -> RegistrySnapshot {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut spans = BTreeMap::new();
        for def in names::ALL {
            match def.kind {
                MetricKind::Counter => {
                    counters.insert(def.name.to_owned(), self.counter(def.name));
                }
                MetricKind::Gauge => {
                    if let Some(v) = self.gauge_value(def.name) {
                        gauges.insert(def.name.to_owned(), v);
                    }
                }
                MetricKind::Histogram => {
                    let h = self.span_histogram(def.name);
                    if let Some(stats) = SpanStats::from_histogram(&h) {
                        spans.insert(def.name.to_owned(), stats);
                    }
                }
            }
        }
        for (name, &v) in lock_or_recover(&self.overflow_counters).iter() {
            counters.insert(name.clone(), v);
        }
        for (name, &v) in lock_or_recover(&self.overflow_gauges).iter() {
            gauges.insert(name.clone(), v);
        }
        for (name, h) in lock_or_recover(&self.overflow_spans).iter() {
            if let Some(stats) = SpanStats::from_histogram(h) {
                spans.insert(name.clone(), stats);
            }
        }
        RegistrySnapshot { slot, counters, gauges, spans }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` per metric, counters with a `_total` suffix,
    /// histograms as cumulative `_bucket{le=...}`/`_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for def in names::ALL {
            let prom = prometheus_name(def.name);
            match def.kind {
                MetricKind::Counter => {
                    counter_exposition(&mut out, &prom, def.help, self.counter(def.name));
                }
                MetricKind::Gauge => {
                    if let Some(v) = self.gauge_value(def.name) {
                        gauge_exposition(&mut out, &prom, def.help, v);
                    }
                }
                MetricKind::Histogram => {
                    let h = self.span_histogram(def.name);
                    if h.count() > 0 {
                        histogram_exposition(&mut out, &prom, def.help, &h);
                    }
                }
            }
        }
        for (name, &v) in lock_or_recover(&self.overflow_counters).iter() {
            counter_exposition(&mut out, &prometheus_name(name), "unregistered counter", v);
        }
        for (name, &v) in lock_or_recover(&self.overflow_gauges).iter() {
            gauge_exposition(&mut out, &prometheus_name(name), "unregistered gauge", v);
        }
        for (name, h) in lock_or_recover(&self.overflow_spans).iter() {
            if h.count() > 0 {
                histogram_exposition(&mut out, &prometheus_name(name), "unregistered span", h);
            }
        }
        out
    }
}

fn counter_exposition(out: &mut String, prom: &str, help: &str, value: u64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {prom}_total {help}");
    let _ = writeln!(out, "# TYPE {prom}_total counter");
    let _ = writeln!(out, "{prom}_total {value}");
}

fn gauge_exposition(out: &mut String, prom: &str, help: &str, value: f64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {prom} {help}");
    let _ = writeln!(out, "# TYPE {prom} gauge");
    let _ = writeln!(out, "{prom} {value}");
}

fn histogram_exposition(out: &mut String, prom: &str, help: &str, h: &Histogram) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {prom}_ns {help}");
    let _ = writeln!(out, "# TYPE {prom}_ns histogram");
    let mut cumulative = 0u64;
    for (idx, &n) in h.bucket_counts().iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let _ =
            writeln!(out, "{prom}_ns_bucket{{le=\"{}\"}} {cumulative}", bucket_upper_bound(idx));
    }
    let _ = writeln!(out, "{prom}_ns_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{prom}_ns_sum {}", h.sum());
    let _ = writeln!(out, "{prom}_ns_count {}", h.count());
}

impl Recorder for LiveRegistry {
    fn is_enabled(&self) -> bool {
        true
    }

    fn span_ns(&self, name: &str, nanos: u64) {
        if let Some(&idx) = self.histogram_index.get(name) {
            lock_or_recover(&self.histograms[idx]).record(nanos);
            return;
        }
        lock_or_recover(&self.overflow_spans).entry(name.to_owned()).or_default().record(nanos);
    }

    fn add(&self, name: &str, delta: u64) {
        if let Some(&idx) = self.counter_index.get(name) {
            self.counters[idx].fetch_add(delta, Relaxed);
            return;
        }
        *lock_or_recover(&self.overflow_counters).entry(name.to_owned()).or_insert(0) += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        if let Some(&idx) = self.gauge_index.get(name) {
            self.gauges[idx].store(value.to_bits(), Relaxed);
            return;
        }
        lock_or_recover(&self.overflow_gauges).insert(name.to_owned(), value);
    }

    fn record(&self, _event: &TraceEvent) {}
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn registered_counter_hits_the_atomic_slot() {
        let reg = LiveRegistry::new();
        reg.add(names::COUNTER_SLOTS, 3);
        reg.add(names::COUNTER_SLOTS, 4);
        assert_eq!(reg.counter(names::COUNTER_SLOTS), 7);
        assert!(lock_or_recover(&reg.overflow_counters).is_empty());
    }

    #[test]
    fn unknown_names_land_in_overflow_not_dropped() {
        let reg = LiveRegistry::new();
        reg.add("experimental.thing", 2);
        reg.span_ns("experimental.span", 500);
        reg.gauge("experimental.gauge", 1.5);
        assert_eq!(reg.counter("experimental.thing"), 2);
        assert_eq!(reg.span_histogram("experimental.span").count(), 1);
        assert_eq!(reg.gauge_value("experimental.gauge"), Some(1.5));
        let snap = reg.snapshot(0);
        assert_eq!(snap.counters.get("experimental.thing"), Some(&2));
    }

    #[test]
    fn gauges_are_unset_until_first_store() {
        let reg = LiveRegistry::new();
        assert_eq!(reg.gauge_value(names::GAUGE_QUEUE_BACKLOG), None);
        reg.gauge(names::GAUGE_QUEUE_BACKLOG, 12.5);
        assert_eq!(reg.gauge_value(names::GAUGE_QUEUE_BACKLOG), Some(12.5));
    }

    #[test]
    fn snapshot_roundtrips_and_diffs() {
        let reg = LiveRegistry::new();
        reg.add(names::COUNTER_SLOTS, 5);
        reg.span_ns(names::SPAN_SLOT_SOLVE, 1_000_000);
        reg.gauge(names::GAUGE_QUEUE_BACKLOG, 3.0);
        let a = reg.snapshot(5);
        let json = serde_json::to_string(&a).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);

        reg.add(names::COUNTER_SLOTS, 2);
        let b = reg.snapshot(7);
        let diff = b.counter_diff(&a);
        assert_eq!(diff.get(names::COUNTER_SLOTS), Some(&2));
        assert!(!diff.contains_key(names::COUNTER_BDMA_ROUNDS));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = LiveRegistry::new();
        reg.add(names::COUNTER_SLOTS, 9);
        reg.span_ns(names::SPAN_P2A, 40_000);
        reg.span_ns(names::SPAN_P2A, 90_000);
        reg.gauge(names::GAUGE_QUEUE_BACKLOG, 0.25);
        reg.add("odd name!", 1);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE eotora_slots_total counter"));
        assert!(text.contains("eotora_slots_total 9"));
        assert!(text.contains("# TYPE eotora_p2a_ns histogram"));
        assert!(text.contains("eotora_p2a_ns_count 2"));
        assert!(text.contains("eotora_p2a_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("# TYPE eotora_queue_backlog gauge"));
        assert!(text.contains("eotora_odd_name__total 1"));
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "));
            } else {
                let mut parts = line.split(' ');
                let name = parts.next().unwrap();
                let value = parts.next().unwrap();
                assert!(parts.next().is_none(), "extra token in {line}");
                assert!(name.starts_with("eotora_"));
                assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            }
        }
    }

    #[test]
    fn registered_span_matches_plain_histogram() {
        let reg = LiveRegistry::new();
        let mut plain = Histogram::new();
        for v in [0u64, 1, 15, 16, 1_000, 123_456_789] {
            reg.span_ns(names::SPAN_P2A, v);
            plain.record(v);
        }
        assert_eq!(reg.span_histogram(names::SPAN_P2A), plain);
    }

    proptest! {
        /// Spans recorded from several threads land in exactly the
        /// histogram single-threaded recording would produce.
        #[test]
        fn concurrent_merge_equals_single_threaded(
            chunks in prop::collection::vec(
                prop::collection::vec(0u64..10_000_000_000, 1..60),
                2..6,
            ),
        ) {
            let reg = std::sync::Arc::new(LiveRegistry::new());
            let mut plain = Histogram::new();
            for chunk in &chunks {
                for &v in chunk {
                    plain.record(v);
                }
            }
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let reg = std::sync::Arc::clone(&reg);
                    std::thread::spawn(move || {
                        for v in chunk {
                            reg.span_ns(names::SPAN_SLOT_SOLVE, v);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let merged = reg.span_histogram(names::SPAN_SLOT_SOLVE);
            prop_assert_eq!(&merged, &plain);
            for q in [0.0, 0.5, 0.95, 1.0] {
                prop_assert_eq!(merged.quantile(q), plain.quantile(q));
            }
        }

        /// Concurrent counter adds on the registry never lose updates.
        #[test]
        fn concurrent_counter_adds_sum_exactly(
            per_thread in prop::collection::vec(1u64..1000, 2..5),
        ) {
            let reg = std::sync::Arc::new(LiveRegistry::new());
            let expected: u64 = per_thread.iter().sum();
            let handles: Vec<_> = per_thread
                .into_iter()
                .map(|n| {
                    let reg = std::sync::Arc::clone(&reg);
                    std::thread::spawn(move || {
                        for _ in 0..n {
                            reg.add(names::COUNTER_BDMA_ROUNDS, 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            prop_assert_eq!(reg.counter(names::COUNTER_BDMA_ROUNDS), expected);
        }
    }
}
