//! Flight recorder: a fixed-size ring of recent trace events, dumped
//! as a postmortem JSONL bundle when something goes wrong.
//!
//! Unlike [`crate::JsonlRecorder`] (which streams *everything* and
//! needs a writer for the whole run), the flight recorder keeps only
//! the last `capacity` events in memory at a bounded cost, so it can be
//! always-on. When the robust ladder escalates, a `SolveError`
//! surfaces, or a panic fires, the ring is serialized oldest-first as
//! ordinary [`TraceRecord`] JSONL — the same schema the trace tooling
//! already reads — giving a "what happened just before" postmortem.
//!
//! [`install_panic_hook`] chains onto the existing panic hook and dumps
//! every ring registered via [`FlightRecorder::register_for_panic`]
//! before the original hook runs.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, Once, PoisonError, Weak};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::event::{TraceEvent, TraceRecord};

fn unix_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

struct RingState {
    events: VecDeque<TraceRecord>,
    seq: u64,
    dropped: u64,
}

pub(crate) struct FlightRing {
    capacity: usize,
    state: Mutex<RingState>,
}

impl FlightRing {
    fn lock(&self) -> std::sync::MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn dump_jsonl<W: Write>(&self, w: &mut W) -> io::Result<usize> {
        let state = self.lock();
        for record in &state.events {
            let line = serde_json::to_string(record).map_err(io::Error::other)?;
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()?;
        Ok(state.events.len())
    }
}

/// Ring capacity: enough for several slots' worth of spans, counters,
/// and BDMA iterations at paper-scale device counts.
pub const FLIGHT_CAPACITY: usize = 4096;

/// An always-on bounded recorder of the most recent trace events.
///
/// It stores events as given: a `Counter` event carries whatever total
/// the caller stamped on it (the session stamps its registry's total).
///
/// Cloning is cheap and shares the ring (the panic hook holds a weak
/// reference, so a dropped recorder never leaks).
#[derive(Clone)]
pub struct FlightRecorder {
    ring: Arc<FlightRing>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (min 16).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        FlightRecorder {
            ring: Arc::new(FlightRing {
                capacity,
                state: Mutex::new(RingState {
                    events: VecDeque::with_capacity(capacity),
                    seq: 0,
                    dropped: 0,
                }),
            }),
        }
    }

    /// Appends one event, evicting the oldest when the ring is full.
    pub fn record(&self, event: TraceEvent) {
        let mut state = self.ring.lock();
        let seq = state.seq;
        state.seq += 1;
        if state.events.len() == self.ring.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(TraceRecord { seq, t_ns: unix_nanos(), event });
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Writes the retained events oldest-first as TraceRecord JSONL and
    /// returns how many lines were written. The ring is left intact.
    pub fn dump_jsonl<W: Write>(&self, w: &mut W) -> io::Result<usize> {
        self.ring.dump_jsonl(w)
    }

    /// Writes the retained events to a new file at `path`.
    pub fn dump_to_path(&self, path: &std::path::Path) -> io::Result<usize> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.dump_jsonl(&mut file)
    }

    /// Registers this ring to be dumped to `path` if a panic fires
    /// (requires [`install_panic_hook`] to have been called). The hook
    /// holds only a weak reference.
    pub fn register_for_panic(&self, path: PathBuf) {
        let mut sinks = panic_sinks().lock().unwrap_or_else(PoisonError::into_inner);
        sinks.retain(|(ring, _)| ring.strong_count() > 0);
        sinks.push((Arc::downgrade(&self.ring), path));
    }
}

fn panic_sinks() -> &'static Mutex<Vec<(Weak<FlightRing>, PathBuf)>> {
    static SINKS: Mutex<Vec<(Weak<FlightRing>, PathBuf)>> = Mutex::new(Vec::new());
    &SINKS
}

/// Installs (once per process) a panic hook that dumps every ring
/// registered via [`FlightRecorder::register_for_panic`], then chains
/// to the previously installed hook.
pub fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let sinks = panic_sinks().lock().unwrap_or_else(PoisonError::into_inner);
            for (ring, path) in sinks.iter() {
                if let Some(ring) = ring.upgrade() {
                    if let Ok(file) = std::fs::File::create(path) {
                        let mut w = io::BufWriter::new(file);
                        let _ = ring.dump_jsonl(&mut w);
                    }
                }
            }
            drop(sinks);
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let flight = FlightRecorder::new(16);
        for i in 0..40u64 {
            flight.record(TraceEvent::Span { name: "p2a".into(), nanos: i });
        }
        assert_eq!(flight.len(), 16);
        assert_eq!(flight.dropped(), 24);
        let mut buf = Vec::new();
        let written = flight.dump_jsonl(&mut buf).unwrap();
        assert_eq!(written, 16);
        let lines: Vec<TraceRecord> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // Oldest-first, contiguous sequence numbers, newest retained.
        assert_eq!(lines.first().unwrap().seq, 24);
        assert_eq!(lines.last().unwrap().seq, 39);
        for pair in lines.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
    }

    #[test]
    fn panic_hook_dumps_registered_rings() {
        let dir = std::env::temp_dir().join(format!("eotora-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panic-dump.jsonl");
        let flight = FlightRecorder::new(64);
        flight.record(TraceEvent::Counter { name: "slots".into(), value: 7 });
        install_panic_hook();
        flight.register_for_panic(path.clone());
        let result = std::thread::Builder::new()
            .name("flight-panic-probe".into())
            .spawn(|| panic!("induced"))
            .unwrap()
            .join();
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        let record: TraceRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(record.event, TraceEvent::Counter { name: "slots".into(), value: 7 });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
