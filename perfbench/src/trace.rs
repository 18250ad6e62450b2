//! The traced run: a benchmark-owned [`Recorder`] sink and the per-slot
//! split of wall time into named layers.
//!
//! The program already emits spans (`slot_solve`, `p2a`, `p2b`,
//! `queue_update`, `journal.append`, `journal.snapshot_write`) and
//! counters into whatever sink its [`StepDriver`](eotora_sim::StepDriver)
//! is given. The sink here sums them per slot; the benchmark's own clock
//! reads around each public call (decode, queue hand-off, `step`, encode)
//! supply the rest. The slot index is the span identifier: everything
//! taken between two [`SlotRecorder::take_slot`] calls belongs to one slot.

use std::cell::RefCell;
use std::collections::BTreeMap;

use eotora_obs::{Recorder, TraceEvent};

/// Per-slot span sums (nanoseconds) plus run-wide counter totals.
#[derive(Debug, Default)]
pub struct SlotRecorder {
    spans: RefCell<BTreeMap<String, u64>>,
    counters: RefCell<BTreeMap<String, u64>>,
}

impl SlotRecorder {
    /// Returns and clears the spans recorded since the previous call.
    pub fn take_slot(&self) -> BTreeMap<String, u64> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }

    /// Counter totals since the recorder was made.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.borrow().clone()
    }
}

fn bump(map: &RefCell<BTreeMap<String, u64>>, name: &str, delta: u64) {
    let mut map = map.borrow_mut();
    match map.get_mut(name) {
        Some(total) => *total += delta,
        None => {
            map.insert(name.to_owned(), delta);
        }
    }
}

impl Recorder for SlotRecorder {
    fn span_ns(&self, name: &str, nanos: u64) {
        bump(&self.spans, name, nanos);
    }

    fn add(&self, name: &str, delta: u64) {
        bump(&self.counters, name, delta);
    }

    fn record(&self, _event: &TraceEvent) {}
}

/// One slot's wall time and the disjoint layers it splits into, in
/// nanoseconds. Batch slots have no decode, queue or encode layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotLayers {
    /// From the state handed over to its decision being written (batch:
    /// the `step` call).
    pub wall: u64,
    /// `FrameDecoder::decode_line`.
    pub decode: u64,
    /// From the decoded state entering `AdmissionQueue::push_state` to
    /// `pop_timeout` returning it.
    pub queue_wait: u64,
    /// `StepDriver::step`.
    pub step: u64,
    /// `DecisionRecord::from_report(..).encode()` and the line write.
    pub encode: u64,
    /// The program's `slot_solve` span (inside `step`).
    pub slot_solve: u64,
    /// Sum of the `p2a` spans (inside `slot_solve`).
    pub p2a: u64,
    /// Sum of the `p2b` spans (inside `slot_solve`).
    pub p2b: u64,
    /// The `queue_update` span (inside `slot_solve`).
    pub queue_update: u64,
    /// The `journal.append` span (inside `step`, after `slot_solve`).
    pub journal_append: u64,
    /// The `journal.snapshot_write` span (inside `step`, one slot in ten).
    pub snapshot: u64,
}

impl SlotLayers {
    /// Copies the program's spans for one slot into the layer fields.
    pub fn with_spans(mut self, spans: &BTreeMap<String, u64>) -> Self {
        let get = |name: &str| spans.get(name).copied().unwrap_or(0);
        self.slot_solve = get(eotora_obs::SPAN_SLOT_SOLVE);
        self.p2a = get(eotora_obs::SPAN_P2A);
        self.p2b = get(eotora_obs::SPAN_P2B);
        self.queue_update = get(eotora_obs::SPAN_QUEUE_UPDATE);
        self.journal_append = get(eotora_obs::SPAN_JOURNAL_APPEND);
        self.snapshot = get(eotora_obs::SPAN_SNAPSHOT_WRITE);
        self
    }

    /// `step` outside the solve and the journal: sanitize, mask lowering,
    /// `latency_under`, Jain's index, series and counter bookkeeping.
    pub fn residual(&self) -> i64 {
        self.step as i64
            - self.slot_solve as i64
            - self.journal_append as i64
            - self.snapshot as i64
    }

    /// The named layers, which do not overlap.
    pub fn named(&self) -> [(&'static str, i64); 9] {
        [
            ("frame.decode", self.decode as i64),
            ("queue.wait", self.queue_wait as i64),
            ("p2a", self.p2a as i64),
            ("p2b", self.p2b as i64),
            ("dpp.queue_update", self.queue_update as i64),
            ("journal.append", self.journal_append as i64),
            ("journal.snapshot", self.snapshot as i64),
            ("engine.residual", self.residual()),
            ("frame.encode", self.encode as i64),
        ]
    }

    /// Wall time the named layers do not cover: BDMA bookkeeping inside
    /// `slot_solve` between its child spans, and the thread hand-offs
    /// around decode.
    pub fn unattributed(&self) -> i64 {
        self.wall as i64 - self.named().iter().map(|(_, ns)| ns).sum::<i64>()
    }

    /// The named layers plus the unattributed rest sum to the wall time
    /// by construction; what can fail is a negative layer or rest, which
    /// would mean spans overlap or lie outside the call that contains them.
    pub fn check(&self, slot: u64) -> Result<(), String> {
        if let Some((name, ns)) = self.named().iter().find(|(_, ns)| *ns < 0) {
            return Err(format!("slot {slot}: layer {name} is {ns} ns"));
        }
        if self.unattributed() < 0 {
            return Err(format!(
                "slot {slot}: named layers exceed the wall time by {} ns",
                -self.unattributed()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_splits_spans_by_slot_and_keeps_counters() {
        let rec = SlotRecorder::default();
        rec.span_ns("p2a", 5);
        rec.span_ns("p2a", 7);
        rec.add("bdma_rounds", 1);
        let first = rec.take_slot();
        assert_eq!(first.get("p2a"), Some(&12));
        rec.span_ns("p2b", 3);
        rec.add("bdma_rounds", 2);
        let second = rec.take_slot();
        assert_eq!(second.get("p2a"), None);
        assert_eq!(second.get("p2b"), Some(&3));
        assert_eq!(rec.counters().get("bdma_rounds"), Some(&3));
    }

    #[test]
    fn layers_sum_to_wall_and_nesting_is_checked() {
        let spans: BTreeMap<String, u64> = [
            ("slot_solve", 60),
            ("p2a", 40),
            ("p2b", 10),
            ("queue_update", 1),
            ("journal.append", 5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        let layers = SlotLayers {
            wall: 100,
            decode: 3,
            queue_wait: 2,
            step: 80,
            encode: 4,
            ..Default::default()
        }
        .with_spans(&spans);
        assert_eq!(layers.residual(), 15);
        assert_eq!(layers.unattributed(), 100 - (3 + 2 + 40 + 10 + 1 + 5 + 15 + 4));
        assert!(layers.check(0).is_ok());
        let overlapping =
            SlotLayers { wall: 50, step: 50, ..Default::default() }.with_spans(&spans);
        assert!(overlapping.check(0).is_err());
    }
}
