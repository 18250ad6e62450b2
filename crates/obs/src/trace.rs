//! Offline analysis of JSONL traces written by
//! [`JsonlRecorder`](crate::JsonlRecorder).

use std::collections::BTreeMap;
use std::io::BufRead;

use crate::event::{TraceEvent, TraceRecord};
use crate::histogram::Histogram;

/// Parses one JSONL line into a [`TraceRecord`].
pub fn parse_line(line: &str) -> Result<TraceRecord, serde_json::Error> {
    serde_json::from_str(line)
}

/// Aggregated view of a whole trace file.
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    /// Duration histograms per span name, in nanoseconds.
    pub spans: BTreeMap<String, Histogram>,
    /// Final running total per counter.
    pub counters: BTreeMap<String, u64>,
    /// BDMA alternation rounds per slot, over slots that ran BDMA.
    pub bdma_rounds_per_slot: Histogram,
    /// Virtual-queue backlog per completed slot, in slot order.
    pub queue_by_slot: Vec<(u64, f64)>,
    /// Number of `slot` events seen.
    pub slots: u64,
    /// Total records parsed.
    pub records: u64,
    /// Lines that failed to parse: `(line_number, error)`, 1-based.
    pub malformed: Vec<(u64, String)>,
}

impl TraceAnalysis {
    /// Builds an analysis by streaming a JSONL trace from `reader`.
    ///
    /// Malformed lines are collected in [`TraceAnalysis::malformed`]
    /// rather than aborting, so a truncated trace (e.g. from a killed
    /// run) still analyses. I/O errors abort.
    pub fn from_reader(reader: impl BufRead) -> std::io::Result<Self> {
        let mut analysis = TraceAnalysis::default();
        let mut rounds_this_slot = 0u64;
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let line_no = idx as u64 + 1;
            if line.trim().is_empty() {
                continue;
            }
            let record = match parse_line(&line) {
                Ok(record) => record,
                Err(err) => {
                    analysis.malformed.push((line_no, err.to_string()));
                    continue;
                }
            };
            analysis.records += 1;
            match record.event {
                TraceEvent::Span { ref name, nanos } => {
                    analysis.spans.entry(name.clone()).or_default().record(nanos);
                }
                TraceEvent::Counter { ref name, value } => {
                    analysis.counters.insert(name.clone(), value);
                }
                TraceEvent::BdmaIteration { .. } => rounds_this_slot += 1,
                TraceEvent::Slot { slot, queue, .. } => {
                    analysis.slots += 1;
                    analysis.queue_by_slot.push((slot, queue));
                    if rounds_this_slot > 0 {
                        analysis.bdma_rounds_per_slot.record(rounds_this_slot);
                        rounds_this_slot = 0;
                    }
                }
                TraceEvent::QueueUpdate { .. } | TraceEvent::Health { .. } => {}
            }
        }
        Ok(analysis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlRecorder, Recorder};

    fn sample_trace() -> Vec<u8> {
        let rec = JsonlRecorder::new(Vec::new());
        for slot in 0..3u64 {
            for round in 1..=(slot + 1) {
                rec.span_ns("p2a", 1000 * round);
                rec.span_ns("p2b", 500);
                rec.record(&TraceEvent::BdmaIteration {
                    slot,
                    round,
                    objective: 1.0,
                    accepted: round == 1,
                    p2a_nanos: 1000 * round,
                    p2b_nanos: 500,
                });
            }
            rec.span_ns("queue_update", 50);
            rec.add("bdma_rounds", slot + 1);
            rec.record(&TraceEvent::Slot {
                slot,
                objective: 1.0,
                latency: 0.1,
                cost: 0.01,
                queue: slot as f64,
            });
        }
        rec.finish().unwrap()
    }

    #[test]
    fn analysis_aggregates_spans_counters_and_slots() {
        let buf = sample_trace();
        let analysis = TraceAnalysis::from_reader(buf.as_slice()).unwrap();
        assert_eq!(analysis.slots, 3);
        assert!(analysis.malformed.is_empty());
        assert_eq!(analysis.spans["p2a"].count(), 6);
        assert_eq!(analysis.spans["p2b"].count(), 6);
        assert_eq!(analysis.spans["queue_update"].count(), 3);
        assert_eq!(analysis.counters["bdma_rounds"], 6);
        assert_eq!(analysis.bdma_rounds_per_slot.mean(), Some(2.0));
        assert_eq!(analysis.queue_by_slot, vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn malformed_lines_are_collected_not_fatal() {
        let mut buf = sample_trace();
        buf.extend_from_slice(b"{not json\n");
        buf.extend_from_slice(b"\n");
        let analysis = TraceAnalysis::from_reader(buf.as_slice()).unwrap();
        assert_eq!(analysis.slots, 3);
        assert_eq!(analysis.malformed.len(), 1);
    }
}
