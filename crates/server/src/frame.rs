//! The server's JSONL wire codec: input frames (slot states and control
//! verbs) and output records (decisions, events, errors).
//!
//! Every input line is one JSON object. A `"control"` key makes it a
//! control frame; anything else must be the serde form of
//! [`SystemState`]. Decoding never panics: every malformed, truncated,
//! non-finite, or mis-shaped line maps to one typed [`FrameError`]
//! carrying the input line number, and the decoder's internal state is
//! just that line counter — a bad line can never desync the slot cursor
//! (which lives in the engine, not here).
//!
//! Output records are distinguished by shape, not a tag field: decisions
//! carry `"slot"` + `"latency_s"`, events carry `"event"`, errors carry
//! `"error"`.

use eotora_sim::StepReport;
use eotora_states::SystemState;
use serde::{Deserialize, Serialize};

/// A decode failure for one input line (or, for
/// [`FrameError::ConcurrentClient`], one rejected connection). Line
/// errors name the 1-indexed line so clients can report precisely; none
/// of them is fatal to the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line is not valid JSON (or not the serde shape of a state).
    Json {
        /// 1-indexed input line.
        line: u64,
        /// Parser message.
        reason: String,
    },
    /// The state decoded but carries a NaN or infinite scalar.
    NonFinite {
        /// 1-indexed input line.
        line: u64,
        /// Which β field held the non-finite value.
        field: &'static str,
    },
    /// The state decoded but its vectors do not match the topology.
    Shape {
        /// 1-indexed input line.
        line: u64,
        /// What was mis-shaped.
        reason: String,
    },
    /// A control frame named a verb the server does not know.
    UnknownControl {
        /// 1-indexed input line.
        line: u64,
        /// The unknown verb.
        control: String,
    },
    /// A second client connected while another input stream was active;
    /// the new connection was rejected — its frames are never
    /// interleaved into the live stream.
    ConcurrentClient,
}

impl FrameError {
    /// The 1-indexed input line the error is pinned to (`0` for
    /// [`FrameError::ConcurrentClient`], which rejects a whole
    /// connection rather than a line).
    pub fn line(&self) -> u64 {
        match self {
            Self::Json { line, .. }
            | Self::NonFinite { line, .. }
            | Self::Shape { line, .. }
            | Self::UnknownControl { line, .. } => *line,
            Self::ConcurrentClient => 0,
        }
    }

    /// Stable machine-readable kind tag for the error stream.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Json { .. } => "json",
            Self::NonFinite { .. } => "non-finite",
            Self::Shape { .. } => "shape",
            Self::UnknownControl { .. } => "unknown-control",
            Self::ConcurrentClient => "concurrent-client",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json { line, reason } => write!(f, "line {line}: invalid frame: {reason}"),
            Self::NonFinite { line, field } => {
                write!(f, "line {line}: non-finite value in `{field}`")
            }
            Self::Shape { line, reason } => write!(f, "line {line}: bad state shape: {reason}"),
            Self::UnknownControl { line, control } => {
                write!(f, "line {line}: unknown control verb `{control}`")
            }
            Self::ConcurrentClient => {
                f.write_str("concurrent client rejected: another input stream is active")
            }
        }
    }
}

/// A control verb sent in-band on the input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// Drain and shut down gracefully (same path as SIGTERM).
    Shutdown,
    /// Hot-reload the config, from `path` or the path served at startup.
    Reload {
        /// Config file to load; `None` re-reads the startup path.
        path: Option<String>,
    },
    /// Write a snapshot now, outside the regular cadence.
    Checkpoint,
}

/// One decoded input line.
#[derive(Debug, Clone, PartialEq)]
pub enum InputFrame {
    /// A slot state `β_t` to solve.
    State(Box<SystemState>),
    /// A control verb.
    Control(ControlFrame),
}

/// Decodes input lines one at a time, tracking only the line number.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Expected β dimensions: `(devices, base stations)`. `None` skips
    /// the shape check (tests); the server always sets it from the
    /// topology.
    dims: Option<(usize, usize)>,
    line: u64,
}

impl FrameDecoder {
    /// A decoder that validates states against `devices` × `stations`.
    pub fn new(devices: usize, stations: usize) -> Self {
        Self { dims: Some((devices, stations)), line: 0 }
    }

    /// Lines consumed so far (= the line number of the last input).
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Decodes the next line. Blank lines yield `Ok(None)` (and still
    /// count toward the line number, matching editor conventions).
    pub fn decode_line(&mut self, text: &str) -> Result<Option<InputFrame>, FrameError> {
        self.line += 1;
        let line = self.line;
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Ok(None);
        }
        let value = serde_json::parse(trimmed)
            .map_err(|e| FrameError::Json { line, reason: e.to_string() })?;
        let Some(fields) = value.as_object() else {
            return Err(FrameError::Json { line, reason: "frame is not a JSON object".into() });
        };
        if let Some((_, control)) = fields.iter().find(|(k, _)| k == "control") {
            let verb = control.as_str().ok_or_else(|| FrameError::Json {
                line,
                reason: "`control` must be a string".into(),
            })?;
            let frame = match verb {
                "shutdown" => ControlFrame::Shutdown,
                "checkpoint" => ControlFrame::Checkpoint,
                "reload" => ControlFrame::Reload {
                    path: fields
                        .iter()
                        .find(|(k, _)| k == "path")
                        .and_then(|(_, v)| v.as_str())
                        .map(str::to_owned),
                },
                other => {
                    return Err(FrameError::UnknownControl { line, control: other.to_owned() })
                }
            };
            return Ok(Some(InputFrame::Control(frame)));
        }
        let state: SystemState = serde_json::from_value(&value)
            .map_err(|e| FrameError::Json { line, reason: e.to_string() })?;
        self.validate(&state)?;
        Ok(Some(InputFrame::State(Box::new(state))))
    }

    fn validate(&self, state: &SystemState) -> Result<(), FrameError> {
        let line = self.line;
        if let Some((devices, stations)) = self.dims {
            if state.task_cycles.len() != devices
                || state.data_bits.len() != devices
                || state.spectral_efficiency.len() != devices
            {
                return Err(FrameError::Shape {
                    line,
                    reason: format!(
                        "expected {devices} devices, got {}/{}/{} \
                         (task_cycles/data_bits/spectral_efficiency)",
                        state.task_cycles.len(),
                        state.data_bits.len(),
                        state.spectral_efficiency.len()
                    ),
                });
            }
            if state.fronthaul_efficiency.len() != stations {
                return Err(FrameError::Shape {
                    line,
                    reason: format!(
                        "expected {stations} base stations, got {}",
                        state.fronthaul_efficiency.len()
                    ),
                });
            }
            if let Some(row) = state.spectral_efficiency.iter().find(|r| r.len() != stations) {
                return Err(FrameError::Shape {
                    line,
                    reason: format!(
                        "spectral_efficiency row has {} entries, expected {stations}",
                        row.len()
                    ),
                });
            }
        }
        let all_finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
        if !all_finite(&state.task_cycles) {
            return Err(FrameError::NonFinite { line, field: "task_cycles" });
        }
        if !all_finite(&state.data_bits) {
            return Err(FrameError::NonFinite { line, field: "data_bits" });
        }
        if !state.spectral_efficiency.iter().all(|row| all_finite(row)) {
            return Err(FrameError::NonFinite { line, field: "spectral_efficiency" });
        }
        if !all_finite(&state.fronthaul_efficiency) {
            return Err(FrameError::NonFinite { line, field: "fronthaul_efficiency" });
        }
        if !state.price_per_kwh.is_finite() {
            return Err(FrameError::NonFinite { line, field: "price_per_kwh" });
        }
        Ok(())
    }
}

/// The decision record emitted for every solved slot — the JSONL twin of
/// one `slot_csv` row (minus the per-stage columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// The slot solved.
    pub slot: u64,
    /// Fleet latency `T_t` (seconds).
    pub latency_s: f64,
    /// Energy cost `C_t` (dollars).
    pub cost_usd: f64,
    /// Virtual-queue backlog `Q(t+1)`.
    pub queue: f64,
    /// Electricity price observed ($/kWh).
    pub price: f64,
    /// Wall-clock solve time (seconds; the one non-deterministic field).
    pub solve_time_s: f64,
    /// Jain's fairness index of per-device latencies.
    pub fairness: f64,
    /// Fraction of devices that changed base station.
    pub handover_rate: f64,
    /// Fleet mean clock (GHz).
    pub mean_clock_ghz: f64,
    /// BDMA alternation rounds executed.
    pub bdma_rounds: f64,
    /// Chosen base station per device.
    pub stations: Vec<u32>,
}

impl DecisionRecord {
    /// Builds the record from an engine step report.
    pub fn from_report(report: &StepReport) -> Self {
        let record = &report.record;
        Self {
            slot: record.slot,
            latency_s: record.latency_s,
            cost_usd: record.cost_usd,
            queue: record.queue,
            price: record.price,
            solve_time_s: record.solve_time_s,
            fairness: record.fairness,
            handover_rate: record.handover_rate,
            mean_clock_ghz: record.mean_clock_ghz,
            bdma_rounds: record.rounds_used,
            stations: record.stations.clone(),
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| {
            unreachable!("decision records contain only finite floats and integers")
        })
    }
}

/// Encodes an error record for the error stream:
/// `{"error": "...", "kind": "...", "line": N}`.
pub fn encode_error(error: &FrameError) -> String {
    let value = serde_json::Value::Object(vec![
        ("error".to_owned(), serde_json::Value::Str(error.to_string())),
        ("kind".to_owned(), serde_json::Value::Str(error.kind().to_owned())),
        ("line".to_owned(), serde_json::Value::U64(error.line())),
    ]);
    serde_json::to_string(&value)
        .unwrap_or_else(|_| unreachable!("error records are plain strings and integers"))
}

/// Encodes an event record: `{"event": "...", <extra fields>}`. Extra
/// values must be finite/serializable (the caller builds them).
pub fn encode_event(event: &str, fields: &[(&str, serde_json::Value)]) -> String {
    let mut object = vec![("event".to_owned(), serde_json::Value::Str(event.to_owned()))];
    for (key, value) in fields {
        object.push(((*key).to_owned(), value.clone()));
    }
    serde_json::to_string(&serde_json::Value::Object(object))
        .unwrap_or_else(|_| unreachable!("event records are built from finite values"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(slot: u64) -> SystemState {
        SystemState {
            slot,
            task_cycles: vec![1.0e8, 2.0e8],
            data_bits: vec![1.0e6, 2.0e6],
            spectral_efficiency: vec![vec![3.0, 2.0, 1.0], vec![1.5, 2.5, 3.5]],
            fronthaul_efficiency: vec![4.0, 4.0, 4.0],
            price_per_kwh: 0.11,
        }
    }

    #[test]
    fn round_trips_a_state_frame() {
        let mut dec = FrameDecoder::new(2, 3);
        let line = serde_json::to_string(&state(7)).expect("states serialize");
        match dec.decode_line(&line) {
            Ok(Some(InputFrame::State(s))) => assert_eq!(*s, state(7)),
            other => panic!("expected a state frame, got {other:?}"),
        }
    }

    #[test]
    fn decodes_control_verbs() {
        let mut dec = FrameDecoder::new(2, 3);
        let cases = [
            (r#"{"control": "shutdown"}"#, ControlFrame::Shutdown),
            (r#"{"control": "checkpoint"}"#, ControlFrame::Checkpoint),
            (r#"{"control": "reload"}"#, ControlFrame::Reload { path: None }),
            (
                r#"{"control": "reload", "path": "new.toml"}"#,
                ControlFrame::Reload { path: Some("new.toml".into()) },
            ),
        ];
        for (line, want) in cases {
            match dec.decode_line(line) {
                Ok(Some(InputFrame::Control(got))) => assert_eq!(got, want, "{line}"),
                other => panic!("{line}: got {other:?}"),
            }
        }
        let e = dec.decode_line(r#"{"control": "launch"}"#).expect_err("unknown verb");
        assert_eq!(e, FrameError::UnknownControl { line: 5, control: "launch".into() });
    }

    #[test]
    fn garbage_yields_typed_errors_and_keeps_counting() {
        let mut dec = FrameDecoder::new(2, 3);
        assert!(matches!(dec.decode_line("not json"), Err(FrameError::Json { line: 1, .. })));
        assert!(matches!(dec.decode_line("[1,2,3]"), Err(FrameError::Json { line: 2, .. })));
        assert!(matches!(dec.decode_line(""), Ok(None)));
        let good = serde_json::to_string(&state(0)).expect("serializes");
        assert!(matches!(dec.decode_line(&good), Ok(Some(InputFrame::State(_)))));
        assert_eq!(dec.line(), 4);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut dec = FrameDecoder::new(3, 3);
        let line = serde_json::to_string(&state(0)).expect("serializes");
        assert!(matches!(dec.decode_line(&line), Err(FrameError::Shape { .. })));

        let mut ragged = state(0);
        ragged.spectral_efficiency[1] = vec![1.0];
        let mut dec = FrameDecoder::new(2, 3);
        let line = serde_json::to_string(&ragged).expect("serializes");
        assert!(matches!(dec.decode_line(&line), Err(FrameError::Shape { .. })));
    }

    #[test]
    fn non_finite_scalars_are_rejected() {
        // JSON cannot carry a literal NaN, but huge exponents overflow to
        // infinity in any conforming reader — the decoder must catch them.
        let mut dec = FrameDecoder::new(2, 3);
        let line =
            serde_json::to_string(&state(0)).expect("serializes").replace("0.11", "1e999999");
        match dec.decode_line(&line) {
            Err(FrameError::NonFinite { field: "price_per_kwh", .. }) => {}
            Err(FrameError::Json { .. }) => {} // also acceptable: parser rejects overflow
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn decision_record_encodes_round_trip() {
        let record = DecisionRecord {
            slot: 3,
            latency_s: 0.25,
            cost_usd: 0.9,
            queue: 1.5,
            price: 0.11,
            solve_time_s: 0.001,
            fairness: 0.99,
            handover_rate: 0.0,
            mean_clock_ghz: 2.4,
            bdma_rounds: 2.0,
            stations: vec![0, 2],
        };
        let line = record.encode();
        let back: DecisionRecord = serde_json::from_str(&line).expect("round-trips");
        assert_eq!(back, record);
    }

    #[test]
    fn output_records_are_distinguished_by_shape() {
        let err = encode_error(&FrameError::Json { line: 4, reason: "boom".into() });
        let event = encode_event("started", &[("slot", serde_json::Value::U64(0))]);
        let err_v = serde_json::parse(&err).expect("valid JSON");
        let event_v = serde_json::parse(&event).expect("valid JSON");
        let has = |v: &serde_json::Value, k: &str| {
            v.as_object().is_some_and(|fs| fs.iter().any(|(key, _)| key == k))
        };
        assert!(has(&err_v, "error") && !has(&err_v, "event"));
        assert!(has(&event_v, "event") && !has(&event_v, "error"));
    }
}
