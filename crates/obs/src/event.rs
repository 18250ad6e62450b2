//! Structured trace events and their flat JSON encoding.
//!
//! Events serialize as single-level JSON objects discriminated by a
//! `"type"` field, so a JSONL trace is greppable line-by-line without a
//! streaming JSON parser:
//!
//! ```text
//! {"seq":17,"t_ns":1754560000123456789,"type":"span","name":"p2a","nanos":41230}
//! ```
//!
//! The encoding is hand-written (rather than derived) precisely to keep
//! this flat schema; derived enum encodings would nest the payload under
//! the variant name.

use serde::{get_field, Deserialize, Error, Serialize, Value};

/// One structured event emitted by the instrumented pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed simulation slot with its headline outcomes.
    Slot {
        /// Zero-based slot index t.
        slot: u64,
        /// Drift-plus-penalty objective V·T_t + Q(t)·Θ_t for the slot.
        objective: f64,
        /// Total fleet latency T_t (s).
        latency: f64,
        /// Energy cost C_t ($).
        cost: f64,
        /// Virtual queue backlog Q(t+1) after the update.
        queue: f64,
    },
    /// A completed timed span.
    Span {
        /// Span name (e.g. `p2a`, `p2b`, `queue_update`, `slot_solve`).
        name: String,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
    },
    /// A monotonic counter's updated running total.
    Counter {
        /// Counter name (e.g. `bdma_rounds`).
        name: String,
        /// Running total after the increment.
        value: u64,
    },
    /// One virtual-queue update Q(t+1) = max{Q(t) + C_t - C̄, 0}.
    QueueUpdate {
        /// Zero-based slot index t.
        slot: u64,
        /// Backlog Q(t) before the update.
        before: f64,
        /// Backlog Q(t+1) after the update.
        after: f64,
        /// Constraint excess C_t - C̄ applied by the update.
        excess: f64,
    },
    /// One health-rule status transition emitted by the `HealthMonitor`.
    Health {
        /// Zero-based slot index t at which the transition fired.
        slot: u64,
        /// Rule name (e.g. `queue_level`, `budget_overrun`).
        rule: String,
        /// Status before the transition (`ok`/`degraded`/`critical`).
        from: String,
        /// Status after the transition.
        to: String,
        /// The signal value that triggered the transition.
        value: f64,
    },
    /// One BDMA alternation round (Algorithm 2) within a slot solve.
    BdmaIteration {
        /// Zero-based slot index t.
        slot: u64,
        /// One-based alternation round within the slot.
        round: u64,
        /// Candidate objective produced by this round.
        objective: f64,
        /// Whether the candidate improved on the incumbent.
        accepted: bool,
        /// Time spent in the P2-A discrete solve (ns).
        p2a_nanos: u64,
        /// Time spent in the P2-B continuous solve (ns).
        p2b_nanos: u64,
    },
}

impl TraceEvent {
    /// The value of the discriminating `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Slot { .. } => "slot",
            TraceEvent::Span { .. } => "span",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::QueueUpdate { .. } => "queue_update",
            TraceEvent::Health { .. } => "health",
            TraceEvent::BdmaIteration { .. } => "bdma_iteration",
        }
    }

    fn push_fields(&self, fields: &mut Vec<(String, Value)>) {
        let f = |name: &str, v: Value| (name.to_owned(), v);
        fields.push(f("type", Value::Str(self.kind().to_owned())));
        match self {
            TraceEvent::Slot { slot, objective, latency, cost, queue } => {
                fields.push(f("slot", Value::U64(*slot)));
                fields.push(f("objective", Value::F64(*objective)));
                fields.push(f("latency", Value::F64(*latency)));
                fields.push(f("cost", Value::F64(*cost)));
                fields.push(f("queue", Value::F64(*queue)));
            }
            TraceEvent::Span { name, nanos } => {
                fields.push(f("name", Value::Str(name.clone())));
                fields.push(f("nanos", Value::U64(*nanos)));
            }
            TraceEvent::Counter { name, value } => {
                fields.push(f("name", Value::Str(name.clone())));
                fields.push(f("value", Value::U64(*value)));
            }
            TraceEvent::QueueUpdate { slot, before, after, excess } => {
                fields.push(f("slot", Value::U64(*slot)));
                fields.push(f("before", Value::F64(*before)));
                fields.push(f("after", Value::F64(*after)));
                fields.push(f("excess", Value::F64(*excess)));
            }
            TraceEvent::Health { slot, rule, from, to, value } => {
                fields.push(f("slot", Value::U64(*slot)));
                fields.push(f("rule", Value::Str(rule.clone())));
                fields.push(f("from", Value::Str(from.clone())));
                fields.push(f("to", Value::Str(to.clone())));
                fields.push(f("value", Value::F64(*value)));
            }
            TraceEvent::BdmaIteration {
                slot,
                round,
                objective,
                accepted,
                p2a_nanos,
                p2b_nanos,
            } => {
                fields.push(f("slot", Value::U64(*slot)));
                fields.push(f("round", Value::U64(*round)));
                fields.push(f("objective", Value::F64(*objective)));
                fields.push(f("accepted", Value::Bool(*accepted)));
                fields.push(f("p2a_nanos", Value::U64(*p2a_nanos)));
                fields.push(f("p2b_nanos", Value::U64(*p2b_nanos)));
            }
        }
    }

    fn from_fields(fields: &[(String, Value)]) -> Result<Self, Error> {
        let kind = String::from_value(get_field(fields, "type", "TraceEvent")?)?;
        let u64_field = |name: &str| -> Result<u64, Error> {
            u64::from_value(get_field(fields, name, "TraceEvent")?)
        };
        // The JSON writer emits non-finite floats as `null`; they read
        // back as NaN so every line the recorder wrote parses.
        let f64_field = |name: &str| -> Result<f64, Error> {
            match get_field(fields, name, "TraceEvent")? {
                Value::Null => Ok(f64::NAN),
                v => f64::from_value(v),
            }
        };
        let str_field = |name: &str| -> Result<String, Error> {
            String::from_value(get_field(fields, name, "TraceEvent")?)
        };
        match kind.as_str() {
            "slot" => Ok(TraceEvent::Slot {
                slot: u64_field("slot")?,
                objective: f64_field("objective")?,
                latency: f64_field("latency")?,
                cost: f64_field("cost")?,
                queue: f64_field("queue")?,
            }),
            "span" => Ok(TraceEvent::Span { name: str_field("name")?, nanos: u64_field("nanos")? }),
            "counter" => {
                Ok(TraceEvent::Counter { name: str_field("name")?, value: u64_field("value")? })
            }
            "queue_update" => Ok(TraceEvent::QueueUpdate {
                slot: u64_field("slot")?,
                before: f64_field("before")?,
                after: f64_field("after")?,
                excess: f64_field("excess")?,
            }),
            "health" => Ok(TraceEvent::Health {
                slot: u64_field("slot")?,
                rule: str_field("rule")?,
                from: str_field("from")?,
                to: str_field("to")?,
                value: f64_field("value")?,
            }),
            "bdma_iteration" => Ok(TraceEvent::BdmaIteration {
                slot: u64_field("slot")?,
                round: u64_field("round")?,
                objective: f64_field("objective")?,
                accepted: bool::from_value(get_field(fields, "accepted", "TraceEvent")?)?,
                p2a_nanos: u64_field("p2a_nanos")?,
                p2b_nanos: u64_field("p2b_nanos")?,
            }),
            other => Err(Error::custom(format!("unknown trace event type `{other}`"))),
        }
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields = Vec::with_capacity(7);
        self.push_fields(&mut fields);
        Value::Object(fields)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v.as_object().ok_or_else(|| Error::expected("object", "TraceEvent", v))?;
        TraceEvent::from_fields(fields)
    }
}

/// A [`TraceEvent`] stamped with its position in the stream: one JSONL
/// line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Zero-based sequence number within the trace.
    pub seq: u64,
    /// Wall-clock timestamp, nanoseconds since the Unix epoch.
    pub t_ns: u64,
    /// The event payload, flattened into the same JSON object.
    pub event: TraceEvent,
}

impl Serialize for TraceRecord {
    fn to_value(&self) -> Value {
        let mut fields = Vec::with_capacity(9);
        fields.push(("seq".to_owned(), Value::U64(self.seq)));
        fields.push(("t_ns".to_owned(), Value::U64(self.t_ns)));
        self.event.push_fields(&mut fields);
        Value::Object(fields)
    }
}

impl Deserialize for TraceRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v.as_object().ok_or_else(|| Error::expected("object", "TraceRecord", v))?;
        Ok(TraceRecord {
            seq: u64::from_value(get_field(fields, "seq", "TraceRecord")?)?,
            t_ns: u64::from_value(get_field(fields, "t_ns", "TraceRecord")?)?,
            event: TraceEvent::from_fields(fields)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Slot { slot: 3, objective: 12.5, latency: 0.25, cost: 0.01, queue: 1.75 },
            TraceEvent::Span { name: "p2a".into(), nanos: 41_230 },
            TraceEvent::Counter { name: "bdma_rounds".into(), value: 12 },
            TraceEvent::QueueUpdate { slot: 3, before: 2.0, after: 1.75, excess: -0.25 },
            TraceEvent::Health {
                slot: 7,
                rule: "queue_level".into(),
                from: "ok".into(),
                to: "degraded".into(),
                value: 55.25,
            },
            TraceEvent::BdmaIteration {
                slot: 3,
                round: 2,
                objective: 12.5,
                accepted: true,
                p2a_nanos: 41_230,
                p2b_nanos: 9_800,
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_serde_json() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let record = TraceRecord { seq: i as u64, t_ns: 1_754_560_000_123_456_789, event };
            let line = serde_json::to_string(&record).unwrap();
            let back: TraceRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn non_finite_floats_read_back_as_nan() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let events = [
                TraceEvent::Slot { slot: 5, objective: x, latency: x, cost: x, queue: x },
                TraceEvent::QueueUpdate { slot: 5, before: x, after: x, excess: x },
                TraceEvent::Health {
                    slot: 5,
                    rule: "queue_level".into(),
                    from: "ok".into(),
                    to: "critical".into(),
                    value: x,
                },
                TraceEvent::BdmaIteration {
                    slot: 5,
                    round: 1,
                    objective: x,
                    accepted: false,
                    p2a_nanos: 1,
                    p2b_nanos: 2,
                },
            ];
            for event in events {
                let line = serde_json::to_string(&TraceRecord { seq: 0, t_ns: 0, event }).unwrap();
                assert!(line.contains("null"), "{line}");
                let back: TraceRecord = serde_json::from_str(&line).unwrap();
                let floats = match back.event {
                    TraceEvent::Slot { objective, latency, cost, queue, .. } => {
                        vec![objective, latency, cost, queue]
                    }
                    TraceEvent::QueueUpdate { before, after, excess, .. } => {
                        vec![before, after, excess]
                    }
                    TraceEvent::Health { value, .. } => vec![value],
                    TraceEvent::BdmaIteration { objective, .. } => vec![objective],
                    other => panic!("unexpected {other:?}"),
                };
                assert!(floats.iter().all(|v| v.is_nan()), "{line} read back as {floats:?}");
            }
        }
    }

    #[test]
    fn encoding_is_flat_with_type_discriminant() {
        let record = TraceRecord {
            seq: 17,
            t_ns: 99,
            event: TraceEvent::Span { name: "p2b".into(), nanos: 7 },
        };
        let line = serde_json::to_string(&record).unwrap();
        assert_eq!(line, r#"{"seq":17,"t_ns":99,"type":"span","name":"p2b","nanos":7}"#);
    }

    #[test]
    fn unknown_type_is_an_error() {
        let err = serde_json::from_str::<TraceRecord>(r#"{"seq":0,"t_ns":0,"type":"mystery"}"#);
        assert!(err.is_err());
    }

    #[test]
    fn missing_field_is_an_error() {
        let err = serde_json::from_str::<TraceRecord>(r#"{"seq":0,"type":"span","name":"x"}"#);
        assert!(err.is_err());
    }
}
