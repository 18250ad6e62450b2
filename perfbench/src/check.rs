//! Output checks and failure accounting, shared by every workload.

use std::collections::BTreeMap;

use eotora_server::DecisionRecord;

/// Counters whose increments mean a slot got a decision, but not a clean
/// one: the anytime deadline fired, or the robust ladder fell back.
///
/// `robust.solve_errors` is left out: the engine bumps it together with
/// `robust.lifeboat_decisions` for the same slot, so counting both would
/// count every solve error twice.
pub const DEGRADATION_COUNTERS: [&str; 3] = [
    eotora_obs::COUNTER_DEADLINE_EXPIRATIONS,
    eotora_obs::COUNTER_ROBUST_LIFEBOAT_DECISIONS,
    eotora_obs::COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS,
];

/// Slots attempted versus slots that came back as clean decisions.
///
/// A slot fails when no decision arrived for it — a malformed, shed or
/// rejected frame, or a decision that never came — or when its decision
/// was degraded. Degradations are only known as process-wide counter
/// totals, so a slot hit by two different ones (say a lifeboat and an
/// equal-share fallback) counts twice, capped at the decided slots: the
/// tally errs towards reporting failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// State frames sent (batch: slots stepped).
    pub attempted: u64,
    /// Decisions that arrived for those frames.
    pub decided: u64,
    /// Sum of the [`DEGRADATION_COUNTERS`].
    pub degraded: u64,
}

impl Tally {
    /// Builds a tally from frame counts and the engine's counter totals.
    pub fn new(attempted: u64, decided: u64, counters: &BTreeMap<String, u64>) -> Self {
        let degraded =
            DEGRADATION_COUNTERS.iter().map(|name| counters.get(*name).copied().unwrap_or(0)).sum();
        Self { attempted, decided, degraded }
    }

    /// Adds another run's tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.decided += other.decided;
        self.degraded += other.degraded;
    }

    /// Failed slots: missing decisions plus degraded ones.
    pub fn failed(&self) -> u64 {
        let missing = self.attempted.saturating_sub(self.decided);
        missing + self.degraded.min(self.decided)
    }

    /// Failed slots per attempted slot (0 for an empty tally).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// One decision must give every device exactly one in-range station and
/// report finite latency, cost and queue.
pub fn check_decision(
    record: &DecisionRecord,
    devices: usize,
    stations: usize,
) -> Result<(), String> {
    if record.stations.len() != devices {
        return Err(format!(
            "slot {}: {} station choices for {devices} devices",
            record.slot,
            record.stations.len()
        ));
    }
    if let Some((device, &station)) =
        record.stations.iter().enumerate().find(|(_, &s)| s as usize >= stations)
    {
        return Err(format!(
            "slot {}: device {device} chose station {station} of {stations}",
            record.slot
        ));
    }
    for (field, value) in
        [("latency_s", record.latency_s), ("cost_usd", record.cost_usd), ("queue", record.queue)]
    {
        if !value.is_finite() {
            return Err(format!("slot {}: {field} is {value}", record.slot));
        }
    }
    Ok(())
}

/// The reported stream must follow the virtual-queue recursion
/// `Q(t+1) = max(Q(t) + C_t − C̄, 0)` from `Q(0) = 0`, within 1e-9
/// relative.
pub fn check_queue_recursion(records: &[DecisionRecord], budget: f64) -> Result<(), String> {
    let mut queue = 0.0_f64;
    for record in records {
        let expected = (queue + record.cost_usd - budget).max(0.0);
        let scale = expected.abs().max(record.queue.abs());
        if (record.queue - expected).abs() > 1e-9 * scale {
            return Err(format!(
                "slot {}: queue {} but Q(t) + C_t − C̄ gives {expected}",
                record.slot, record.queue
            ));
        }
        queue = record.queue;
    }
    Ok(())
}

/// Two decision streams must agree on every field except the wall-clock
/// `solve_time_s`, bit for bit.
pub fn check_same_stream(
    what: &str,
    left: &[DecisionRecord],
    right: &[DecisionRecord],
) -> Result<(), String> {
    if left.len() != right.len() {
        return Err(format!("{what}: {} decisions against {}", left.len(), right.len()));
    }
    for (a, b) in left.iter().zip(right) {
        let same = a.slot == b.slot
            && [
                (a.latency_s, b.latency_s),
                (a.cost_usd, b.cost_usd),
                (a.queue, b.queue),
                (a.price, b.price),
                (a.fairness, b.fairness),
                (a.handover_rate, b.handover_rate),
                (a.mean_clock_ghz, b.mean_clock_ghz),
                (a.bdma_rounds, b.bdma_rounds),
            ]
            .iter()
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.stations == b.stations;
        if !same {
            return Err(format!("{what}: streams first differ at slot {}", a.slot));
        }
    }
    Ok(())
}

/// Runs the per-decision and queue-recursion checks over a whole stream.
pub fn check_stream(
    records: &[DecisionRecord],
    devices: usize,
    stations: usize,
    budget: f64,
) -> Result<(), String> {
    for record in records {
        check_decision(record, devices, stations)?;
    }
    check_queue_recursion(records, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(slot: u64, cost: f64, queue: f64) -> DecisionRecord {
        DecisionRecord {
            slot,
            latency_s: 1.0,
            cost_usd: cost,
            queue,
            price: 0.1,
            solve_time_s: 0.0,
            fairness: 1.0,
            handover_rate: 0.0,
            mean_clock_ghz: 2.0,
            bdma_rounds: 5.0,
            stations: vec![0, 1],
        }
    }

    #[test]
    fn missing_and_degraded_slots_both_fail() {
        let mut counters = BTreeMap::new();
        let clean = Tally::new(10, 10, &counters);
        assert_eq!((clean.failed(), clean.failed_ratio()), (0, 0.0));
        counters.insert(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS.to_owned(), 1);
        let tally = Tally::new(10, 8, &counters);
        assert_eq!(tally.failed(), 3);
        assert!((tally.failed_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn a_solve_error_and_its_lifeboat_are_one_failure() {
        // The engine bumps both counters for the one slot whose solve failed.
        let counters: BTreeMap<String, u64> = [
            (eotora_obs::COUNTER_ROBUST_SOLVE_ERRORS.to_owned(), 1),
            (eotora_obs::COUNTER_ROBUST_LIFEBOAT_DECISIONS.to_owned(), 1),
        ]
        .into_iter()
        .collect();
        let tally = Tally::new(10, 10, &counters);
        assert_eq!(tally.failed(), 1);
    }

    #[test]
    fn queue_recursion_accepts_the_law_and_rejects_drift() {
        let good = [record(0, 3.0, 1.0), record(1, 1.0, 0.0), record(2, 2.5, 0.5)];
        assert!(check_queue_recursion(&good, 2.0).is_ok());
        let bad = [record(0, 3.0, 1.0), record(1, 2.5, 1.4)];
        assert!(check_queue_recursion(&bad, 2.0).is_err());
    }

    #[test]
    fn decisions_need_one_in_range_station_per_device() {
        assert!(check_decision(&record(0, 1.0, 0.0), 2, 2).is_ok());
        assert!(check_decision(&record(0, 1.0, 0.0), 3, 2).is_err());
        assert!(check_decision(&record(0, 1.0, 0.0), 2, 1).is_err());
        assert!(check_decision(&record(0, f64::NAN, 0.0), 2, 2).is_err());
    }

    #[test]
    fn streams_compare_everything_but_solve_time() {
        let a = [record(0, 1.0, 0.0)];
        let mut b = a.clone();
        b[0].solve_time_s = 9.0;
        assert!(check_same_stream("x", &a, &b).is_ok());
        b[0].stations[1] = 0;
        assert!(check_same_stream("x", &a, &b).is_err());
    }
}
