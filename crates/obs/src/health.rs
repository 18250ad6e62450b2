//! Online health judgment for the DPP controller.
//!
//! A [`HealthMonitor`] turns per-slot raw observations (cumulative
//! counters, queue backlog, running-average cost) into derived signals —
//! queue level and trend vs the O(V) stability bound, budget residual,
//! deadline/fault/sanitizer rates over a sliding window, journal
//! latency — and classifies each against a [`HealthRule`] with
//! hysteresis: a rule *enters* Degraded/Critical when its signal
//! reaches the threshold but only *exits* once the signal falls a
//! margin below it, so boundary noise cannot flap Ok↔Degraded every
//! slot. Status changes are emitted as typed [`HealthEvent`]s.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::fmt;

use crate::names;

/// The robust-ladder counters whose sum is a sample's `escalations`.
pub const ESCALATION_COUNTERS: &[&str] = &[
    names::COUNTER_ROBUST_SOLVE_ERRORS,
    names::COUNTER_ROBUST_LIFEBOAT_DECISIONS,
    names::COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS,
];

/// Overall or per-rule health level, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthStatus {
    /// All signals within tolerance.
    #[default]
    Ok,
    /// At least one signal past its degraded threshold.
    Degraded,
    /// At least one signal past its critical threshold.
    Critical,
}

impl HealthStatus {
    /// Lower-case wire name (`ok`/`degraded`/`critical`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }

    /// Numeric level for the `health_level` gauge (0/1/2).
    pub fn level(self) -> f64 {
        match self {
            HealthStatus::Ok => 0.0,
            HealthStatus::Degraded => 1.0,
            HealthStatus::Critical => 2.0,
        }
    }
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One threshold rule over a derived signal.
///
/// Semantics: the rule's status rises to Degraded when the signal is
/// `>= degraded` and to Critical when `>= critical`; it falls back only
/// once the signal drops below `threshold - hysteresis`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthRule {
    /// Signal name (e.g. `queue_level`).
    pub name: &'static str,
    /// Enter-Degraded threshold (inclusive).
    pub degraded: f64,
    /// Enter-Critical threshold (inclusive).
    pub critical: f64,
    /// Exit margin: leave a level only when the signal is below
    /// `enter - hysteresis`.
    pub hysteresis: f64,
}

impl HealthRule {
    /// A rule that never fires (thresholds at +∞).
    pub fn disabled(name: &'static str) -> Self {
        HealthRule { name, degraded: f64::INFINITY, critical: f64::INFINITY, hysteresis: 0.0 }
    }

    /// Classifies `value` with no history (used for end-of-run
    /// assessment where hysteresis has no meaning).
    pub fn classify(&self, value: f64) -> HealthStatus {
        if value >= self.critical {
            HealthStatus::Critical
        } else if value >= self.degraded {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        }
    }

    /// One hysteresis step from `current` given the new `value`.
    fn step(&self, current: HealthStatus, value: f64) -> HealthStatus {
        match current {
            HealthStatus::Ok => self.classify(value),
            HealthStatus::Degraded => {
                if value >= self.critical {
                    HealthStatus::Critical
                } else if value < self.degraded - self.hysteresis {
                    HealthStatus::Ok
                } else {
                    HealthStatus::Degraded
                }
            }
            HealthStatus::Critical => {
                if value >= self.critical - self.hysteresis {
                    HealthStatus::Critical
                } else if value < self.degraded - self.hysteresis {
                    HealthStatus::Ok
                } else {
                    HealthStatus::Degraded
                }
            }
        }
    }
}

/// A status transition of one rule, emitted by
/// [`HealthMonitor::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Slot at which the transition fired.
    pub slot: u64,
    /// Rule name.
    pub rule: &'static str,
    /// Status before.
    pub from: HealthStatus,
    /// Status after.
    pub to: HealthStatus,
    /// The signal value that triggered it.
    pub value: f64,
}

/// Raw per-slot observation fed to the monitor. Counters are cumulative
/// run totals; the monitor differentiates them over its window.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthSample {
    /// Zero-based slot index.
    pub slot: u64,
    /// Queue backlog Q(t+1) after this slot.
    pub queue: f64,
    /// Running time-average energy cost ($/slot).
    pub avg_cost: f64,
    /// Cumulative `fault.masked_resources`.
    pub masked_resources: u64,
    /// Cumulative `fault.state_substitutions`.
    pub substitutions: u64,
    /// Cumulative `deadline.expirations`.
    pub deadline_expirations: u64,
    /// Cumulative robust-ladder escalations (solve errors + lifeboat +
    /// equal-share fallbacks).
    pub escalations: u64,
    /// Current p99 of the journal append span, milliseconds (0 when no
    /// journal is attached).
    pub journal_p99_ms: f64,
}

impl HealthSample {
    /// The one mapping from run counters to a sample: `counter` returns
    /// a counter's cumulative total by name (0 when absent), whatever
    /// holds it — the live registry, a metrics snapshot, an exposition
    /// or a replayed trace.
    pub fn from_counters(
        slot: u64,
        queue: f64,
        avg_cost: f64,
        journal_p99_ms: f64,
        counter: impl Fn(&str) -> u64,
    ) -> Self {
        HealthSample {
            slot,
            queue,
            avg_cost,
            masked_resources: counter(names::COUNTER_FAULT_MASKED_RESOURCES),
            substitutions: counter(names::COUNTER_FAULT_STATE_SUBSTITUTIONS),
            deadline_expirations: counter(names::COUNTER_DEADLINE_EXPIRATIONS),
            escalations: ESCALATION_COUNTERS.iter().map(|name| counter(name)).sum(),
            journal_p99_ms,
        }
    }
}

/// Per-rule outcome in a [`HealthSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuleReport {
    /// Rule name.
    pub name: &'static str,
    /// Status at end of run.
    pub status: HealthStatus,
    /// Worst status the rule reached.
    pub worst: HealthStatus,
    /// Last signal value seen.
    pub value: f64,
}

/// End-of-run health roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSummary {
    /// Status at the final slot (worst across rules).
    pub final_status: HealthStatus,
    /// Worst status reached at any slot.
    pub worst: HealthStatus,
    /// Total rule transitions over the run.
    pub transitions: u64,
    /// Per-rule detail.
    pub rules: Vec<RuleReport>,
}

/// Sliding-window health monitor over the derived controller signals.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    rules: Vec<HealthRule>,
    states: Vec<HealthStatus>,
    worst_per_rule: Vec<HealthStatus>,
    last_values: Vec<f64>,
    window: VecDeque<HealthSample>,
    window_len: usize,
    budget: f64,
    worst: HealthStatus,
    transitions: u64,
}

/// Window length (slots) used for rate and trend signals.
const DEFAULT_WINDOW: usize = 20;

/// Rule indices into the default rule vector (kept in sync with
/// [`HealthMonitor::paper_defaults`]).
const RULE_QUEUE_LEVEL: usize = 0;
const RULE_QUEUE_TREND: usize = 1;
const RULE_BUDGET_OVERRUN: usize = 2;
const RULE_DEADLINE_RATE: usize = 3;
const RULE_FAULT_MASK_RATE: usize = 4;
const RULE_SUBSTITUTION_RATE: usize = 5;
const RULE_ESCALATION_RATE: usize = 6;
const RULE_JOURNAL_LATENCY: usize = 7;

/// The default rule set for a run with drift-plus-penalty weight `v`
/// and per-slot budget `budget`.
///
/// Queue thresholds scale with V per the paper's O(V) backlog bound:
/// a healthy queue hovers below ~V/2 in the budget's units; sustained
/// positive trend signals the budget constraint is infeasible. Any
/// fault masking / sanitizer substitution / ladder escalation inside
/// the window is at least Degraded — those only happen when the
/// environment is actively failing.
pub fn paper_default_rules(v: f64, budget: f64) -> Vec<HealthRule> {
    let vq = v.max(1.0);
    let budget_rule = if budget > 0.0 {
        HealthRule { name: "budget_overrun", degraded: 0.05, critical: 0.25, hysteresis: 0.02 }
    } else {
        HealthRule::disabled("budget_overrun")
    };
    vec![
        HealthRule {
            name: "queue_level",
            degraded: 0.5 * vq,
            critical: 2.0 * vq,
            hysteresis: 0.1 * vq,
        },
        HealthRule {
            name: "queue_trend",
            degraded: 0.02 * vq,
            critical: 0.2 * vq,
            hysteresis: 0.01 * vq,
        },
        budget_rule,
        HealthRule { name: "deadline_rate", degraded: 0.05, critical: 0.5, hysteresis: 0.02 },
        HealthRule {
            name: "fault_mask_rate",
            degraded: f64::MIN_POSITIVE,
            critical: 8.0,
            hysteresis: 0.0,
        },
        HealthRule {
            name: "substitution_rate",
            degraded: f64::MIN_POSITIVE,
            critical: 8.0,
            hysteresis: 0.0,
        },
        HealthRule {
            name: "escalation_rate",
            degraded: f64::MIN_POSITIVE,
            critical: 0.5,
            hysteresis: 0.0,
        },
        HealthRule { name: "journal_latency", degraded: 50.0, critical: 1000.0, hysteresis: 10.0 },
    ]
}

impl HealthMonitor {
    /// Monitor with the paper-default rules for `(v, budget)`.
    pub fn paper_defaults(v: f64, budget: f64) -> Self {
        Self::with_rules(paper_default_rules(v, budget), DEFAULT_WINDOW, budget)
    }

    /// Monitor with explicit rules, window length (slots), and per-slot
    /// budget (`<= 0` disables the budget signal).
    pub fn with_rules(rules: Vec<HealthRule>, window_len: usize, budget: f64) -> Self {
        let n = rules.len();
        HealthMonitor {
            rules,
            states: vec![HealthStatus::Ok; n],
            worst_per_rule: vec![HealthStatus::Ok; n],
            last_values: vec![0.0; n],
            window: VecDeque::new(),
            window_len: window_len.max(2),
            budget,
            worst: HealthStatus::Ok,
            transitions: 0,
        }
    }

    fn signal(&self, idx: usize, sample: &HealthSample) -> f64 {
        let front = self.window.front().copied().unwrap_or(*sample);
        let span = (sample.slot.saturating_sub(front.slot)).max(1) as f64;
        let rate = |now: u64, then: u64| now.saturating_sub(then) as f64 / span;
        match idx {
            RULE_QUEUE_LEVEL => sample.queue,
            RULE_QUEUE_TREND => (sample.queue - front.queue) / span,
            RULE_BUDGET_OVERRUN => {
                if self.budget > 0.0 {
                    ((sample.avg_cost - self.budget) / self.budget).max(0.0)
                } else {
                    0.0
                }
            }
            RULE_DEADLINE_RATE => rate(sample.deadline_expirations, front.deadline_expirations),
            RULE_FAULT_MASK_RATE => rate(sample.masked_resources, front.masked_resources),
            RULE_SUBSTITUTION_RATE => rate(sample.substitutions, front.substitutions),
            RULE_ESCALATION_RATE => rate(sample.escalations, front.escalations),
            _ => sample.journal_p99_ms,
        }
    }

    /// Feeds one slot's raw observation; returns the rule transitions
    /// it triggered (empty almost always).
    pub fn observe(&mut self, sample: HealthSample) -> Vec<HealthEvent> {
        let mut events = Vec::new();
        for idx in 0..self.rules.len() {
            let value = self.signal(idx, &sample);
            self.last_values[idx] = value;
            let rule = self.rules[idx];
            let from = self.states[idx];
            let to = rule.step(from, value);
            if to != from {
                self.states[idx] = to;
                self.transitions += 1;
                events.push(HealthEvent { slot: sample.slot, rule: rule.name, from, to, value });
            }
            self.worst_per_rule[idx] = self.worst_per_rule[idx].max(to);
        }
        self.worst = self.worst.max(self.overall());
        self.window.push_back(sample);
        while self.window.len() > self.window_len {
            self.window.pop_front();
        }
        events
    }

    /// Current overall status: the worst current per-rule status.
    pub fn overall(&self) -> HealthStatus {
        self.states.iter().copied().max().unwrap_or(HealthStatus::Ok)
    }

    /// Worst overall status reached at any observed slot.
    pub fn worst(&self) -> HealthStatus {
        self.worst
    }

    /// Total rule transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Most recent signal value of the named rule, if it exists and at
    /// least one sample has been observed.
    pub fn last_value(&self, rule: &str) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        self.rules.iter().position(|r| r.name == rule).map(|i| self.last_values[i])
    }

    /// End-of-run roll-up.
    pub fn summary(&self) -> HealthSummary {
        HealthSummary {
            final_status: self.overall(),
            worst: self.worst,
            transitions: self.transitions,
            rules: self
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| RuleReport {
                    name: r.name,
                    status: self.states[i],
                    worst: self.worst_per_rule[i],
                    value: self.last_values[i],
                })
                .collect(),
        }
    }
}

/// Classifies a whole finished run from its final cumulative totals
/// (no hysteresis — there is no trajectory). Rates are averaged over
/// the full horizon, and the trend signal (which needs a trajectory)
/// is skipped.
pub fn assess_totals(v: f64, budget: f64, totals: &HealthSample) -> HealthSummary {
    let rules = paper_default_rules(v, budget);
    let slots = totals.slot.max(1) as f64;
    let mut reports = Vec::with_capacity(rules.len());
    for (idx, rule) in rules.iter().enumerate() {
        if idx == RULE_QUEUE_TREND {
            continue;
        }
        let value = match idx {
            RULE_QUEUE_LEVEL => totals.queue,
            RULE_BUDGET_OVERRUN if budget > 0.0 => ((totals.avg_cost - budget) / budget).max(0.0),
            RULE_DEADLINE_RATE => totals.deadline_expirations as f64 / slots,
            RULE_FAULT_MASK_RATE => totals.masked_resources as f64 / slots,
            RULE_SUBSTITUTION_RATE => totals.substitutions as f64 / slots,
            RULE_ESCALATION_RATE => totals.escalations as f64 / slots,
            RULE_JOURNAL_LATENCY => totals.journal_p99_ms,
            _ => 0.0,
        };
        let status = rule.classify(value);
        reports.push(RuleReport { name: rule.name, status, worst: status, value });
    }
    let overall = reports.iter().map(|r| r.status).max().unwrap_or(HealthStatus::Ok);
    HealthSummary { final_status: overall, worst: overall, transitions: 0, rules: reports }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn sample(slot: u64, queue: f64) -> HealthSample {
        HealthSample { slot, queue, avg_cost: 0.0, ..HealthSample::default() }
    }

    #[test]
    fn clean_signals_stay_ok() {
        let mut m = HealthMonitor::paper_defaults(100.0, 1.0);
        for t in 0..50 {
            let events = m.observe(sample(t, 2.0));
            assert!(events.is_empty(), "unexpected events at slot {t}: {events:?}");
        }
        assert_eq!(m.overall(), HealthStatus::Ok);
        assert_eq!(m.worst(), HealthStatus::Ok);
        assert_eq!(m.transitions(), 0);
    }

    #[test]
    fn queue_past_half_v_degrades_then_recovers() {
        let mut m = HealthMonitor::paper_defaults(100.0, 1.0);
        m.observe(sample(0, 60.0));
        assert_eq!(m.overall(), HealthStatus::Degraded);
        // Above the exit threshold (50 − 10 = 40): still degraded.
        m.observe(sample(1, 45.0));
        assert_eq!(m.overall(), HealthStatus::Degraded);
        // Below it: recovered.
        m.observe(sample(2, 30.0));
        assert_eq!(m.overall(), HealthStatus::Ok);
        assert_eq!(m.worst(), HealthStatus::Degraded);
    }

    /// The anti-flap property: a signal oscillating right at the
    /// Degraded boundary must transition once, not every slot.
    #[test]
    fn boundary_oscillation_does_not_flap() {
        let mut m = HealthMonitor::paper_defaults(100.0, 1.0);
        // Enter threshold is 50, hysteresis 10 → exit below 40.
        let mut transitions = 0;
        for t in 0..40 {
            let q = if t % 2 == 0 { 50.5 } else { 49.5 };
            transitions += m.observe(sample(t, q)).len();
        }
        assert_eq!(transitions, 1, "hysteresis must suppress boundary flapping");
        assert_eq!(m.overall(), HealthStatus::Degraded);
    }

    #[test]
    fn critical_requires_two_v_and_exits_through_degraded() {
        let mut m = HealthMonitor::paper_defaults(100.0, 1.0);
        m.observe(sample(0, 250.0));
        assert_eq!(m.overall(), HealthStatus::Critical);
        // Down past critical−hysteresis but above degraded: Degraded.
        m.observe(sample(1, 100.0));
        assert_eq!(m.overall(), HealthStatus::Degraded);
        m.observe(sample(2, 10.0));
        assert_eq!(m.overall(), HealthStatus::Ok);
        assert_eq!(m.transitions(), 3);
    }

    #[test]
    fn any_fault_masking_in_window_is_degraded() {
        let mut m = HealthMonitor::paper_defaults(100.0, 1.0);
        let mut s = sample(0, 1.0);
        m.observe(s);
        s.slot = 1;
        s.masked_resources = 4;
        let events = m.observe(s);
        assert!(events
            .iter()
            .any(|e| e.rule == "fault_mask_rate" && e.to == HealthStatus::Degraded));
        // Once the window's oldest sample already includes the masking,
        // the rate decays to zero and the rule recovers.
        for t in 2..40 {
            s.slot = t;
            m.observe(s);
        }
        assert_eq!(m.overall(), HealthStatus::Ok);
        assert_eq!(m.worst(), HealthStatus::Degraded);
    }

    #[test]
    fn budget_overrun_fires_on_sustained_overspend() {
        let mut m = HealthMonitor::paper_defaults(100.0, 1.0);
        let mut s = sample(0, 1.0);
        s.avg_cost = 1.30;
        m.observe(s);
        let summary = m.summary();
        let budget = summary.rules.iter().find(|r| r.name == "budget_overrun").unwrap();
        assert_eq!(budget.status, HealthStatus::Critical);
        assert!((budget.value - 0.30).abs() < 1e-12);
    }

    #[test]
    fn assess_totals_matches_classify_semantics() {
        let clean = HealthSample { slot: 500, queue: 2.0, avg_cost: 0.5, ..Default::default() };
        assert_eq!(assess_totals(100.0, 1.0, &clean).final_status, HealthStatus::Ok);
        let faulted = HealthSample {
            slot: 500,
            queue: 2.0,
            avg_cost: 0.5,
            masked_resources: 120,
            ..Default::default()
        };
        let summary = assess_totals(100.0, 1.0, &faulted);
        assert_eq!(summary.final_status, HealthStatus::Degraded);
        assert!(summary
            .rules
            .iter()
            .any(|r| r.name == "fault_mask_rate" && r.status == HealthStatus::Degraded));
    }
}
