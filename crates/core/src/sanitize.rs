//! State sanitization: validate `β_t = (f, d, h, p)` before it reaches the
//! solver, substituting last-known-good values for corrupt entries.
//!
//! Telemetry in production arrives late, stale, or mangled. Every scalar
//! the solver square-roots or divides by must be finite and positive — a
//! single NaN spectral efficiency would otherwise propagate through the
//! game weights into every decision. [`StateSanitizer`] screens each
//! observation entry-wise against generous physical limits, repairs bad
//! entries from the previous good observation (or a deterministic default
//! when there is none yet), and counts every substitution so the
//! `fault.state_substitutions` counter reflects exactly how much of the
//! input was reconstructed.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use eotora_states::SystemState;
use serde::{Deserialize, Serialize};

use crate::checkpoint::SanitizerSnapshot;

/// Inclusive plausibility limits per state field. Deliberately generous —
/// an order of magnitude or more around the paper's §VI-A ranges — so
/// sanitization only rejects physically meaningless values, never unusual
/// but legitimate ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SanitizeLimits {
    /// Task sizes in cycles (paper: 50–200 Mcycles).
    pub task_cycles: (f64, f64),
    /// Data lengths in bits (paper: 3–10 Mb).
    pub data_bits: (f64, f64),
    /// Access spectral efficiency in bit/s/Hz (paper: 15–50).
    pub spectral_efficiency: (f64, f64),
    /// Fronthaul spectral efficiency in bit/s/Hz.
    pub fronthaul_efficiency: (f64, f64),
    /// Electricity price in $/kWh.
    pub price_per_kwh: (f64, f64),
}

impl Default for SanitizeLimits {
    fn default() -> Self {
        Self {
            task_cycles: (1e4, 1e12),
            data_bits: (1.0, 1e10),
            spectral_efficiency: (1e-3, 1e4),
            fronthaul_efficiency: (1e-3, 1e6),
            price_per_kwh: (1e-6, 100.0),
        }
    }
}

fn ok(x: f64, (lo, hi): (f64, f64)) -> bool {
    x.is_finite() && x >= lo && x <= hi
}

/// Cold-start fallbacks when a corrupt entry arrives before any good
/// observation of it: one per field, defaulting to the *scenario means* of
/// the paper's §VI-A generators. The limits in [`SanitizeLimits`] span many
/// orders of magnitude, so a range midpoint would be wildly unphysical
/// (e.g. ~3 Gcycles for a 50–200 Mcycle workload); the mean of the actual
/// generating distribution keeps a fully-corrupt first slot solvable with a
/// plausible workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SanitizeDefaults {
    /// Mean task size (paper: Uniform(50, 200) Mcycles → 125 Mcycles).
    pub task_cycles: f64,
    /// Mean data length (paper: Uniform(3, 10) Mb → 6.5 Mb).
    pub data_bits: f64,
    /// Mean access spectral efficiency (paper: Uniform(15, 50) → 32.5).
    pub spectral_efficiency: f64,
    /// Fronthaul spectral efficiency (topology default: 10 bit/s/Hz).
    pub fronthaul_efficiency: f64,
    /// Electricity price (NYISO-like trend mean: $0.05/kWh).
    pub price_per_kwh: f64,
}

impl Default for SanitizeDefaults {
    fn default() -> Self {
        Self {
            task_cycles: 125e6,
            data_bits: 6.5e6,
            spectral_efficiency: 32.5,
            fronthaul_efficiency: 10.0,
            price_per_kwh: 0.05,
        }
    }
}

/// Screens successive observations, repairing corrupt entries from the
/// last good observation. Owns no solver state; one sanitizer per run.
#[derive(Debug, Clone, Default)]
pub struct StateSanitizer {
    limits: SanitizeLimits,
    defaults: SanitizeDefaults,
    last_good: Option<SystemState>,
    total_substitutions: u64,
}

impl StateSanitizer {
    /// A sanitizer with the default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total substitutions made over the sanitizer's lifetime.
    pub fn total_substitutions(&self) -> u64 {
        self.total_substitutions
    }

    /// Serializable resume point: limits, defaults, the last-known-good
    /// observation, and the lifetime substitution count.
    pub fn snapshot(&self) -> SanitizerSnapshot {
        SanitizerSnapshot {
            limits: self.limits.clone(),
            defaults: self.defaults.clone(),
            last_good: self.last_good.clone(),
            total_substitutions: self.total_substitutions,
        }
    }

    /// Rebuilds a sanitizer from a [`SanitizerSnapshot`]; subsequent
    /// substitutions behave exactly as in the snapshotted run.
    pub fn restore(snapshot: &SanitizerSnapshot) -> Self {
        Self {
            limits: snapshot.limits.clone(),
            defaults: snapshot.defaults.clone(),
            last_good: snapshot.last_good.clone(),
            total_substitutions: snapshot.total_substitutions,
        }
    }

    /// Screens `observed`, returning a safe copy plus the number of
    /// substituted entries. Stale detection: an observation whose `slot`
    /// went backwards (or repeated) relative to the previous good one
    /// counts one substitution and has its slot forced forward, so
    /// downstream slot-keyed logic keeps advancing.
    pub fn sanitize(&mut self, observed: &SystemState) -> (SystemState, u64) {
        let mut state = observed.clone();
        let mut subs: u64 = 0;
        let limits = self.limits.clone();
        let defaults = self.defaults.clone();
        let last = self.last_good.as_ref();

        // Stale / replayed observation.
        if let Some(prev) = last {
            if state.slot <= prev.slot {
                state.slot = prev.slot + 1;
                subs += 1;
            }
        }

        let fix_vec = |field: &mut Vec<f64>,
                       prev: Option<&Vec<f64>>,
                       lim: (f64, f64),
                       fallback: f64,
                       subs: &mut u64| {
            // A mis-shaped vector cannot be repaired entry-wise: substitute
            // the whole previous field (one substitution) when available.
            if let Some(p) = prev {
                if field.len() != p.len() {
                    *field = p.clone();
                    *subs += 1;
                    return;
                }
            }
            for (j, x) in field.iter_mut().enumerate() {
                if !ok(*x, lim) {
                    *x = prev.map(|p| p[j]).filter(|&g| ok(g, lim)).unwrap_or(fallback);
                    *subs += 1;
                }
            }
        };

        fix_vec(
            &mut state.task_cycles,
            last.map(|s| &s.task_cycles),
            limits.task_cycles,
            defaults.task_cycles,
            &mut subs,
        );
        fix_vec(
            &mut state.data_bits,
            last.map(|s| &s.data_bits),
            limits.data_bits,
            defaults.data_bits,
            &mut subs,
        );
        fix_vec(
            &mut state.fronthaul_efficiency,
            last.map(|s| &s.fronthaul_efficiency),
            limits.fronthaul_efficiency,
            defaults.fronthaul_efficiency,
            &mut subs,
        );
        // The device × station spectral matrix, row-wise.
        if let Some(prev) = last {
            if state.spectral_efficiency.len() != prev.spectral_efficiency.len() {
                state.spectral_efficiency = prev.spectral_efficiency.clone();
                subs += 1;
            }
        }
        for (i, row) in state.spectral_efficiency.iter_mut().enumerate() {
            let prev_row = last.and_then(|s| s.spectral_efficiency.get(i));
            fix_vec(
                row,
                prev_row,
                limits.spectral_efficiency,
                defaults.spectral_efficiency,
                &mut subs,
            );
        }
        if !ok(state.price_per_kwh, limits.price_per_kwh) {
            state.price_per_kwh = last
                .map(|s| s.price_per_kwh)
                .filter(|&p| ok(p, limits.price_per_kwh))
                .unwrap_or(defaults.price_per_kwh);
            subs += 1;
        }

        self.total_substitutions += subs;
        self.last_good = Some(state.clone());
        (state, subs)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn good_state(slot: u64) -> SystemState {
        SystemState {
            slot,
            task_cycles: vec![1e8, 1.5e8],
            data_bits: vec![5e6, 7e6],
            spectral_efficiency: vec![vec![20.0, 30.0], vec![25.0, 35.0]],
            fronthaul_efficiency: vec![40.0, 45.0],
            price_per_kwh: 0.05,
        }
    }

    #[test]
    fn clean_state_passes_untouched() {
        let mut s = StateSanitizer::new();
        let observed = good_state(0);
        let (clean, subs) = s.sanitize(&observed);
        assert_eq!(subs, 0);
        assert_eq!(clean, observed);
        assert_eq!(s.total_substitutions(), 0);
    }

    #[test]
    fn nan_and_negative_entries_are_substituted_from_last_good() {
        let mut s = StateSanitizer::new();
        s.sanitize(&good_state(0));
        let mut bad = good_state(1);
        bad.task_cycles[0] = f64::NAN;
        bad.spectral_efficiency[1][0] = -3.0;
        bad.price_per_kwh = f64::INFINITY;
        let (clean, subs) = s.sanitize(&bad);
        assert_eq!(subs, 3);
        assert_eq!(clean.task_cycles[0], 1e8);
        assert_eq!(clean.spectral_efficiency[1][0], 25.0);
        assert_eq!(clean.price_per_kwh, 0.05);
        assert_eq!(s.total_substitutions(), 3);
    }

    #[test]
    fn cold_start_corruption_falls_back_to_defaults() {
        let mut s = StateSanitizer::new();
        let mut bad = good_state(0);
        bad.data_bits[1] = 0.0; // below the positive floor
        let (clean, subs) = s.sanitize(&bad);
        assert_eq!(subs, 1);
        assert_eq!(clean.data_bits[1], SanitizeDefaults::default().data_bits);
    }

    #[test]
    fn fully_corrupt_first_slot_yields_scenario_mean_state() {
        // The first-slot edge case: every field is NaN and there is no
        // last-known-good yet. Each entry must land on the scenario-mean
        // default (not a range midpoint), every substitution counted.
        let mut s = StateSanitizer::new();
        let bad = SystemState {
            slot: 0,
            task_cycles: vec![f64::NAN; 3],
            data_bits: vec![f64::NAN; 3],
            spectral_efficiency: vec![vec![f64::NAN; 2]; 3],
            fronthaul_efficiency: vec![f64::NAN; 2],
            price_per_kwh: f64::NAN,
        };
        let (clean, subs) = s.sanitize(&bad);
        let d = SanitizeDefaults::default();
        assert_eq!(subs, 3 + 3 + 6 + 2 + 1);
        assert_eq!(s.total_substitutions(), subs);
        assert!(clean.task_cycles.iter().all(|&x| x == d.task_cycles));
        assert!(clean.data_bits.iter().all(|&x| x == d.data_bits));
        assert!(clean
            .spectral_efficiency
            .iter()
            .all(|row| row.iter().all(|&x| x == d.spectral_efficiency)));
        assert!(clean.fronthaul_efficiency.iter().all(|&x| x == d.fronthaul_efficiency));
        assert_eq!(clean.price_per_kwh, d.price_per_kwh);
        // The repaired state is solvable input: strictly positive, finite.
        assert!(clean.task_cycles.iter().all(|&x| x.is_finite() && x > 0.0));
        // And it became the last-known-good for the next slot.
        let mut next = good_state(1);
        next.task_cycles[0] = f64::NAN;
        let (clean2, _) = s.sanitize(&next);
        assert_eq!(clean2.task_cycles[0], d.task_cycles);
    }

    #[test]
    fn snapshot_restore_round_trips_through_serde() {
        let mut s = StateSanitizer::new();
        s.sanitize(&good_state(0));
        let mut bad = good_state(1);
        bad.task_cycles[0] = f64::NAN;
        s.sanitize(&bad);
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        let snap = serde_json::from_str(&json).unwrap();
        let mut restored = StateSanitizer::restore(&snap);
        assert_eq!(restored.total_substitutions(), 1);
        // Restored sanitizer repairs from the same last-known-good.
        let mut again = good_state(2);
        again.price_per_kwh = -1.0;
        let (c1, _) = restored.sanitize(&again);
        let (c2, _) = s.sanitize(&again);
        assert_eq!(c1, c2);
    }

    #[test]
    fn stale_slot_is_forced_forward() {
        let mut s = StateSanitizer::new();
        s.sanitize(&good_state(5));
        let (clean, subs) = s.sanitize(&good_state(3));
        assert_eq!(subs, 1);
        assert_eq!(clean.slot, 6);
    }

    #[test]
    fn shape_mismatch_substitutes_whole_field() {
        let mut s = StateSanitizer::new();
        s.sanitize(&good_state(0));
        let mut bad = good_state(1);
        bad.fronthaul_efficiency = vec![40.0]; // lost an entry
        let (clean, subs) = s.sanitize(&bad);
        assert_eq!(subs, 1);
        assert_eq!(clean.fronthaul_efficiency, vec![40.0, 45.0]);
    }

    #[test]
    fn repaired_state_becomes_the_new_last_good() {
        let mut s = StateSanitizer::new();
        s.sanitize(&good_state(0));
        let mut bad = good_state(1);
        bad.task_cycles[1] = f64::NEG_INFINITY;
        let (first, _) = s.sanitize(&bad);
        // Next corrupt slot repairs from the *repaired* value.
        let mut again = good_state(2);
        again.task_cycles[1] = f64::NAN;
        let (second, _) = s.sanitize(&again);
        assert_eq!(second.task_cycles[1], first.task_cycles[1]);
    }
}
