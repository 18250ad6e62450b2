//! Per-device workload generation: task sizes `f_{i,t}` and data lengths
//! `d_{i,t}`.
//!
//! Two modes are provided:
//!
//! * [`WorkloadModel::uniform_iid`] — the §VI-A evaluation setting: each slot
//!   draws `f ~ U[50, 200] Mcycles` and `d ~ U[3, 10] Mb` independently per
//!   device.
//! * [`WorkloadModel::diurnal`] — the §III-A *model*: a periodic diurnal
//!   trend (`f̄_{i,t}`, `d̄_{i,t}`) plus iid noise, reproducing the
//!   non-iid structure of the paper's Fig. 2 trace.

use eotora_util::rng::Pcg32;
use serde::{Deserialize, Serialize};

use crate::process::PeriodicProcess;
use crate::profiles::DIURNAL_DEMAND_24H;

/// One slot's workload across all devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSample {
    /// `f_{i,t}` in CPU cycles, indexed by device.
    pub task_cycles: Vec<f64>,
    /// `d_{i,t}` in bits, indexed by device.
    pub data_bits: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Mode {
    UniformIid { cycles_range: (f64, f64), bits_range: (f64, f64), rng: Pcg32 },
    Diurnal { cycles: Vec<PeriodicProcess>, bits: Vec<PeriodicProcess> },
}

/// Generates `(f_t, d_t)` for successive slots.
///
/// # Examples
///
/// ```
/// use eotora_states::workload::WorkloadModel;
/// use eotora_util::rng::Pcg32;
///
/// let mut w = WorkloadModel::uniform_iid(4, (50e6, 200e6), (3e6, 10e6), Pcg32::seed(1));
/// let s = w.sample(0);
/// assert_eq!(s.task_cycles.len(), 4);
/// assert!(s.task_cycles.iter().all(|&f| (50e6..=200e6).contains(&f)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    num_devices: usize,
    mode: Mode,
}

impl WorkloadModel {
    /// Uniform iid draws per slot and device (the paper's evaluation mode).
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0` or a range is reversed/non-positive.
    pub fn uniform_iid(
        num_devices: usize,
        cycles_range: (f64, f64),
        bits_range: (f64, f64),
        rng: Pcg32,
    ) -> Self {
        assert!(num_devices > 0, "need at least one device");
        assert!(0.0 < cycles_range.0 && cycles_range.0 <= cycles_range.1, "invalid cycles range");
        assert!(0.0 < bits_range.0 && bits_range.0 <= bits_range.1, "invalid bits range");
        Self { num_devices, mode: Mode::UniformIid { cycles_range, bits_range, rng } }
    }

    /// Diurnal trend × per-device base demand, plus relative iid noise — the
    /// non-iid model of §III-A. `period` slots per day; base demands are
    /// drawn once per device from the given ranges.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0`, `period == 0`, or a range is invalid.
    pub fn diurnal(
        num_devices: usize,
        period: usize,
        mean_cycles_range: (f64, f64),
        mean_bits_range: (f64, f64),
        noise_rel: f64,
        mut rng: Pcg32,
    ) -> Self {
        assert!(num_devices > 0, "need at least one device");
        assert!(period > 0, "period must be positive");
        let resample = |s: usize| {
            let pos = s as f64 * 24.0 / period as f64;
            let lo = pos.floor() as usize % 24;
            let hi = (lo + 1) % 24;
            let frac = pos - pos.floor();
            DIURNAL_DEMAND_24H[lo] * (1.0 - frac) + DIURNAL_DEMAND_24H[hi] * frac
        };
        let shape: Vec<f64> = (0..period).map(resample).collect();
        let mut cycles = Vec::with_capacity(num_devices);
        let mut bits = Vec::with_capacity(num_devices);
        for i in 0..num_devices {
            let base_f = rng.uniform_in(mean_cycles_range.0, mean_cycles_range.1);
            let base_d = rng.uniform_in(mean_bits_range.0, mean_bits_range.1);
            let trend_f: Vec<f64> = shape.iter().map(|&m| m * base_f).collect();
            let trend_d: Vec<f64> = shape.iter().map(|&m| m * base_d).collect();
            cycles.push(PeriodicProcess::new(trend_f, noise_rel, rng.fork(2 * i as u64)));
            bits.push(PeriodicProcess::new(trend_d, noise_rel, rng.fork(2 * i as u64 + 1)));
        }
        Self { num_devices, mode: Mode::Diurnal { cycles, bits } }
    }

    /// Number of devices this model generates for.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Draws `(f_t, d_t)` for slot `t`.
    pub fn sample(&mut self, slot: u64) -> WorkloadSample {
        match &mut self.mode {
            Mode::UniformIid { cycles_range, bits_range, rng } => {
                let task_cycles = (0..self.num_devices)
                    .map(|_| rng.uniform_in(cycles_range.0, cycles_range.1))
                    .collect();
                let data_bits = (0..self.num_devices)
                    .map(|_| rng.uniform_in(bits_range.0, bits_range.1))
                    .collect();
                WorkloadSample { task_cycles, data_bits }
            }
            Mode::Diurnal { cycles, bits } => WorkloadSample {
                task_cycles: cycles.iter_mut().map(|p| p.sample(slot)).collect(),
                data_bits: bits.iter_mut().map(|p| p.sample(slot)).collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_util::stats::Summary;

    #[test]
    fn uniform_ranges() {
        let mut w = WorkloadModel::uniform_iid(8, (50e6, 200e6), (3e6, 10e6), Pcg32::seed(1));
        for t in 0..100 {
            let s = w.sample(t);
            assert!(s.task_cycles.iter().all(|&f| (50e6..=200e6).contains(&f)));
            assert!(s.data_bits.iter().all(|&d| (3e6..=10e6).contains(&d)));
        }
    }

    #[test]
    fn uniform_mean_matches_midpoint() {
        let mut w = WorkloadModel::uniform_iid(1, (100.0, 200.0), (1.0, 2.0), Pcg32::seed(2));
        let xs: Vec<f64> = (0..50_000).map(|t| w.sample(t).task_cycles[0]).collect();
        let s = Summary::from_slice(&xs);
        assert!((s.mean - 150.0).abs() < 1.0, "mean {}", s.mean);
    }

    #[test]
    fn diurnal_tracks_demand_shape() {
        let mut w = WorkloadModel::diurnal(3, 24, (100e6, 100e6), (5e6, 5e6), 0.0, Pcg32::seed(3));
        // Noise-free: hour 19 (peak 1.50) demand > hour 3 (trough 0.38).
        let peak = w.sample(19);
        let trough = w.sample(3);
        for i in 0..3 {
            assert!(peak.task_cycles[i] > trough.task_cycles[i]);
            assert!(peak.data_bits[i] > trough.data_bits[i]);
        }
    }

    #[test]
    fn diurnal_is_periodic_without_noise() {
        let mut w = WorkloadModel::diurnal(2, 24, (80e6, 120e6), (3e6, 10e6), 0.0, Pcg32::seed(4));
        let a = w.sample(5);
        let b = w.sample(5 + 24);
        assert_eq!(a, b);
    }

    #[test]
    fn devices_have_distinct_bases() {
        let mut w = WorkloadModel::diurnal(4, 24, (50e6, 200e6), (3e6, 10e6), 0.0, Pcg32::seed(5));
        let s = w.sample(0);
        let all_same = s.task_cycles.windows(2).all(|p| p[0] == p[1]);
        assert!(!all_same, "devices should draw different base demands");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        WorkloadModel::uniform_iid(0, (1.0, 2.0), (1.0, 2.0), Pcg32::seed(0));
    }

    #[test]
    #[should_panic(expected = "invalid cycles range")]
    fn reversed_range_panics() {
        WorkloadModel::uniform_iid(1, (2.0, 1.0), (1.0, 2.0), Pcg32::seed(0));
    }
}
