//! Time-varying system states of the MEC system (paper §III-B.1).
//!
//! At each slot the controller observes four states
//! `β_t = (f_t, d_t, h_t, p_t)`:
//!
//! * `f_t` — per-device task sizes in CPU cycles,
//! * `d_t` — per-device input-data lengths in bits,
//! * `h_t` — access-channel spectral efficiencies (device × base station),
//! * `p_t` — electricity price.
//!
//! The paper's key modeling assumption — motivated by NYISO price data and a
//! YouTube view-count trace — is that states are **non-iid**: each is a
//! *periodic trend plus iid noise* (`p_t = p̄_t + e_t^p`, etc., period `D`).
//! [`process::PeriodicProcess`] implements exactly that decomposition; the
//! embedded trends live in [`profiles`]. For the evaluation settings the
//! paper instead draws `f`, `d`, `h` uniformly per slot (§VI-A), which
//! [`workload::WorkloadModel::uniform_iid`] and
//! [`channel::UniformChannel`] provide.
//!
//! [`StateProvider`] bundles the four generators into the single `β_t`
//! object ([`SystemState`]) consumed by the controller in `eotora-core`.
//!
//! # Examples
//!
//! ```
//! use eotora_states::{PaperStateConfig, StateProvider};
//! use eotora_topology::{RandomTopologyConfig, Topology};
//!
//! let topo = Topology::random(&RandomTopologyConfig::paper_defaults(20), 1);
//! let mut provider = StateProvider::paper(&topo, &PaperStateConfig::default(), 7);
//! let beta = provider.observe(0, &topo);
//! assert_eq!(beta.task_cycles.len(), 20);
//! assert!(beta.price_per_kwh > 0.0);
//! ```

pub mod channel;
pub mod mobility;
pub mod price;
pub mod process;
pub mod profiles;
pub mod workload;

use serde::{Deserialize, Serialize};

use eotora_topology::Topology;
use eotora_util::rng::Pcg32;

pub use channel::{ChannelModel, GaussMarkovChannel, MobilityChannel, UniformChannel};
pub use price::PriceModel;
pub use process::PeriodicProcess;
pub use workload::{WorkloadModel, WorkloadSample};

/// The complete observed state `β_t` for one slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemState {
    /// Slot index `t`.
    pub slot: u64,
    /// Task sizes `f_{i,t}` in CPU cycles, indexed by device.
    pub task_cycles: Vec<f64>,
    /// Input data lengths `d_{i,t}` in bits, indexed by device.
    pub data_bits: Vec<f64>,
    /// Access spectral efficiency `h_{i,k,t}` in bit/s/Hz;
    /// `spectral_efficiency[i][k]` is device `i` → base station `k`.
    pub spectral_efficiency: Vec<Vec<f64>>,
    /// Fronthaul spectral efficiency `h_k^F(t)` per base station. Constant in
    /// the paper's evaluation, but the formulation allows time variation,
    /// which this field supports.
    pub fronthaul_efficiency: Vec<f64>,
    /// Electricity price `p_t` in $/kWh.
    pub price_per_kwh: f64,
}

/// Configuration of the paper's state generators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperStateConfig {
    /// Uniform range of task sizes in CPU cycles (paper: 50–200 Mcycles).
    pub task_cycles_range: (f64, f64),
    /// Uniform range of data lengths in bits (paper: 3–10 Mb).
    pub data_bits_range: (f64, f64),
    /// Uniform range of access spectral efficiency in bit/s/Hz
    /// (paper: 15–50).
    pub spectral_efficiency_range: (f64, f64),
    /// Relative iid noise (std/mean) added to the periodic price trend.
    pub price_noise_rel: f64,
    /// Period `D` of the price trend in slots (24 = hourly slots, daily
    /// pattern).
    pub period: usize,
}

impl Default for PaperStateConfig {
    fn default() -> Self {
        Self {
            task_cycles_range: (50e6, 200e6),
            data_bits_range: (3e6, 10e6),
            spectral_efficiency_range: (15.0, 50.0),
            price_noise_rel: 0.10,
            period: 24,
        }
    }
}

/// Produces `β_t` for successive slots by combining workload, channel, and
/// price generators.
#[derive(Debug)]
pub struct StateProvider {
    workload: WorkloadModel,
    channel: Box<dyn ChannelModel>,
    price: PriceModel,
    /// Optional per-slot fronthaul-efficiency process (index = base station);
    /// `None` uses the topology's static values.
    fronthaul: Option<Vec<PeriodicProcess>>,
}

impl StateProvider {
    /// Builds the paper's §VI-A evaluation generators: uniform-iid workloads
    /// and channels, NYISO-shaped periodic price.
    pub fn paper(topo: &Topology, config: &PaperStateConfig, seed: u64) -> Self {
        let mut rng = Pcg32::seed_stream(seed, 0x57A7E);
        let workload = WorkloadModel::uniform_iid(
            topo.num_devices(),
            config.task_cycles_range,
            config.data_bits_range,
            rng.fork(1),
        );
        let channel = Box::new(UniformChannel::new(
            topo.num_devices(),
            topo.num_base_stations(),
            config.spectral_efficiency_range,
            rng.fork(2),
        ));
        let price = PriceModel::nyiso_like(config.period, config.price_noise_rel, rng.fork(3));
        Self { workload, channel, price, fronthaul: None }
    }

    /// Builds a provider with custom components.
    pub fn new(workload: WorkloadModel, channel: Box<dyn ChannelModel>, price: PriceModel) -> Self {
        Self { workload, channel, price, fronthaul: None }
    }

    /// Enables time-varying fronthaul efficiency, one process per base
    /// station (the paper's "the algorithm can handle the case that `h_k^F`
    /// varies over time").
    ///
    /// # Panics
    ///
    /// Panics if the number of processes differs from the number of base
    /// stations at observation time.
    pub fn with_fronthaul_processes(mut self, processes: Vec<PeriodicProcess>) -> Self {
        self.fronthaul = Some(processes);
        self
    }

    /// Observes `β_t` for slot `t`.
    pub fn observe(&mut self, slot: u64, topo: &Topology) -> SystemState {
        let WorkloadSample { task_cycles, data_bits } = self.workload.sample(slot);
        let spectral_efficiency = self.channel.sample(slot, topo);
        let fronthaul_efficiency = match &mut self.fronthaul {
            Some(procs) => {
                assert_eq!(
                    procs.len(),
                    topo.num_base_stations(),
                    "fronthaul processes must match base-station count"
                );
                procs.iter_mut().map(|p| p.sample(slot)).collect()
            }
            None => topo
                .base_station_ids()
                .map(|k| topo.base_station(k).fronthaul_spectral_efficiency)
                .collect(),
        };
        SystemState {
            slot,
            task_cycles,
            data_bits,
            spectral_efficiency,
            fronthaul_efficiency,
            price_per_kwh: self.price.sample(slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_topology::RandomTopologyConfig;

    fn topo() -> Topology {
        Topology::random(&RandomTopologyConfig::paper_defaults(10), 3)
    }

    #[test]
    fn paper_provider_shapes() {
        let t = topo();
        let mut p = StateProvider::paper(&t, &PaperStateConfig::default(), 1);
        let s = p.observe(5, &t);
        assert_eq!(s.slot, 5);
        assert_eq!(s.task_cycles.len(), 10);
        assert_eq!(s.data_bits.len(), 10);
        assert_eq!(s.spectral_efficiency.len(), 10);
        assert_eq!(s.spectral_efficiency[0].len(), 6);
        assert_eq!(s.fronthaul_efficiency.len(), 6);
    }

    #[test]
    fn paper_ranges_respected() {
        let t = topo();
        let mut p = StateProvider::paper(&t, &PaperStateConfig::default(), 2);
        for slot in 0..50 {
            let s = p.observe(slot, &t);
            assert!(s.task_cycles.iter().all(|&f| (50e6..=200e6).contains(&f)));
            assert!(s.data_bits.iter().all(|&d| (3e6..=10e6).contains(&d)));
            for row in &s.spectral_efficiency {
                assert!(row.iter().all(|&h| (15.0..=50.0).contains(&h)));
            }
            assert!(s.price_per_kwh > 0.0);
        }
    }

    #[test]
    fn static_fronthaul_matches_topology() {
        let t = topo();
        let mut p = StateProvider::paper(&t, &PaperStateConfig::default(), 2);
        let s = p.observe(0, &t);
        assert!(s.fronthaul_efficiency.iter().all(|&h| h == 10.0));
    }

    #[test]
    fn dynamic_fronthaul_process() {
        let t = topo();
        let procs: Vec<PeriodicProcess> = (0..t.num_base_stations())
            .map(|k| PeriodicProcess::new(vec![8.0 + k as f64, 12.0], 0.0, Pcg32::seed(k as u64)))
            .collect();
        let mut p = StateProvider::paper(&t, &PaperStateConfig::default(), 2)
            .with_fronthaul_processes(procs);
        let s0 = p.observe(0, &t);
        let s1 = p.observe(1, &t);
        assert_eq!(s0.fronthaul_efficiency[0], 8.0);
        assert_eq!(s1.fronthaul_efficiency[0], 12.0);
        assert_eq!(s0.fronthaul_efficiency[3], 11.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = topo();
        let mut a = StateProvider::paper(&t, &PaperStateConfig::default(), 9);
        let mut b = StateProvider::paper(&t, &PaperStateConfig::default(), 9);
        for slot in 0..10 {
            assert_eq!(a.observe(slot, &t), b.observe(slot, &t));
        }
    }
}
