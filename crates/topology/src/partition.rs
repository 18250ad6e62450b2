//! Connected-component analysis of the device↔server/fronthaul resource graph.
//!
//! The per-slot P2 congestion game couples two devices only when their
//! strategy sets can share a resource: an edge server, an access link, or a
//! fronthaul link. Resources belonging to base stations whose fronthaul
//! reaches disjoint server clusters never co-occur in a strategy, so the
//! global game splits into independent subgames — one per connected component
//! of the infrastructure graph. [`ClusterPartition`] computes those
//! components with a union-find pass and classifies every device as either
//! *homed* to a single component or a *cut device* whose coverage straddles
//! several (those need bounded reconciliation after a sharded solve; see
//! DESIGN.md §5g).

use eotora_util::UnionFind;

use crate::ids::{BaseStationId, DeviceId, ServerId};
use crate::model::Topology;

/// Connected components of the base-station/server infrastructure graph,
/// plus per-device homing.
///
/// Infrastructure nodes are base stations and servers; station `k` is joined
/// with every server reachable over its fronthaul. Component ids are dense
/// (`0..num_components`) and deterministic: numbered by the smallest
/// infrastructure index in each component (stations first, then servers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPartition {
    num_components: usize,
    station_component: Vec<usize>,
    server_component: Vec<usize>,
    device_home: Vec<usize>,
    cut_devices: Vec<usize>,
    component_devices: Vec<usize>,
}

impl ClusterPartition {
    /// Runs the union-find pass over `topology`.
    ///
    /// Devices covered by stations in more than one component are recorded
    /// as cut devices and homed to the component covering them through the
    /// most stations (ties break toward the smallest component id). Devices
    /// with no covering station are homed to component 0 — they contribute
    /// no strategies, so any home is equally valid.
    pub fn compute(topology: &Topology) -> Self {
        let stations = topology.num_base_stations();
        let servers = topology.num_servers();
        let mut uf = UnionFind::new(stations + servers);
        for k in topology.base_station_ids() {
            for n in topology.servers_reachable_from(k) {
                uf.union(k.index(), stations + n.index());
            }
        }
        let ids = uf.component_ids();
        let num_components = uf.components();
        let station_component = ids[..stations].to_vec();
        let server_component = ids[stations..].to_vec();

        let mut device_home = Vec::with_capacity(topology.num_devices());
        let mut cut_devices = Vec::new();
        let mut component_devices = vec![0usize; num_components];
        // Scratch vote counter, reset sparsely between devices.
        let mut votes = vec![0usize; num_components];
        for i in topology.device_ids() {
            let covering = topology.covering_base_stations(i);
            let mut seen: Vec<usize> = Vec::new();
            for &k in &covering {
                let c = station_component[k.index()];
                if votes[c] == 0 {
                    seen.push(c);
                }
                votes[c] += 1;
            }
            seen.sort_unstable();
            let home =
                seen.iter().copied().max_by_key(|&c| (votes[c], usize::MAX - c)).unwrap_or(0);
            if seen.len() > 1 {
                cut_devices.push(i.index());
            }
            for c in seen {
                votes[c] = 0;
            }
            component_devices[home] += 1;
            device_home.push(home);
        }

        Self {
            num_components,
            station_component,
            server_component,
            device_home,
            cut_devices,
            component_devices,
        }
    }

    /// Number of infrastructure components.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Component of base station `k`.
    pub fn station_component(&self, k: BaseStationId) -> usize {
        self.station_component[k.index()]
    }

    /// Component of server `n`.
    pub fn server_component(&self, n: ServerId) -> usize {
        self.server_component[n.index()]
    }

    /// Home component of device `i`.
    pub fn device_home(&self, i: DeviceId) -> usize {
        self.device_home[i.index()]
    }

    /// Devices whose coverage spans more than one component, ascending.
    pub fn cut_devices(&self) -> &[usize] {
        &self.cut_devices
    }

    /// `true` when no device straddles components: a sharded solve is then
    /// decision-identical to the sequential one.
    pub fn is_separable(&self) -> bool {
        self.cut_devices.is_empty()
    }

    /// Devices homed to each component, indexed by component id.
    pub fn component_device_counts(&self) -> &[usize] {
        &self.component_devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::ids::ClusterId;
    use crate::model::{CoverageModel, TopologyBuilder};
    use crate::random::RandomTopologyConfig;

    /// Two disjoint islands 1800 m apart (radius 1000 m); optionally a
    /// midpoint device covered by both.
    fn two_islands(with_straddler: bool) -> Topology {
        let mut b = TopologyBuilder::new()
            .cluster(Point::new(0.0, 0.0))
            .cluster(Point::new(1800.0, 0.0))
            .server(ClusterId(0), 64, 1.8e9, 3.6e9)
            .server(ClusterId(1), 64, 1.8e9, 3.6e9)
            .base_station(50e6, 0.5e9, 10.0, vec![ClusterId(0)], Point::new(0.0, 0.0), 1000.0)
            .base_station(50e6, 0.5e9, 10.0, vec![ClusterId(1)], Point::new(1800.0, 0.0), 1000.0)
            .coverage(CoverageModel::Radius)
            .device(Point::new(10.0, 0.0))
            .device(Point::new(1790.0, 0.0));
        if with_straddler {
            // The midpoint is 900 m from both stations — inside both radii.
            b = b.device(Point::new(900.0, 0.0));
        }
        b.build().unwrap()
    }

    #[test]
    fn disjoint_islands_are_separable() {
        let p = ClusterPartition::compute(&two_islands(false));
        assert_eq!(p.num_components(), 2);
        assert!(p.is_separable());
        assert_eq!(p.station_component(BaseStationId(0)), 0);
        assert_eq!(p.station_component(BaseStationId(1)), 1);
        assert_eq!(p.server_component(ServerId(0)), 0);
        assert_eq!(p.server_component(ServerId(1)), 1);
        assert_eq!(p.device_home(DeviceId(0)), 0);
        assert_eq!(p.device_home(DeviceId(1)), 1);
        assert_eq!(p.component_device_counts(), &[1, 1]);
    }

    #[test]
    fn straddling_device_is_cut_and_homed_by_majority() {
        let p = ClusterPartition::compute(&two_islands(true));
        assert_eq!(p.num_components(), 2);
        assert!(!p.is_separable());
        assert_eq!(p.cut_devices(), &[2]);
        // The midpoint device sees one station per component: a tie, which
        // breaks to the smaller component id.
        assert_eq!(p.device_home(DeviceId(2)), 0);
    }

    #[test]
    fn full_coverage_with_multi_link_fronthaul_is_one_component() {
        // With every BS wired to both rooms the infrastructure graph is one
        // component regardless of coverage.
        let cfg = RandomTopologyConfig {
            links_per_base_station: 2,
            ..RandomTopologyConfig::paper_defaults(12)
        };
        let topo = Topology::random(&cfg, 7);
        let p = ClusterPartition::compute(&topo);
        assert_eq!(p.num_components(), 1);
        assert!(p.is_separable());
        assert_eq!(p.component_device_counts(), &[12]);
    }

    #[test]
    fn full_coverage_over_split_fronthaul_marks_every_device_cut() {
        // paper_defaults wires each BS to ONE random room; with full
        // coverage every device can reach both rooms' components, so every
        // device is a cut device — the game layer's cut-fraction heuristic
        // must then fall back to a single shard.
        let topo = Topology::random(&RandomTopologyConfig::paper_defaults(12), 7);
        let p = ClusterPartition::compute(&topo);
        if p.num_components() > 1 {
            assert_eq!(p.cut_devices().len(), 12);
            assert!(!p.is_separable());
        }
    }
}
