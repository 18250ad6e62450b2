//! The static MEC network: entities, connectivity, and validation.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::geometry::Point;
use crate::ids::{BaseStationId, ClusterId, DeviceId, ServerId};

/// A base station `B_k` with its access and fronthaul link parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaseStation {
    /// Access-link bandwidth `W_k^A` in Hz shared by the devices that select
    /// this base station.
    pub access_bandwidth_hz: f64,
    /// Fronthaul bandwidth `W_k^F` in Hz toward the linked clusters.
    pub fronthaul_bandwidth_hz: f64,
    /// Fronthaul spectral efficiency `h_k^F` in bit/s/Hz (time-invariant in
    /// the paper's evaluation; the state layer may override it per slot).
    pub fronthaul_spectral_efficiency: f64,
    /// Clusters this base station's fronthaul reaches. Wired fiber BSs have
    /// exactly one; wireless mmWave BSs may list several.
    pub linked_clusters: Vec<ClusterId>,
    /// Physical position (used by the radius coverage and mobility models).
    pub position: Point,
    /// Coverage radius in meters for [`CoverageModel::Radius`].
    pub coverage_radius_m: f64,
}

/// An edge server `S_n` (its energy model lives in `eotora-energy`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeServer {
    /// The room/cluster hosting this server.
    pub cluster: ClusterId,
    /// Number of CPU cores; the effective compute rate is
    /// `cores × clock frequency` (cycles/s).
    pub cores: u32,
    /// Lowest allowed clock frequency `F_n^L` in Hz.
    pub freq_min_hz: f64,
    /// Highest allowed clock frequency `F_n^U` in Hz.
    pub freq_max_hz: f64,
}

impl EdgeServer {
    /// Ratio `F_n^U / F_n^L`, the per-server factor entering the paper's
    /// approximation constant `R_F = max_n F_n^U/F_n^L` (Theorem 3).
    pub fn frequency_ratio(&self) -> f64 {
        self.freq_max_hz / self.freq_min_hz
    }
}

/// A room hosting a cluster of edge servers (`S_m` in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Servers hosted in this room.
    pub servers: Vec<ServerId>,
    /// Physical position of the room.
    pub position: Point,
}

/// A mobile device `D_i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobileDevice {
    /// Current position (the mobility model updates this over time).
    pub position: Point,
}

/// How device↔base-station coverage is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CoverageModel {
    /// Every device is covered by every base station (the paper's §VI-A
    /// evaluation setting).
    #[default]
    Full,
    /// A device is covered iff it lies within the base station's
    /// `coverage_radius_m` (used by the mobility example).
    Radius,
}

/// Validation failures for a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// The topology must contain at least one of each entity kind.
    Empty {
        /// Which collection was empty.
        what: &'static str,
    },
    /// A referenced id is out of range.
    DanglingReference {
        /// Description of the offending reference.
        context: String,
    },
    /// A numeric parameter is non-positive or otherwise out of its domain.
    BadParameter {
        /// Description of the offending parameter.
        context: String,
    },
    /// A server's cluster membership disagrees with the cluster's list.
    InconsistentMembership {
        /// The offending server.
        server: ServerId,
    },
    /// A base station has no linked cluster (it could never carry traffic).
    UnconnectedBaseStation {
        /// The offending base station.
        base_station: BaseStationId,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty { what } => write!(f, "topology has no {what}"),
            Self::DanglingReference { context } => write!(f, "dangling reference: {context}"),
            Self::BadParameter { context } => write!(f, "bad parameter: {context}"),
            Self::InconsistentMembership { server } => {
                write!(f, "server {server} cluster membership is inconsistent")
            }
            Self::UnconnectedBaseStation { base_station } => {
                write!(f, "base station {base_station} is linked to no cluster")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The full static network (paper Fig. 1).
///
/// Construct via [`TopologyBuilder`] or [`Topology::random`]. All accessors
/// are index-based and panic on out-of-range ids (ids are created by this
/// crate, so out-of-range means a logic error, not bad input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    base_stations: Vec<BaseStation>,
    clusters: Vec<Cluster>,
    servers: Vec<EdgeServer>,
    devices: Vec<MobileDevice>,
    coverage: CoverageModel,
}

impl Topology {
    /// Number of base stations `K`.
    pub fn num_base_stations(&self) -> usize {
        self.base_stations.len()
    }

    /// Number of edge servers `N`.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of clusters/rooms `M`.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of mobile devices `I`.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The coverage model in force.
    pub fn coverage(&self) -> CoverageModel {
        self.coverage
    }

    /// Base station `k`.
    pub fn base_station(&self, k: BaseStationId) -> &BaseStation {
        &self.base_stations[k.index()]
    }

    /// Edge server `n`.
    pub fn server(&self, n: ServerId) -> &EdgeServer {
        &self.servers[n.index()]
    }

    /// Cluster `m`.
    pub fn cluster(&self, m: ClusterId) -> &Cluster {
        &self.clusters[m.index()]
    }

    /// Mobile device `i`.
    pub fn device(&self, i: DeviceId) -> &MobileDevice {
        &self.devices[i.index()]
    }

    /// Iterates over all base-station ids.
    pub fn base_station_ids(&self) -> impl Iterator<Item = BaseStationId> + '_ {
        (0..self.base_stations.len()).map(BaseStationId)
    }

    /// Iterates over all server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.servers.len()).map(ServerId)
    }

    /// Iterates over all device ids.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.devices.len()).map(DeviceId)
    }

    /// Servers reachable through base station `k` — the set `N_i(x_t)` of
    /// eq. (3) for a device whose base-station choice is `k`.
    ///
    /// Sorted ascending; deterministic across runs.
    pub fn servers_reachable_from(&self, k: BaseStationId) -> Vec<ServerId> {
        let mut out = BTreeSet::new();
        for &m in &self.base_station(k).linked_clusters {
            for &s in &self.cluster(m).servers {
                out.insert(s);
            }
        }
        out.into_iter().collect()
    }

    /// Base stations covering device `i` under the active coverage model.
    pub fn covering_base_stations(&self, i: DeviceId) -> Vec<BaseStationId> {
        match self.coverage {
            CoverageModel::Full => self.base_station_ids().collect(),
            CoverageModel::Radius => {
                let pos = self.device(i).position;
                self.base_station_ids()
                    .filter(|&k| {
                        let bs = self.base_station(k);
                        bs.position.distance_to(pos) <= bs.coverage_radius_m
                    })
                    .collect()
            }
        }
    }

    /// Maximum `F_n^U / F_n^L` across servers — the paper's `R_F` constant.
    pub fn max_frequency_ratio(&self) -> f64 {
        self.servers.iter().map(EdgeServer::frequency_ratio).fold(1.0, f64::max)
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`TopologyError`] found: empty collections, dangling
    /// ids, inconsistent cluster membership, non-positive bandwidths or
    /// reversed frequency bounds, or base stations with no fronthaul link.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.base_stations.is_empty() {
            return Err(TopologyError::Empty { what: "base stations" });
        }
        if self.clusters.is_empty() {
            return Err(TopologyError::Empty { what: "clusters" });
        }
        if self.servers.is_empty() {
            return Err(TopologyError::Empty { what: "servers" });
        }
        if self.devices.is_empty() {
            return Err(TopologyError::Empty { what: "devices" });
        }
        for (k, bs) in self.base_stations.iter().enumerate() {
            if bs.linked_clusters.is_empty() {
                return Err(TopologyError::UnconnectedBaseStation {
                    base_station: BaseStationId(k),
                });
            }
            for &m in &bs.linked_clusters {
                if m.index() >= self.clusters.len() {
                    return Err(TopologyError::DanglingReference {
                        context: format!("base station B{k} links missing cluster {m}"),
                    });
                }
            }
            if bs.access_bandwidth_hz <= 0.0
                || bs.fronthaul_bandwidth_hz <= 0.0
                || bs.access_bandwidth_hz.is_nan()
                || bs.fronthaul_bandwidth_hz.is_nan()
            {
                return Err(TopologyError::BadParameter {
                    context: format!("base station B{k} has non-positive bandwidth"),
                });
            }
            if bs.fronthaul_spectral_efficiency <= 0.0 || bs.fronthaul_spectral_efficiency.is_nan()
            {
                return Err(TopologyError::BadParameter {
                    context: format!("base station B{k} has non-positive fronthaul efficiency"),
                });
            }
        }
        for (n, srv) in self.servers.iter().enumerate() {
            if srv.cluster.index() >= self.clusters.len() {
                return Err(TopologyError::DanglingReference {
                    context: format!("server S{n} references missing cluster {}", srv.cluster),
                });
            }
            if !self.clusters[srv.cluster.index()].servers.contains(&ServerId(n)) {
                return Err(TopologyError::InconsistentMembership { server: ServerId(n) });
            }
            if srv.freq_min_hz <= 0.0
                || srv.freq_min_hz.is_nan()
                || srv.freq_max_hz < srv.freq_min_hz
            {
                return Err(TopologyError::BadParameter {
                    context: format!("server S{n} frequency bounds invalid"),
                });
            }
            if srv.cores == 0 {
                return Err(TopologyError::BadParameter {
                    context: format!("server S{n} has zero cores"),
                });
            }
        }
        for (m, cl) in self.clusters.iter().enumerate() {
            for &s in &cl.servers {
                if s.index() >= self.servers.len() {
                    return Err(TopologyError::DanglingReference {
                        context: format!("cluster R{m} lists missing server {s}"),
                    });
                }
                if self.servers[s.index()].cluster.index() != m {
                    return Err(TopologyError::InconsistentMembership { server: s });
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Topology`] (C-BUILDER).
///
/// # Examples
///
/// ```
/// use eotora_topology::{TopologyBuilder, Point};
///
/// let topo = TopologyBuilder::new()
///     .cluster(Point::new(0.0, 0.0))
///     .server(0.into(), 64, 1.8e9, 3.6e9)
///     .base_station(50e6, 0.5e9, 10.0, vec![0.into()], Point::new(0.0, 0.0), 500.0)
///     .device(Point::new(10.0, 10.0))
///     .build()
///     .unwrap();
/// assert_eq!(topo.num_servers(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    base_stations: Vec<BaseStation>,
    clusters: Vec<Cluster>,
    servers: Vec<EdgeServer>,
    devices: Vec<MobileDevice>,
    coverage: CoverageModel,
}

impl TopologyBuilder {
    /// Creates an empty builder with [`CoverageModel::Full`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cluster/room at `position`; returns the builder for chaining.
    pub fn cluster(mut self, position: Point) -> Self {
        self.clusters.push(Cluster { servers: Vec::new(), position });
        self
    }

    /// Adds a server to `cluster` with the given core count and frequency
    /// bounds (Hz); registers it in the cluster's member list.
    pub fn server(
        mut self,
        cluster: ClusterId,
        cores: u32,
        freq_min_hz: f64,
        freq_max_hz: f64,
    ) -> Self {
        let id = ServerId(self.servers.len());
        self.servers.push(EdgeServer { cluster, cores, freq_min_hz, freq_max_hz });
        if let Some(c) = self.clusters.get_mut(cluster.index()) {
            c.servers.push(id);
        }
        self
    }

    /// Adds a base station.
    #[allow(clippy::too_many_arguments)]
    pub fn base_station(
        mut self,
        access_bandwidth_hz: f64,
        fronthaul_bandwidth_hz: f64,
        fronthaul_spectral_efficiency: f64,
        linked_clusters: Vec<ClusterId>,
        position: Point,
        coverage_radius_m: f64,
    ) -> Self {
        self.base_stations.push(BaseStation {
            access_bandwidth_hz,
            fronthaul_bandwidth_hz,
            fronthaul_spectral_efficiency,
            linked_clusters,
            position,
            coverage_radius_m,
        });
        self
    }

    /// Adds a mobile device at `position`.
    pub fn device(mut self, position: Point) -> Self {
        self.devices.push(MobileDevice { position });
        self
    }

    /// Sets the coverage model.
    pub fn coverage(mut self, coverage: CoverageModel) -> Self {
        self.coverage = coverage;
        self
    }

    /// Finalizes and validates the topology.
    ///
    /// # Errors
    ///
    /// Propagates [`Topology::validate`] failures.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let topo = Topology {
            base_stations: self.base_stations,
            clusters: self.clusters,
            servers: self.servers,
            devices: self.devices,
            coverage: self.coverage,
        };
        topo.validate()?;
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TopologyBuilder {
        TopologyBuilder::new()
            .cluster(Point::new(0.0, 0.0))
            .cluster(Point::new(100.0, 0.0))
            .server(ClusterId(0), 64, 1.8e9, 3.6e9)
            .server(ClusterId(1), 128, 1.8e9, 3.6e9)
            .base_station(50e6, 0.5e9, 10.0, vec![ClusterId(0)], Point::new(0.0, 0.0), 300.0)
            .base_station(
                80e6,
                1.0e9,
                10.0,
                vec![ClusterId(0), ClusterId(1)],
                Point::new(50.0, 0.0),
                300.0,
            )
            .device(Point::new(1.0, 1.0))
            .device(Point::new(400.0, 0.0))
    }

    #[test]
    fn build_and_counts() {
        let t = tiny().build().unwrap();
        assert_eq!(t.num_base_stations(), 2);
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(t.num_servers(), 2);
        assert_eq!(t.num_devices(), 2);
    }

    #[test]
    fn reachability_follows_fronthaul_links() {
        let t = tiny().build().unwrap();
        assert_eq!(t.servers_reachable_from(BaseStationId(0)), vec![ServerId(0)]);
        assert_eq!(t.servers_reachable_from(BaseStationId(1)), vec![ServerId(0), ServerId(1)]);
    }

    #[test]
    fn full_coverage_lists_all_stations() {
        let t = tiny().build().unwrap();
        assert_eq!(t.covering_base_stations(DeviceId(1)), vec![BaseStationId(0), BaseStationId(1)]);
    }

    #[test]
    fn radius_coverage_filters_by_distance() {
        let t = tiny().coverage(CoverageModel::Radius).build().unwrap();
        // Device 0 at (1,1) is within 300m of both stations.
        assert_eq!(t.covering_base_stations(DeviceId(0)).len(), 2);
        // Device 1 at (400,0) is outside both radii.
        assert!(t.covering_base_stations(DeviceId(1)).is_empty());
    }

    #[test]
    fn frequency_ratio() {
        let t = tiny().build().unwrap();
        assert!((t.max_frequency_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_unlinked_base_station() {
        let err = TopologyBuilder::new()
            .cluster(Point::default())
            .server(ClusterId(0), 64, 1.0e9, 2.0e9)
            .base_station(1e6, 1e6, 10.0, vec![], Point::default(), 1.0)
            .device(Point::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::UnconnectedBaseStation { .. }));
    }

    #[test]
    fn validation_catches_dangling_cluster() {
        let err = TopologyBuilder::new()
            .cluster(Point::default())
            .server(ClusterId(0), 64, 1.0e9, 2.0e9)
            .base_station(1e6, 1e6, 10.0, vec![ClusterId(9)], Point::default(), 1.0)
            .device(Point::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::DanglingReference { .. }));
    }

    #[test]
    fn validation_catches_bad_frequencies() {
        let err = TopologyBuilder::new()
            .cluster(Point::default())
            .server(ClusterId(0), 64, 3.0e9, 2.0e9)
            .base_station(1e6, 1e6, 10.0, vec![ClusterId(0)], Point::default(), 1.0)
            .device(Point::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::BadParameter { .. }));
    }

    #[test]
    fn validation_catches_empty_collections() {
        let err = TopologyBuilder::new().build().unwrap_err();
        assert!(matches!(err, TopologyError::Empty { .. }));
    }

    #[test]
    fn validation_catches_zero_cores() {
        let err = TopologyBuilder::new()
            .cluster(Point::default())
            .server(ClusterId(0), 0, 1.0e9, 2.0e9)
            .base_station(1e6, 1e6, 10.0, vec![ClusterId(0)], Point::default(), 1.0)
            .device(Point::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::BadParameter { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TopologyError::UnconnectedBaseStation { base_station: BaseStationId(2) };
        assert!(e.to_string().contains("B2"));
    }

    #[test]
    fn serde_roundtrip() {
        let t = tiny().build().unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
