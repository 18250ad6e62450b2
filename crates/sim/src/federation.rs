//! Federated multi-region control: N independent per-region controllers
//! sharing one fleet energy budget over an unreliable peer link.
//!
//! Each region runs its own [`StepDriver`] (own topology island, own
//! state stream, own virtual queue) against a *share* of the fleet budget
//! `C̄`. Every `sync_every` slots the regions exchange epoch-stamped
//! [`QueueGossip`] frames through a seeded [`LinkFault`] layer and
//! re-apportion the budget with the configured
//! [`RebalancePolicy`] (see [`eotora_federation`] for the protocol
//! itself: freshness, retry with backoff, and the stale → partitioned →
//! heal degradation ladder).
//!
//! Two properties pin the design, both gated in CI:
//!
//! * **Fixed-share identity** — the budget enters the per-slot solve only
//!   through the virtual-queue drift, so a clean-link federation under
//!   [`RebalancePolicy::Fixed`] is *decision-identical* to N independent
//!   fixed-budget runs ([`run_standalone`]).
//! * **Durable lock-step** — all regions checkpoint on the same cadence
//!   and the federation's own state (nodes + link-fault buffer) snapshots
//!   right after them, with sync boundaries processed at the *start* of a
//!   slot; killing the whole federation mid-partition and resuming
//!   reproduces every decision, series value, and counter bit-exactly.
//!
//! Gossip frames handed to the in-process bus are always drained at the
//! same boundary; frames in flight *across* slots live only in the fault
//! layer's serializable buffer — which is why the bus itself never needs
//! checkpointing.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use eotora_core::system::{MecSystem, SystemConfig};
use eotora_durability::{read_snapshot, write_atomic, write_snapshot, DurabilityError};
use eotora_federation::{
    FederationNode, InProcessBus, LinkFault, LinkFaultConfig, LinkFaultState, NodeConfig,
    NodeState, PeerBus, QueueGossip, RebalancePolicy,
};
use eotora_states::StateProvider;
use eotora_topology::{region_devices, RandomTopologyConfig};
use serde::{Deserialize, Serialize};

use crate::durable::{open_session, DurabilityConfig, RunManifest};
use crate::engine::{DriverMode, DriverTuning, StepDriver};
use crate::runner::SimulationResult;
use crate::scenario::Scenario;

/// Version of `federation.json`; bump on incompatible layout changes.
pub const FED_MANIFEST_VERSION: u32 = 1;

/// Schema identifier under which federation snapshots are written.
/// v2: node state carries confirmed/pending share rounds (two-phase
/// rebalance protocol) instead of a single last-agreed share.
const FED_SNAPSHOT_SCHEMA: &str = "eotora.fed.v2";

const FED_SNAPSHOT_FILE: &str = "federation.bin";
const FED_MANIFEST_FILE: &str = "federation.json";

/// A federated multi-region run: fleet shape, budget, and protocol knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// Number of regions (each an island of the fleet topology).
    pub regions: u32,
    /// Total devices across the fleet, split round-robin over regions.
    pub total_devices: usize,
    /// Slots to run.
    pub horizon: u64,
    /// Base seed; each region derives its own system/state seed from it.
    pub seed: u64,
    /// Sync-epoch cadence in slots (gossip exchanged every `sync_every`
    /// slots, at the start of the boundary slot).
    pub sync_every: u64,
    /// The *fleet* time-average budget `C̄` ($/slot) the shares split.
    pub total_budget: f64,
    /// How shares are recomputed each epoch.
    pub policy: RebalancePolicy,
    /// Missed epochs tolerated before a peer's level counts as stale.
    pub stale_after: u64,
    /// Missed epochs after which a peer counts as partitioned.
    pub partition_after: u64,
    /// Initial retransmission backoff, in epochs.
    pub backoff_base: u64,
    /// Retransmission backoff cap, in epochs.
    pub backoff_max: u64,
}

impl FederationConfig {
    /// A paper-default federation: the fleet budget of the equivalent
    /// single-controller run (see [`SystemConfig::paper_defaults`]) split
    /// queue-proportionally with a floor of half the equal share, syncing
    /// every 10 slots over a 240-slot horizon.
    pub fn new(regions: u32, total_devices: usize, seed: u64) -> Self {
        Self {
            regions,
            total_devices,
            horizon: 240,
            seed,
            sync_every: 10,
            total_budget: SystemConfig::paper_defaults(total_devices).budget_per_slot,
            policy: RebalancePolicy::QueueProportional { floor: 0.5 / f64::from(regions.max(1)) },
            stale_after: 0,
            partition_after: 2,
            backoff_base: 1,
            backoff_max: 8,
        }
    }

    /// Sets the horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the sync-epoch cadence.
    pub fn with_sync_every(mut self, sync_every: u64) -> Self {
        self.sync_every = sync_every;
        self
    }

    /// Sets the fleet budget.
    pub fn with_total_budget(mut self, total_budget: f64) -> Self {
        self.total_budget = total_budget;
        self
    }

    /// Sets the rebalance policy.
    pub fn with_policy(mut self, policy: RebalancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The equal budget share every region starts from. Shares are always
    /// applied as `total_budget * share`, so this exact expression is what
    /// both [`region_scenario`] and the runner use — keeping fresh runs,
    /// resumed runs, and the standalone baseline bit-identical.
    pub fn equal_share(&self) -> f64 {
        1.0 / f64::from(self.regions.max(1))
    }

    fn validate(&self) -> Result<(), DurabilityError> {
        let fail = |reason: String| Err(DurabilityError::InvalidConfig { reason });
        if self.regions < 2 {
            return fail(format!("a federation needs at least 2 regions, got {}", self.regions));
        }
        if self.total_devices < self.regions as usize {
            return fail(format!(
                "{} devices cannot cover {} regions (each region needs at least one)",
                self.total_devices, self.regions
            ));
        }
        if self.horizon == 0 || self.sync_every == 0 {
            return fail("horizon and sync-every must be positive".to_owned());
        }
        if !(self.total_budget.is_finite() && self.total_budget > 0.0) {
            return fail(format!("fleet budget must be positive, got {}", self.total_budget));
        }
        if let RebalancePolicy::QueueProportional { floor } = self.policy {
            let cap = self.equal_share();
            if !(floor.is_finite() && (0.0..=cap).contains(&floor)) {
                return fail(format!("share floor {floor} outside [0, {cap}]"));
            }
        }
        Ok(())
    }
}

/// The scenario region `region` runs: its round-robin slice of the fleet
/// as a single-island topology, a region-specific seed, and the equal
/// split of the fleet budget. This is the exact scenario the standalone
/// baseline runs too — the identity the CSV gate diffs.
pub fn region_scenario(cfg: &FederationConfig, region: u32) -> Scenario {
    let devices = region_devices(cfg.total_devices, cfg.regions as usize, region as usize);
    let mut scenario = Scenario::paper(devices, region_seed(cfg.seed, region))
        .with_horizon(cfg.horizon)
        .with_budget(cfg.total_budget * cfg.equal_share())
        .with_label(format!("fed-r{region}of{}", cfg.regions));
    scenario.system.topology =
        RandomTopologyConfig::region(cfg.total_devices, cfg.regions as usize, region as usize);
    scenario
}

/// The single-controller baseline the federation experiment compares
/// against: the whole fleet under one controller with the whole budget.
pub fn global_scenario(cfg: &FederationConfig) -> Scenario {
    Scenario::paper(cfg.total_devices, cfg.seed)
        .with_horizon(cfg.horizon)
        .with_budget(cfg.total_budget)
        .with_label(format!("fed-global-I{}", cfg.total_devices))
}

fn region_seed(seed: u64, region: u32) -> u64 {
    seed.wrapping_add(u64::from(region).wrapping_mul(0x9E3779B97F4A7C15))
}

/// `federation.json`: identifies what federation a checkpoint root runs,
/// so a resume needs only the directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationManifest {
    /// Manifest layout version.
    pub version: u32,
    /// The full federation configuration.
    pub config: FederationConfig,
    /// The peer-link fault model.
    pub faults: LinkFaultConfig,
}

/// The payload of `federation.bin`: everything the per-region snapshots
/// do not already hold — node protocol state and the link-fault layer
/// (RNG position + frames in flight) — as of `slots` completed slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FedSnapshot {
    slots: u64,
    nodes: Vec<NodeState>,
    fault: LinkFaultState,
}

/// Outcome of a federated run.
#[derive(Debug)]
pub enum FederationRun {
    /// All regions reached the horizon.
    Completed(Box<FederationReport>),
    /// The kill hook fired after `slot` completed in every region; resume
    /// by calling [`run_federation`] again with the same checkpoint root.
    Interrupted {
        /// Last completed slot.
        slot: u64,
    },
}

/// Fleet-level results of a completed federated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// The configuration that produced this report.
    pub config: FederationConfig,
    /// Per-region simulation results, region 0 first.
    pub regions: Vec<SimulationResult>,
    /// Each region's budget share at the end of the run.
    pub final_shares: Vec<f64>,
    /// Fleet time-average energy cost: the sum over regions of each cost
    /// series' time average. Computed from the per-slot series — not from
    /// the controllers' running averages — because the per-slot cost
    /// carries the budget share in force *at that slot*, which is the
    /// correct accounting under mid-run rebalances.
    pub fleet_average_cost: f64,
    /// Mean of the regions' time-average latencies.
    pub fleet_average_latency: f64,
    /// Every monotonic counter summed across regions (`fed.*` gossip and
    /// rebalance telemetry next to the usual solver counters).
    pub counters: BTreeMap<String, u64>,
}

impl FederationReport {
    fn new(
        cfg: &FederationConfig,
        regions: Vec<SimulationResult>,
        nodes: &[FederationNode],
    ) -> Self {
        let fleet_average_cost = regions.iter().map(|r| r.cost.time_average()).sum();
        let fleet_average_latency =
            regions.iter().map(|r| r.average_latency).sum::<f64>() / regions.len() as f64;
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for region in &regions {
            for (name, value) in &region.counters {
                *counters.entry(name.clone()).or_insert(0) += value;
            }
        }
        FederationReport {
            config: cfg.clone(),
            final_shares: nodes.iter().map(FederationNode::share).collect(),
            regions,
            fleet_average_cost,
            fleet_average_latency,
            counters,
        }
    }

    /// Whether the *fleet* honoured the shared budget on time average
    /// (with `tol` absorbing the `O(V/T)` transient).
    pub fn budget_satisfied(&self, tol: f64) -> bool {
        self.fleet_average_cost <= self.config.total_budget + tol
    }
}

/// Runs each region's scenario independently at its fixed equal budget
/// share — the baseline a clean-link [`RebalancePolicy::Fixed`]
/// federation must match decision-for-decision.
pub fn run_standalone(cfg: &FederationConfig) -> Vec<SimulationResult> {
    (0..cfg.regions).map(|region| crate::runner::run(&region_scenario(cfg, region))).collect()
}

/// Runs (or resumes) a federated multi-region simulation.
///
/// With `durability`, `durability.dir` becomes the checkpoint *root*:
/// `federation.json` (manifest), `federation.bin` (federation snapshot),
/// and one standard checkpoint directory per region under `region-<i>/`,
/// all on the same snapshot cadence. A root that already holds a matching
/// manifest resumes; a mismatched one is rejected with a typed error.
/// `durability.kill_at_slot` interrupts every region after that slot —
/// the federation-wide crash the kill–resume chaos test drives.
pub fn run_federation(
    cfg: &FederationConfig,
    faults: &LinkFaultConfig,
    durability: Option<&DurabilityConfig>,
) -> Result<FederationRun, DurabilityError> {
    cfg.validate()?;
    if let Some(d) = durability {
        prepare_root(&d.dir, cfg, faults)?;
    }

    // Per-region drivers and state streams, durable sessions included.
    let regions = cfg.regions as usize;
    let mut drivers = Vec::with_capacity(regions);
    let mut providers = Vec::with_capacity(regions);
    for region in 0..cfg.regions {
        let scenario = region_scenario(cfg, region);
        let session = match durability {
            Some(d) => {
                let region_cfg = DurabilityConfig {
                    dir: d.dir.join(format!("region-{region}")),
                    checkpoint_every: d.checkpoint_every.max(1),
                    fsync: d.fsync,
                    max_segment_bytes: d.max_segment_bytes,
                    kill_at_slot: d.kill_at_slot,
                };
                let manifest = RunManifest::new(&scenario, &DriverMode::Plain, &region_cfg)?;
                Some(open_session(&region_cfg, &manifest)?)
            }
            None => None,
        };
        let system = MecSystem::random(&scenario.system, scenario.seed);
        let provider = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
        drivers.push(StepDriver::new(
            &scenario,
            system,
            DriverMode::Plain,
            session,
            None,
            DriverTuning::default(),
        ));
        providers.push(provider);
    }

    // Lock-step invariant: every region resumes at the same cursor (they
    // share one snapshot cadence), or the checkpoint tree is torn.
    let cursor = drivers[0].cursor();
    for (region, driver) in drivers.iter().enumerate() {
        if driver.cursor() != cursor {
            return Err(DurabilityError::InvalidConfig {
                reason: format!(
                    "federated region checkpoints disagree: region 0 resumes at slot {cursor} \
                     but region {region} at slot {} — the checkpoint root is torn or mixes \
                     different runs",
                    driver.cursor()
                ),
            });
        }
    }
    for (driver, provider) in drivers.iter().zip(&mut providers) {
        for slot in 0..cursor {
            provider.observe(slot, driver.topology());
        }
    }

    // Federation protocol state: fresh, or restored from `federation.bin`.
    let mut fault = LinkFault::new(faults.clone());
    let mut nodes: Vec<FederationNode> = (0..cfg.regions)
        .map(|region| {
            FederationNode::new(NodeConfig {
                region,
                regions: cfg.regions,
                stale_after: cfg.stale_after,
                partition_after: cfg.partition_after,
                backoff_base: cfg.backoff_base,
                backoff_max: cfg.backoff_max,
                policy: cfg.policy,
                jitter_seed: cfg.seed,
            })
        })
        .collect();
    if cursor > 0 {
        if let Some(d) = durability {
            let snap = read_fed_snapshot(&d.dir)?;
            if snap.slots != cursor || snap.nodes.len() != regions {
                return Err(DurabilityError::InvalidConfig {
                    reason: format!(
                        "federation snapshot in {} covers {} slots / {} nodes but the region \
                         checkpoints resume at slot {cursor} with {regions} regions",
                        d.dir.display(),
                        snap.slots,
                        snap.nodes.len()
                    ),
                });
            }
            fault.restore(snap.fault);
            for (node, state) in nodes.iter_mut().zip(snap.nodes) {
                node.restore(state);
            }
            // Re-apply the budget shares in force at the interruption;
            // `total * share` is the same expression live rebalances use,
            // so the resumed trajectory is bit-identical.
            for (driver, node) in drivers.iter_mut().zip(&nodes) {
                driver.set_budget_per_slot(cfg.total_budget * node.share());
            }
        }
    }

    // The lock-step loop. Sync boundaries run at the START of their slot
    // (using queue levels after slot-1), so the snapshot written at the
    // end of slot s-1 always precedes the boundary of slot s — a resume
    // at cursor s re-runs that boundary deterministically.
    let mut bus = InProcessBus::new(cfg.regions);
    let mut slot = cursor;
    while slot < cfg.horizon {
        if slot > 0 && slot % cfg.sync_every == 0 {
            sync_boundary(slot, cfg, &mut drivers, &mut nodes, &mut fault, &mut bus)?;
        }
        let mut interrupted = false;
        for (driver, provider) in drivers.iter_mut().zip(&mut providers) {
            let beta = provider.observe(slot, driver.topology());
            interrupted |= driver.step(beta)?.interrupted;
        }
        slot += 1;
        if let Some(d) = durability {
            let every = d.checkpoint_every.max(1);
            if slot == cfg.horizon || slot % every == 0 {
                // The region snapshots land before the one that claims them.
                for driver in &mut drivers {
                    driver.drain_checkpoint()?;
                }
                write_fed_snapshot(&d.dir, slot, &nodes, &fault)?;
            }
        }
        if interrupted {
            return Ok(FederationRun::Interrupted { slot: slot - 1 });
        }
    }

    let results = drivers.into_iter().map(StepDriver::finish).collect::<Result<Vec<_>, _>>()?;
    Ok(FederationRun::Completed(Box::new(FederationReport::new(cfg, results, &nodes))))
}

/// One sync boundary at the start of `slot`: release delayed frames,
/// broadcast this epoch's queue levels (plus backoff-gated retries toward
/// behind peers) through the fault layer, then let every region close the
/// epoch — ingesting frames, walking the degradation ladder, and
/// re-targeting its budget share if it rebalanced.
fn sync_boundary(
    slot: u64,
    cfg: &FederationConfig,
    drivers: &mut [StepDriver<'_>],
    nodes: &mut [FederationNode],
    fault: &mut LinkFault,
    bus: &mut InProcessBus,
) -> Result<(), DurabilityError> {
    let epoch = slot / cfg.sync_every;
    for (to, line) in fault.release(slot) {
        bus_send(bus, to, &line)?;
    }
    let queues: Vec<f64> = drivers.iter().map(StepDriver::queue_backlog).collect();
    for (i, node) in nodes.iter_mut().enumerate() {
        let region = i as u32;
        let frame = QueueGossip {
            region,
            epoch,
            slot,
            queue: queues[i],
            round: node.advertised_round(),
            shares: node.advertised_shares().to_vec(),
        };
        let line = frame.encode().map_err(|e| DurabilityError::InvalidConfig {
            reason: format!("region {region} produced an unencodable gossip frame: {e}"),
        })?;
        let mut targets: Vec<u32> = (0..cfg.regions).filter(|&r| r != region).collect();
        targets.extend(node.retry_peers(epoch));
        let mut sent = 0;
        let mut dropped = 0;
        let mut deliver = Vec::new();
        for to in targets {
            let outcome = fault.transmit(slot, region, to, &line, &mut deliver);
            sent += outcome.sent;
            dropped += outcome.dropped;
        }
        for (to, delivered) in deliver {
            bus_send(bus, to, &delivered)?;
        }
        if sent > 0 {
            drivers[i].add_counter(eotora_obs::COUNTER_FED_GOSSIP_SENT, sent);
        }
        if dropped > 0 {
            drivers[i].add_counter(eotora_obs::COUNTER_FED_GOSSIP_DROPPED, dropped);
        }
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        let region = i as u32;
        let mut frames = Vec::new();
        let mut malformed = 0u64;
        for line in bus.recv(region).map_err(bus_error)? {
            match QueueGossip::decode(&line) {
                Ok(f) if f.region != region && f.region < cfg.regions => frames.push(f),
                Ok(_) | Err(_) => malformed += 1,
            }
        }
        let close = node.close_epoch(epoch, queues[i], &frames);
        if malformed > 0 {
            drivers[i].add_counter(eotora_obs::COUNTER_FED_GOSSIP_DROPPED, malformed);
        }
        if close.stale {
            drivers[i].add_counter(eotora_obs::COUNTER_FED_STALE_EPOCHS, 1);
        }
        if close.new_partitions > 0 {
            drivers[i].add_counter(eotora_obs::COUNTER_FED_PARTITIONS, close.new_partitions);
        }
        if close.promoted {
            drivers[i].add_counter(eotora_obs::COUNTER_FED_ROUNDS_PROMOTED, 1);
        }
        if close.rebalanced {
            drivers[i].add_counter(eotora_obs::COUNTER_FED_BUDGET_REBALANCES, 1);
            drivers[i].set_budget_per_slot(cfg.total_budget * close.share);
        }
    }
    Ok(())
}

fn bus_send(bus: &mut InProcessBus, to: u32, line: &str) -> Result<(), DurabilityError> {
    bus.send(to, line).map_err(bus_error)
}

fn bus_error(e: eotora_federation::BusError) -> DurabilityError {
    DurabilityError::InvalidConfig { reason: format!("federation peer bus failed: {e}") }
}

fn fed_manifest_path(root: &Path) -> PathBuf {
    root.join(FED_MANIFEST_FILE)
}

fn fed_snapshot_path(root: &Path) -> PathBuf {
    root.join(FED_SNAPSHOT_FILE)
}

/// Reads the federation manifest of checkpoint root `dir` — the hook the
/// CLI's `federate --resume` uses to recover the full configuration.
pub fn read_federation_manifest(dir: &Path) -> Result<FederationManifest, DurabilityError> {
    let path = fed_manifest_path(dir);
    let text = fs::read_to_string(&path).map_err(|e| DurabilityError::io(&path, &e))?;
    let manifest: FederationManifest = serde_json::from_str(&text).map_err(|e| {
        DurabilityError::CorruptManifest { path: path.display().to_string(), reason: e.to_string() }
    })?;
    if manifest.version > FED_MANIFEST_VERSION {
        return Err(DurabilityError::UnsupportedVersion {
            found: manifest.version,
            supported: FED_MANIFEST_VERSION,
        });
    }
    Ok(manifest)
}

fn prepare_root(
    dir: &Path,
    cfg: &FederationConfig,
    faults: &LinkFaultConfig,
) -> Result<(), DurabilityError> {
    fs::create_dir_all(dir).map_err(|e| DurabilityError::io(dir, &e))?;
    let manifest = FederationManifest {
        version: FED_MANIFEST_VERSION,
        config: cfg.clone(),
        faults: faults.clone(),
    };
    if fed_manifest_path(dir).exists() {
        let existing = read_federation_manifest(dir)?;
        if existing != manifest {
            return Err(DurabilityError::InvalidConfig {
                reason: format!(
                    "checkpoint root {} holds a different federation ({} regions, seed {}); \
                     point at a fresh directory or restore the matching config",
                    dir.display(),
                    existing.config.regions,
                    existing.config.seed
                ),
            });
        }
        return Ok(());
    }
    let text = serde_json::to_string(&manifest).map_err(|e| DurabilityError::InvalidConfig {
        reason: format!("federation manifest failed to serialize: {e}"),
    })?;
    write_atomic(&fed_manifest_path(dir), text.as_bytes())
}

fn write_fed_snapshot(
    root: &Path,
    slots: u64,
    nodes: &[FederationNode],
    fault: &LinkFault,
) -> Result<(), DurabilityError> {
    let snapshot = FedSnapshot {
        slots,
        nodes: nodes.iter().map(|n| n.state().clone()).collect(),
        fault: fault.state().clone(),
    };
    let payload = serde_json::to_string(&snapshot).map_err(|e| DurabilityError::InvalidConfig {
        reason: format!("federation snapshot failed to serialize: {e}"),
    })?;
    write_snapshot(&fed_snapshot_path(root), FED_SNAPSHOT_SCHEMA, payload.as_bytes())
}

fn read_fed_snapshot(root: &Path) -> Result<FedSnapshot, DurabilityError> {
    let path = fed_snapshot_path(root);
    let payload = read_snapshot(&path, FED_SNAPSHOT_SCHEMA)?;
    let text = String::from_utf8(payload).map_err(|_| DurabilityError::CorruptSnapshot {
        path: path.display().to_string(),
        reason: "payload is not valid UTF-8".to_owned(),
    })?;
    serde_json::from_str(&text).map_err(|e| DurabilityError::CorruptSnapshot {
        path: path.display().to_string(),
        reason: format!("payload failed to deserialize: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_federation::PartitionWindow;

    fn small(seed: u64) -> FederationConfig {
        FederationConfig::new(3, 12, seed).with_horizon(30).with_sync_every(5)
    }

    #[test]
    fn region_scenarios_cover_the_fleet_with_distinct_seeds() {
        let cfg = small(7);
        let total: usize =
            (0..3).map(|r| region_scenario(&cfg, r).system.topology.num_devices).sum();
        assert_eq!(total, 12);
        let seeds: Vec<u64> = (0..3).map(|r| region_scenario(&cfg, r).seed).collect();
        assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2]);
        assert_eq!(region_scenario(&cfg, 0).seed, cfg.seed);
    }

    #[test]
    fn clean_fixed_federation_matches_standalone_regions() {
        let cfg = small(11).with_policy(RebalancePolicy::Fixed);
        let report = match run_federation(&cfg, &LinkFaultConfig::clean(), None).unwrap() {
            FederationRun::Completed(report) => report,
            FederationRun::Interrupted { slot } => panic!("interrupted at {slot}"),
        };
        let standalone = run_standalone(&cfg);
        assert_eq!(report.regions.len(), 3);
        for (fed, solo) in report.regions.iter().zip(&standalone) {
            assert_eq!(fed.latency, solo.latency);
            assert_eq!(fed.cost, solo.cost);
            assert_eq!(fed.queue, solo.queue);
            assert_eq!(fed.average_cost.to_bits(), solo.average_cost.to_bits());
        }
        // Clean link: every broadcast arrives, nothing rebalances.
        assert!(report.counters.get("fed.gossip_sent").copied().unwrap_or(0) > 0);
        assert_eq!(report.counters.get("fed.gossip_dropped").copied().unwrap_or(0), 0);
        assert_eq!(report.counters.get("fed.budget_rebalances").copied().unwrap_or(0), 0);
        assert_eq!(report.counters.get("fed.partitions").copied().unwrap_or(0), 0);
    }

    #[test]
    fn queue_proportional_rebalances_and_holds_the_fleet_budget() {
        let cfg = small(13);
        let report = match run_federation(&cfg, &LinkFaultConfig::clean(), None).unwrap() {
            FederationRun::Completed(report) => report,
            FederationRun::Interrupted { slot } => panic!("interrupted at {slot}"),
        };
        assert!(report.counters.get("fed.budget_rebalances").copied().unwrap_or(0) > 0);
        assert!(report.counters.get("fed.rounds_promoted").copied().unwrap_or(0) > 0);
        // Applied shares never overcommit; a round pending at the final
        // sync may hold part of the budget in reserve (the safe side),
        // so the sum can sit below 1 but must stay well above the floor.
        let share_sum: f64 = report.final_shares.iter().sum();
        assert!(share_sum <= 1.0 + 1e-9, "shares sum to {share_sum}, overcommitting the budget");
        assert!(share_sum >= 0.5, "shares sum to {share_sum}, far below any sane allocation");
        // Fleet feasibility under the O(V/T) transient of a short run.
        assert!(report.budget_satisfied(0.25 * report.config.total_budget));
    }

    #[test]
    fn partition_trips_the_degradation_ladder_and_heals() {
        let mut faults = LinkFaultConfig::clean();
        faults.partitions = vec![PartitionWindow { from_slot: 5, to_slot: 20, regions: vec![2] }];
        let cfg = small(17);
        let report = match run_federation(&cfg, &faults, None).unwrap() {
            FederationRun::Completed(report) => report,
            FederationRun::Interrupted { slot } => panic!("interrupted at {slot}"),
        };
        assert!(report.counters.get("fed.partitions").copied().unwrap_or(0) > 0);
        assert!(report.counters.get("fed.stale_epochs").copied().unwrap_or(0) > 0);
        assert!(report.counters.get("fed.gossip_dropped").copied().unwrap_or(0) > 0);
        for region in &report.regions {
            assert!(region.latency.values().iter().all(|&l| l.is_finite() && l > 0.0));
        }
    }

    #[test]
    fn mismatched_checkpoint_root_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!(
            "eotora-fedroot-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cfg = small(19).with_horizon(10);
        let durability = DurabilityConfig::new(&dir);
        let run = run_federation(&cfg, &LinkFaultConfig::clean(), Some(&durability)).unwrap();
        assert!(matches!(run, FederationRun::Completed(_)));
        let other = small(23).with_horizon(10);
        let err = run_federation(&other, &LinkFaultConfig::clean(), Some(&durability))
            .expect_err("mismatched manifest must be rejected");
        assert!(matches!(err, DurabilityError::InvalidConfig { .. }), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
