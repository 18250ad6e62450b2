//! Kill–resume chaos tests for the federation runner.
//!
//! The pinned claim extends the single-run durability contract to the
//! whole federation: killing every region mid-run — including mid
//! *partition*, with gossip frames in flight inside the link-fault
//! buffer — and resuming from the checkpoint root reproduces every
//! region's decision-derived output and every `fed.*` counter
//! **bit-identically** versus the same federation run uninterrupted.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use eotora_durability::FsyncPolicy;
use eotora_federation::{LinkFaultConfig, PartitionWindow};
use eotora_sim::durable::DurabilityConfig;
use eotora_sim::federation::{run_federation, FederationConfig, FederationReport};
use eotora_sim::{RunOutcome, SimulationResult};

fn temp_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eotora-fed-{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// 3 regions, 60 slots, epoch every 6 slots, with a partition cutting
/// region 2 off across the middle of the run and a lossy link around it.
fn config(seed: u64) -> FederationConfig {
    FederationConfig::new(3, 12, seed).with_horizon(60).with_sync_every(6)
}

fn faults(seed: u64) -> LinkFaultConfig {
    let mut faults = LinkFaultConfig::lossy(seed);
    faults.partitions = vec![PartitionWindow { from_slot: 12, to_slot: 40, regions: vec![2] }];
    faults
}

fn completed(run: RunOutcome<FederationReport>) -> FederationReport {
    match run {
        RunOutcome::Completed(report) => *report,
        RunOutcome::Interrupted { slot } => panic!("unexpected interrupt after slot {slot}"),
    }
}

fn interrupted(run: RunOutcome<FederationReport>) -> u64 {
    match run {
        RunOutcome::Interrupted { slot } => slot,
        RunOutcome::Completed(_) => panic!("federation unexpectedly ran to completion"),
    }
}

fn non_durability_counters(c: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    c.iter()
        .filter(|(name, _)| !name.starts_with("durability."))
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

fn assert_same_region(a: &SimulationResult, b: &SimulationResult) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.queue, b.queue);
    assert_eq!(a.price, b.price);
    assert_eq!(a.fairness, b.fairness);
    assert_eq!(a.handover_rate, b.handover_rate);
    assert_eq!(a.mean_clock_ghz, b.mean_clock_ghz);
    assert_eq!(a.average_latency.to_bits(), b.average_latency.to_bits());
    assert_eq!(a.average_cost.to_bits(), b.average_cost.to_bits());
    assert_eq!(a.budget.to_bits(), b.budget.to_bits());
    assert_eq!(non_durability_counters(&a.counters), non_durability_counters(&b.counters));
}

fn assert_same_federation(a: &FederationReport, b: &FederationReport) {
    assert_eq!(a.regions.len(), b.regions.len());
    for (ra, rb) in a.regions.iter().zip(&b.regions) {
        assert_same_region(ra, rb);
    }
    let shares_a: Vec<u64> = a.final_shares.iter().map(|s| s.to_bits()).collect();
    let shares_b: Vec<u64> = b.final_shares.iter().map(|s| s.to_bits()).collect();
    assert_eq!(shares_a, shares_b);
    assert_eq!(a.fleet_average_cost.to_bits(), b.fleet_average_cost.to_bits());
    assert_eq!(non_durability_counters(&a.counters), non_durability_counters(&b.counters));
}

#[test]
fn durable_federation_without_kill_matches_in_memory_run() {
    let cfg = config(41);
    let reference = completed(run_federation(&cfg, &faults(41), None).unwrap());
    let durability = DurabilityConfig::new(temp_root("nokill"));
    let durable = completed(run_federation(&cfg, &faults(41), Some(&durability)).unwrap());
    assert_same_federation(&durable, &reference);
    // The chaos setup must actually exercise the ladder for the identity
    // claim to mean anything.
    assert!(reference.counters.get("fed.partitions").copied().unwrap_or(0) > 0);
    assert!(reference.counters.get("fed.gossip_dropped").copied().unwrap_or(0) > 0);
    let _ = fs::remove_dir_all(&durability.dir);
}

#[test]
fn kill_mid_partition_and_resume_is_bit_identical() {
    let cfg = config(42);
    let reference = completed(run_federation(&cfg, &faults(42), None).unwrap());
    // Slot 25 is inside the partition window (12..40) and off the
    // checkpoint cadence, so the resume re-executes slots 20..=25 and
    // re-runs the epoch-4 boundary (slot 24) from the federation snapshot.
    let mut durability = DurabilityConfig::new(temp_root("midpart"));
    durability.checkpoint_every = 10;
    durability.kill_at_slot = Some(25);
    assert_eq!(interrupted(run_federation(&cfg, &faults(42), Some(&durability)).unwrap()), 25);
    durability.kill_at_slot = None;
    let resumed = completed(run_federation(&cfg, &faults(42), Some(&durability)).unwrap());
    assert_same_federation(&resumed, &reference);
    // Each region replayed the 20 snapshotted slots instead of re-solving.
    for region in &resumed.regions {
        assert_eq!(region.counters.get("durability.resumed_slots").copied().unwrap_or(0), 20);
    }
    let _ = fs::remove_dir_all(&durability.dir);
}

#[test]
fn kill_on_a_sync_boundary_and_resume_is_bit_identical() {
    let cfg = config(43);
    let reference = completed(run_federation(&cfg, &faults(43), None).unwrap());
    // Kill right after slot 29: the snapshot lands at completed == 30,
    // which is also the epoch-5 boundary slot — the resumed run's first
    // action is re-running that boundary from the restored node and
    // link-fault state (delayed frames still in flight).
    let mut durability = DurabilityConfig::new(temp_root("boundary"));
    durability.checkpoint_every = 10;
    durability.kill_at_slot = Some(29);
    assert_eq!(interrupted(run_federation(&cfg, &faults(43), Some(&durability)).unwrap()), 29);
    durability.kill_at_slot = None;
    let resumed = completed(run_federation(&cfg, &faults(43), Some(&durability)).unwrap());
    assert_same_federation(&resumed, &reference);
    let _ = fs::remove_dir_all(&durability.dir);
}

#[test]
fn resumed_federation_survives_a_second_kill() {
    let cfg = config(44);
    let reference = completed(run_federation(&cfg, &faults(44), None).unwrap());
    let mut durability = DurabilityConfig::new(temp_root("double"));
    durability.checkpoint_every = 8;
    durability.kill_at_slot = Some(13);
    assert_eq!(interrupted(run_federation(&cfg, &faults(44), Some(&durability)).unwrap()), 13);
    durability.kill_at_slot = Some(37);
    assert_eq!(interrupted(run_federation(&cfg, &faults(44), Some(&durability)).unwrap()), 37);
    durability.kill_at_slot = None;
    let resumed = completed(run_federation(&cfg, &faults(44), Some(&durability)).unwrap());
    assert_same_federation(&resumed, &reference);
    let _ = fs::remove_dir_all(&durability.dir);
}

#[test]
fn kill_resume_with_a_non_default_cadence_and_fsync_is_bit_identical() {
    let cfg = config(45);
    let reference = completed(run_federation(&cfg, &faults(45), None).unwrap());
    let mut durability = DurabilityConfig::new(temp_root("policy"));
    durability.checkpoint_every = 4;
    durability.fsync = FsyncPolicy::EverySlot;
    durability.kill_at_slot = Some(6);
    assert_eq!(interrupted(run_federation(&cfg, &faults(45), Some(&durability)).unwrap()), 6);
    // Resume with the same policy, as `eotora federate --resume` passes it
    // from the region manifests.
    let resume = DurabilityConfig { kill_at_slot: None, ..durability.clone() };
    let resumed = completed(run_federation(&cfg, &faults(45), Some(&resume)).unwrap());
    assert_same_federation(&resumed, &reference);
    for (region, result) in resumed.regions.iter().enumerate() {
        // The snapshot at slot 4 (cadence 4), not a default-cadence restart.
        assert_eq!(result.counters.get("durability.resumed_slots").copied().unwrap_or(0), 4);
        let dir = durability.dir.join(format!("region-{region}"));
        let manifest = eotora_sim::durable::read_manifest_in(&dir).unwrap();
        assert_eq!(manifest.checkpoint_every, 4, "region {region} lost its cadence");
        assert_eq!(manifest.fsync, "every-slot", "region {region} lost its fsync policy");
    }
    let _ = fs::remove_dir_all(&durability.dir);
}
