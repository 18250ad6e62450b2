//! Central registry of every metric name the pipeline emits.
//!
//! Counters, gauges, and span histograms are addressed by string keys;
//! a typo'd literal silently creates a brand-new metric, so every name
//! lives here as a `const` and call sites refer to the constant. The
//! [`ALL`] table pairs each name with its [`MetricKind`] and a help
//! string — it drives the Prometheus `# TYPE`/`# HELP` exposition in
//! [`crate::LiveRegistry`] and the reference table in `DESIGN.md`.
//!
//! Names not listed here still work (they land in a registry overflow
//! map and are exported untyped), so downstream crates can experiment
//! without an obs-crate change — but pipeline code should always add
//! the const.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Span name for one whole per-slot DPP solve.
pub const SPAN_SLOT_SOLVE: &str = "slot_solve";
/// Span name for a P2-A (discrete offloading/scheduling) solve.
pub const SPAN_P2A: &str = "p2a";
/// Span name for a P2-B (continuous frequency) solve.
pub const SPAN_P2B: &str = "p2b";
/// Span name for the virtual-queue update Q(t+1) = max{Q(t)+C_t-C̄, 0}.
pub const SPAN_QUEUE_UPDATE: &str = "queue_update";
/// Span name for one slot-record append to the durability journal.
pub const SPAN_JOURNAL_APPEND: &str = "journal.append";
/// Span name for a journal fsync: an in-line `every-slot`/`every-K` sync,
/// or the snapshot writer thread's journal sync or atomic snapshot write,
/// recorded by the stepping thread when it collects the landed snapshot.
pub const SPAN_JOURNAL_FSYNC: &str = "journal.fsync";
/// Span name for the stepping thread's part of one checkpoint snapshot:
/// state capture, JSON and the hand-off to the writer thread.
pub const SPAN_SNAPSHOT_WRITE: &str = "journal.snapshot_write";

/// Counter name for BDMA alternation rounds executed.
pub const COUNTER_BDMA_ROUNDS: &str = "bdma_rounds";
/// Counter name for BDMA rounds whose candidate improved the incumbent.
pub const COUNTER_BDMA_ACCEPTED: &str = "bdma_accepted";
/// Counter name for BDMA rounds skipped by ε early termination
/// (`z − rounds_used`, accumulated across slots).
pub const COUNTER_BDMA_ROUNDS_SAVED: &str = "bdma.rounds_saved";
/// Counter name for CGBA best-response iterations executed.
pub const COUNTER_CGBA_ITERATIONS: &str = "cgba_iterations";
/// Counter name for CGBA solves that converged to a Nash equilibrium
/// within the iteration cap.
pub const COUNTER_CGBA_CONVERGED: &str = "cgba_converged";
/// Counter name for strategy-cost probes evaluated inside CGBA
/// best-response scans (the game hot path's unit of work).
pub const COUNTER_CGBA_PROBES: &str = "cgba.probes";
/// Counter name for best-response moves made by warm-seeded CGBA solves.
pub const COUNTER_CGBA_WARM_MOVES: &str = "cgba.warm.moves_to_converge";
/// Counter name for slots solved.
pub const COUNTER_SLOTS: &str = "slots";

/// Counter name for MCBA (simulated annealing) proposals evaluated.
pub const COUNTER_MCBA_PROPOSALS: &str = "mcba_proposals";
/// Counter name for MCBA proposals accepted.
pub const COUNTER_MCBA_ACCEPTED: &str = "mcba_accepted";
/// Counter name for branch-and-bound nodes expanded by the exact P2-A
/// baseline.
pub const COUNTER_BNB_NODES: &str = "bnb_nodes";
/// Counter name for branch-and-bound solves that proved optimality.
pub const COUNTER_BNB_PROVEN_OPTIMAL: &str = "bnb_proven_optimal";
/// Counter name for bisection probes made by the per-slot baseline's
/// multiplier search.
pub const COUNTER_PER_SLOT_PROBES: &str = "per_slot_probes";

/// Counter name for game resources masked out by availability faults,
/// accumulated across slots.
pub const COUNTER_FAULT_MASKED_RESOURCES: &str = "fault.masked_resources";
/// Counter name for players whose retained strategy was displaced by a
/// mask and repaired onto a reachable alternative (includes players
/// re-allowed best-effort because the mask left them nothing).
pub const COUNTER_FAULT_REPAIRED_PLAYERS: &str = "fault.repaired_players";
/// Counter name for corrupt state entries replaced by the sanitizer.
pub const COUNTER_FAULT_STATE_SUBSTITUTIONS: &str = "fault.state_substitutions";
/// Counter name for slots whose solve hit the anytime deadline and
/// returned the checkpointed incumbent instead of finishing.
pub const COUNTER_DEADLINE_EXPIRATIONS: &str = "deadline.expirations";

/// Counter name for robust solves that retried after a transient
/// `SolveError` before succeeding or escalating.
pub const COUNTER_ROBUST_RETRIES: &str = "robust.retries";
/// Counter name for `SolveError`s surfaced to the robust ladder (each
/// one forces an escalation past the first rung).
pub const COUNTER_ROBUST_SOLVE_ERRORS: &str = "robust.solve_errors";
/// Counter name for slots decided by the topology-only lifeboat after
/// the optimizing solve failed.
pub const COUNTER_ROBUST_LIFEBOAT_DECISIONS: &str = "robust.lifeboat_decisions";
/// Counter name for slots whose frequency allocation fell back to
/// equal-share after the optimal allocation failed.
pub const COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS: &str = "robust.equal_share_fallbacks";

/// Counter name for snapshots written by a checkpointed run.
pub const COUNTER_DURABILITY_SNAPSHOTS: &str = "durability.snapshots_written";
/// Counter name for slot records appended to the write-ahead journal.
pub const COUNTER_DURABILITY_FRAMES: &str = "durability.frames_journaled";
/// Counter name for torn journal frames silently dropped during recovery
/// (a crash mid-append tears at most the final frame).
pub const COUNTER_DURABILITY_TORN: &str = "durability.torn_frames_dropped";
/// Counter name for intact journal frames past the snapshot slot that a
/// resume discards (their slots are re-executed deterministically).
pub const COUNTER_DURABILITY_DISCARDED: &str = "durability.frames_discarded";
/// Counter name for completed slots restored from the checkpoint instead
/// of re-solved (the resume fast-forward).
pub const COUNTER_DURABILITY_RESUMED: &str = "durability.resumed_slots";

/// Counter name for per-shard CGBA subgame solves executed.
pub const COUNTER_SHARD_SOLVES: &str = "shard.solves";
/// Counter name for cut players (strategy sets spanning shards) seen by
/// sharded solves.
pub const COUNTER_SHARD_CUT_PLAYERS: &str = "shard.cut_players";
/// Counter name for global best-response moves made by the post-merge
/// cut-player reconciliation pass.
pub const COUNTER_SHARD_RECONCILE_MOVES: &str = "shard.reconcile_moves";
/// Counter name for shards that missed the anytime deadline and merged
/// their best-so-far profile (the shard-local degradation path).
pub const COUNTER_SHARD_DEADLINE_DEGRADED: &str = "shard.deadline_degraded";

/// Counter name for state frames accepted into the admission queue.
pub const COUNTER_SERVER_ADMITTED: &str = "server.admitted";
/// Counter name for stale state frames shed from the *front* of the
/// bounded admission queue under the `DropOldest` policy (dropped
/// without a decision).
pub const COUNTER_SERVER_SHED_OLDEST: &str = "server.shed_oldest";
/// Counter name for state frames shed under the `NewestWins` policy —
/// the queued frames displaced when a newer state supersedes the whole
/// backlog (every coalesce is also counted here).
pub const COUNTER_SERVER_SHED_NEWEST: &str = "server.shed_newest";
/// Counter name for queued state frames superseded in place by a newer
/// frame for the same stream position (newest-state-wins coalescing;
/// every coalesce is also counted as a shed).
pub const COUNTER_SERVER_COALESCED: &str = "server.coalesced";
/// Counter name for malformed input frames rejected by the codec with a
/// typed error (bad JSON, wrong shape, non-finite payload).
pub const COUNTER_SERVER_MALFORMED: &str = "server.malformed_frames";
/// Counter name for well-formed state frames rejected by admission
/// policy (e.g. slot index mismatch under strict sequencing).
pub const COUNTER_SERVER_REJECTED: &str = "server.rejected_frames";
/// Counter name for config hot-reloads validated and applied.
pub const COUNTER_SERVER_RELOADS: &str = "server.reloads_applied";
/// Counter name for config hot-reloads rejected atomically (old config
/// stayed live).
pub const COUNTER_SERVER_RELOADS_REJECTED: &str = "server.reloads_rejected";
/// Counter name for watchdog escalations after repeated consecutive
/// deadline expirations (each one dumps a flight-recorder postmortem).
pub const COUNTER_SERVER_WATCHDOG_TRIPS: &str = "server.watchdog_trips";
/// Counter name for decision records emitted on the output stream.
pub const COUNTER_SERVER_DECISIONS: &str = "server.decisions";

/// Counter name for `QueueGossip` frames a federated region handed to
/// the peer link (duplicated transmissions count once per copy sent).
pub const COUNTER_FED_GOSSIP_SENT: &str = "fed.gossip_sent";
/// Counter name for gossip frames the link-fault layer dropped (loss or
/// partition) before reaching the peer.
pub const COUNTER_FED_GOSSIP_DROPPED: &str = "fed.gossip_dropped";
/// Counter name for sync epochs a region closed with at least one peer
/// stale (no fresh gossip within the staleness window).
pub const COUNTER_FED_STALE_EPOCHS: &str = "fed.stale_epochs";
/// Counter name for transitions into the partitioned degradation rung —
/// a peer's missed-epoch count crossing the partition threshold.
pub const COUNTER_FED_PARTITIONS: &str = "fed.partitions";
/// Counter name for budget-share changes a region applied — a staged
/// round cutting the share immediately, or a fleet-confirmed round
/// raising it.
pub const COUNTER_FED_BUDGET_REBALANCES: &str = "fed.budget_rebalances";
/// Counter name for share rounds a region promoted after the whole fleet
/// advertised knowing them (the confirmation phase of the two-phase
/// rebalance protocol).
pub const COUNTER_FED_ROUNDS_PROMOTED: &str = "fed.rounds_promoted";

/// Counter name for health transitions into `Ok`.
pub const COUNTER_HEALTH_TO_OK: &str = "health.to_ok";
/// Counter name for health transitions into `Degraded`.
pub const COUNTER_HEALTH_TO_DEGRADED: &str = "health.to_degraded";
/// Counter name for health transitions into `Critical`.
pub const COUNTER_HEALTH_TO_CRITICAL: &str = "health.to_critical";
/// Counter name for flight-recorder postmortem bundles dumped.
pub const COUNTER_FLIGHT_POSTMORTEMS: &str = "flight.postmortems";

/// Gauge name for the current virtual-queue backlog Q(t+1).
pub const GAUGE_QUEUE_BACKLOG: &str = "queue_backlog";
/// Gauge name for the queue trend (backlog change per slot over the
/// health window).
pub const GAUGE_QUEUE_TREND: &str = "queue_trend_per_slot";
/// Gauge name for the budget residual C̄ − (1/t)·ΣE ($/slot; negative
/// means overspending).
pub const GAUGE_BUDGET_RESIDUAL: &str = "budget_residual_usd";
/// Gauge name for the running time-average fleet latency (s).
pub const GAUGE_AVG_LATENCY: &str = "avg_latency_s";
/// Gauge name for the running time-average energy cost ($/slot).
pub const GAUGE_AVG_COST: &str = "avg_cost_usd";
/// Gauge name for the overall health level (0 = Ok, 1 = Degraded,
/// 2 = Critical).
pub const GAUGE_HEALTH_LEVEL: &str = "health_level";
/// Gauge name for the run's drift-plus-penalty weight V.
pub const GAUGE_CONFIG_V: &str = "config_v";
/// Gauge name for the run's per-slot energy budget C̄ ($/slot).
pub const GAUGE_CONFIG_BUDGET: &str = "config_budget_usd";

/// Counter-name families exported to downstream consumers: the `ctr_*`
/// CSV columns, the run-summary counter lines, and the server's stats
/// frames all filter through this single list, so adding a family here
/// is the one change that surfaces a new counter group everywhere (the
/// PR-8 lesson: `shard.*` existed for a full PR before anything printed
/// it). Core solver counters (`bdma_rounds`, `cgba_*`, …) stay internal
/// — they are solver mechanics, not run outcomes.
pub const EXPORTED_COUNTER_FAMILIES: &[&str] =
    &["fault.", "deadline.", "durability.", "shard.", "server.", "fed."];

/// Whether a counter belongs to an exported family (see
/// [`EXPORTED_COUNTER_FAMILIES`]).
pub fn is_exported_counter(name: &str) -> bool {
    EXPORTED_COUNTER_FAMILIES.iter().any(|family| name.starts_with(family))
}

/// The kind of a metric, deciding its Prometheus `# TYPE` and snapshot
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (exposed with a `_total` suffix).
    Counter,
    /// Point-in-time float value.
    Gauge,
    /// Log-linear distribution of span durations (nanoseconds).
    Histogram,
}

/// One registered metric: name, kind, and a one-line meaning.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The wire name (the `const` above).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// One-line help string for exposition and docs.
    pub help: &'static str,
}

const fn def(name: &'static str, kind: MetricKind, help: &'static str) -> MetricDef {
    MetricDef { name, kind, help }
}

/// Every known metric, in exposition order. [`crate::LiveRegistry`]
/// pre-allocates one slot per entry so hot-path updates are a single
/// index + atomic op.
pub const ALL: &[MetricDef] = &[
    def(SPAN_SLOT_SOLVE, MetricKind::Histogram, "wall time of one whole per-slot DPP solve (ns)"),
    def(SPAN_P2A, MetricKind::Histogram, "wall time of one P2-A discrete solve (ns)"),
    def(SPAN_P2B, MetricKind::Histogram, "wall time of one P2-B frequency solve (ns)"),
    def(SPAN_QUEUE_UPDATE, MetricKind::Histogram, "wall time of one virtual-queue update (ns)"),
    def(SPAN_JOURNAL_APPEND, MetricKind::Histogram, "wall time of one journal append (ns)"),
    def(
        SPAN_JOURNAL_FSYNC,
        MetricKind::Histogram,
        "wall time of one journal fsync, or of the snapshot writer's journal sync or snapshot \
         write (ns)",
    ),
    def(
        SPAN_SNAPSHOT_WRITE,
        MetricKind::Histogram,
        "stepping-thread time of one checkpoint snapshot: capture, JSON, hand-off (ns)",
    ),
    def(COUNTER_SLOTS, MetricKind::Counter, "slots solved"),
    def(COUNTER_BDMA_ROUNDS, MetricKind::Counter, "BDMA alternation rounds executed"),
    def(COUNTER_BDMA_ACCEPTED, MetricKind::Counter, "BDMA rounds that improved the incumbent"),
    def(COUNTER_BDMA_ROUNDS_SAVED, MetricKind::Counter, "BDMA rounds skipped by early termination"),
    def(COUNTER_CGBA_ITERATIONS, MetricKind::Counter, "CGBA best-response iterations executed"),
    def(COUNTER_CGBA_CONVERGED, MetricKind::Counter, "CGBA solves that reached a Nash equilibrium"),
    def(COUNTER_CGBA_PROBES, MetricKind::Counter, "strategy-cost probes evaluated in CGBA scans"),
    def(
        COUNTER_CGBA_WARM_MOVES,
        MetricKind::Counter,
        "best-response moves of warm-seeded CGBA solves",
    ),
    def(COUNTER_MCBA_PROPOSALS, MetricKind::Counter, "MCBA annealing proposals evaluated"),
    def(COUNTER_MCBA_ACCEPTED, MetricKind::Counter, "MCBA annealing proposals accepted"),
    def(COUNTER_BNB_NODES, MetricKind::Counter, "branch-and-bound nodes expanded"),
    def(COUNTER_BNB_PROVEN_OPTIMAL, MetricKind::Counter, "branch-and-bound solves proven optimal"),
    def(
        COUNTER_PER_SLOT_PROBES,
        MetricKind::Counter,
        "per-slot baseline multiplier bisection probes",
    ),
    def(
        COUNTER_FAULT_MASKED_RESOURCES,
        MetricKind::Counter,
        "game resources masked by availability faults",
    ),
    def(
        COUNTER_FAULT_REPAIRED_PLAYERS,
        MetricKind::Counter,
        "players repaired after a mask displaced them",
    ),
    def(
        COUNTER_FAULT_STATE_SUBSTITUTIONS,
        MetricKind::Counter,
        "corrupt state entries replaced by the sanitizer",
    ),
    def(
        COUNTER_DEADLINE_EXPIRATIONS,
        MetricKind::Counter,
        "solves cut short by the anytime deadline",
    ),
    def(
        COUNTER_ROBUST_RETRIES,
        MetricKind::Counter,
        "robust solves retried after a transient error",
    ),
    def(
        COUNTER_ROBUST_SOLVE_ERRORS,
        MetricKind::Counter,
        "SolveErrors surfaced to the robust ladder",
    ),
    def(
        COUNTER_ROBUST_LIFEBOAT_DECISIONS,
        MetricKind::Counter,
        "slots decided by the topology-only lifeboat",
    ),
    def(
        COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS,
        MetricKind::Counter,
        "frequency allocations that fell back to equal share",
    ),
    def(COUNTER_DURABILITY_SNAPSHOTS, MetricKind::Counter, "checkpoint snapshots written"),
    def(COUNTER_DURABILITY_FRAMES, MetricKind::Counter, "slot records appended to the journal"),
    def(
        COUNTER_DURABILITY_TORN,
        MetricKind::Counter,
        "torn journal frames dropped during recovery",
    ),
    def(
        COUNTER_DURABILITY_DISCARDED,
        MetricKind::Counter,
        "intact journal frames discarded on resume",
    ),
    def(
        COUNTER_DURABILITY_RESUMED,
        MetricKind::Counter,
        "slots restored from checkpoint on resume",
    ),
    def(COUNTER_SHARD_SOLVES, MetricKind::Counter, "per-shard CGBA subgame solves executed"),
    def(
        COUNTER_SHARD_CUT_PLAYERS,
        MetricKind::Counter,
        "cut players spanning shards seen by sharded solves",
    ),
    def(
        COUNTER_SHARD_RECONCILE_MOVES,
        MetricKind::Counter,
        "global best-response moves in cut-player reconciliation",
    ),
    def(
        COUNTER_SHARD_DEADLINE_DEGRADED,
        MetricKind::Counter,
        "shards that missed the anytime deadline and merged best-so-far",
    ),
    def(COUNTER_SERVER_ADMITTED, MetricKind::Counter, "state frames accepted into the queue"),
    def(
        COUNTER_SERVER_SHED_OLDEST,
        MetricKind::Counter,
        "stale frames shed from the queue front (DropOldest)",
    ),
    def(
        COUNTER_SERVER_SHED_NEWEST,
        MetricKind::Counter,
        "queued frames displaced by a newer state (NewestWins)",
    ),
    def(
        COUNTER_SERVER_COALESCED,
        MetricKind::Counter,
        "queued frames superseded by newest-state-wins coalescing",
    ),
    def(
        COUNTER_SERVER_MALFORMED,
        MetricKind::Counter,
        "malformed input frames rejected by the codec",
    ),
    def(
        COUNTER_SERVER_REJECTED,
        MetricKind::Counter,
        "well-formed frames rejected by admission policy",
    ),
    def(COUNTER_SERVER_RELOADS, MetricKind::Counter, "config hot-reloads validated and applied"),
    def(
        COUNTER_SERVER_RELOADS_REJECTED,
        MetricKind::Counter,
        "config hot-reloads rejected atomically",
    ),
    def(
        COUNTER_SERVER_WATCHDOG_TRIPS,
        MetricKind::Counter,
        "watchdog escalations on repeated deadline expirations",
    ),
    def(COUNTER_SERVER_DECISIONS, MetricKind::Counter, "decision records emitted downstream"),
    def(COUNTER_FED_GOSSIP_SENT, MetricKind::Counter, "gossip frames handed to the peer link"),
    def(
        COUNTER_FED_GOSSIP_DROPPED,
        MetricKind::Counter,
        "gossip frames lost to link faults or partitions",
    ),
    def(
        COUNTER_FED_STALE_EPOCHS,
        MetricKind::Counter,
        "sync epochs closed with at least one stale peer",
    ),
    def(
        COUNTER_FED_PARTITIONS,
        MetricKind::Counter,
        "peers crossing the missed-epoch partition threshold",
    ),
    def(
        COUNTER_FED_BUDGET_REBALANCES,
        MetricKind::Counter,
        "budget-share changes applied by a region",
    ),
    def(
        COUNTER_FED_ROUNDS_PROMOTED,
        MetricKind::Counter,
        "share rounds promoted after fleet-wide acknowledgement",
    ),
    def(COUNTER_HEALTH_TO_OK, MetricKind::Counter, "health transitions into Ok"),
    def(COUNTER_HEALTH_TO_DEGRADED, MetricKind::Counter, "health transitions into Degraded"),
    def(COUNTER_HEALTH_TO_CRITICAL, MetricKind::Counter, "health transitions into Critical"),
    def(
        COUNTER_FLIGHT_POSTMORTEMS,
        MetricKind::Counter,
        "flight-recorder postmortem bundles dumped",
    ),
    def(GAUGE_QUEUE_BACKLOG, MetricKind::Gauge, "current virtual-queue backlog Q(t+1)"),
    def(
        GAUGE_QUEUE_TREND,
        MetricKind::Gauge,
        "queue backlog change per slot over the health window",
    ),
    def(
        GAUGE_BUDGET_RESIDUAL,
        MetricKind::Gauge,
        "budget residual C-bar minus running average cost ($/slot)",
    ),
    def(GAUGE_AVG_LATENCY, MetricKind::Gauge, "running time-average fleet latency (s)"),
    def(GAUGE_AVG_COST, MetricKind::Gauge, "running time-average energy cost ($/slot)"),
    def(
        GAUGE_HEALTH_LEVEL,
        MetricKind::Gauge,
        "overall health level (0 Ok, 1 Degraded, 2 Critical)",
    ),
    def(GAUGE_CONFIG_V, MetricKind::Gauge, "drift-plus-penalty weight V of the run"),
    def(GAUGE_CONFIG_BUDGET, MetricKind::Gauge, "per-slot energy budget C-bar of the run ($/slot)"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in ALL {
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(!d.help.is_empty());
        }
    }

    #[test]
    fn registry_covers_the_exported_consts() {
        for name in [
            SPAN_SLOT_SOLVE,
            SPAN_JOURNAL_APPEND,
            COUNTER_SLOTS,
            COUNTER_CGBA_PROBES,
            COUNTER_ROBUST_LIFEBOAT_DECISIONS,
            COUNTER_DURABILITY_FRAMES,
            COUNTER_SERVER_SHED_OLDEST,
            COUNTER_SERVER_SHED_NEWEST,
            COUNTER_SERVER_WATCHDOG_TRIPS,
            COUNTER_FED_GOSSIP_SENT,
            COUNTER_FED_BUDGET_REBALANCES,
            GAUGE_QUEUE_BACKLOG,
            GAUGE_HEALTH_LEVEL,
        ] {
            assert!(ALL.iter().any(|d| d.name == name), "{name} missing from ALL");
        }
    }

    /// Every registered counter in an exported family must be matched by
    /// `is_exported_counter`, and every family prefix must have at least
    /// one registered counter behind it — a new `x.*` counter group that
    /// forgets to extend `EXPORTED_COUNTER_FAMILIES` (or vice versa)
    /// fails here instead of silently vanishing from CSVs and summaries.
    #[test]
    fn exported_families_match_registry() {
        for family in EXPORTED_COUNTER_FAMILIES {
            assert!(
                ALL.iter().any(|d| d.kind == MetricKind::Counter && d.name.starts_with(family)),
                "exported family {family} has no registered counter"
            );
        }
        // Dotted counter groups are either exported or deliberately
        // internal; keep the internal list explicit so a new group must
        // pick a side.
        const INTERNAL_FAMILIES: &[&str] = &["bdma.", "cgba.", "robust.", "health.", "flight."];
        for d in ALL {
            if d.kind == MetricKind::Counter && d.name.contains('.') {
                let internal = INTERNAL_FAMILIES.iter().any(|f| d.name.starts_with(f));
                assert!(
                    internal != is_exported_counter(d.name),
                    "{} must be in exactly one of EXPORTED_COUNTER_FAMILIES / INTERNAL_FAMILIES",
                    d.name
                );
            }
        }
        assert!(is_exported_counter(COUNTER_SERVER_SHED_OLDEST));
        assert!(is_exported_counter(COUNTER_SERVER_SHED_NEWEST));
        assert!(is_exported_counter(COUNTER_FED_STALE_EPOCHS));
        assert!(is_exported_counter(COUNTER_DEADLINE_EXPIRATIONS));
        assert!(!is_exported_counter(COUNTER_BDMA_ROUNDS));
        assert!(!is_exported_counter(COUNTER_HEALTH_TO_OK));
    }
}
