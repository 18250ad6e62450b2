//! The reusable per-slot step driver shared by every engine front-end.
//!
//! [`StepDriver`] owns one controller's complete solving state — the DPP
//! controller, sanitizer, corruption RNG, counter tally, and optional
//! durable session — and exposes a single [`StepDriver::step`]: feed it
//! the observed `β_t`, get back the slot's [`SlotRecord`]. The batch
//! `run_engine` loop drives it for `scenario.horizon` slots from a
//! `StateProvider`; the `eotora-server` daemon drives the *same* driver
//! from a JSONL stream with no horizon (`DriverTuning::horizon =
//! u64::MAX`), which is what makes the server's decision stream
//! bit-identical to the batch CSV by construction.
//!
//! Each slot exists once, as the journal's [`SlotRecord`]: `step` returns
//! it, journals it, and an unbounded driver keeps it (without its
//! per-device stations) in one list — the replayed journal head, then
//! every live slot — which [`StepDriver::finish`] folds into every
//! per-slot series of the [`SimulationResult`].
//!
//! The per-slot sequencing inside [`StepDriver::step`] — mode dispatch,
//! counter/event emission, journal append, snapshot cadence, kill hook —
//! is pinned by the kill–resume chaos tests (a snapshot is counted
//! *before* its counters are captured, the journal is synced *before* the
//! snapshot lands).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use eotora_core::dpp::EotoraDpp;
use eotora_core::fault::FaultSchedule;
use eotora_core::latency::latency_under;
use eotora_core::robust::RobustConfig;
use eotora_core::sanitize::StateSanitizer;
use eotora_core::system::MecSystem;
use eotora_durability::{DurabilityError, SlotRecord};
use eotora_obs::{Recorder, SpanGuard, TraceEvent};
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;
use eotora_util::series::TimeSeries;

use crate::durable::{
    open_session, DurabilityConfig, DurableSession, ResumeState, RunManifest, RunSnapshot,
};
use crate::runner::SimulationResult;
use crate::scenario::Scenario;

/// Which per-slot pipeline the driver runs — the one option a batch caller
/// chooses ([`crate::run_mode`], [`crate::run_durable`]). Owned so a
/// long-lived driver — the server — can hold and hot-patch it across
/// reloads.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverMode {
    /// The plain DPP step — the paper's controller ([`crate::run`]).
    Plain,
    /// The fault-tolerant step: corruption injection, sanitization,
    /// availability masking, anytime deadline. Needs a CGBA solver: a
    /// baseline cannot honour the mask, so each of its slots falls back to
    /// the lifeboat decision.
    Robust {
        /// Scripted fault trace (empty on the server — real deployments
        /// get their faults from the world, not a script).
        faults: FaultSchedule,
        /// Robust-solve configuration (deadline, sanitizer); usually
        /// [`crate::robust_config`] of the scenario.
        robust: RobustConfig,
    },
}

/// Front-end knobs that do not change decisions.
#[derive(Debug, Clone, Default)]
pub struct DriverTuning {
    /// Overrides the scenario horizon (`None` → `scenario.horizon`). The
    /// server passes `Some(u64::MAX)` so the driver never self-terminates
    /// while the manifest keeps the scenario's real horizon.
    pub horizon: Option<u64>,
    /// Bounded-memory mode for long-running processes: the driver keeps
    /// no slot records — neither the replayed journal head nor the live
    /// slots — only the last slot's stations for the handover rate.
    /// [`StepDriver::finish`] then returns empty series — the server never
    /// calls it.
    pub bounded: bool,
}

/// One completed slot, as the caller sees it.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// The slot's record — exactly what was journaled. Every field is
    /// decision-derived and deterministic except the wall-clock
    /// `solve_time_s` and `stages`.
    pub record: SlotRecord,
    /// Whether the durable session's kill hook fired after this slot
    /// (the slot itself is fully committed; the driver must be dropped).
    pub interrupted: bool,
}

/// The driver's own recorder: it tallies every counter (starting from a
/// resume snapshot's totals) and the open slot's stage nanoseconds and
/// BDMA rounds, and forwards every call to the optional sink.
#[derive(Default)]
struct SlotTally<'s> {
    sink: Option<&'s dyn Recorder>,
    counters: RefCell<BTreeMap<String, u64>>,
    stage_nanos: RefCell<BTreeMap<String, u64>>,
    rounds: Cell<u64>,
}

impl SlotTally<'_> {
    /// Closes the open slot: the seconds spent in each stage that ran
    /// (the whole-slot span excluded) and the BDMA rounds it executed.
    fn close_slot(&self) -> (Vec<(String, f64)>, f64) {
        let stages = std::mem::take(&mut *self.stage_nanos.borrow_mut())
            .into_iter()
            .filter(|(name, _)| name != eotora_obs::SPAN_SLOT_SOLVE)
            .map(|(name, nanos)| (name, nanos as f64 / 1e9))
            .collect();
        (stages, self.rounds.take() as f64)
    }
}

fn bump(map: &RefCell<BTreeMap<String, u64>>, name: &str, delta: u64) {
    let mut map = map.borrow_mut();
    match map.get_mut(name) {
        Some(total) => *total += delta,
        None => {
            map.insert(name.to_owned(), delta);
        }
    }
}

impl Recorder for SlotTally<'_> {
    fn span_ns(&self, name: &str, nanos: u64) {
        bump(&self.stage_nanos, name, nanos);
        if let Some(sink) = self.sink {
            sink.span_ns(name, nanos);
        }
    }

    fn add(&self, name: &str, delta: u64) {
        bump(&self.counters, name, delta);
        if let Some(sink) = self.sink {
            sink.add(name, delta);
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        if let Some(sink) = self.sink {
            sink.gauge(name, value);
        }
    }

    fn record(&self, event: &TraceEvent) {
        if let TraceEvent::BdmaIteration { .. } = event {
            self.rounds.set(self.rounds.get() + 1);
        }
        if let Some(sink) = self.sink {
            sink.record(event);
        }
    }
}

/// The engine behind every entry point: batch loops and the server
/// daemon both solve slots exclusively through [`StepDriver::step`].
pub struct StepDriver<'s> {
    label: String,
    horizon: u64,
    v: f64,
    budget: f64,
    tally: SlotTally<'s>,
    dpp: EotoraDpp,
    sanitizer: StateSanitizer,
    mode: DriverMode,
    corrupt_rng: Pcg32,
    session: Option<DurableSession>,
    cursor: u64,
    journal_frames: u64,
    last_snapshot_slots: u64,
    previous_stations: Option<Vec<u32>>,
    /// Every slot so far, replayed head first, stations dropped; `None`
    /// on a bounded driver.
    records: Option<Vec<SlotRecord>>,
}

impl<'s> StepDriver<'s> {
    /// Builds a driver, performing the resume bootstrap if `session`
    /// carries resume state: the controller, sanitizer, corruption RNG and
    /// counters restore from the snapshot, the journal head becomes the
    /// first slot records, and [`StepDriver::cursor`] starts past the
    /// restored slots. The caller owns fast-forwarding its state *source*
    /// to the cursor (batch re-observes the replayed slots; the server's
    /// clients resend from the cursor).
    pub fn new(
        scenario: &Scenario,
        system: MecSystem,
        mode: DriverMode,
        mut session: Option<DurableSession>,
        sink: Option<&'s dyn Recorder>,
        tuning: DriverTuning,
    ) -> Self {
        let budget = system.budget_per_slot();
        let horizon = tuning.horizon.unwrap_or(scenario.horizon);
        let tally = SlotTally { sink, ..SlotTally::default() };

        // Resume bootstrap: restore controller + sanitizer + corruption
        // RNG + counters from the snapshot and take over the journal head.
        let resume = session.as_mut().and_then(DurableSession::take_resume);
        let dpp = match resume.as_ref().and_then(|state| state.snapshot.as_ref()) {
            Some(snapshot) => EotoraDpp::resume_full(system, &snapshot.controller),
            None => EotoraDpp::new(system, scenario.dpp),
        };
        let mut sanitizer = StateSanitizer::new();
        let mut corrupt_rng = Pcg32::seed_stream(scenario.seed, 0xFA117);
        let mut cursor = 0u64;
        let mut journal_frames = 0u64;
        let mut head: Vec<SlotRecord> = Vec::new();
        if let Some(state) = resume {
            let ResumeState { snapshot, head: records, torn_frames_dropped, frames_discarded } =
                state;
            if let Some(RunSnapshot {
                slots,
                frames,
                sanitizer: sanitizer_snap,
                corrupt_rng: rng,
                counters,
                ..
            }) = snapshot
            {
                sanitizer = StateSanitizer::restore(&sanitizer_snap);
                corrupt_rng = rng;
                cursor = slots;
                journal_frames = frames;
                *tally.counters.borrow_mut() = counters;
                head = records;
                tally.add(eotora_obs::COUNTER_DURABILITY_RESUMED, cursor);
            }
            if torn_frames_dropped > 0 {
                tally.add(eotora_obs::COUNTER_DURABILITY_TORN, torn_frames_dropped);
            }
            if frames_discarded > 0 {
                tally.add(eotora_obs::COUNTER_DURABILITY_DISCARDED, frames_discarded);
            }
        }
        let previous_stations = head.last().map(|rec| rec.stations.clone());
        let records = (!tuning.bounded).then(|| {
            for rec in &mut head {
                rec.stations = Vec::new();
            }
            head
        });

        StepDriver {
            label: scenario.label.clone(),
            horizon,
            v: scenario.dpp.v,
            budget,
            tally,
            dpp,
            sanitizer,
            mode,
            corrupt_rng,
            session,
            last_snapshot_slots: cursor,
            cursor,
            journal_frames,
            previous_stations,
            records,
        }
    }

    /// Opens the `eotora-server` daemon's engine, fresh or resumed
    /// ([`open_session`]): plain, or robust under `deadline`; no horizon,
    /// bounded memory, manifest mode `"server"`.
    pub fn daemon(
        scenario: &Scenario,
        deadline: Option<std::time::Duration>,
        durability: &DurabilityConfig,
        sink: &'s dyn Recorder,
    ) -> Result<Self, DurabilityError> {
        let mode = crate::options::driver_mode(scenario, None, deadline, true);
        let manifest = RunManifest {
            mode: "server".to_owned(),
            faults: None,
            ..RunManifest::new(scenario, &mode, durability)?
        };
        let session = open_session(durability, &manifest)?;
        let system = MecSystem::random(&scenario.system, scenario.seed);
        let tuning = DriverTuning { horizon: Some(u64::MAX), bounded: true };
        Ok(Self::new(scenario, system, mode, Some(session), Some(sink), tuning))
    }

    /// The next slot this driver will solve (> 0 after a resume).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The slot bound this driver runs to (`u64::MAX` on the server).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The budget `C̄` in force ($/slot).
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Re-targets the controller's per-slot budget `C̄` mid-run — the
    /// federation rebalance hook. Takes effect from the next solved slot:
    /// the virtual-queue drift and the reported `cost_usd` both read the
    /// budget in force at each slot, so already-committed slots are
    /// untouched.
    pub fn set_budget_per_slot(&mut self, budget_per_slot: f64) {
        self.budget = budget_per_slot;
        self.dpp.set_budget_per_slot(budget_per_slot);
    }

    /// The controller's current virtual-queue level `Q(t)` — the signal
    /// federated regions gossip to each other.
    pub fn queue_backlog(&self) -> f64 {
        self.dpp.queue_backlog()
    }

    /// Bumps a monotonic counter through the driver's recorder (its
    /// tally plus any external sink), so out-of-band orchestration
    /// events — federation gossip, rebalances — land in the same counter
    /// exports as the solve pipeline's own.
    pub fn add_counter(&self, name: &str, delta: u64) {
        self.tally.add(name, delta);
    }

    /// The topology the controller runs on (for observing states).
    pub fn topology(&self) -> &eotora_topology::Topology {
        self.dpp.system().topology()
    }

    /// Every monotonic counter's current total, including counters
    /// restored from a resume snapshot.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.tally.counters.borrow().clone()
    }

    /// Advances the cursor past unsolved slots — the server's overload
    /// escape hatch: when admission shedding dropped the states for slots
    /// `cursor..slot`, those slots are simply never solved, journaled, or
    /// counted (the virtual queue holds its value across the gap). The
    /// journal keeps its own frame count in the snapshot, so a resumed run
    /// replays exactly the solved slots. Forward only.
    ///
    /// # Panics
    ///
    /// Panics on a backward seek — that would re-solve committed slots.
    pub fn seek(&mut self, slot: u64) {
        assert!(slot >= self.cursor, "seek must move forward ({} -> {slot})", self.cursor);
        self.cursor = slot;
    }

    /// Hot-patches the anytime solve deadline (robust mode only; returns
    /// whether the mode accepted it). The server's config hot-reload uses
    /// this — deadline changes affect only degradation behavior, never
    /// the clean-path decisions.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) -> bool {
        match &mut self.mode {
            DriverMode::Robust { robust, .. } => {
                robust.deadline = deadline;
                true
            }
            _ => false,
        }
    }

    /// Solves one slot: the full committed pipeline — mode dispatch,
    /// counters and events, journal append, due snapshot, kill hook — and
    /// returns its record. `input.slot` is trusted to equal
    /// [`StepDriver::cursor`] (the front-ends normalize or reject).
    pub fn step(&mut self, input: SystemState) -> Result<StepReport, DurabilityError> {
        let slot = self.cursor;
        let recorder: &dyn Recorder = &self.tally;

        let beta;
        let dpp_step;
        let slot_nanos;
        match &self.mode {
            DriverMode::Plain => {
                beta = input;
                let slot_span = SpanGuard::new(recorder, eotora_obs::SPAN_SLOT_SOLVE);
                dpp_step = self.dpp.step_with(&beta, recorder);
                slot_nanos = slot_span.finish().unwrap_or(0);
            }
            DriverMode::Robust { faults, robust } => {
                let mut observed = input;
                if faults.corrupt_at(slot) {
                    corrupt_state(&mut observed, &mut self.corrupt_rng);
                }
                if robust.sanitize {
                    let (clean, substitutions) = self.sanitizer.sanitize(&observed);
                    if substitutions > 0 {
                        recorder.add(eotora_obs::COUNTER_FAULT_STATE_SUBSTITUTIONS, substitutions);
                    }
                    beta = clean;
                } else {
                    // Diagnostic mode: let corrupt observations reach the
                    // solver so the robust ladder (and its postmortem
                    // triggers) can be exercised deterministically.
                    beta = observed;
                }
                let mask = faults.mask_at(slot);
                let slot_span = SpanGuard::new(recorder, eotora_obs::SPAN_SLOT_SOLVE);
                let (robust_step, _report) = self.dpp.step_robust(&beta, &mask, robust, recorder);
                dpp_step = robust_step;
                slot_nanos = slot_span.finish().unwrap_or(0);
            }
        }
        recorder.add(eotora_obs::COUNTER_SLOTS, 1);
        recorder.record(&TraceEvent::Slot {
            slot,
            objective: self.v * dpp_step.outcome.objective
                + dpp_step.queue_before * dpp_step.outcome.constraint_excess,
            latency: dpp_step.outcome.objective,
            cost: dpp_step.outcome.constraint_excess + self.budget,
            queue: dpp_step.queue_after,
        });
        let (stages, rounds_used) = self.tally.close_slot();
        let breakdown = latency_under(self.dpp.system(), &beta, &dpp_step.outcome.decision);
        let stations: Vec<u32> = dpp_step
            .outcome
            .decision
            .assignments
            .iter()
            .map(|a| a.base_station.index() as u32)
            .collect();
        let handover_rate = match &self.previous_stations {
            Some(prev) => {
                prev.iter().zip(&stations).filter(|(a, b)| a != b).count() as f64
                    / stations.len() as f64
            }
            None => 0.0,
        };
        let freqs = &dpp_step.outcome.decision.frequencies_hz;
        let record = SlotRecord {
            slot,
            latency_s: dpp_step.outcome.objective,
            cost_usd: dpp_step.outcome.constraint_excess + self.budget,
            queue: dpp_step.queue_after,
            price: beta.price_per_kwh,
            solve_time_s: slot_nanos as f64 / 1e9,
            fairness: eotora_util::stats::jains_index(&breakdown.per_device).unwrap_or(1.0),
            handover_rate,
            mean_clock_ghz: freqs.iter().sum::<f64>() / freqs.len() as f64 / 1e9,
            rounds_used,
            stations,
            stages,
        };

        let mut interrupted = false;
        if let Some(session) = self.session.as_mut() {
            // A snapshot that landed since the last slot is collected
            // first; a background write error surfaces here.
            session.poll(self.tally.sink)?;
            // Journal latency spans go to the *sink only*: routing them
            // through the tally would book them as a stage of the next
            // slot.
            match self.tally.sink {
                Some(sink) => {
                    let span = SpanGuard::new(sink, eotora_obs::SPAN_JOURNAL_APPEND);
                    session.journal_slot(&record)?;
                    span.finish();
                    if let Some(nanos) = session.take_sync_nanos() {
                        sink.span_ns(eotora_obs::SPAN_JOURNAL_FSYNC, nanos);
                    }
                }
                None => session.journal_slot(&record)?,
            }
            self.tally.add(eotora_obs::COUNTER_DURABILITY_FRAMES, 1);
            self.journal_frames += 1;
            let completed = slot + 1;
            if session.checkpoint_due(completed, self.horizon) {
                // Count the snapshot *before* capturing counters so resumed
                // totals match the uninterrupted run's.
                self.tally.add(eotora_obs::COUNTER_DURABILITY_SNAPSHOTS, 1);
                enqueue_checkpoint(
                    session,
                    &self.tally,
                    completed,
                    self.journal_frames,
                    &self.dpp,
                    &self.sanitizer,
                    &self.corrupt_rng,
                )?;
                self.last_snapshot_slots = completed;
            }
            interrupted = session.should_kill(slot);
            if interrupted {
                // The simulated crash leaves the directory as a synchronous
                // snapshot would have.
                session.drain(self.tally.sink)?;
            }
        }
        if let Some(records) = self.records.as_mut() {
            records.push(SlotRecord {
                stations: Vec::new(),
                stages: record.stages.clone(),
                ..record
            });
        }
        self.previous_stations = Some(record.stations.clone());
        self.cursor = slot + 1;
        Ok(StepReport { record, interrupted })
    }

    /// Writes a snapshot of the current state *now*, outside the regular
    /// cadence — the graceful-shutdown path (SIGTERM/SIGINT, EOF) — and
    /// waits for it to land. Syncs the journal first, exactly like an
    /// in-loop checkpoint. Returns `false` without writing when there is
    /// no durable session, nothing has completed, or the latest cadence
    /// snapshot already covers the cursor (so a shutdown on a checkpoint
    /// boundary writes nothing and resumed counter totals stay
    /// deterministic); a cadence snapshot still in flight is waited for
    /// either way.
    pub fn checkpoint_now(&mut self) -> Result<bool, DurabilityError> {
        let Some(session) = self.session.as_mut() else {
            return Ok(false);
        };
        let wrote = self.cursor > 0 && self.last_snapshot_slots != self.cursor;
        if wrote {
            self.tally.add(eotora_obs::COUNTER_DURABILITY_SNAPSHOTS, 1);
            enqueue_checkpoint(
                session,
                &self.tally,
                self.cursor,
                self.journal_frames,
                &self.dpp,
                &self.sanitizer,
                &self.corrupt_rng,
            )?;
            self.last_snapshot_slots = self.cursor;
        }
        session.drain(self.tally.sink)?;
        Ok(wrote)
    }

    /// Waits for the snapshot in flight, if any, to land, returning the
    /// error it met — for a caller about to look at or act on the
    /// checkpoint directory (the daemon's config reload).
    pub fn drain_checkpoint(&mut self) -> Result<(), DurabilityError> {
        match self.session.as_mut() {
            Some(session) => session.drain(self.tally.sink),
            None => Ok(()),
        }
    }

    /// Folds the driver's slot records — replayed head and live slots
    /// alike — into a [`SimulationResult`], so a resumed run's series are
    /// bit-identical to an uninterrupted run's. Waits for the last
    /// snapshot to land first and returns its error, if any.
    pub fn finish(mut self) -> Result<SimulationResult, DurabilityError> {
        self.drain_checkpoint()?;
        Ok(SimulationResult {
            label: self.label,
            counters: self.tally.counters.into_inner(),
            budget: self.budget,
            average_latency: self.dpp.average_latency(),
            average_cost: self.dpp.average_cost(),
            ..fold_records(self.records.as_deref().unwrap_or_default())
        })
    }
}

/// Folds slot records into a result's per-slot series: one entry per
/// record in each, stage series over the union of the stage names with
/// 0.0 where a stage did not run, and the BDMA-round mean as the exact
/// integer sum over BDMA-active slots divided by their count. Label,
/// counters, budget and averages are left empty for the caller.
fn fold_records(records: &[SlotRecord]) -> SimulationResult {
    let series = |name: &str, value: fn(&SlotRecord) -> f64| {
        let mut series = TimeSeries::new(name);
        for rec in records {
            series.push(value(rec));
        }
        series
    };
    let stage_names: BTreeSet<&str> =
        records.iter().flat_map(|rec| rec.stages.iter().map(|(name, _)| name.as_str())).collect();
    let per_stage_solve_time = stage_names
        .into_iter()
        .map(|name| {
            let mut series = TimeSeries::new(name);
            for rec in records {
                series.push(rec.stages.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v));
            }
            (name.to_owned(), series)
        })
        .collect();
    let (sum, count) = records
        .iter()
        .filter(|rec| rec.rounds_used > 0.0)
        .fold((0u128, 0u64), |(sum, count), rec| (sum + rec.rounds_used as u128, count + 1));
    SimulationResult {
        label: String::new(),
        latency: series("latency_s", |rec| rec.latency_s),
        cost: series("cost_usd", |rec| rec.cost_usd),
        queue: series("queue_backlog", |rec| rec.queue),
        price: series("price_usd_per_kwh", |rec| rec.price),
        solve_time: series("solve_time_s", |rec| rec.solve_time_s),
        fairness: series("jains_index", |rec| rec.fairness),
        handover_rate: series("handover_rate", |rec| rec.handover_rate),
        mean_clock_ghz: series("mean_clock_ghz", |rec| rec.mean_clock_ghz),
        per_stage_solve_time,
        rounds_used: series("bdma_rounds", |rec| rec.rounds_used),
        mean_bdma_rounds: if count > 0 { sum as f64 / count as f64 } else { 0.0 },
        counters: BTreeMap::new(),
        budget: 0.0,
        average_latency: 0.0,
        average_cost: 0.0,
    }
}

/// Captures the driver's state as of `completed` slots and hands it to
/// the session's snapshot writer (the caller counts the snapshot in the
/// tally *before* calling, so the captured counters include it). The
/// `journal.snapshot_write` span times this calling-thread part only:
/// capture, JSON and hand-off.
fn enqueue_checkpoint(
    session: &mut DurableSession,
    tally: &SlotTally<'_>,
    completed: u64,
    frames: u64,
    dpp: &EotoraDpp,
    sanitizer: &StateSanitizer,
    corrupt_rng: &Pcg32,
) -> Result<(), DurabilityError> {
    let _span = tally.sink.map(|sink| SpanGuard::new(sink, eotora_obs::SPAN_SNAPSHOT_WRITE));
    let snapshot = RunSnapshot {
        slots: completed,
        frames,
        controller: dpp.checkpoint_full(),
        sanitizer: sanitizer.snapshot(),
        corrupt_rng: corrupt_rng.clone(),
        counters: tally.counters.borrow().clone(),
    };
    session.enqueue_snapshot(&snapshot, tally.sink)
}

/// Deterministically mangles a handful of state entries — the corruption
/// model behind `CorruptState` fault events: NaN task sizes, negative data
/// lengths, infinite spectral efficiencies, NaN prices.
fn corrupt_state(state: &mut SystemState, rng: &mut Pcg32) {
    let devices = state.task_cycles.len().max(1);
    for _ in 0..(1 + rng.below(3)) {
        match rng.below(4) {
            0 => state.task_cycles[rng.below(devices)] = f64::NAN,
            1 => state.data_bits[rng.below(devices)] = -1.0,
            2 => {
                let i = rng.below(state.spectral_efficiency.len().max(1));
                let row = &mut state.spectral_efficiency[i];
                let k = rng.below(row.len().max(1));
                row[k] = f64::INFINITY;
            }
            _ => state.price_per_kwh = f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_states::StateProvider;
    use proptest::prelude::*;

    fn record(slot: u64, stages: &[(&str, f64)], rounds_used: f64) -> SlotRecord {
        SlotRecord {
            slot,
            latency_s: 1.0 + slot as f64,
            cost_usd: 0.5,
            queue: slot as f64,
            price: 0.1,
            solve_time_s: 0.01,
            fairness: 0.9,
            handover_rate: 0.0,
            mean_clock_ghz: 2.0,
            rounds_used,
            stations: Vec::new(),
            stages: stages.iter().map(|&(name, v)| (name.to_owned(), v)).collect(),
        }
    }

    fn bdma_iteration(round: u64) -> TraceEvent {
        TraceEvent::BdmaIteration {
            slot: 0,
            round,
            objective: 0.0,
            accepted: true,
            p2a_nanos: 0,
            p2b_nanos: 0,
        }
    }

    #[test]
    fn tally_closes_each_slot() {
        let tally = SlotTally::default();
        tally.span_ns("p2a", 500_000_000);
        tally.span_ns("p2a", 500_000_000);
        tally.span_ns("p2b", 3_000_000_000);
        tally.span_ns(eotora_obs::SPAN_SLOT_SOLVE, 5_000_000_000);
        for round in 1..=3 {
            tally.record(&bdma_iteration(round));
        }
        let (stages, rounds) = tally.close_slot();
        assert_eq!(stages, vec![("p2a".to_owned(), 1.0), ("p2b".to_owned(), 3.0)]);
        assert_eq!(rounds, 3.0);
        // The next slot starts empty: nothing carries over.
        assert_eq!(tally.close_slot(), (Vec::new(), 0.0));
    }

    #[test]
    fn stage_series_align_per_slot() {
        // Slot 0: only p2a runs; slot 1: p2a and p2b; slot 2: neither.
        let records = [
            record(0, &[("p2a", 2.0)], 1.0),
            record(1, &[("p2a", 1.0), ("p2b", 3.0)], 1.0),
            record(2, &[], 0.0),
        ];
        let result = fold_records(&records);
        assert_eq!(result.per_stage_solve_time["p2a"].values(), [2.0, 1.0, 0.0]);
        assert_eq!(result.per_stage_solve_time["p2b"].values(), [0.0, 3.0, 0.0]);
        assert_eq!(result.per_stage_solve_time.len(), 2);
        assert_eq!(result.latency.values(), [1.0, 2.0, 3.0]);
        assert_eq!(result.queue.values(), [0.0, 1.0, 2.0]);
    }

    #[test]
    fn bdma_rounds_average_over_active_slots() {
        let records = [record(0, &[], 3.0), record(1, &[], 0.0), record(2, &[], 1.0)];
        let result = fold_records(&records);
        assert_eq!(result.rounds_used.values(), [3.0, 0.0, 1.0]);
        // Slot 1 never ran BDMA, so it does not dilute the mean.
        assert_eq!(result.mean_bdma_rounds, 2.0);
        assert_eq!(fold_records(&records[1..2]).mean_bdma_rounds, 0.0);
    }

    /// Slot records of a stage pattern, each listing only the stages that
    /// ran, except that the first `cut` records take the older journal
    /// form, which lists every stage seen so far (0.0 when idle) — what a
    /// run resumed from such a journal replays as its head.
    fn pattern_records(pattern: &[(bool, bool)], cut: usize) -> Vec<SlotRecord> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        pattern
            .iter()
            .enumerate()
            .map(|(i, &(run_a, run_b))| {
                let mut stages = Vec::new();
                if run_a {
                    stages.push(("p2a", 1e-8));
                }
                if run_b {
                    stages.push(("p2b", 2e-8));
                }
                seen.extend(stages.iter().map(|&(name, _)| name));
                if i < cut {
                    stages = seen
                        .iter()
                        .map(|&name| {
                            (name, stages.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1))
                        })
                        .collect();
                }
                record(i as u64, &stages, if run_a { 2.0 } else { 0.0 })
            })
            .collect()
    }

    proptest! {
        /// Counters only ever increase, regardless of interleaving.
        #[test]
        fn counters_never_decrease(deltas in prop::collection::vec(0u64..1000, 1..50)) {
            let tally = SlotTally::default();
            let mut prev = 0;
            for &d in &deltas {
                tally.add("bdma_rounds", d);
                let now = tally.counters.borrow()["bdma_rounds"];
                prop_assert_eq!(now, prev + d);
                prev = now;
            }
        }

        /// Every stage series has exactly one entry per slot, and cutting
        /// the records anywhere into a replayed head and live slots folds
        /// to the same result.
        #[test]
        fn stage_series_lengths_match_slots(
            pattern in prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 1..20),
        ) {
            let live = fold_records(&pattern_records(&pattern, 0));
            for series in live.per_stage_solve_time.values() {
                prop_assert_eq!(series.len(), pattern.len());
            }
            prop_assert_eq!(live.rounds_used.len(), pattern.len());
            for cut in 1..=pattern.len() {
                prop_assert_eq!(&fold_records(&pattern_records(&pattern, cut)), &live);
            }
        }
    }

    /// Runs `scenario` to its horizon into a fresh checkpoint directory
    /// `tag` and returns the durability config and manifest that reopen
    /// it.
    fn run_to_horizon(
        scenario: &Scenario,
        bounded: bool,
        tag: &str,
    ) -> (DurabilityConfig, RunManifest) {
        let dir = std::env::temp_dir().join(format!(
            "eotora-engine-{}-{tag}-{bounded}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(&dir);
        let manifest = RunManifest::new(scenario, &DriverMode::Plain, &durability).unwrap();
        let system = MecSystem::random(&scenario.system, scenario.seed);
        let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
        let session = open_session(&durability, &manifest).unwrap();
        let tuning = DriverTuning { horizon: None, bounded };
        let mut driver =
            StepDriver::new(scenario, system, DriverMode::Plain, Some(session), None, tuning);
        while driver.cursor() < driver.horizon() {
            let beta = states.observe(driver.cursor(), driver.topology());
            assert!(!driver.step(beta).unwrap().interrupted);
        }
        (durability, manifest)
    }

    /// The records journaled in the checkpoint directory `dir`.
    fn read_records(dir: &std::path::Path) -> Vec<SlotRecord> {
        let frames = eotora_durability::read_journal(&dir.join("journal")).unwrap();
        frames.frames.iter().map(|frame| SlotRecord::decode(frame).unwrap()).collect()
    }

    /// The records `scenario` journals, read back from disk.
    fn journaled(scenario: &Scenario, bounded: bool) -> Vec<SlotRecord> {
        let (durability, _) = run_to_horizon(scenario, bounded, "journaled");
        let records = read_records(&durability.dir);
        let _ = std::fs::remove_dir_all(&durability.dir);
        records
    }

    #[test]
    fn a_resumed_head_keeps_only_the_last_records_stations() {
        let scenario = Scenario::paper(8, 5).with_horizon(7);
        let (durability, manifest) = run_to_horizon(&scenario, false, "head");
        let journal = read_records(&durability.dir);
        let mut session = open_session(&durability, &manifest).unwrap();
        let head = session.take_resume().expect("a finished run resumes").head;
        drop(session);
        let _ = std::fs::remove_dir_all(&durability.dir);
        assert_eq!(head.len(), 7);
        assert_eq!(head.iter().filter(|rec| !rec.stations.is_empty()).count(), 1);
        let last = head.last().unwrap();
        assert_eq!(last.stations, journal[6].stations);
        assert_eq!(last.stations.len(), 8);
        for (rec, full) in head.iter().zip(&journal) {
            assert_eq!(
                SlotRecord { stations: Vec::new(), ..rec.clone() },
                SlotRecord { stations: Vec::new(), ..full.clone() }
            );
        }
    }

    #[test]
    fn bounded_and_unbounded_drivers_journal_the_same_stages() {
        // Warm starts vary the BDMA rounds from slot to slot.
        let scenario = Scenario::paper(8, 7)
            .with_horizon(6)
            .with_bdma_rounds(3)
            .with_start_policy(eotora_core::bdma::StartPolicy::Warm);
        let bounded = journaled(&scenario, true);
        let unbounded = journaled(&scenario, false);
        assert_eq!(bounded.len(), 6);
        assert_eq!(unbounded.len(), 6);
        for (b, u) in bounded.iter().zip(&unbounded) {
            let names =
                |rec: &SlotRecord| rec.stages.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
            assert_eq!(names(b), names(u), "slot {}", b.slot);
            assert!(names(b).iter().any(|n| n == eotora_obs::SPAN_P2A), "slot {}", b.slot);
            assert_eq!(b.rounds_used, u.rounds_used, "slot {}", b.slot);
            assert!(b.rounds_used >= 1.0, "slot {}", b.slot);
            assert_eq!(b.stations, u.stations, "slot {}", b.slot);
        }
        assert!(bounded.iter().any(|rec| rec.rounds_used != bounded[0].rounds_used));
    }
}
