//! The reusable per-slot step driver shared by every engine front-end.
//!
//! [`StepDriver`] owns one controller's complete solving state — the DPP
//! controller, sanitizer, corruption RNG, metrics recorder, and optional
//! durable session — and exposes a single [`StepDriver::step`]: feed it
//! the observed `β_t`, get back the slot's decision summary. The batch
//! `run_engine` loop drives it for `scenario.horizon` slots from a
//! `StateProvider`; the `eotora-server` daemon drives the *same* driver
//! from a JSONL stream with no horizon (`DriverTuning::horizon =
//! u64::MAX`), which is what makes the server's decision stream
//! bit-identical to the batch CSV by construction.
//!
//! The per-slot sequencing inside [`StepDriver::step`] — mode dispatch,
//! counter/event emission, series pushes, journal append, snapshot
//! cadence, kill hook — is the exact order the pre-extraction `run_engine`
//! used; the kill–resume chaos tests pin that order (a snapshot is counted
//! *before* its counters are captured, the journal is synced *before* the
//! snapshot lands).

use std::collections::BTreeMap;

use eotora_core::dpp::EotoraDpp;
use eotora_core::fault::FaultSchedule;
use eotora_core::latency::latency_under;
use eotora_core::robust::RobustConfig;
use eotora_core::sanitize::StateSanitizer;
use eotora_core::system::MecSystem;
use eotora_durability::{DurabilityError, SlotRecord};
use eotora_obs::{MetricsRecorder, Recorder, SpanGuard, TeeRecorder, TraceEvent};
use eotora_states::SystemState;
use eotora_util::rng::Pcg32;
use eotora_util::series::TimeSeries;

use crate::durable::{DurableSession, ResumeState, RunSnapshot};
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
    /// Bounded-memory mode for long-running processes: the metrics
    /// recorder keeps only the last slot's per-slot series
    /// ([`MetricsRecorder::bounded`]) and the driver skips accumulating
    /// the whole-run `TimeSeries`. [`StepDriver::finish`] then returns
    /// empty series — the server never calls it.
    pub bounded: bool,
}

/// One completed slot, as the caller sees it: everything needed to emit
/// a decision record or a CSV row. All fields are decision-derived and
/// deterministic except `solve_time_s` (wall clock).
#[derive(Debug, Clone)]
pub struct StepReport {
    /// The slot just solved.
    pub slot: u64,
    /// Fleet latency `T_t` (seconds).
    pub latency_s: f64,
    /// Energy cost `C_t` (dollars).
    pub cost_usd: f64,
    /// Virtual-queue backlog `Q(t+1)` after the slot.
    pub queue: f64,
    /// Electricity price `p_t` observed ($/kWh).
    pub price: f64,
    /// Wall-clock solve time (seconds; not deterministic).
    pub solve_time_s: f64,
    /// Jain's fairness index of per-device latencies.
    pub fairness: f64,
    /// Fraction of devices that changed base station vs the previous slot.
    pub handover_rate: f64,
    /// Fleet mean clock frequency (GHz).
    pub mean_clock_ghz: f64,
    /// BDMA alternation rounds executed (0 if BDMA never ran).
    pub rounds_used: f64,
    /// Chosen base station per device.
    pub stations: Vec<u32>,
    /// Whether the durable session's kill hook fired after this slot
    /// (the slot itself is fully committed; the driver must be dropped).
    pub interrupted: bool,
}

/// The engine behind every entry point: batch loops and the server
/// daemon both solve slots exclusively through [`StepDriver::step`].
pub struct StepDriver<'s> {
    label: String,
    horizon: u64,
    v: f64,
    budget: f64,
    metrics: MetricsRecorder,
    sink: Option<&'s dyn Recorder>,
    dpp: EotoraDpp,
    sanitizer: StateSanitizer,
    mode: DriverMode,
    corrupt_rng: Pcg32,
    session: Option<DurableSession>,
    base_counters: BTreeMap<String, u64>,
    head: Vec<SlotRecord>,
    cursor: u64,
    journal_frames: u64,
    last_snapshot_slots: u64,
    previous_stations: Option<Vec<usize>>,
    retain_series: bool,
    latency: TimeSeries,
    cost: TimeSeries,
    queue: TimeSeries,
    price: TimeSeries,
    solve_time: TimeSeries,
    fairness: TimeSeries,
    handover_rate: TimeSeries,
    mean_clock_ghz: TimeSeries,
}

impl<'s> StepDriver<'s> {
    /// Builds a driver, performing the resume bootstrap if `session`
    /// carries resume state: the controller, sanitizer, and corruption
    /// RNG restore from the snapshot, the journal head replays into the
    /// series, and [`StepDriver::cursor`] starts past the restored slots.
    /// The caller owns fast-forwarding its state *source* to the cursor
    /// (batch re-observes the replayed slots; the server's clients resend
    /// from the cursor).
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
        let retain_series = !tuning.bounded;
        let metrics =
            if tuning.bounded { MetricsRecorder::bounded() } else { MetricsRecorder::new() };

        // Resume bootstrap: restore controller + sanitizer + corruption
        // RNG from the snapshot and replay the journal head.
        let resume = session.as_mut().and_then(DurableSession::take_resume);
        let dpp = match resume.as_ref().and_then(|state| state.snapshot.as_ref()) {
            Some(snapshot) => EotoraDpp::resume_full(system, &snapshot.controller),
            None => EotoraDpp::new(system, scenario.dpp),
        };
        let mut sanitizer = StateSanitizer::new();
        let mut corrupt_rng = Pcg32::seed_stream(scenario.seed, 0xFA117);
        let mut cursor = 0u64;
        let mut journal_frames = 0u64;
        let mut base_counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut head: Vec<SlotRecord> = Vec::new();
        if let Some(state) = resume {
            let tee;
            let recorder: &dyn Recorder = match sink {
                Some(sink) => {
                    tee = TeeRecorder::new(&metrics, sink);
                    &tee
                }
                None => &metrics,
            };
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
                base_counters = counters;
                head = records;
                recorder.add(eotora_obs::COUNTER_DURABILITY_RESUMED, cursor);
            }
            if torn_frames_dropped > 0 {
                recorder.add(eotora_obs::COUNTER_DURABILITY_TORN, torn_frames_dropped);
            }
            if frames_discarded > 0 {
                recorder.add(eotora_obs::COUNTER_DURABILITY_DISCARDED, frames_discarded);
            }
        }

        let mut latency = TimeSeries::new("latency_s");
        let mut cost = TimeSeries::new("cost_usd");
        let mut queue = TimeSeries::new("queue_backlog");
        let mut price = TimeSeries::new("price_usd_per_kwh");
        let mut solve_time = TimeSeries::new("solve_time_s");
        let mut fairness = TimeSeries::new("jains_index");
        let mut handover_rate = TimeSeries::new("handover_rate");
        let mut mean_clock_ghz = TimeSeries::new("mean_clock_ghz");
        if retain_series {
            for rec in &head {
                latency.push(rec.latency_s);
                cost.push(rec.cost_usd);
                queue.push(rec.queue);
                price.push(rec.price);
                solve_time.push(rec.solve_time_s);
                fairness.push(rec.fairness);
                handover_rate.push(rec.handover_rate);
                mean_clock_ghz.push(rec.mean_clock_ghz);
            }
        }
        let previous_stations: Option<Vec<usize>> =
            head.last().map(|rec| rec.stations.iter().map(|&s| s as usize).collect());

        StepDriver {
            label: scenario.label.clone(),
            horizon,
            v: scenario.dpp.v,
            budget,
            metrics,
            sink,
            dpp,
            sanitizer,
            mode,
            corrupt_rng,
            session,
            base_counters,
            last_snapshot_slots: cursor,
            head,
            cursor,
            journal_frames,
            previous_stations,
            retain_series,
            latency,
            cost,
            queue,
            price,
            solve_time,
            fairness,
            handover_rate,
            mean_clock_ghz,
        }
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

    /// Bumps a monotonic counter through the driver's recorder stack
    /// (metrics plus any external sink), so out-of-band orchestration
    /// events — federation gossip, rebalances — land in the same counter
    /// exports as the solve pipeline's own.
    pub fn add_counter(&self, name: &str, delta: u64) {
        self.metrics.add(name, delta);
        if let Some(sink) = self.sink {
            sink.add(name, delta);
        }
    }

    /// The topology the controller runs on (for observing states).
    pub fn topology(&self) -> &eotora_topology::Topology {
        self.dpp.system().topology()
    }

    /// The in-memory metrics recorder (counters, spans, last-slot stats).
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// Every monotonic counter's current total, including counters
    /// restored from a resume snapshot.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut counters = self.base_counters.clone();
        for (name, value) in self.metrics.counters() {
            *counters.entry(name).or_insert(0) += value;
        }
        counters
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
    /// metrics, series, journal append, due snapshot, kill hook.
    /// `input.slot` is trusted to equal [`StepDriver::cursor`] (the
    /// front-ends normalize or reject).
    pub fn step(&mut self, input: SystemState) -> Result<StepReport, DurabilityError> {
        let slot = self.cursor;
        let tee;
        let recorder: &dyn Recorder = match self.sink {
            Some(sink) => {
                tee = TeeRecorder::new(&self.metrics, sink);
                &tee
            }
            None => &self.metrics,
        };

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
        let breakdown = latency_under(self.dpp.system(), &beta, &dpp_step.outcome.decision);
        let fair = eotora_util::stats::jains_index(&breakdown.per_device).unwrap_or(1.0);
        let stations: Vec<usize> =
            dpp_step.outcome.decision.assignments.iter().map(|a| a.base_station.index()).collect();
        let handover = match &self.previous_stations {
            Some(prev) => {
                prev.iter().zip(&stations).filter(|(a, b)| a != b).count() as f64
                    / stations.len() as f64
            }
            None => 0.0,
        };
        let freqs = &dpp_step.outcome.decision.frequencies_hz;
        let clock = freqs.iter().sum::<f64>() / freqs.len() as f64 / 1e9;
        if self.retain_series {
            self.solve_time.push(slot_nanos as f64 / 1e9);
            self.latency.push(dpp_step.outcome.objective);
            self.cost.push(dpp_step.outcome.constraint_excess + self.budget);
            self.queue.push(dpp_step.queue_after);
            self.price.push(beta.price_per_kwh);
            self.fairness.push(fair);
            self.handover_rate.push(handover);
            self.mean_clock_ghz.push(clock);
        }
        let mut report = StepReport {
            slot,
            latency_s: dpp_step.outcome.objective,
            cost_usd: dpp_step.outcome.constraint_excess + self.budget,
            queue: dpp_step.queue_after,
            price: beta.price_per_kwh,
            solve_time_s: slot_nanos as f64 / 1e9,
            fairness: fair,
            handover_rate: handover,
            mean_clock_ghz: clock,
            rounds_used: self.metrics.last_slot_rounds().unwrap_or(0.0),
            stations: stations.iter().map(|&s| s as u32).collect(),
            interrupted: false,
        };

        if let Some(session) = self.session.as_mut() {
            // The Slot event above closed the slot in the metrics recorder,
            // so the last-slot stage and rounds readouts are this slot's.
            let record = SlotRecord {
                slot,
                latency_s: report.latency_s,
                cost_usd: report.cost_usd,
                queue: report.queue,
                price: report.price,
                solve_time_s: report.solve_time_s,
                fairness: report.fairness,
                handover_rate: report.handover_rate,
                mean_clock_ghz: report.mean_clock_ghz,
                rounds_used: report.rounds_used,
                stations: report.stations.clone(),
                stages: self
                    .metrics
                    .last_slot_stages()
                    .into_iter()
                    .filter(|(name, _)| name != eotora_obs::SPAN_SLOT_SOLVE)
                    .collect(),
            };
            // Journal latency spans go to the *sink only*: routing them
            // through the aggregating recorder would perturb per-stage
            // series and resumed-run counter identity.
            match self.sink {
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
            recorder.add(eotora_obs::COUNTER_DURABILITY_FRAMES, 1);
            self.journal_frames += 1;
            let completed = slot + 1;
            if session.checkpoint_due(completed, self.horizon) {
                // Count the snapshot *before* capturing counters so resumed
                // totals match the uninterrupted run's.
                recorder.add(eotora_obs::COUNTER_DURABILITY_SNAPSHOTS, 1);
                write_checkpoint(
                    session,
                    self.sink,
                    completed,
                    self.journal_frames,
                    &self.dpp,
                    &self.sanitizer,
                    &self.corrupt_rng,
                    &self.base_counters,
                    &self.metrics,
                )?;
                self.last_snapshot_slots = completed;
            }
            if session.should_kill(slot) {
                self.cursor = slot + 1;
                report.interrupted = true;
                return Ok(report);
            }
        }
        self.previous_stations = Some(stations);
        self.cursor = slot + 1;
        Ok(report)
    }

    /// Writes a snapshot of the current state *now*, outside the regular
    /// cadence — the graceful-shutdown path (SIGTERM/SIGINT, EOF). Syncs
    /// the journal first, exactly like an in-loop checkpoint. Returns
    /// `false` without touching disk when there is no durable session,
    /// nothing has completed, or the latest cadence snapshot already
    /// covers the cursor (so a shutdown on a checkpoint boundary is a
    /// no-op and resumed counter totals stay deterministic).
    pub fn checkpoint_now(&mut self) -> Result<bool, DurabilityError> {
        if self.cursor == 0 || self.last_snapshot_slots == self.cursor {
            return Ok(false);
        }
        let Some(session) = self.session.as_mut() else {
            return Ok(false);
        };
        let tee;
        let recorder: &dyn Recorder = match self.sink {
            Some(sink) => {
                tee = TeeRecorder::new(&self.metrics, sink);
                &tee
            }
            None => &self.metrics,
        };
        recorder.add(eotora_obs::COUNTER_DURABILITY_SNAPSHOTS, 1);
        write_checkpoint(
            session,
            self.sink,
            self.cursor,
            self.journal_frames,
            &self.dpp,
            &self.sanitizer,
            &self.corrupt_rng,
            &self.base_counters,
            &self.metrics,
        )?;
        self.last_snapshot_slots = self.cursor;
        Ok(true)
    }

    /// Folds the driver into a [`SimulationResult`](crate::runner::SimulationResult): stitches the
    /// replayed journal head with the live slots so per-stage series,
    /// `rounds_used`, and the BDMA-round mean are bit-identical to an
    /// uninterrupted run.
    pub fn finish(self) -> crate::runner::SimulationResult {
        use std::collections::BTreeSet;

        let metrics = &self.metrics;
        let head = &self.head;
        // Stitch per-stage series: replayed head first, then the live run.
        // Stages absent on one side zero-pad, keeping every series aligned
        // (one entry per slot).
        let live_stages: BTreeMap<String, Vec<f64>> = metrics
            .stage_series()
            .into_iter()
            .filter(|(name, _)| name != eotora_obs::SPAN_SLOT_SOLVE)
            .collect();
        let live_len = metrics.slots() as usize;
        let mut stage_names: BTreeSet<String> = live_stages.keys().cloned().collect();
        for rec in head {
            for (name, _) in &rec.stages {
                stage_names.insert(name.clone());
            }
        }
        let per_stage_solve_time = stage_names
            .into_iter()
            .map(|name| {
                let mut series = TimeSeries::new(&name);
                for rec in head {
                    series
                        .push(rec.stages.iter().find(|(n, _)| n == &name).map_or(0.0, |&(_, v)| v));
                }
                match live_stages.get(&name) {
                    Some(values) => {
                        for &v in values {
                            series.push(v);
                        }
                    }
                    None => {
                        for _ in 0..live_len {
                            series.push(0.0);
                        }
                    }
                }
                (name, series)
            })
            .collect();

        let mut rounds_used = TimeSeries::new("bdma_rounds");
        for rec in head {
            rounds_used.push(rec.rounds_used);
        }
        for r in metrics.bdma_rounds_series() {
            rounds_used.push(r);
        }
        let mean_bdma_rounds = if head.is_empty() {
            metrics.mean_bdma_rounds().unwrap_or(0.0)
        } else {
            // Recompute over the stitched series with the histogram's exact
            // integer arithmetic (u128 sum of integral round counts over
            // BDMA-active slots), so a resumed run's mean matches the
            // uninterrupted run bit-for-bit.
            let mut sum: u128 = 0;
            let mut count: u64 = 0;
            for &r in rounds_used.values() {
                if r > 0.0 {
                    sum += r as u128;
                    count += 1;
                }
            }
            if count > 0 {
                sum as f64 / count as f64
            } else {
                0.0
            }
        };

        let counters = self.counters();

        crate::runner::SimulationResult {
            label: self.label,
            average_latency: self.dpp.average_latency(),
            average_cost: self.dpp.average_cost(),
            latency: self.latency,
            cost: self.cost,
            queue: self.queue,
            price: self.price,
            solve_time: self.solve_time,
            fairness: self.fairness,
            handover_rate: self.handover_rate,
            mean_clock_ghz: self.mean_clock_ghz,
            per_stage_solve_time,
            rounds_used,
            mean_bdma_rounds,
            counters,
            budget: self.budget,
        }
    }
}

/// Syncs the journal and atomically rewrites the snapshot with the
/// driver's state as of `completed` slots (the caller counts the
/// snapshot in the recorder *before* calling, so the captured counters
/// include it).
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    session: &mut DurableSession,
    sink: Option<&dyn Recorder>,
    completed: u64,
    frames: u64,
    dpp: &EotoraDpp,
    sanitizer: &StateSanitizer,
    corrupt_rng: &Pcg32,
    base_counters: &BTreeMap<String, u64>,
    metrics: &MetricsRecorder,
) -> Result<(), DurabilityError> {
    let mut counters = base_counters.clone();
    for (name, value) in metrics.counters() {
        *counters.entry(name).or_insert(0) += value;
    }
    let snapshot = RunSnapshot {
        slots: completed,
        frames,
        controller: dpp.checkpoint_full(),
        sanitizer: sanitizer.snapshot(),
        corrupt_rng: corrupt_rng.clone(),
        counters,
    };
    match sink {
        Some(sink) => {
            let span = SpanGuard::new(sink, eotora_obs::SPAN_SNAPSHOT_WRITE);
            session.write_snapshot(&snapshot)?;
            span.finish();
            if let Some(nanos) = session.take_sync_nanos() {
                sink.span_ns(eotora_obs::SPAN_JOURNAL_FSYNC, nanos);
            }
        }
        None => session.write_snapshot(&snapshot)?,
    }
    Ok(())
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
