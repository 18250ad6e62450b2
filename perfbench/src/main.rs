//! `perfbench` — the end-to-end benchmark of the eotora controller.
//!
//! ```text
//! perfbench --workload <paper_plain|serve_deadline|islands_batch>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of measured time, checks every
//! decision it produced, prints a table of its metrics (value, unit and
//! sample count) and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! split from a separate traced run. See `perfbench/README.md`.

mod batch;
mod check;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use eotora_server::DecisionRecord;
use eotora_sim::Scenario;

use crate::batch::{check_episode, run_episode, setup_sample, Episode};
use crate::check::{check_same_stream, check_stream, Tally};
use crate::probe::Probe;
use crate::report::{Figure, Figures, Outcome, Stamp};
use crate::serve::{closed_loop, run_served, served_tally, StateLines, WorkDir};
use crate::trace::{SlotLayers, SlotRecorder};

/// Seed of the system instance (topology, servers, budget) every workload
/// runs on. The run's `--seed` draws the slot states and the solver's own
/// random seeds; the instance stays fixed because instance-to-instance
/// differences (fleet latency 4.7–6.0 s over seeds 1–5 at 100 devices)
/// would swamp every bound.
const SYSTEM_SEED: u64 = 1;
/// Devices of the paper scenario (`paper_plain`, `serve_deadline`).
const PAPER_DEVICES: usize = 100;
/// Slots per `paper_plain` episode. Per-slot work grows with Q(t), so the
/// count is part of the workload's definition.
const PAPER_SLOTS: u64 = 200;
/// Slots per `serve_deadline` episode.
const SERVE_SLOTS: u64 = 200;
/// Devices and islands of `islands_batch`.
const ISLANDS_SHAPE: (usize, usize) = (200, 4);
/// Slots per `islands_batch` episode.
const ISLANDS_SLOTS: u64 = 200;
/// Slots of the `islands_batch` sequential cross-check.
const ISLANDS_CHECK_PREFIX: u64 = 20;
/// Set-up repetitions before each batch episode; `setup_s` is the median
/// of all of a run's repetitions, so that they sample the whole run.
const SETUP_REPS: usize = 51;
/// Set-up repetitions before each `serve_deadline` episode (each starts
/// and stops the daemon, about 2 ms).
const SERVE_SETUP_REPS: usize = 21;
/// Episodes a run measures at least; each timing figure is the median
/// over the run's episodes (see [`Timings`]).
const MIN_EPISODES: usize = 3;

const WORKLOADS: [&str; 3] = ["paper_plain", "serve_deadline", "islands_batch"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eotora_util::pool::set_default_workers(nproc);
    let stamp = Stamp {
        workload: args.workload,
        seed: args.seed,
        slots: 0,
        episodes: 0,
        nproc,
        workers: eotora_util::pool::default_workers(),
        git_rev: git_rev(),
        profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        trace: args.trace,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let result = match (args.workload, args.trace) {
        ("paper_plain", false) => {
            batch_e2e(stamp, &paper_plain(args.seed), PAPER_SLOTS, budget).map(|(o, _)| o)
        }
        ("paper_plain", true) => {
            batch_traced(stamp, &paper_plain(args.seed), PAPER_SLOTS, budget).map(|(o, _)| o)
        }
        ("islands_batch", false) => {
            batch_e2e(stamp, &islands(args.seed), ISLANDS_SLOTS, budget).map(islands_check)
        }
        ("islands_batch", true) => {
            batch_traced(stamp, &islands(args.seed), ISLANDS_SLOTS, budget).map(islands_check)
        }
        (_, false) => serve_e2e(stamp, budget),
        (_, true) => serve_traced(stamp, budget),
    };
    match result {
        Ok(mut outcome) => {
            outcome.require_end_to_end();
            print!("{}", outcome.table());
            println!("{}", outcome.json_line());
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn paper_plain(seed: u64) -> Scenario {
    let mut scenario = Scenario::paper(PAPER_DEVICES, SYSTEM_SEED).with_horizon(PAPER_SLOTS);
    scenario.dpp.seed = seed;
    scenario
}

fn islands_sequential(seed: u64) -> Scenario {
    let (devices, islands) = ISLANDS_SHAPE;
    let mut scenario =
        Scenario::scale_up(devices, islands, SYSTEM_SEED).with_horizon(ISLANDS_SLOTS);
    scenario.dpp.seed = seed;
    scenario
}

fn islands(seed: u64) -> Scenario {
    islands_sequential(seed).with_shards(0)
}

/// The sharded `islands_batch` stream (the run's first episode) must
/// equal the same scenario solved without sharding, on a prefix (the
/// sequential solve is slower).
fn islands_check((mut outcome, sharded): (Outcome, Episode)) -> Outcome {
    let seed = outcome.stamp.seed;
    let prefix = ISLANDS_CHECK_PREFIX as usize;
    let result =
        run_episode(&islands_sequential(seed), seed, ISLANDS_CHECK_PREFIX, &Probe::new(), None)
            .and_then(|seq| {
                let sharded = sharded.records.get(..prefix).ok_or("sharded episode too short")?;
                check_same_stream("sharded against sequential", &seq.records, sharded)
            });
    if let Err(e) = result {
        outcome.problems.push(e);
    }
    outcome
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn figure(value: f64, samples: usize) -> Figure {
    Figure { value, samples }
}

/// Inserts a percentile figure when the tail rule allows it.
fn put_percentile(figures: &mut Figures, name: &'static str, samples: &[f64], p: f64) {
    if let Some(value) = stats::percentile(samples, p) {
        figures.insert(name, figure(value, samples.len()));
    }
}

/// Peak resident set of this process, in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The measured source's revision: from `.git` when the working directory
/// is a checkout, else `unknown`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_owned() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The deterministic outcome figures of one decision stream.
fn put_outcomes(figures: &mut Figures, records: &[DecisionRecord], budget: f64) {
    let n = records.len();
    if n == 0 {
        return;
    }
    let latency = records.iter().map(|r| r.latency_s).sum::<f64>() / n as f64;
    let cost = records.iter().map(|r| r.cost_usd).sum::<f64>() / n as f64;
    figures.insert("fleet_latency_s", figure(latency, n));
    figures.insert("cost_over_budget", figure(cost / budget, n));
}

/// Runs `episode` until `budget` has passed and at least
/// [`MIN_EPISODES`] episodes ran; returns the episode count.
fn repeat(
    budget: Duration,
    mut episode: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut episodes = 0;
    while episodes < MIN_EPISODES || start.elapsed() < budget {
        episode()?;
        episodes += 1;
    }
    Ok(episodes)
}

/// Per-episode timing figures. Each slot's time is corrected for the
/// host's speed at that slot (see [`probe`]); percentiles and rates are
/// taken per episode, and a run reports their median over its episodes.
/// A figure's sample count is the slots of one episode.
#[derive(Debug, Default)]
struct Timings {
    /// Corrected `[p50, p95, slots_per_s]` per episode.
    corrected: Vec<[f64; 3]>,
    /// The same, uncorrected.
    raw: Vec<[f64; 3]>,
    /// The host's median slowdown per episode.
    slowdown: Vec<f64>,
    slots: usize,
}

impl Timings {
    /// Adds one episode: per decided slot, its decision time, its time in
    /// the slot loop and the probe taken just before it (ns).
    fn add(&mut self, decision_ns: &[u64], loop_ns: &[u64], probe_ns: &[u64]) {
        let slow: Vec<f64> = probe_ns.iter().map(|&ns| probe::slowdown(ns)).collect();
        let raw_ms: Vec<f64> = decision_ns.iter().map(|&ns| ms(ns)).collect();
        let corrected_ms: Vec<f64> = raw_ms.iter().zip(&slow).map(|(t, s)| t / s).collect();
        let raw_s = loop_ns.iter().sum::<u64>() as f64 / 1e9;
        let corrected_s =
            loop_ns.iter().zip(&slow).map(|(&ns, s)| ns as f64 / s).sum::<f64>() / 1e9;
        let n = decision_ns.len() as f64;
        let figures = |times: &[f64], seconds: f64| {
            Some([stats::percentile(times, 50.0)?, stats::percentile(times, 95.0)?, n / seconds])
        };
        let (Some(raw), Some(corrected), Some(median_slow)) =
            (figures(&raw_ms, raw_s), figures(&corrected_ms, corrected_s), stats::median(&slow))
        else {
            return;
        };
        self.raw.push(raw);
        self.corrected.push(corrected);
        self.slowdown.push(median_slow);
        self.slots = decision_ns.len();
    }

    fn median(episodes: &[[f64; 3]], i: usize) -> Option<f64> {
        stats::median(&episodes.iter().map(|e| e[i]).collect::<Vec<f64>>())
    }

    fn put(&self, figures: &mut Figures) {
        for (i, name) in ["decision_ms_p50", "decision_ms_p95", "slots_per_s"].iter().enumerate() {
            if let Some(value) = Self::median(&self.corrected, i) {
                figures.insert(name, figure(value, self.slots));
            }
        }
    }

    /// The uncorrected figures and the host's slowdown, for the table.
    fn note(&self) -> String {
        let fmt = |v: Option<f64>| v.map_or_else(|| "absent".to_owned(), |v| format!("{v:.4}"));
        let (low, high) = self
            .slowdown
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &s| (l.min(s), h.max(s)));
        format!(
            "uncorrected medians: decision_ms_p50 {} decision_ms_p95 {} slots_per_s {}; \
             host slowdown median {} (episodes {low:.3}..{high:.3})",
            fmt(Self::median(&self.raw, 0)),
            fmt(Self::median(&self.raw, 1)),
            fmt(Self::median(&self.raw, 2)),
            fmt(stats::median(&self.slowdown)),
        )
    }
}

/// The figures every untraced run ends with.
fn put_run_figures(figures: &mut Figures, tally: &Tally, setup_s: &[f64], rss: Option<f64>) {
    figures.insert(
        "clean_decision_ratio",
        figure(1.0 - tally.failed_ratio(), tally.attempted as usize),
    );
    if let Some(median) = stats::median(setup_s) {
        figures.insert("setup_s", figure(median, setup_s.len()));
    }
    if let Some(rss) = rss {
        figures.insert("peak_rss_mb", figure(rss, 1));
    }
}

/// Untraced batch run: whole episodes of timed `step` calls, each after
/// a few timed set-ups. Also returns the first episode.
fn batch_e2e(
    mut stamp: Stamp,
    scenario: &Scenario,
    slots: u64,
    budget: Duration,
) -> Result<(Outcome, Episode), String> {
    let probe = Probe::new();
    let mut setup = Vec::new();
    let mut first = None;
    let mut rss = None;
    let mut timings = Timings::default();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut episodes = 0;
    stamp.episodes = repeat(budget, || {
        for _ in 0..SETUP_REPS {
            let (system, driver) = setup_sample(scenario);
            setup.push((system + driver) as f64 / 1e9);
        }
        let episode = run_episode(scenario, stamp.seed, slots, &probe, None)?;
        if let Err(e) = check_episode(&episode, first.as_ref()) {
            problems.push(e);
        }
        timings.add(&episode.step_ns, &episode.loop_ns, &episode.probe_ns);
        tally.absorb(episode.tally);
        first.get_or_insert(episode);
        episodes += 1;
        rss = rss.or_else(|| (episodes == MIN_EPISODES).then(peak_rss_mb).flatten());
        Ok(())
    })?;
    let first = first.ok_or("no episode ran")?;
    stamp.slots = slots;

    let mut figures = Figures::new();
    timings.put(&mut figures);
    put_outcomes(&mut figures, &first.records, first.budget);
    put_run_figures(&mut figures, &tally, &setup, rss);
    let notes = vec![timings.note()];
    Ok((Outcome { stamp, figures, tally, problems, notes }, first))
}

/// The layer figures every traced run shares: step, residual, solver
/// spans, BDMA/CGBA/shard counters and the unattributed rest.
fn put_layers(
    figures: &mut Figures,
    layers: &[SlotLayers],
    counters: &std::collections::BTreeMap<String, u64>,
) -> Vec<String> {
    let n = layers.len();
    let mut problems = Vec::new();
    for (slot, l) in layers.iter().enumerate() {
        if let Err(e) = l.check(slot as u64) {
            problems.push(e);
            break;
        }
    }
    let series = |f: &dyn Fn(&SlotLayers) -> f64| layers.iter().map(f).collect::<Vec<f64>>();
    put_percentile(figures, "engine.step_ms_p50", &series(&|l| ms(l.step)), 50.0);
    put_percentile(
        figures,
        "engine.residual_ms_p50",
        &series(&|l| l.residual() as f64 / 1e6),
        50.0,
    );
    put_percentile(
        figures,
        "trace.unattributed_ms_p50",
        &series(&|l| l.unattributed() as f64 / 1e6),
        50.0,
    );
    for (name, f) in [
        ("p2a.ms_per_slot", &(|l: &SlotLayers| ms(l.p2a)) as &dyn Fn(&SlotLayers) -> f64),
        ("p2b.ms_per_slot", &|l: &SlotLayers| ms(l.p2b)),
        ("dpp.queue_update_ms", &|l: &SlotLayers| ms(l.queue_update)),
    ] {
        if let Some(mean) = stats::mean(&series(f)) {
            figures.insert(name, figure(mean, n));
        }
    }
    let count = |name: &str| counters.get(name).copied();
    let per_slot = |total: u64| total as f64 / n.max(1) as f64;
    if let Some(rounds) = count(eotora_obs::COUNTER_BDMA_ROUNDS) {
        figures.insert("bdma.rounds_per_slot", figure(per_slot(rounds), n));
        let accepted = count(eotora_obs::COUNTER_BDMA_ACCEPTED).unwrap_or(0);
        figures.insert(
            "bdma.accepted_ratio",
            figure(accepted as f64 / rounds.max(1) as f64, rounds as usize),
        );
    }
    // The robust path emits no CGBA counters: those figures stay absent.
    if let Some(iterations) = count(eotora_obs::COUNTER_CGBA_ITERATIONS) {
        let probes = count(eotora_obs::COUNTER_CGBA_PROBES).unwrap_or(0);
        figures.insert("cgba.iterations_per_slot", figure(per_slot(iterations), n));
        figures.insert("cgba.probes_per_slot", figure(per_slot(probes), n));
        figures.insert(
            "cgba.probes_per_iteration",
            figure(probes as f64 / iterations.max(1) as f64, iterations as usize),
        );
    }
    if let Some(solves) = count(eotora_obs::COUNTER_SHARD_SOLVES) {
        figures.insert("shard.solves_per_slot", figure(per_slot(solves), n));
        for (name, counter) in [
            ("shard.cut_players_per_slot", eotora_obs::COUNTER_SHARD_CUT_PLAYERS),
            ("shard.reconcile_moves_per_slot", eotora_obs::COUNTER_SHARD_RECONCILE_MOVES),
        ] {
            figures.insert(name, figure(per_slot(count(counter).unwrap_or(0)), n));
        }
    }
    problems
}

fn overhead_pct(traced_p50: Option<f64>, untraced_p50: Option<f64>) -> Option<f64> {
    Some((traced_p50? / untraced_p50? - 1.0) * 100.0)
}

/// Traced batch run: one untraced episode for the reference stream and
/// the untraced p50, then traced episodes with the benchmark's sink.
/// Also returns the reference episode.
fn batch_traced(
    mut stamp: Stamp,
    scenario: &Scenario,
    slots: u64,
    budget: Duration,
) -> Result<(Outcome, Episode), String> {
    let probe = Probe::new();
    let (mut system_ms, mut driver_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (system, driver) = setup_sample(scenario);
        system_ms.push(ms(system));
        driver_ms.push(ms(driver));
    }
    let reference = run_episode(scenario, stamp.seed, slots, &probe, None)?;
    let mut problems: Vec<String> = check_episode(&reference, None).err().into_iter().collect();
    let untraced: Vec<f64> = reference.step_ns.iter().map(|&ns| ms(ns)).collect();

    let mut layers = Vec::new();
    let mut counters = std::collections::BTreeMap::new();
    let mut tally = reference.tally;
    stamp.episodes = repeat(budget, || {
        let sink = SlotRecorder::default();
        let episode = run_episode(scenario, stamp.seed, slots, &probe, Some(&sink))?;
        if let Err(e) = check_episode(&episode, Some(&reference)) {
            problems.push(format!("traced against untraced: {e}"));
        }
        layers.extend(episode.layers);
        for (name, value) in sink.counters() {
            *counters.entry(name).or_insert(0) += value;
        }
        tally.absorb(episode.tally);
        Ok(())
    })?;
    stamp.slots = slots;

    let mut figures = Figures::new();
    problems.extend(put_layers(&mut figures, &layers, &counters));
    let step: Vec<f64> = layers.iter().map(|l| ms(l.step)).collect();
    if let Some(pct) =
        overhead_pct(stats::percentile(&step, 50.0), stats::percentile(&untraced, 50.0))
    {
        figures.insert("trace.overhead_pct", figure(pct, step.len()));
    }
    for (name, samples) in [("setup.system_ms", &system_ms), ("setup.driver_ms", &driver_ms)] {
        if let Some(median) = stats::median(samples) {
            figures.insert(name, figure(median, samples.len()));
        }
    }
    Ok((Outcome { stamp, figures, tally, problems, notes: Vec::new() }, reference))
}

/// One served episode over `SERVE_SLOTS` slots on a fresh checkpoint
/// directory: the closed-loop record and how the server ended.
fn served_episode(
    seed: u64,
    work: &mut WorkDir,
    probe: &Probe,
) -> Result<(serve::ClosedLoop, serve::Served), String> {
    let dir = work.fresh();
    let config = serve::config(PAPER_DEVICES, SYSTEM_SEED, &dir, "")?;
    let scenario = config.scenario.clone();
    let out = run_served(config, false, |client| {
        closed_loop(client, &mut StateLines::new(&scenario, seed), SERVE_SLOTS, probe)
    });
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Checks a served episode: no fatal error, no lost or mismatched reply,
/// a closed loop (queue depth at most 1), and a valid decision stream.
fn check_served(
    run: &serve::ClosedLoop,
    served: &serve::Served,
    lines: &StateLines,
) -> Vec<String> {
    let mut problems = run.problems.clone();
    if let Err(e) = &served.summary {
        problems.push(e.clone());
    }
    if let Some(depth) = served.max_queue_depth.filter(|&d| d > 1) {
        problems
            .push(format!("admission queue reached depth {depth}: the client is not closed-loop"));
    }
    let (devices, stations) = lines.shape();
    if let Err(e) = check_stream(&run.records, devices, stations, lines.budget()) {
        problems.push(e);
    }
    problems
}

/// Untraced daemon run: closed-loop episodes, each after a few timed
/// `serve` start-ups, then the batch Robust cross-check.
fn serve_e2e(mut stamp: Stamp, budget: Duration) -> Result<Outcome, String> {
    let seed = stamp.seed;
    let mut work = WorkDir::new()?;
    let scenario = serve::config(PAPER_DEVICES, SYSTEM_SEED, &work.fresh(), "")?.scenario;
    let lines = StateLines::new(&scenario, seed);
    let probe = Probe::new();

    let (mut setup, mut raw_setup) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<DecisionRecord>> = None;
    let mut rss = None;
    let mut timings = Timings::default();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut episodes = 0;
    stamp.episodes = repeat(budget, || {
        for _ in 0..SERVE_SETUP_REPS {
            let dir = work.fresh();
            let config = serve::config(PAPER_DEVICES, SYSTEM_SEED, &dir, "")?;
            // The daemon's start is system calls (directory, manifest,
            // journal, reader thread), which slow with the host as the
            // solver does, so it is corrected like the decision times.
            let probed = probe.time_ns();
            let ((), served) = run_served(config, false, |_| ());
            let _ = std::fs::remove_dir_all(&dir);
            let ns = served.setup_ns.ok_or("serve never reported `started`")?;
            raw_setup.push(ns as f64 / 1e9);
            setup.push(ns as f64 / 1e9 / probe::slowdown(probed));
        }
        let (run, served) = served_episode(seed, &mut work, &probe)?;
        problems.extend(check_served(&run, &served, &lines));
        if let Some(first) = &first {
            if let Err(e) = check_same_stream("repeated episode", first, &run.records) {
                problems.push(e);
            }
        }
        timings.add(&run.latency_ns, &run.loop_ns, &run.probe_ns);
        tally.absorb(served_tally(&run, &served));
        first.get_or_insert(run.records);
        episodes += 1;
        rss = rss.or_else(|| (episodes == MIN_EPISODES).then(peak_rss_mb).flatten());
        Ok(())
    })?;
    let first = first.ok_or("no episode ran")?;
    stamp.slots = SERVE_SLOTS;
    match serve::robust_reference(&scenario, seed, SERVE_SLOTS) {
        Ok(reference) => {
            if let Err(e) = check_same_stream("served against batch Robust", &reference, &first) {
                problems.push(e);
            }
        }
        Err(e) => problems.push(e),
    }

    let mut figures = Figures::new();
    timings.put(&mut figures);
    put_outcomes(&mut figures, &first, lines.budget());
    put_run_figures(&mut figures, &tally, &setup, rss);
    let raw_setup = stats::median(&raw_setup).unwrap_or(f64::NAN);
    let notes = vec![timings.note(), format!("uncorrected setup_s median {raw_setup:.6}")];
    Ok(Outcome { stamp, figures, tally, problems, notes })
}

/// Traced daemon run: the daemon loop rebuilt from its public parts,
/// one timed call per layer, checked against an untraced `serve` episode.
fn serve_traced(mut stamp: Stamp, budget: Duration) -> Result<Outcome, String> {
    let seed = stamp.seed;
    let mut work = WorkDir::new()?;
    let (mut session_ms, mut system_ms, mut driver_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SERVE_SETUP_REPS {
        let dir = work.fresh();
        let setup = serve::rebuilt_setup(&serve::config(PAPER_DEVICES, SYSTEM_SEED, &dir, "")?)?;
        let _ = std::fs::remove_dir_all(&dir);
        session_ms.push(ms(setup.session));
        system_ms.push(ms(setup.system));
        driver_ms.push(ms(setup.driver));
    }
    let (run, served) = served_episode(seed, &mut work, &Probe::new())?;
    let scenario = serve::config(PAPER_DEVICES, SYSTEM_SEED, &work.fresh(), "")?.scenario;
    let lines = StateLines::new(&scenario, seed);
    let mut problems = check_served(&run, &served, &lines);
    let untraced: Vec<f64> = run.latency_ns.iter().map(|&ns| ms(ns)).collect();
    let mut tally = served_tally(&run, &served);

    let mut layers: Vec<SlotLayers> = Vec::new();
    let mut counters = std::collections::BTreeMap::new();
    let mut snapshot_ms = Vec::new();
    let (mut bytes, mut journal, mut depth_max) = (0u64, 0u64, 0usize);
    stamp.episodes = repeat(budget, || {
        let dir = work.fresh();
        let config = serve::config(PAPER_DEVICES, SYSTEM_SEED, &dir, "")?;
        let rebuilt = serve::rebuilt_episode(&config, seed, SERVE_SLOTS)?;
        journal += serve::journal_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) =
            check_same_stream("rebuilt loop against serve", &run.records, &rebuilt.records)
        {
            problems.push(e);
        }
        layers.extend(rebuilt.layers);
        for (name, value) in rebuilt.counters {
            *counters.entry(name).or_insert(0) += value;
        }
        snapshot_ms.extend(rebuilt.snapshot_ns.iter().map(|&ns| ms(ns)));
        bytes += rebuilt.bytes;
        depth_max = depth_max.max(rebuilt.depth_max);
        tally.absorb(rebuilt.tally);
        Ok(())
    })?;
    stamp.slots = SERVE_SLOTS;

    let n = layers.len();
    let mut figures = Figures::new();
    problems.extend(put_layers(&mut figures, &layers, &counters));
    let series = |f: fn(&SlotLayers) -> u64| layers.iter().map(|l| ms(f(l))).collect::<Vec<f64>>();
    put_percentile(&mut figures, "frame.decode_ms_p50", &series(|l| l.decode), 50.0);
    put_percentile(&mut figures, "frame.encode_ms_p50", &series(|l| l.encode), 50.0);
    put_percentile(&mut figures, "queue.wait_ms_p50", &series(|l| l.queue_wait), 50.0);
    put_percentile(&mut figures, "journal.append_ms_p50", &series(|l| l.journal_append), 50.0);
    put_percentile(&mut figures, "journal.snapshot_ms_p50", &snapshot_ms, 50.0);
    figures.insert("frame.bytes_per_slot", figure(bytes as f64 / n.max(1) as f64, n));
    figures.insert("journal.bytes_per_slot", figure(journal as f64 / n.max(1) as f64, n));
    figures.insert("queue.depth_max", figure(depth_max as f64, n));
    let wall = series(|l| l.wall);
    if let Some(pct) =
        overhead_pct(stats::percentile(&wall, 50.0), stats::percentile(&untraced, 50.0))
    {
        figures.insert("trace.overhead_pct", figure(pct, n));
    }
    for (name, samples) in [
        ("setup.system_ms", &system_ms),
        ("setup.session_ms", &session_ms),
        ("setup.driver_ms", &driver_ms),
    ] {
        if let Some(median) = stats::median(samples) {
            figures.insert(name, figure(median, samples.len()));
        }
    }
    Ok(Outcome { stamp, figures, tally, problems, notes: Vec::new() })
}
