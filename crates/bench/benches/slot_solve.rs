//! Per-slot solve benchmark for the zero-rebuild engine.
//!
//! Replays the same online DPP loop three times at each fleet scale:
//!
//! * **engine** — the production cold path: one persistent
//!   [`SlotWorkspace`] reused across slots (`P2aProblem::rebuild` instead
//!   of fresh builds, incremental CGBA gains, retained frequency buffer),
//! * **reference** — the pre-refactor path: fresh game build + full
//!   validation every BDMA round, naive-rescan CGBA, per-round clones, and
//! * **warm** — the cross-slot warm-start path (`StartPolicy::Warm` at the
//!   paper's z = 5 with ε-termination), which seeds each slot from the
//!   previous slot's incumbent and stops alternating once rounds stop
//!   paying.
//!
//! Engine and reference run interleaved slot by slot, so a change in host
//! speed during the run lands on both sides of `p50_speedup` alike; the
//! order alternates every slot, because whichever arm runs second inherits
//! the first one's caches and freed heap (engine-first on every slot read
//! `p50_speedup` 1.39–1.58 at 30 devices, alternating 1.66–1.96). They consume
//! identically seeded RNG streams, so their latency series must match bit
//! for bit — asserted here, which makes the benchmark double as the
//! at-scale equivalence check. Each row records `kernel_threads`, the
//! threads the engine's CGBA kernel split each scan over (the reference
//! is always serial). The warm arm takes
//! different (equally valid) decisions, so it reports `rounds_used_mean`
//! and `warm_speedup` (vs the cold engine's p50) instead of bit-identity.
//! A fourth **journal** arm repeats the engine path with the durability
//! subsystem's per-slot frame append (record encode, CRC framing,
//! `EveryK(16)` fsync — the `run --checkpoint-dir` default) and times
//! that appended work on its own each slot: `journal_overhead_pct` is the
//! p50 journal work relative to the p50 engine solve. (Differencing two
//! end-to-end p50s would drown the microsecond-scale append in
//! millisecond-scale scheduler noise.) ci.sh's quick-mode gate fails if
//! the overhead exceeds 5% at the 30-device scale.
//! A fifth **live** arm repeats the engine path with a full in-memory
//! [`TelemetrySession`] attached (live registry, flight-recorder
//! ring, health monitor) — which must not perturb the decision sequence —
//! and times one slot's worth of hot-path telemetry traffic on its own
//! each slot: `live_overhead_pct` is the p50 of that emission batch
//! relative to the p50 engine solve. ci.sh's quick-mode gate fails if it
//! exceeds 2% at the 30-device scale.
//!
//! A separate **shard** section replays the loop on the scale-out island
//! topology ([`Scenario::scale_up`]) twice — [`CgbaSolver`] at shard cap 1
//! versus the automatic cap on the process worker pool — at 10k and
//! 100k devices. The island resource graph is separable, so the two runs
//! must be decision-identical (asserted); `shard_speedup` is the
//! sequential p50 over the sharded p50, and each row records the worker
//! count so the CI guard can skip the speedup requirement on small boxes.
//! The sequential arm runs with the process worker count at 1, so its
//! CGBA kernel stays serial (asserted) and `shard_speedup` keeps comparing
//! sharding against one thread.
//!
//! p50/p95 per-slot solve times and the speedups land in
//! `BENCH_slot_solve.json` at the repo root (or
//! `target/BENCH_slot_solve.quick.json` under `EOTORA_QUICK`, with
//! scaled-down sizes).
//!
//! Not a Criterion bench on purpose: the two paths must advance in
//! lock-step through the same slot sequence (the workspace carries state
//! across slots), which Criterion's iteration model cannot express.

use std::time::Instant;

use eotora_core::bdma::{solve_p2, solve_p2_reference, BdmaConfig, P2Solution, StartPolicy};
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::workspace::SlotWorkspace;
use eotora_core::CgbaSolver;
use eotora_durability::{FsyncPolicy, JournalWriter, SlotRecord};
use eotora_game::CgbaConfig;
use eotora_obs::{Recorder, TelemetrySession, TraceEvent};
use eotora_states::{PaperStateConfig, StateProvider, SystemState};
use eotora_util::rng::Pcg32;

const SEED: u64 = 7001;
const V: f64 = 100.0;
const BDMA_ROUNDS: usize = 2;
/// The warm arm runs the paper's full z = 5 and lets ε-termination decide
/// how many rounds each slot actually needs.
const WARM_ROUNDS: usize = 5;

struct ScaleResult {
    devices: usize,
    horizon: u64,
    kernel_threads: usize,
    engine_p50_s: f64,
    engine_p95_s: f64,
    reference_p50_s: f64,
    reference_p95_s: f64,
    p50_speedup: f64,
    p95_speedup: f64,
    warm_p50_s: f64,
    warm_p95_s: f64,
    rounds_used_mean: f64,
    warm_speedup: f64,
    journal_p50_s: f64,
    journal_overhead_pct: f64,
    live_p50_s: f64,
    live_overhead_pct: f64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn record_states(system: &MecSystem, horizon: u64) -> Vec<SystemState> {
    let mut provider = StateProvider::paper(system.topology(), &PaperStateConfig::default(), SEED);
    (0..horizon).map(|t| provider.observe(t, system.topology())).collect()
}

/// One arm's slot solve: `(system, state, queue, slot, rng) -> solution`.
type Arm<'a> = &'a mut dyn FnMut(&MecSystem, &SystemState, f64, u64, &mut Pcg32) -> P2Solution;

/// One arm's pass over the loop: the latency series, per-slot wall-clock
/// seconds, and per-slot BDMA rounds actually executed.
struct LoopRun {
    latencies: Vec<f64>,
    times: Vec<f64>,
    rounds: Vec<usize>,
}

/// Runs the online loop for every arm in lock-step — each slot is solved
/// by every arm in turn before the next slot starts — timing each solve.
/// Every arm carries its own identically seeded RNG stream and virtual
/// queue.
fn run_loop<const N: usize>(
    system: &MecSystem,
    states: &[SystemState],
    arms: [Arm<'_>; N],
) -> [LoopRun; N] {
    let mut rngs = [(); N].map(|_| Pcg32::seed_stream(SEED, 0xD99));
    let mut queues = [0.0; N];
    let mut runs = [(); N].map(|_| LoopRun {
        latencies: Vec::with_capacity(states.len()),
        times: Vec::with_capacity(states.len()),
        rounds: Vec::with_capacity(states.len()),
    });
    let budget = system.budget_per_slot();
    for (slot, state) in states.iter().enumerate() {
        // Alternate the order slot by slot, so no arm always runs in the
        // wake of another (warm caches, a just-freed heap).
        for j in 0..N {
            let k = if slot % 2 == 0 { j } else { N - 1 - j };
            let start = Instant::now();
            let sol = arms[k](system, state, queues[k], slot as u64, &mut rngs[k]);
            runs[k].times.push(start.elapsed().as_secs_f64());
            runs[k].latencies.push(sol.latency);
            runs[k].rounds.push(sol.rounds_used);
            // Same association as `VirtualQueue::update` (form the excess
            // first) so the loops share the queue trajectory exactly.
            let excess = sol.energy_cost - budget;
            queues[k] = (queues[k] + excess).max(0.0);
        }
    }
    runs
}

/// One arm's plain (hook-free) engine: its BDMA configuration, CGBA solver
/// and workspace, carried across the slots of a loop.
struct Engine {
    bdma: BdmaConfig,
    solver: CgbaSolver,
    workspace: SlotWorkspace,
}

impl Engine {
    fn new(bdma: BdmaConfig, solver: CgbaSolver) -> Self {
        Self { bdma, solver, workspace: SlotWorkspace::new() }
    }

    fn solve(
        &mut self,
        sys: &MecSystem,
        state: &SystemState,
        queue: f64,
        slot: u64,
        rng: &mut Pcg32,
        rec: &dyn Recorder,
    ) -> P2Solution {
        let Self { bdma, solver, workspace } = self;
        solve_p2(sys, state, V, queue, bdma, solver, workspace, rng, slot, rec, None)
            .expect("an unmasked solve cannot fail")
            .solution
    }
}

fn bench_scale(devices: usize, horizon: u64) -> ScaleResult {
    let system = MecSystem::random(&SystemConfig::paper_defaults(devices), SEED);
    let states = record_states(&system, horizon);
    let bdma = BdmaConfig { rounds: BDMA_ROUNDS, ..Default::default() };
    let cgba = CgbaConfig::default();

    let mut engine = Engine::new(bdma.clone(), CgbaSolver::default());
    let [engine_run, ref_run] = run_loop(
        &system,
        &states,
        [
            &mut |sys, state, queue, slot, rng| {
                engine.solve(sys, state, queue, slot, rng, &eotora_obs::NoopRecorder)
            },
            &mut |sys, state, queue, _slot, rng| {
                solve_p2_reference(sys, state, V, queue, &bdma, &cgba, rng)
            },
        ],
    );
    let kernel_threads = engine.solver.kernel_threads();
    let (engine_lat, mut engine_times) = (engine_run.latencies, engine_run.times);
    let mut ref_times = ref_run.times;
    assert_eq!(
        engine_lat, ref_run.latencies,
        "engine and reference latency series must be bit-identical at I={devices}"
    );

    // Warm arm: fresh workspace and solver (nothing carried over from the
    // cold loops), the paper's z with ε-termination deciding the rest.
    let warm_bdma = BdmaConfig { rounds: WARM_ROUNDS, epsilon: 1e-9, start: StartPolicy::Warm };
    let mut warm_engine = Engine::new(warm_bdma, CgbaSolver::default());
    let [warm_run] = run_loop(
        &system,
        &states,
        [&mut |sys, state, queue, slot, rng| {
            warm_engine.solve(sys, state, queue, slot, rng, &eotora_obs::NoopRecorder)
        }],
    );
    let (mut warm_times, warm_rounds) = (warm_run.times, warm_run.rounds);

    // Journal arm: the engine path plus the per-slot durability frame
    // append inside the timed region — the exact extra work `run
    // --checkpoint-dir` does each slot (record encode, CRC, buffered
    // write, fsync every 16th frame).
    let journal_dir =
        std::env::temp_dir().join(format!("eotora-bench-journal-{}-{devices}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut writer = JournalWriter::create(&journal_dir, FsyncPolicy::EveryK(16), 64 * 1024 * 1024)
        .unwrap_or_else(|e| {
            panic!("cannot create bench journal in {}: {e}", journal_dir.display())
        });
    let mut journal_engine = Engine::new(bdma.clone(), CgbaSolver::default());
    let mut journal_work: Vec<f64> = Vec::new();
    let [journal_run] = run_loop(
        &system,
        &states,
        [&mut |sys, state, queue, slot, rng| {
            let sol = journal_engine.solve(sys, state, queue, slot, rng, &eotora_obs::NoopRecorder);
            let journal_start = Instant::now();
            {
                let record = SlotRecord {
                    slot,
                    latency_s: sol.latency,
                    cost_usd: sol.energy_cost,
                    queue,
                    price: 0.18,
                    solve_time_s: 1e-3,
                    fairness: 1.0,
                    handover_rate: 0.0,
                    mean_clock_ghz: sol.freqs_hz.iter().sum::<f64>()
                        / sol.freqs_hz.len().max(1) as f64
                        / 1e9,
                    rounds_used: sol.rounds_used as f64,
                    stations: sol
                        .assignments
                        .iter()
                        .map(|a| a.base_station.index() as u32)
                        .collect(),
                    stages: vec![
                        ("p2a".to_owned(), 1e-4),
                        ("p2b".to_owned(), 1e-4),
                        ("queue_update".to_owned(), 1e-6),
                    ],
                };
                writer
                    .append(&record.encode())
                    .unwrap_or_else(|e| panic!("bench journal append failed: {e}"));
            }
            journal_work.push(journal_start.elapsed().as_secs_f64());
            sol
        }],
    );
    writer.sync().unwrap_or_else(|e| panic!("bench journal sync failed: {e}"));
    drop(writer);
    let _ = std::fs::remove_dir_all(&journal_dir);
    assert_eq!(
        journal_run.latencies, engine_lat,
        "journaling must not perturb the decision sequence at I={devices}"
    );

    // Live-telemetry arm: the engine path with a full in-memory
    // [`TelemetrySession`] as its recorder — sharded registry, flight
    // ring, and health monitor all active — plus a timed-alone region
    // replaying exactly one slot's worth of hot-path telemetry traffic
    // (the spans, counters, and typed events the engine and runner emit
    // per slot at z = 2) into the same session. Timing the batch in
    // isolation sidesteps the same scheduler-noise problem as the
    // journal arm; running the solve against the live session keeps the
    // registry contents realistic and proves telemetry never perturbs
    // the decisions.
    let budget = system.budget_per_slot();
    let live = TelemetrySession::in_memory(V, budget);
    let mut live_engine = Engine::new(bdma.clone(), CgbaSolver::default());
    let mut live_work: Vec<f64> = Vec::new();
    let [live_run] = run_loop(
        &system,
        &states,
        [&mut |sys, state, queue, slot, rng| {
            let sol = live_engine.solve(sys, state, queue, slot, rng, &live);
            let excess = sol.energy_cost - budget;
            let obs_start = Instant::now();
            for round in 1..=BDMA_ROUNDS as u64 {
                live.span_ns(eotora_obs::SPAN_P2A, 120_000);
                live.add(eotora_obs::COUNTER_CGBA_ITERATIONS, 6);
                live.add(eotora_obs::COUNTER_CGBA_PROBES, 40 * devices as u64);
                live.add(eotora_obs::COUNTER_CGBA_CONVERGED, 1);
                live.span_ns(eotora_obs::SPAN_P2B, 80_000);
                live.record(&TraceEvent::BdmaIteration {
                    slot,
                    round,
                    objective: sol.latency,
                    accepted: round == 1,
                    p2a_nanos: 120_000,
                    p2b_nanos: 80_000,
                });
                live.add(eotora_obs::COUNTER_BDMA_ROUNDS, 1);
                if round == 1 {
                    live.add(eotora_obs::COUNTER_BDMA_ACCEPTED, 1);
                }
            }
            live.add(eotora_obs::COUNTER_BDMA_ROUNDS_SAVED, 0);
            live.span_ns(eotora_obs::SPAN_QUEUE_UPDATE, 900);
            live.record(&TraceEvent::QueueUpdate {
                slot,
                before: queue,
                after: (queue + excess).max(0.0),
                excess,
            });
            live.span_ns(eotora_obs::SPAN_SLOT_SOLVE, 250_000);
            live.add(eotora_obs::COUNTER_SLOTS, 1);
            live.record(&TraceEvent::Slot {
                slot,
                objective: V * sol.latency + queue * excess,
                latency: sol.latency,
                cost: sol.energy_cost,
                queue: (queue + excess).max(0.0),
            });
            live_work.push(obs_start.elapsed().as_secs_f64());
            sol
        }],
    );
    assert_eq!(
        live_run.latencies, engine_lat,
        "live telemetry must not perturb the decision sequence at I={devices}"
    );

    engine_times.sort_by(f64::total_cmp);
    ref_times.sort_by(f64::total_cmp);
    warm_times.sort_by(f64::total_cmp);
    journal_work.sort_by(f64::total_cmp);
    live_work.sort_by(f64::total_cmp);
    let engine_p50_s = quantile(&engine_times, 0.50);
    let engine_p95_s = quantile(&engine_times, 0.95);
    let reference_p50_s = quantile(&ref_times, 0.50);
    let reference_p95_s = quantile(&ref_times, 0.95);
    let warm_p50_s = quantile(&warm_times, 0.50);
    let warm_p95_s = quantile(&warm_times, 0.95);
    let journal_p50_s = quantile(&journal_work, 0.50);
    let live_p50_s = quantile(&live_work, 0.50);
    ScaleResult {
        devices,
        horizon,
        kernel_threads,
        engine_p50_s,
        engine_p95_s,
        reference_p50_s,
        reference_p95_s,
        p50_speedup: reference_p50_s / engine_p50_s.max(1e-12),
        p95_speedup: reference_p95_s / engine_p95_s.max(1e-12),
        warm_p50_s,
        warm_p95_s,
        rounds_used_mean: warm_rounds.iter().sum::<usize>() as f64 / warm_rounds.len() as f64,
        warm_speedup: engine_p50_s / warm_p50_s.max(1e-12),
        journal_p50_s,
        journal_overhead_pct: journal_p50_s / engine_p50_s.max(1e-12) * 100.0,
        live_p50_s,
        live_overhead_pct: live_p50_s / engine_p50_s.max(1e-12) * 100.0,
    }
}

struct ShardScaleResult {
    devices: usize,
    islands: usize,
    horizon: u64,
    workers: usize,
    sequential_p50_s: f64,
    sharded_p50_s: f64,
    shard_speedup: f64,
    shards_used: usize,
    largest_shard: usize,
}

/// Replays the online loop on the separable island topology twice —
/// sequential CGBA versus the sharded engine — and asserts the decision
/// sequences are bit-identical (the restriction argument, checked at
/// fleet scale). z = 1 so the timed region is the P2-A solve the shards
/// parallelize.
fn bench_shard_scale(devices: usize, islands: usize, horizon: u64) -> ShardScaleResult {
    let scenario = eotora_sim::scenario::Scenario::scale_up(devices, islands, SEED);
    let system = MecSystem::random(&scenario.system, SEED);
    let states = record_states(&system, horizon);
    let bdma = BdmaConfig { rounds: 1, ..Default::default() };

    // The sequential arm is the serial baseline `shard_speedup` divides:
    // with the process worker count at 1 its kernel scans on one thread
    // too, as every shard of the sharded arm does inside its pool job.
    let workers = eotora_util::pool::default_workers();
    eotora_util::pool::set_default_workers(1);
    let mut seq_engine = Engine::new(bdma.clone(), CgbaSolver::default());
    let [seq_run] = run_loop(
        &system,
        &states,
        [&mut |sys, state, queue, slot, rng| {
            seq_engine.solve(sys, state, queue, slot, rng, &eotora_obs::NoopRecorder)
        }],
    );
    eotora_util::pool::set_default_workers(workers);
    assert_eq!(seq_engine.solver.kernel_threads(), 1, "the sequential arm must stay serial");
    let mut seq_times = seq_run.times;

    let mut sharded_engine = Engine::new(bdma.clone(), CgbaSolver::new(0.0, 0));
    let [sharded_run] = run_loop(
        &system,
        &states,
        [&mut |sys, state, queue, slot, rng| {
            sharded_engine.solve(sys, state, queue, slot, rng, &eotora_obs::NoopRecorder)
        }],
    );
    let mut sharded_times = sharded_run.times;

    assert_eq!(
        seq_run.latencies, sharded_run.latencies,
        "sharded and sequential latency series must be bit-identical at I={devices}"
    );
    let plan = sharded_engine.solver.plan().expect("sharded solver ran, so a plan exists");
    assert!(!plan.is_trivial(), "island topology must produce a non-trivial plan at I={devices}");

    seq_times.sort_by(f64::total_cmp);
    sharded_times.sort_by(f64::total_cmp);
    let sequential_p50_s = quantile(&seq_times, 0.50);
    let sharded_p50_s = quantile(&sharded_times, 0.50);
    ShardScaleResult {
        devices,
        islands,
        horizon,
        workers,
        sequential_p50_s,
        sharded_p50_s,
        shard_speedup: sequential_p50_s / sharded_p50_s.max(1e-12),
        shards_used: plan.num_shards(),
        largest_shard: plan.largest_shard_players(),
    }
}

fn main() {
    let quick = eotora_bench::quick_mode();
    // Quick mode keeps the two-scale shape at smoke-test sizes; the
    // 30-device row is what ci.sh's speedup regression guard reads.
    let scales: &[(usize, u64)] =
        if quick { &[(10, 6), (30, 20)] } else { &[(30, 100), (200, 100)] };

    let mut results = Vec::new();
    for &(devices, horizon) in scales {
        eprintln!(
            "slot_solve: I={devices}, {horizon} slots, z={BDMA_ROUNDS} (warm z={WARM_ROUNDS}) …"
        );
        let r = bench_scale(devices, horizon);
        eprintln!(
            "  engine p50 {:.3} ms / p95 {:.3} ms ({} kernel thread(s)) | reference p50 {:.3} ms / p95 {:.3} ms | speedup p50 {:.2}x",
            r.engine_p50_s * 1e3,
            r.engine_p95_s * 1e3,
            r.kernel_threads,
            r.reference_p50_s * 1e3,
            r.reference_p95_s * 1e3,
            r.p50_speedup,
        );
        eprintln!(
            "  warm p50 {:.3} ms / p95 {:.3} ms | rounds_used mean {:.2} | warm speedup {:.2}x over engine",
            r.warm_p50_s * 1e3,
            r.warm_p95_s * 1e3,
            r.rounds_used_mean,
            r.warm_speedup,
        );
        eprintln!(
            "  journal work p50 {:.4} ms | overhead {:.2}% of engine p50",
            r.journal_p50_s * 1e3,
            r.journal_overhead_pct,
        );
        eprintln!(
            "  live telemetry p50 {:.4} ms | overhead {:.2}% of engine p50",
            r.live_p50_s * 1e3,
            r.live_overhead_pct,
        );
        results.push(r);
    }

    // Shard scales: the 10k/100k island fleets the sharded engine targets
    // (quick mode keeps one smoke-size row for ci.sh's identity gate).
    let shard_scales: &[(usize, usize, u64)] =
        if quick { &[(500, 8, 4)] } else { &[(10_000, 16, 3), (100_000, 64, 2)] };
    let mut shard_results = Vec::new();
    for &(devices, islands, horizon) in shard_scales {
        eprintln!(
            "slot_solve shard: I={devices}, {islands} islands, {horizon} slots, {} worker(s) …",
            eotora_util::pool::default_workers()
        );
        let r = bench_shard_scale(devices, islands, horizon);
        eprintln!(
            "  sequential p50 {:.3} ms | sharded p50 {:.3} ms | speedup {:.2}x | {} shards (largest {} players)",
            r.sequential_p50_s * 1e3,
            r.sharded_p50_s * 1e3,
            r.shard_speedup,
            r.shards_used,
            r.largest_shard,
        );
        shard_results.push(r);
    }

    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"devices\": {},\n",
                    "      \"horizon_slots\": {},\n",
                    "      \"bdma_rounds\": {},\n",
                    "      \"kernel_threads\": {},\n",
                    "      \"engine_p50_s\": {:e},\n",
                    "      \"engine_p95_s\": {:e},\n",
                    "      \"reference_p50_s\": {:e},\n",
                    "      \"reference_p95_s\": {:e},\n",
                    "      \"p50_speedup\": {:.3},\n",
                    "      \"p95_speedup\": {:.3},\n",
                    "      \"warm_bdma_rounds\": {},\n",
                    "      \"warm_p50_s\": {:e},\n",
                    "      \"warm_p95_s\": {:e},\n",
                    "      \"rounds_used_mean\": {:.3},\n",
                    "      \"warm_speedup\": {:.3},\n",
                    "      \"journal_p50_s\": {:e},\n",
                    "      \"journal_overhead_pct\": {:.3},\n",
                    "      \"live_p50_s\": {:e},\n",
                    "      \"live_overhead_pct\": {:.3}\n",
                    "    }}"
                ),
                r.devices,
                r.horizon,
                BDMA_ROUNDS,
                r.kernel_threads,
                r.engine_p50_s,
                r.engine_p95_s,
                r.reference_p50_s,
                r.reference_p95_s,
                r.p50_speedup,
                r.p95_speedup,
                WARM_ROUNDS,
                r.warm_p50_s,
                r.warm_p95_s,
                r.rounds_used_mean,
                r.warm_speedup,
                r.journal_p50_s,
                r.journal_overhead_pct,
                r.live_p50_s,
                r.live_overhead_pct,
            )
        })
        .collect();
    let shard_entries: Vec<String> = shard_results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"devices\": {},\n",
                    "      \"islands\": {},\n",
                    "      \"horizon_slots\": {},\n",
                    "      \"workers\": {},\n",
                    "      \"sequential_p50_s\": {:e},\n",
                    "      \"sharded_p50_s\": {:e},\n",
                    "      \"shard_speedup\": {:.3},\n",
                    "      \"shards_used\": {},\n",
                    "      \"largest_shard\": {}\n",
                    "    }}"
                ),
                r.devices,
                r.islands,
                r.horizon,
                r.workers,
                r.sequential_p50_s,
                r.sharded_p50_s,
                r.shard_speedup,
                r.shards_used,
                r.largest_shard,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"slot_solve\",\n  \"quick\": {},\n  \"seed\": {},\n  \"scales\": [\n{}\n  ],\n  \"shard_scales\": [\n{}\n  ]\n}}\n",
        quick,
        SEED,
        entries.join(",\n"),
        shard_entries.join(",\n")
    );

    // Bench CWD is the package dir; the full-scale run records its numbers
    // at the repo root where ISSUE/EXPERIMENTS expect them.
    let out = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_slot_solve.quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_slot_solve.json")
    };
    std::fs::write(out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
}
