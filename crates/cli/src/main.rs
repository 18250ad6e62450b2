//! `eotora` — command-line front end for the workspace.
//!
//! ```text
//! eotora template [--devices N] [--seed S]        # print a scenario JSON template
//! eotora run <scenario.json> [--out results.json] [--csv prefix] [--trace t.jsonl]
//! eotora trace <t.jsonl>                          # analyse a recorded trace
//! eotora topology [--devices N] [--seed S]        # summarize the generated network
//! eotora sweep <scenario.json> --budgets 0.7,1.0,1.3
//! ```
//!
//! Scenario files are the serde form of [`eotora_sim::Scenario`]; `template`
//! emits a starting point. `run` prints a summary table and optionally
//! writes full per-slot series as JSON and/or CSV, plus a JSONL event trace
//! (`--trace`) that `eotora trace` turns into per-span latency quantiles, a
//! BDMA iteration histogram, and a queue-drift plot.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use eotora_cli::{
    ascii_bar, ascii_plot, flag_value, format_seconds, parse_flag, parse_float_list,
    require_known_flags,
};
use eotora_core::system::MecSystem;
use eotora_federation::{LinkFaultConfig, RebalancePolicy};
use eotora_obs::{
    HealthMonitor, HealthSample, HealthSummary, Recorder, TelemetryConfig, TelemetrySession,
};
use eotora_sim::durable::{resume_durable, run_durable, DurabilityConfig, DurableRun};
use eotora_sim::report::{ascii_table, num, slot_csv};
use eotora_sim::runner::{robust_config, run_many, run_mode, SimulationResult};
use eotora_sim::scenario::Scenario;
use eotora_sim::{DriverMode, FederationConfig, FederationReport, FederationRun};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("template") => cmd_template(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("states") => cmd_states(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("topology") => cmd_topology(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("federate") => cmd_federate(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
eotora — energy-aware online task offloading (ICDCS'23 reproduction)

USAGE:
  eotora template [--devices N] [--seed S] [--islands K]
  eotora run <scenario.json> [--out results.json] [--csv prefix] [--svg prefix]
             [--trace trace.jsonl] [--jobs N] [--cold-start] [--bdma-eps X]
             [--shards auto|N]
             [--fault-trace faults.json] [--slot-deadline-ms MS] [--no-sanitize]
             [--metrics-out m.jsonl|m.prom] [--metrics-every K]
             [--checkpoint-dir D] [--checkpoint-every K] [--fsync every-slot|every-K|os]
  eotora run --resume <checkpoint-dir> [--out ...] [--csv ...] [--svg ...]
             [--metrics-out ...] [--metrics-every K]
  eotora serve --config server.toml [--input states.jsonl|-] [--socket path.sock]
             # daemon: JSONL states in, JSONL decisions on stdout, events on
             # stderr; SIGTERM/SIGINT graceful shutdown, SIGHUP hot-reload,
             # auto-resume from the checkpoint dir on restart
  eotora states <scenario.json> [--slots N] [--from S]
             # dump the scenario's slot-state stream as `serve` input JSONL
  eotora trace <trace.jsonl>                # span quantiles, BDMA rounds, queue drift
  eotora health <metrics.jsonl|m.prom|trace.jsonl> [--v X] [--budget C]
  eotora topology [--devices N] [--seed S]
  eotora sweep <scenario.json> --budgets 0.7,1.0,1.3 [--jobs N]
  eotora compare [--devices N] [--seed S]   # one-slot P2-A algorithm shoot-out
  eotora federate [--regions N] [--devices N] [--horizon T] [--seed S]
             [--sync-every K] [--budget C] [--policy fixed|queue-proportional]
             [--floor X] [--link-faults faults.json] [--checkpoint-dir D]
             [--checkpoint-every K] [--fsync every-slot|every-K|os]
             [--kill-at-slot N] [--csv-dir D] [--out report.json]
             # N per-region controllers sharing one fleet budget C̄ over a
             # (possibly faulty) peer link; --standalone runs the regions
             # with no link at fixed equal shares instead
  eotora federate --resume <checkpoint-root> [--csv-dir D] [--out report.json]
";

/// Writes `text` and a newline to stdout — the one path every command's
/// stdout output takes. A reader that has gone away (`eotora … | head`)
/// ends the command quietly with exit status 0, as standard Unix tools do;
/// any other write failure is an error.
fn stdout_line(text: impl std::fmt::Display) -> Result<(), String> {
    use std::io::Write as _;
    writeln!(std::io::stdout().lock(), "{text}").map_err(stdout_failed)
}

/// The error of a failed stdout write, or a quiet exit when stdout is
/// closed (see [`stdout_line`]).
fn stdout_failed(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    format!("cannot write to stdout: {e}")
}

/// `println!` for command output: formats like it, writes through
/// [`stdout_line`], and returns its result.
macro_rules! outln {
    () => {
        stdout_line("")
    };
    ($($arg:tt)*) => {
        stdout_line(format_args!($($arg)*))
    };
}

fn cmd_template(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora template", &["--devices", "--seed", "--islands"], &[])?;
    let devices: usize = parse_flag(args, "--devices", 100)?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    // `--islands K` (K ≥ 1) switches to the scale-out island topology whose
    // resource graph separates into K components — the shape `run --shards`
    // exploits.
    let islands: usize = parse_flag(args, "--islands", 0)?;
    let scenario = if islands > 0 {
        Scenario::scale_up(devices, islands, seed)
    } else {
        Scenario::paper(devices, seed)
    };
    let json = serde_json::to_string_pretty(&scenario).map_err(|e| e.to_string())?;
    outln!("{json}")?;
    Ok(())
}

/// Parses `--shards auto|N` into the solver's shard-count convention
/// (`0` = one shard per connected component).
fn parse_shards_flag(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--shards") {
        None => Ok(None),
        Some("auto") => Ok(Some(0)),
        Some(raw) => {
            let n: usize =
                raw.parse().map_err(|_| format!("--shards expects `auto` or N≥1, got `{raw}`"))?;
            if n == 0 {
                return Err("--shards 0 is not a shard count; use `auto`".into());
            }
            Ok(Some(n))
        }
    }
}

/// Applies `--jobs N` (if present) to the process-wide worker-pool default
/// that `run_many` and the sweep experiments size themselves by.
fn apply_jobs_flag(args: &[String]) -> Result<(), String> {
    if let Some(raw) = flag_value(args, "--jobs") {
        let jobs: usize =
            raw.parse().map_err(|_| format!("--jobs expects a positive integer, got `{raw}`"))?;
        if jobs == 0 {
            return Err("--jobs must be at least 1".into());
        }
        eotora_util::pool::set_default_workers(jobs);
    }
    Ok(())
}

fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The always-printed one-line digest of a finished run. Counters from the
/// exported event families ([`eotora_obs::EXPORTED_COUNTER_FAMILIES`]) are
/// appended only when nonzero, so plain runs read exactly as before.
fn run_summary(result: &SimulationResult) -> String {
    let mut line = format!(
        "summary: {} slots | p95 slot solve {} | mean BDMA rounds {:.2} | final Q(t) {}",
        result.latency.len(),
        format_seconds(result.solve_time_quantile(0.95).unwrap_or(0.0)),
        result.mean_bdma_rounds,
        num(result.queue.last().unwrap_or(0.0)),
    );
    for (name, value) in &result.counters {
        if *value > 0 && eotora_obs::is_exported_counter(name) {
            line.push_str(&format!(" | {name} {value}"));
        }
    }
    line
}

/// Loads a JSON [`FaultSchedule`](eotora_core::fault::FaultSchedule) file
/// (the serde form: `{"events": [{"slot": 10, "action": {...}}, ...]}`).
fn load_fault_trace(path: &str) -> Result<eotora_core::fault::FaultSchedule, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Builds the checkpointing configuration for `dir` from the `run` flags.
fn durability_config(args: &[String], dir: &str) -> Result<DurabilityConfig, String> {
    let mut cfg = DurabilityConfig::new(dir);
    cfg.checkpoint_every = parse_flag(args, "--checkpoint-every", cfg.checkpoint_every)?;
    if cfg.checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if let Some(raw) = flag_value(args, "--fsync") {
        cfg.fsync = raw.parse().map_err(|e: String| format!("--fsync: {e}"))?;
    }
    if let Some(raw) = flag_value(args, "--kill-at-slot") {
        let slot: u64 =
            raw.parse().map_err(|_| format!("--kill-at-slot expects a slot index, got `{raw}`"))?;
        cfg.kill_at_slot = Some(slot);
    }
    Ok(cfg)
}

/// The `--metrics-out` / `--metrics-every` / `--no-sanitize` flag group.
struct MetricsFlags {
    out: Option<PathBuf>,
    every: u64,
    no_sanitize: bool,
}

impl MetricsFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        Ok(MetricsFlags {
            out: flag_value(args, "--metrics-out").map(PathBuf::from),
            every: parse_flag(args, "--metrics-every", 0)?,
            no_sanitize: args.iter().any(|a| a == "--no-sanitize"),
        })
    }

    /// Whether a live [`TelemetrySession`] should be attached at all.
    fn active(&self) -> bool {
        self.out.is_some() || self.no_sanitize
    }

    /// Builds the session. Postmortems land in the checkpoint directory
    /// when the run is durable, else next to the metrics file.
    fn session(&self, v: f64, budget: f64, checkpoint_dir: Option<&str>) -> TelemetrySession {
        let postmortem_dir = checkpoint_dir.map(PathBuf::from).or_else(|| {
            self.out.as_deref().map(|p| match p.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
                _ => PathBuf::from("."),
            })
        });
        TelemetrySession::new(TelemetryConfig {
            v,
            budget,
            metrics_out: self.out.clone(),
            metrics_every: self.every,
            postmortem_dir,
            ..TelemetryConfig::default()
        })
    }
}

/// Prints the health line and flushes the metrics sink of a finished
/// telemetry session.
fn finish_telemetry(telemetry: TelemetrySession) -> Result<(), String> {
    let postmortems = telemetry.postmortems();
    let out = telemetry.config().metrics_out.clone();
    let summary = telemetry.finish().map_err(|e| format!("metrics sink: {e}"))?;
    let mut line = format!(
        "health: {} (worst {}, {} transition(s))",
        summary.final_status, summary.worst, summary.transitions
    );
    if postmortems > 0 {
        line.push_str(&format!(" | postmortems {postmortems}"));
    }
    outln!("{line}")?;
    if let Some(path) = out {
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Value-taking flags of a fresh `eotora run`.
const RUN_VALUE_FLAGS: &[&str] = &[
    "--out",
    "--csv",
    "--svg",
    "--trace",
    "--jobs",
    "--bdma-eps",
    "--shards",
    "--fault-trace",
    "--slot-deadline-ms",
    "--checkpoint-dir",
    "--checkpoint-every",
    "--fsync",
    "--kill-at-slot",
    "--metrics-out",
    "--metrics-every",
];
/// Presence-only flags of a fresh `eotora run`.
const RUN_SWITCHES: &[&str] = &["--cold-start", "--no-sanitize"];
/// Value-taking flags of `eotora run --resume`. `--trace` and
/// `--no-sanitize` are known so that they are refused with their reason.
const RESUME_VALUE_FLAGS: &[&str] = &[
    "--resume",
    "--out",
    "--csv",
    "--svg",
    "--trace",
    "--checkpoint-every",
    "--fsync",
    "--kill-at-slot",
    "--metrics-out",
    "--metrics-every",
];
/// Presence-only flags of `eotora run --resume`.
const RESUME_SWITCHES: &[&str] = &["--no-sanitize"];

/// `eotora run --resume <dir>`: picks a checkpointed run back up. The
/// manifest in the directory supplies the scenario and mode, so no scenario
/// file is given; output flags work as on a fresh `run`.
fn cmd_run_resume(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora run --resume", RESUME_VALUE_FLAGS, RESUME_SWITCHES)?;
    let dir = flag_value(args, "--resume").ok_or("--resume requires a checkpoint directory")?;
    if flag_value(args, "--trace").is_some() {
        return Err("--trace cannot be combined with checkpointed runs".into());
    }
    let metrics = MetricsFlags::parse(args)?;
    if metrics.no_sanitize {
        return Err(
            "--no-sanitize cannot be combined with --resume (the manifest fixes the mode)".into()
        );
    }
    let cfg = durability_config(args, dir)?;
    // V and budget for the health rules come from the manifest's scenario.
    let manifest = eotora_sim::durable::read_manifest_in(Path::new(dir)).ok();
    let telemetry = metrics.active().then(|| {
        let (v, budget) = manifest
            .as_ref()
            .map(|m| (m.scenario.dpp.v, m.scenario.system.budget_per_slot))
            .unwrap_or((100.0, 1.0));
        metrics.session(v, budget, Some(dir))
    });
    eprintln!("resuming checkpointed run in {dir} …");
    let outcome = resume_durable(&cfg, telemetry.as_ref().map(|t| t as &dyn Recorder))
        .map_err(|e| e.to_string())?;
    report_outcome(args, Some(dir), outcome, telemetry)
}

/// Reports how a `run` ended: the resume hint when the kill hook
/// interrupted the checkpointed run in `dir`, else the result table, the
/// requested output files, and the health line.
fn report_outcome(
    args: &[String],
    dir: Option<&str>,
    outcome: DurableRun,
    telemetry: Option<TelemetrySession>,
) -> Result<(), String> {
    match outcome {
        DurableRun::Interrupted { slot } => {
            let dir = dir.unwrap_or_default();
            outln!("interrupted after slot {slot}; resume with `eotora run --resume {dir}`")?;
            Ok(())
        }
        DurableRun::Completed(result) => {
            report_run(args, &result)?;
            telemetry.map_or(Ok(()), finish_telemetry)
        }
    }
}

/// Picks the engine pipeline from the `run` flags.
///
/// `--fault-trace` and/or `--slot-deadline-ms` select the robust engine:
/// failures are masked per slot, corrupt state is sanitized (unless
/// `no_sanitize`), and each slot's solve honours the wall-clock deadline by
/// returning its best checkpointed incumbent. The robust engine masks
/// faults through the CGBA solver, so a scenario with a baseline solver is
/// refused. Without either flag the plain engine runs.
fn run_driver_mode(
    args: &[String],
    scenario: &Scenario,
    no_sanitize: bool,
) -> Result<DriverMode, String> {
    let fault_trace = flag_value(args, "--fault-trace").map(load_fault_trace).transpose()?;
    let deadline = match flag_value(args, "--slot-deadline-ms") {
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| format!("--slot-deadline-ms expects milliseconds, got `{raw}`"))?;
            Some(std::time::Duration::from_millis(ms))
        }
        None => None,
    };
    if fault_trace.is_none() && deadline.is_none() {
        if no_sanitize {
            return Err(
                "--no-sanitize requires robust mode (--fault-trace or --slot-deadline-ms)".into()
            );
        }
        return Ok(DriverMode::Plain);
    }
    if !scenario.dpp.solver.supports_masks() {
        let flag = if fault_trace.is_some() { "--fault-trace" } else { "--slot-deadline-ms" };
        return Err(format!(
            "{flag} selects the robust engine, which needs a CGBA solver; the scenario's \
             solver (dpp.solver) is {}",
            scenario.dpp.solver.name()
        ));
    }
    let mut robust = robust_config(scenario, deadline);
    robust.sanitize = !no_sanitize;
    Ok(DriverMode::Robust { faults: fault_trace.unwrap_or_default(), robust })
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    if flag_value(args, "--resume").is_some() {
        return cmd_run_resume(args);
    }
    let path = args.first().ok_or("run requires a scenario file")?;
    require_known_flags(args, "eotora run", RUN_VALUE_FLAGS, RUN_SWITCHES)?;
    apply_jobs_flag(args)?;
    let mut scenario = load_scenario(path)?;
    // `--cold-start` pins the paper-faithful solver regardless of what the
    // scenario file's `start` field says; `--bdma-eps` overrides the
    // warm-mode early-termination threshold.
    if args.iter().any(|a| a == "--cold-start") {
        scenario.dpp.start = eotora_core::bdma::StartPolicy::Cold;
    }
    scenario.dpp.bdma_epsilon = parse_flag(args, "--bdma-eps", scenario.dpp.bdma_epsilon)?;
    // `--shards` switches the P2-A solve to the sharded CGBA engine
    // (decision-identical to the sequential solver on separable topologies,
    // and a safe no-op on dense ones — the partition pass refuses bad cuts).
    if let Some(shards) = parse_shards_flag(args)? {
        scenario = scenario.with_shards(shards);
    }
    eprintln!(
        "running `{}`: {} devices, {} slots, V={}, budget ${:.2}/slot, start {:?} …",
        scenario.label,
        scenario.system.topology.num_devices,
        scenario.horizon,
        scenario.dpp.v,
        scenario.system.budget_per_slot,
        scenario.dpp.start
    );
    let metrics = MetricsFlags::parse(args)?;
    let mode = run_driver_mode(args, &scenario, metrics.no_sanitize)?;
    match &mode {
        DriverMode::Plain => {}
        DriverMode::Robust { faults, robust } => eprintln!(
            "robust mode: {} fault event(s), slot deadline {}{}",
            faults.events.len(),
            robust.deadline.map_or("none".into(), |d| format!("{} ms", d.as_millis())),
            if robust.sanitize { "" } else { ", sanitizer OFF (diagnostic)" },
        ),
    }
    // `--checkpoint-dir` makes the run durable: a write-ahead slot journal
    // plus periodic controller snapshots, resumable with `run --resume`.
    let checkpoint_dir = flag_value(args, "--checkpoint-dir");
    let durability = match checkpoint_dir {
        Some(dir) => {
            if flag_value(args, "--trace").is_some() {
                return Err("--trace cannot be combined with --checkpoint-dir".into());
            }
            if metrics.no_sanitize {
                return Err("--no-sanitize cannot be combined with --checkpoint-dir (the \
                            journal must stay replayable)"
                    .into());
            }
            Some(durability_config(args, dir)?)
        }
        None => None,
    };
    let telemetry = metrics
        .active()
        .then(|| metrics.session(scenario.dpp.v, scenario.system.budget_per_slot, checkpoint_dir));
    let trace = match flag_value(args, "--trace") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Some((path, eotora_obs::JsonlRecorder::new(std::io::BufWriter::new(file))))
        }
        None => None,
    };
    let outcome = {
        // One sink: the telemetry session, the JSONL trace, or a tee of both.
        let tee = telemetry
            .as_ref()
            .zip(trace.as_ref())
            .map(|(t, (_, jsonl))| eotora_obs::TeeRecorder::new(t, jsonl));
        let sink = tee
            .as_ref()
            .map(|t| t as &dyn Recorder)
            .or(telemetry.as_ref().map(|t| t as &dyn Recorder))
            .or(trace.as_ref().map(|(_, jsonl)| jsonl as &dyn Recorder));
        match &durability {
            Some(cfg) => run_durable(&scenario, mode, cfg, sink).map_err(|e| e.to_string())?,
            None => DurableRun::Completed(Box::new(run_mode(&scenario, mode, sink))),
        }
    };
    if let Some((path, sink)) = trace {
        let events = sink.records_written();
        sink.finish().map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path} ({events} events)");
    }
    report_outcome(args, checkpoint_dir, outcome, telemetry)
}

/// `eotora serve`: the long-running controller daemon. Slot states arrive
/// as JSONL on stdin (default), a file/pipe (`--input`), or a Unix socket
/// (`--socket`); decision records go to stdout and the event/error stream
/// to stderr. SIGTERM/SIGINT trigger a graceful shutdown (journal synced,
/// snapshot written), SIGHUP re-reads `--config`, and a restart against the
/// same checkpoint directory resumes where the last run stopped.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora serve", &["--config", "--input", "--socket"], &[])?;
    let config_path =
        flag_value(args, "--config").ok_or("serve requires --config <server.toml|json>")?;
    let config_path = PathBuf::from(config_path);
    let config = eotora_server::ServerConfig::load(&config_path).map_err(|e| e.to_string())?;
    let input = match (flag_value(args, "--socket"), flag_value(args, "--input")) {
        (Some(_), Some(_)) => return Err("--socket and --input are mutually exclusive".into()),
        (Some(sock), None) => {
            #[cfg(not(unix))]
            {
                let _ = sock;
                return Err("--socket is only supported on Unix platforms".into());
            }
            #[cfg(unix)]
            {
                // A leftover socket file from a previous run would make bind fail.
                let _ = std::fs::remove_file(sock);
                let listener = std::os::unix::net::UnixListener::bind(sock)
                    .map_err(|e| format!("cannot bind {sock}: {e}"))?;
                eprintln!("listening on {sock}");
                eotora_server::InputSource::UnixSocket(listener)
            }
        }
        (None, Some(path)) if path != "-" => {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            eotora_server::InputSource::Reader(Box::new(std::io::BufReader::new(file)))
        }
        _ => eotora_server::InputSource::Reader(Box::new(std::io::stdin())),
    };
    let flags = eotora_server::SignalFlags::install();
    let mut stdout = std::io::stdout();
    let mut stderr = std::io::stderr();
    let summary =
        eotora_server::serve(config, Some(&config_path), input, &mut stdout, &mut stderr, &flags)
            .map_err(|e| e.to_string())?;
    if summary.interrupted {
        eprintln!(
            "killed after slot {}; restart `eotora serve` to resume",
            summary.slots_completed.saturating_sub(1)
        );
    } else {
        eprintln!(
            "served {} decision(s) over {} slot(s)",
            summary.decisions, summary.slots_completed
        );
    }
    Ok(())
}

/// `eotora states`: dumps a scenario's slot-state stream as the JSONL that
/// `eotora serve` consumes — one `SystemState` object per line. `--slots`
/// caps the count (default: the scenario horizon); `--from` starts later,
/// which is how a client replays its tail after a server restart.
fn cmd_states(args: &[String]) -> Result<(), String> {
    use std::io::Write as _;
    require_known_flags(args, "eotora states", &["--slots", "--from"], &[])?;
    let path = args.first().ok_or("states requires a scenario file")?;
    let scenario = load_scenario(path)?;
    let slots: u64 = parse_flag(args, "--slots", scenario.horizon)?;
    let from: u64 = parse_flag(args, "--from", 0)?;
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut provider =
        eotora_states::StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    let stdout = std::io::stdout();
    let mut writer = std::io::BufWriter::new(stdout.lock());
    for slot in from..slots {
        let state = provider.observe(slot, system.topology());
        let line = serde_json::to_string(&state).map_err(|e| e.to_string())?;
        writeln!(writer, "{line}").map_err(stdout_failed)?;
    }
    writer.flush().map_err(stdout_failed)
}

/// Prints the end-of-run table and summary line, then writes whichever of
/// `--out` / `--svg` / `--csv` were requested.
fn report_run(args: &[String], result: &SimulationResult) -> Result<(), String> {
    let rows = vec![
        vec!["slots".into(), result.latency.len().to_string()],
        vec!["avg latency (s)".into(), num(result.average_latency)],
        vec!["tail latency, 48 slots (s)".into(), num(result.latency.tail_average(48))],
        vec!["avg energy cost ($)".into(), num(result.average_cost)],
        vec!["budget ($)".into(), num(result.budget)],
        vec![
            "within budget".into(),
            if result.budget_satisfied(0.05) { "yes" } else { "no (check horizon/V)" }.into(),
        ],
        vec!["final queue backlog".into(), num(result.queue.last().unwrap_or(0.0))],
        vec!["mean solve time (s)".into(), num(result.solve_time.time_average())],
        vec!["mean BDMA rounds used".into(), num(result.rounds_used.time_average())],
    ];
    outln!("{}", ascii_table(&["metric", "value"], &rows))?;
    outln!("{}", run_summary(result))?;

    if let Some(out) = flag_value(args, "--out") {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    if let Some(prefix) = flag_value(args, "--svg") {
        use eotora_sim::svg::{render_line_chart, SvgChart, SvgSeries};
        let as_points = |s: &eotora_util::series::TimeSeries| {
            s.values().iter().enumerate().map(|(t, &v)| (t as f64, v)).collect::<Vec<_>>()
        };
        for (name, title, ylabel, series) in [
            ("queue", "virtual-queue backlog Q(t)", "backlog", &result.queue),
            ("latency", "per-slot latency", "seconds", &result.latency),
            ("cost", "per-slot energy cost", "dollars", &result.cost),
        ] {
            let path = format!("{prefix}_{name}.svg");
            let svg = render_line_chart(
                &SvgChart {
                    title: title.into(),
                    x_label: "slot".into(),
                    y_label: ylabel.into(),
                    ..Default::default()
                },
                &[SvgSeries { label: result.label.clone(), points: as_points(series) }],
            );
            std::fs::write(&path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    if let Some(prefix) = flag_value(args, "--csv") {
        let path = format!("{prefix}_slots.csv");
        std::fs::write(&path, slot_csv(result)).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `eotora federate`: N per-region DPP controllers sharing one fleet
/// budget `C̄` over a (possibly faulty) peer link. With
/// `--checkpoint-dir` the whole federation is durable; `--resume` picks
/// a killed federation back up from its checkpoint root.
fn cmd_federate(args: &[String]) -> Result<(), String> {
    require_known_flags(
        args,
        "eotora federate",
        &[
            "--regions",
            "--devices",
            "--horizon",
            "--seed",
            "--sync-every",
            "--budget",
            "--policy",
            "--floor",
            "--link-faults",
            "--checkpoint-dir",
            "--checkpoint-every",
            "--fsync",
            "--kill-at-slot",
            "--resume",
            "--csv-dir",
            "--out",
        ],
        &["--standalone"],
    )?;
    let standalone = args.iter().any(|a| a == "--standalone");
    if standalone {
        // Checked before any config or fault file is loaded, so the
        // conflict surfaces even when the named file does not exist.
        for flag in
            ["--link-faults", "--checkpoint-dir", "--checkpoint-every", "--fsync", "--kill-at-slot"]
        {
            if flag_value(args, flag).is_some() {
                return Err(format!(
                    "{flag} does not apply to --standalone (independent regions, no peer link)"
                ));
            }
        }
    }

    let (cfg, faults, root) = if let Some(dir) = flag_value(args, "--resume") {
        if standalone {
            return Err("--standalone cannot be combined with --resume".into());
        }
        for flag in [
            "--regions",
            "--devices",
            "--horizon",
            "--seed",
            "--sync-every",
            "--budget",
            "--policy",
            "--floor",
            "--link-faults",
            "--checkpoint-dir",
        ] {
            if flag_value(args, flag).is_some() {
                return Err(format!(
                    "{flag} cannot be combined with --resume (the manifest in the checkpoint \
                     root fixes it)"
                ));
            }
        }
        let manifest = eotora_sim::read_federation_manifest(Path::new(dir))
            .map_err(|e| format!("cannot resume from {dir}: {e}"))?;
        eprintln!("resuming federation in {dir} …");
        (manifest.config, manifest.faults, Some(dir.to_owned()))
    } else {
        let regions: u32 = parse_flag(args, "--regions", 3)?;
        let devices: usize = parse_flag(args, "--devices", 30)?;
        let seed: u64 = parse_flag(args, "--seed", 0)?;
        let mut cfg = FederationConfig::new(regions, devices, seed);
        let horizon = parse_flag(args, "--horizon", cfg.horizon)?;
        let sync_every = parse_flag(args, "--sync-every", cfg.sync_every)?;
        cfg = cfg.with_horizon(horizon).with_sync_every(sync_every);
        if let Some(raw) = flag_value(args, "--budget") {
            let budget: f64 =
                raw.parse().map_err(|_| format!("invalid value `{raw}` for --budget"))?;
            cfg = cfg.with_total_budget(budget);
        }
        cfg = cfg.with_policy(parse_policy_flags(args, regions)?);
        let faults = match flag_value(args, "--link-faults") {
            None => LinkFaultConfig::clean(),
            Some(path) => load_link_faults(path)?,
        };
        (cfg, faults, flag_value(args, "--checkpoint-dir").map(str::to_owned))
    };

    if standalone {
        let results = eotora_sim::run_standalone(&cfg);
        let shares = vec![cfg.equal_share(); results.len()];
        print_federation_table(&results, &shares)?;
        let fleet_cost: f64 = results.iter().map(|r| r.cost.time_average()).sum();
        outln!(
            "standalone: {} independent region(s) at fixed share {} | fleet avg cost {} vs \
             budget {}",
            cfg.regions,
            num(cfg.equal_share()),
            num(fleet_cost),
            num(cfg.total_budget),
        )?;
        if let Some(out) = flag_value(args, "--out") {
            let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
            std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        return write_region_csvs(args, &results);
    }

    if root.is_none() {
        // Durability knobs without a checkpoint root would be silently
        // ignored — reject them so a mistyped invocation cannot look
        // durable while running purely in memory.
        for flag in ["--checkpoint-every", "--fsync", "--kill-at-slot"] {
            if flag_value(args, flag).is_some() {
                return Err(format!(
                    "{flag} requires a durable federation (add --checkpoint-dir, or --resume an \
                     existing root)"
                ));
            }
        }
    }
    let durability = match &root {
        Some(dir) => Some(durability_config(args, dir)?),
        None => None,
    };
    let outcome = eotora_sim::run_federation(&cfg, &faults, durability.as_ref())
        .map_err(|e| e.to_string())?;
    match outcome {
        FederationRun::Interrupted { slot } => {
            let dir = root.as_deref().unwrap_or(".");
            outln!("interrupted after slot {slot}; resume with `eotora federate --resume {dir}`")?;
            Ok(())
        }
        FederationRun::Completed(report) => report_federation(args, &report),
    }
}

/// Parses `--policy` / `--floor` into a [`RebalancePolicy`] (default:
/// queue-proportional with the same floor `FederationConfig::new` picks).
fn parse_policy_flags(args: &[String], regions: u32) -> Result<RebalancePolicy, String> {
    let floor_flag = flag_value(args, "--floor");
    match flag_value(args, "--policy") {
        None | Some("queue-proportional") => {
            let floor = match floor_flag {
                None => 0.5 / f64::from(regions.max(1)),
                Some(raw) => {
                    raw.parse().map_err(|_| format!("invalid value `{raw}` for --floor"))?
                }
            };
            Ok(RebalancePolicy::QueueProportional { floor })
        }
        Some("fixed") => {
            if floor_flag.is_some() {
                return Err("--floor only applies to --policy queue-proportional".into());
            }
            Ok(RebalancePolicy::Fixed)
        }
        Some(other) => {
            Err(format!("--policy expects `fixed` or `queue-proportional`, got `{other}`"))
        }
    }
}

/// Loads a JSON [`LinkFaultConfig`] file. All fields are required —
/// `seed`, `drop_prob`, `dup_prob`, `delay_prob`, `max_delay_slots`,
/// `reorder_prob`, and `partitions` (a list of
/// `{"from_slot": A, "to_slot": B, "regions": [i, ...]}` windows).
fn load_link_faults(path: &str) -> Result<LinkFaultConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn print_federation_table(regions: &[SimulationResult], shares: &[f64]) -> Result<(), String> {
    let rows: Vec<Vec<String>> = regions
        .iter()
        .zip(shares)
        .enumerate()
        .map(|(i, (region, share))| {
            vec![
                format!("region {i}"),
                region.latency.len().to_string(),
                num(region.average_latency),
                num(region.average_cost),
                num(*share),
            ]
        })
        .collect();
    outln!(
        "{}",
        ascii_table(&["region", "slots", "avg latency (s)", "avg cost ($)", "final share"], &rows,)
    )
}

/// Prints the fleet table/summary for a completed federated run and
/// writes `--out` / `--csv-dir` outputs.
fn report_federation(args: &[String], report: &FederationReport) -> Result<(), String> {
    print_federation_table(&report.regions, &report.final_shares)?;
    let tolerance = 0.05 * report.config.total_budget;
    outln!(
        "fleet: avg cost {} vs budget {} — {}",
        num(report.fleet_average_cost),
        num(report.config.total_budget),
        if report.budget_satisfied(tolerance) {
            "within budget"
        } else {
            "over budget (check horizon/V)"
        },
    )?;
    let mut line = "federation:".to_owned();
    for (name, value) in &report.counters {
        if name.starts_with("fed.") {
            line.push_str(&format!(" {name} {value}"));
        }
    }
    outln!("{line}")?;
    if let Some(out) = flag_value(args, "--out") {
        let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    write_region_csvs(args, &report.regions)
}

/// Writes one `region-<i>.csv` per region under `--csv-dir` (if given).
fn write_region_csvs(args: &[String], regions: &[SimulationResult]) -> Result<(), String> {
    let Some(dir) = flag_value(args, "--csv-dir") else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for (i, region) in regions.iter().enumerate() {
        let path = Path::new(dir).join(format!("region-{i}.csv"));
        std::fs::write(&path, slot_csv(region))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora trace", &[], &[])?;
    let path = args.first().ok_or("trace requires a JSONL trace file")?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let analysis = eotora_obs::TraceAnalysis::from_reader(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    if !analysis.malformed.is_empty() {
        eprintln!(
            "warning: {} malformed line(s), first at line {}: {}",
            analysis.malformed.len(),
            analysis.malformed[0].0,
            analysis.malformed[0].1
        );
    }
    outln!("{path}: {} events over {} slots", analysis.records, analysis.slots)?;

    let span_rows: Vec<Vec<String>> = analysis
        .spans
        .iter()
        .map(|(name, h)| {
            let q = |q: f64| format_seconds(h.quantile(q).unwrap_or(0.0) / 1e9);
            vec![
                name.clone(),
                h.count().to_string(),
                q(0.50),
                q(0.95),
                q(0.99),
                format_seconds(h.sum() as f64 / 1e9),
            ]
        })
        .collect();
    outln!("{}", ascii_table(&["span", "count", "p50", "p95", "p99", "total"], &span_rows))?;

    if !analysis.counters.is_empty() {
        let rows: Vec<Vec<String>> =
            analysis.counters.iter().map(|(k, v)| vec![k.clone(), v.to_string()]).collect();
        outln!("{}", ascii_table(&["counter", "total"], &rows))?;
    }

    let rounds = &analysis.bdma_rounds_per_slot;
    if rounds.count() > 0 {
        let saved =
            analysis.counters.get(eotora_obs::COUNTER_BDMA_ROUNDS_SAVED).copied().unwrap_or(0);
        outln!(
            "BDMA rounds_used per slot (mean {:.2}, max {}, {saved} saved by ε-termination):",
            rounds.mean().unwrap_or(0.0),
            rounds.max().unwrap_or(0)
        )?;
        let peak = rounds.nonzero_buckets().map(|(_, n)| n).max().unwrap_or(1) as f64;
        for (value, n) in rounds.nonzero_buckets() {
            outln!("  {value:>4} | {:<40} {n}", ascii_bar(n as f64, peak, 40))?;
        }
        outln!()?;
    }

    if !analysis.queue_by_slot.is_empty() {
        let queue: Vec<f64> = analysis.queue_by_slot.iter().map(|&(_, q)| q).collect();
        outln!("virtual-queue backlog Q(t), {} slots:", queue.len())?;
        outln!("{}", ascii_plot(&queue, 72, 12).trim_end_matches('\n'))?;
    }
    Ok(())
}

/// Plucks `key` out of a flat JSON object.
fn field<'v>(value: &'v serde_json::Value, key: &str) -> Option<&'v serde_json::Value> {
    match value {
        serde_json::Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// `eotora health <file>`: evaluates the health rules over a recorded run
/// artifact — a metrics snapshot file (JSONL from `--metrics-out m.jsonl`),
/// a Prometheus exposition (`--metrics-out m.prom`), or a full event trace
/// (`--trace t.jsonl`). V and budget default to the run's own `config_*`
/// gauges where the artifact carries them, else to `--v` / `--budget`.
fn cmd_health(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora health", &["--v", "--budget"], &[])?;
    let path = args.first().ok_or("health requires a metrics (.jsonl/.prom) or trace file")?;
    let v: f64 = parse_flag(args, "--v", 100.0)?;
    let budget: f64 = parse_flag(args, "--budget", 1.0)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = if path.ends_with(".prom") {
        health_from_prom(&text, v, budget)?
    } else {
        let first = text
            .lines()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{path} is empty"))?;
        let value = serde_json::parse(first).map_err(|e| format!("{path} is not JSONL: {e}"))?;
        if field(&value, "type").is_some() {
            health_from_trace(&text, v, budget)?
        } else {
            health_from_snapshots(&text, v, budget)?
        }
    };
    let rows: Vec<Vec<String>> = summary
        .rules
        .iter()
        .map(|r| vec![r.name.to_string(), r.status.to_string(), r.worst.to_string(), num(r.value)])
        .collect();
    outln!("{}", ascii_table(&["rule", "status", "worst", "value"], &rows))?;
    outln!(
        "{path}: overall {} (worst {}, {} transition(s))",
        summary.final_status,
        summary.worst,
        summary.transitions
    )?;
    Ok(())
}

/// Whole-run assessment from a Prometheus text exposition: counters and
/// gauges are read back through the same name mapping the exposition was
/// written with, and the journal p99 is recovered from the cumulative
/// bucket series.
fn health_from_prom(text: &str, v_flag: f64, budget_flag: f64) -> Result<HealthSummary, String> {
    let mut values: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.contains('{') {
            continue;
        }
        let (name, value) =
            line.split_once(' ').ok_or_else(|| format!("malformed exposition line: `{line}`"))?;
        let value: f64 =
            value.trim().parse().map_err(|_| format!("bad sample value in `{line}`"))?;
        values.insert(name.to_owned(), value);
    }
    if values.is_empty() {
        return Err("no samples found in exposition".into());
    }
    let counter = |name: &str| {
        values.get(&format!("{}_total", eotora_obs::prometheus_name(name))).map_or(0, |&x| x as u64)
    };
    let gauge = |name: &str| values.get(&eotora_obs::prometheus_name(name)).copied();
    let v = gauge(eotora_obs::GAUGE_CONFIG_V).unwrap_or(v_flag);
    let budget = gauge(eotora_obs::GAUGE_CONFIG_BUDGET).unwrap_or(budget_flag);
    let totals = HealthSample {
        slot: counter(eotora_obs::COUNTER_SLOTS),
        queue: gauge(eotora_obs::GAUGE_QUEUE_BACKLOG).unwrap_or(0.0),
        avg_cost: gauge(eotora_obs::GAUGE_AVG_COST).unwrap_or(0.0),
        masked_resources: counter(eotora_obs::COUNTER_FAULT_MASKED_RESOURCES),
        substitutions: counter(eotora_obs::COUNTER_FAULT_STATE_SUBSTITUTIONS),
        deadline_expirations: counter(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS),
        escalations: counter(eotora_obs::COUNTER_ROBUST_SOLVE_ERRORS)
            + counter(eotora_obs::COUNTER_ROBUST_LIFEBOAT_DECISIONS)
            + counter(eotora_obs::COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS),
        journal_p99_ms: prom_histogram_quantile(
            text,
            &format!("{}_ns", eotora_obs::prometheus_name(eotora_obs::SPAN_JOURNAL_APPEND)),
            0.99,
        )
        .map_or(0.0, |ns| ns / 1e6),
    };
    Ok(eotora_obs::health::assess_totals(v, budget, &totals))
}

/// Recovers a quantile from a Prometheus cumulative-bucket series
/// (`<prefix>_bucket{le="..."} <count>`). Returns the upper bound of the
/// first bucket whose cumulative count reaches the quantile.
fn prom_histogram_quantile(text: &str, prefix: &str, q: f64) -> Option<f64> {
    let marker = format!("{prefix}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&marker) else { continue };
        let (le, rest) = rest.split_once('"')?;
        let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
        let cum: f64 = rest.strip_prefix("} ")?.trim().parse().ok()?;
        buckets.push((le, cum));
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    buckets.iter().find(|&&(_, cum)| cum >= target).map(|&(le, _)| le)
}

/// Builds a [`HealthSample`] from one metrics-snapshot JSON object
/// (the line format written by `run --metrics-out m.jsonl`).
fn snapshot_sample(value: &serde_json::Value) -> Result<HealthSample, String> {
    let counters = field(value, "counters").ok_or("snapshot line is missing `counters`")?;
    let gauges = field(value, "gauges").ok_or("snapshot line is missing `gauges`")?;
    let cget = |name: &str| {
        field(counters, name).and_then(serde_json::Value::as_f64).map_or(0, |x| x as u64)
    };
    let gget = |name: &str| field(gauges, name).and_then(serde_json::Value::as_f64);
    let journal_p99_ms = field(value, "spans")
        .and_then(|s| field(s, eotora_obs::SPAN_JOURNAL_APPEND))
        .and_then(|s| field(s, "p99_ns"))
        .and_then(serde_json::Value::as_f64)
        .map_or(0.0, |ns| ns / 1e6);
    Ok(HealthSample {
        slot: field(value, "slot").and_then(serde_json::Value::as_f64).map_or(0, |x| x as u64),
        queue: gget(eotora_obs::GAUGE_QUEUE_BACKLOG).unwrap_or(0.0),
        avg_cost: gget(eotora_obs::GAUGE_AVG_COST).unwrap_or(0.0),
        masked_resources: cget(eotora_obs::COUNTER_FAULT_MASKED_RESOURCES),
        substitutions: cget(eotora_obs::COUNTER_FAULT_STATE_SUBSTITUTIONS),
        deadline_expirations: cget(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS),
        escalations: cget(eotora_obs::COUNTER_ROBUST_SOLVE_ERRORS)
            + cget(eotora_obs::COUNTER_ROBUST_LIFEBOAT_DECISIONS)
            + cget(eotora_obs::COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS),
        journal_p99_ms,
    })
}

/// Health over a metrics JSONL file. Multiple snapshots are replayed
/// through the hysteresis monitor; a single (final-only) snapshot falls
/// back to whole-run classification.
fn health_from_snapshots(
    text: &str,
    v_flag: f64,
    budget_flag: f64,
) -> Result<HealthSummary, String> {
    let mut v = v_flag;
    let mut budget = budget_flag;
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = serde_json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(gauges) = field(&value, "gauges") {
            v = field(gauges, eotora_obs::GAUGE_CONFIG_V)
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(v);
            budget = field(gauges, eotora_obs::GAUGE_CONFIG_BUDGET)
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(budget);
        }
        samples.push(snapshot_sample(&value).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    match samples.as_slice() {
        [] => Err("no snapshots in file".into()),
        [only] => Ok(eotora_obs::health::assess_totals(v, budget, only)),
        many => {
            let mut monitor = HealthMonitor::paper_defaults(v, budget);
            for sample in many {
                monitor.observe(*sample);
            }
            Ok(monitor.summary())
        }
    }
}

/// Health by replaying a full `--trace` JSONL event stream slot by slot:
/// counter events maintain the cumulative totals, `journal.append` spans
/// feed the latency histogram, and each `slot` event closes one
/// [`HealthSample`].
fn health_from_trace(text: &str, v: f64, budget: f64) -> Result<HealthSummary, String> {
    let mut counters: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut journal = eotora_obs::Histogram::new();
    let mut monitor = HealthMonitor::paper_defaults(v, budget);
    let mut cost_sum = 0.0;
    let mut slots = 0u64;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = serde_json::parse(line) else { continue };
        match field(&value, "type").and_then(serde_json::Value::as_str) {
            Some("counter") => {
                if let (Some(name), Some(total)) = (
                    field(&value, "name").and_then(serde_json::Value::as_str),
                    field(&value, "value").and_then(serde_json::Value::as_f64),
                ) {
                    counters.insert(name.to_owned(), total as u64);
                }
            }
            Some("span")
                if field(&value, "name").and_then(serde_json::Value::as_str)
                    == Some(eotora_obs::SPAN_JOURNAL_APPEND) =>
            {
                if let Some(nanos) = field(&value, "nanos").and_then(serde_json::Value::as_f64) {
                    journal.record(nanos as u64);
                }
            }
            Some("slot") => {
                let slot = field(&value, "slot")
                    .and_then(serde_json::Value::as_f64)
                    .map_or(0, |x| x as u64);
                cost_sum +=
                    field(&value, "cost").and_then(serde_json::Value::as_f64).unwrap_or(0.0);
                slots += 1;
                let cget = |name: &str| counters.get(name).copied().unwrap_or(0);
                monitor.observe(HealthSample {
                    slot,
                    queue: field(&value, "queue")
                        .and_then(serde_json::Value::as_f64)
                        .unwrap_or(0.0),
                    avg_cost: cost_sum / slots as f64,
                    masked_resources: cget(eotora_obs::COUNTER_FAULT_MASKED_RESOURCES),
                    substitutions: cget(eotora_obs::COUNTER_FAULT_STATE_SUBSTITUTIONS),
                    deadline_expirations: cget(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS),
                    escalations: cget(eotora_obs::COUNTER_ROBUST_SOLVE_ERRORS)
                        + cget(eotora_obs::COUNTER_ROBUST_LIFEBOAT_DECISIONS)
                        + cget(eotora_obs::COUNTER_ROBUST_EQUAL_SHARE_FALLBACKS),
                    journal_p99_ms: journal.quantile(0.99).map_or(0.0, |ns| ns / 1e6),
                });
            }
            _ => {}
        }
    }
    if slots == 0 {
        return Err("trace contains no slot events".into());
    }
    Ok(monitor.summary())
}

fn cmd_topology(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora topology", &["--devices", "--seed"], &[])?;
    let devices: usize = parse_flag(args, "--devices", 100)?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let scenario = Scenario::paper(devices, seed);
    let system = MecSystem::random(&scenario.system, seed);
    let topo = system.topology();
    let mut rows = Vec::new();
    for k in topo.base_station_ids() {
        let bs = topo.base_station(k);
        rows.push(vec![
            k.to_string(),
            format!("{:.0} MHz", bs.access_bandwidth_hz / 1e6),
            format!("{:.2} GHz", bs.fronthaul_bandwidth_hz / 1e9),
            bs.linked_clusters.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("+"),
            topo.servers_reachable_from(k).len().to_string(),
        ]);
    }
    outln!(
        "{}",
        ascii_table(&["BS", "access BW", "fronthaul BW", "rooms", "reachable servers"], &rows,)
    )?;
    outln!(
        "{} rooms, {} servers ({} devices); fleet power {:.1}-{:.1} kW; budget ${:.2}/slot",
        topo.num_clusters(),
        topo.num_servers(),
        topo.num_devices(),
        system.fleet_power_watts(&system.min_frequencies()) / 1000.0,
        system.fleet_power_watts(&system.max_frequencies()) / 1000.0,
        system.budget_per_slot(),
    )?;
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora compare", &["--devices", "--seed"], &[])?;
    use eotora_sim::experiments::p2a_comparison::{p2a_comparison, P2aComparisonConfig};
    let devices: usize = parse_flag(args, "--devices", 60)?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let config = P2aComparisonConfig {
        device_counts: vec![devices],
        trials: 3,
        seed,
        ..P2aComparisonConfig::paper()
    };
    eprintln!("comparing P2-A solvers at I={devices} (3 trials) …");
    let rows = p2a_comparison(&config);
    let r = &rows[0];
    let table = vec![
        vec!["CGBA(0)".to_string(), num(r.cgba.objective), num(r.cgba.time_s)],
        vec!["MCBA".to_string(), num(r.mcba.objective), num(r.mcba.time_s)],
        vec!["ROPT".to_string(), num(r.ropt.objective), num(r.ropt.time_s)],
        vec!["OPT (B&B)".to_string(), num(r.exact.objective), num(r.exact.time_s)],
    ];
    outln!("{}", ascii_table(&["algorithm", "latency (s)", "time (s)"], &table))?;
    outln!(
        "certified lower bound {} ({}% of trials proven optimal)",
        num(r.exact_lower_bound),
        (r.proven_fraction * 100.0) as u32
    )?;
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    require_known_flags(args, "eotora sweep", &["--budgets", "--jobs"], &[])?;
    let path = args.first().ok_or("sweep requires a scenario file")?;
    apply_jobs_flag(args)?;
    let base = load_scenario(path)?;
    let budgets =
        parse_float_list(flag_value(args, "--budgets").ok_or("sweep requires --budgets a,b,c")?)?;
    let scenarios: Vec<Scenario> = budgets
        .iter()
        .map(|&b| base.clone().with_budget(b).with_label(format!("{} C̄={b}", base.label)))
        .collect();
    eprintln!(
        "running {} scenarios on {} worker(s) …",
        scenarios.len(),
        eotora_util::pool::default_workers().min(scenarios.len().max(1))
    );
    let results = run_many(&scenarios);
    let rows: Vec<Vec<String>> = budgets
        .iter()
        .zip(&results)
        .map(|(&b, r)| {
            vec![
                num(b),
                num(r.latency.tail_average(48)),
                num(r.cost.tail_average(r.cost.len() / 2)),
                num(r.converged_queue(48)),
            ]
        })
        .collect();
    outln!(
        "{}",
        ascii_table(&["budget $", "tail latency (s)", "converged cost ($)", "queue"], &rows,)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn run_refuses_unknown_flags_by_name() {
        // (arguments after `eotora run`, the flag the error must name)
        let rows: [(&[&str], &str); 4] = [
            (&["s.json", "--speculate"], "--speculate"),
            (&["s.json", "--spec-tolerance", "0"], "--spec-tolerance"),
            (&["s.json", "--slot-deadlin-ms", "5"], "--slot-deadlin-ms"),
            (&["--resume", "ckpt", "--speculate"], "--speculate"),
        ];
        for (args, flag) in rows {
            let err = cmd_run(&owned(args)).expect_err("an unknown flag must be refused");
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{args:?}: {err}");
        }
        // A valid flag set passes the check and selects the same engine as
        // before the allow-list existed.
        let args = owned(&[
            "s.json",
            "--slot-deadline-ms",
            "5",
            "--no-sanitize",
            "--cold-start",
            "--metrics-out",
            "m.prom",
        ]);
        require_known_flags(&args, "eotora run", RUN_VALUE_FLAGS, RUN_SWITCHES).unwrap();
        let scenario = Scenario::paper(4, 1);
        let mut robust = robust_config(&scenario, Some(std::time::Duration::from_millis(5)));
        robust.sanitize = false;
        let expected = DriverMode::Robust { faults: Default::default(), robust };
        assert_eq!(run_driver_mode(&args, &scenario, true).unwrap(), expected);
    }

    #[test]
    fn robust_flags_refuse_a_baseline_solver_by_name() {
        use eotora_core::dpp::SolverKind;
        // (the scenario's solver, the name a refusal must carry — `None`
        // when robust mode accepts the solver)
        let rows = [
            (SolverKind::Ropt, Some("ROPT")),
            (SolverKind::Mcba { iterations: 100 }, Some("MCBA")),
            (SolverKind::Cgba { lambda: 0.0 }, None),
        ];
        let args = owned(&["s.json", "--slot-deadline-ms", "1000"]);
        for (solver, refused) in rows {
            let scenario = Scenario::paper(4, 1).with_solver(solver);
            match (run_driver_mode(&args, &scenario, false), refused) {
                (Err(err), Some(name)) => {
                    assert!(err.contains(name), "{err}");
                    assert!(err.contains("--slot-deadline-ms"), "{err}");
                }
                (Ok(DriverMode::Robust { .. }), None) => {}
                (other, _) => panic!("{solver:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn every_subcommand_refuses_unknown_flags_by_name() {
        type Command = fn(&[String]) -> Result<(), String>;
        // (entry point, a misspelled invocation whose first flag the error
        // must name, an invocation with the flags ci.sh and the docs pass —
        // it may fail later, on a missing file, but not on a flag)
        let rows: [(Command, &str, &str); 9] = [
            (cmd_template, "--devcies 5", "--devices 3 --seed 3 --islands 1"),
            (cmd_serve, "--confg s.toml", "--config s.toml --input - --socket s.sock"),
            (cmd_states, "s.json --slot 3", "s.json --slots 200 --from 5"),
            (cmd_trace, "t.jsonl --slots 3", "t.jsonl"),
            (cmd_health, "m.jsonl --budgte 1", "m.jsonl --v 100 --budget 1.0"),
            (cmd_topology, "--device 5", "--devices 5 --seed 1"),
            (cmd_sweep, "s.json --budget 0.7", "s.json --budgets 0.7,1.0 --jobs 2"),
            (cmd_compare, "--seeds 1", "--devices 3 --seed 1"),
            (
                cmd_federate,
                "--regoins 3",
                "--regions 3 --devices 24 --horizon 200 --seed 1 --sync-every 2 --budget 1.0 \
                 --policy fixed --floor 0.1 --link-faults f.json --checkpoint-dir d \
                 --checkpoint-every 5 --fsync os --kill-at-slot 9 --resume d --csv-dir c \
                 --out o.json --standalone",
            ),
        ];
        let split = |text: &str| text.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        for (command, typo, valid) in rows {
            let flag = typo.split_whitespace().find(|a| a.starts_with("--")).unwrap();
            let err = command(&split(typo)).expect_err("an unknown flag must be refused");
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{typo}: {err}");
            if let Err(err) = command(&split(valid)) {
                assert!(!err.contains("unknown flag"), "{valid}: {err}");
            }
        }
    }

    fn fed_args(extra: &[&str]) -> Vec<String> {
        let mut args = vec!["--regions", "2", "--devices", "4", "--horizon", "5"];
        args.extend_from_slice(extra);
        args.into_iter().map(str::to_owned).collect()
    }

    #[test]
    fn federate_rejects_durability_flags_without_a_checkpoint_root() {
        for flag in ["--kill-at-slot", "--checkpoint-every", "--fsync"] {
            let err = cmd_federate(&fed_args(&[flag, "3"]))
                .expect_err("durability flags without a root must not be silently ignored");
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("--checkpoint-dir"), "{err}");
        }
    }

    #[test]
    fn federate_standalone_rejects_durability_and_link_flags() {
        for flag in
            ["--link-faults", "--checkpoint-dir", "--checkpoint-every", "--fsync", "--kill-at-slot"]
        {
            let err = cmd_federate(&fed_args(&["--standalone", flag, "3"]))
                .expect_err("standalone must reject federation-only flags");
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("--standalone"), "{err}");
        }
    }
}
