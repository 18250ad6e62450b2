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
    HealthMonitor, HealthSample, HealthSummary, Recorder, RegistrySnapshot, TelemetrySession,
};
use eotora_sim::durable::read_manifest_in;
use eotora_sim::report::{ascii_table, num, slot_csv};
use eotora_sim::runner::{run_engine, run_many, SimulationResult};
use eotora_sim::scenario::Scenario;
use eotora_sim::{
    Checkpoint, DriverMode, EngineOption, EngineOptions, FederationConfig, FederationReport,
    RunOutcome, Surface, DURABILITY_OPTIONS, ENGINE_OPTIONS,
};

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
             [--jobs N] [--cold-start] [--bdma-eps X] [--shards auto|N]
             [--fault-trace faults.json] [--slot-deadline-ms MS] [--no-sanitize]
             [--checkpoint-dir D] [--checkpoint-every K] [--fsync every-slot|every-K|os]
             [--kill-at-slot N] [--metrics-out m.jsonl|m.prom] [--metrics-every K]
             [--trace trace.jsonl]
  eotora run --resume <checkpoint-dir> [--out ...] [--csv ...] [--svg ...]
             [--kill-at-slot N] [--metrics-out ...] [--metrics-every K]
             # the manifest fixes the scenario, mode, cadence and fsync policy
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
  eotora federate --resume <checkpoint-root> [--kill-at-slot N] [--csv-dir D]
             [--out report.json]
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

/// The non-engine value flags of a fresh `eotora run`.
const RUN_FLAGS: &[&str] = &["--out", "--csv", "--svg", "--jobs", "--bdma-eps", "--shards"];
/// The non-engine value flags of `eotora run --resume`, whose manifest
/// fixes the scenario: the output flags.
const RESUME_FLAGS: &[&str] = &["--out", "--csv", "--svg"];

/// Reports how a checkpointable run ended: the resume hint when the kill
/// hook interrupted it in `dir`, which `eotora <command> --resume`
/// resumes, else `report` of the completed result.
fn report_outcome<R>(
    outcome: RunOutcome<R>,
    command: &str,
    dir: Option<&Path>,
    report: impl FnOnce(R) -> Result<(), String>,
) -> Result<(), String> {
    match outcome {
        RunOutcome::Interrupted { slot } => {
            let dir = dir.unwrap_or(Path::new(".")).display();
            outln!("interrupted after slot {slot}; resume with `eotora {command} --resume {dir}`")
        }
        RunOutcome::Completed(result) => report(*result),
    }
}

/// `eotora run <scenario.json>` runs a scenario, and
/// `eotora run --resume <dir>` picks a checkpointed run back up, the
/// manifest in the directory, read once here, supplying the scenario and
/// mode. The engine options are read and checked by the one schema
/// ([`eotora_sim::EngineOptions`]); output flags work the same on both.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let given = run_options(args)?;
    let resumed = match flag_value(args, EngineOption::Resume.flag()) {
        Some(dir) => {
            eprintln!("resuming checkpointed run in {dir} …");
            let manifest = read_manifest_in(Path::new(dir))
                .map_err(|e| format!("cannot resume from {dir}: {e}"))?;
            let mode =
                manifest.driver_mode().map_err(|e| format!("cannot resume from {dir}: {e}"))?;
            Some((manifest, mode))
        }
        None => None,
    };
    let scenario = match &resumed {
        Some((manifest, _)) => manifest.scenario.clone(),
        None => fresh_scenario(args)?,
    };
    let options =
        EngineOptions::parse(Surface::Cli, &given, &scenario).map_err(|e| e.to_string())?;
    if let DriverMode::Robust { faults, robust } = options.mode() {
        eprintln!(
            "robust mode: {} fault event(s), slot deadline {}{}",
            faults.events.len(),
            robust.deadline.map_or("none".into(), |d| format!("{} ms", d.as_millis())),
            if robust.sanitize { "" } else { ", sanitizer OFF (diagnostic)" },
        );
    }
    let durability = options.durability();
    let checkpoint = durability.map(|cfg| match &resumed {
        Some((manifest, _)) => Checkpoint::Resume(cfg, manifest),
        None => Checkpoint::Fresh(cfg),
    });
    let mode = resumed.as_ref().map_or(options.mode(), |(_, mode)| mode).clone();
    let telemetry =
        options.live_telemetry().then(|| TelemetrySession::new(options.telemetry().clone()));
    let trace = match options.trace() {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
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
        run_engine(&scenario, mode, checkpoint, sink).map_err(|e| e.to_string())?
    };
    if let Some((path, sink)) = trace {
        let events = sink.records_written();
        sink.finish().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {} ({events} events)", path.display());
    }
    report_outcome(outcome, "run", durability.map(|d| d.dir.as_path()), |result| {
        report_run(args, &result)?;
        telemetry.map_or(Ok(()), finish_telemetry)
    })
}

/// Checks the flags of `eotora run [--resume]` and returns its engine
/// options: all of them, beside the command's own flags.
fn run_options(args: &[String]) -> Result<Vec<(EngineOption, &str)>, String> {
    let all: Vec<EngineOption> = ENGINE_OPTIONS.iter().map(|row| row.0).collect();
    if args.iter().any(|a| a == EngineOption::Resume.flag()) {
        engine_options(args, "eotora run --resume", RESUME_FLAGS, &[], &all)
    } else {
        engine_options(args, "eotora run", RUN_FLAGS, &["--cold-start"], &all)
    }
}

/// Checks `args` against a command's own flags plus the flags of the
/// engine options in `scope`, and returns the engine options given, for
/// [`EngineOptions::parse`] to read against the run's scenario.
fn engine_options<'a>(
    args: &'a [String],
    command: &str,
    value_flags: &[&str],
    switches: &[&str],
    scope: &[EngineOption],
) -> Result<Vec<(EngineOption, &'a str)>, String> {
    let is_switch = |option: EngineOption| option == EngineOption::NoSanitize;
    let (mut values, mut presence) = (value_flags.to_vec(), switches.to_vec());
    for &option in scope {
        if is_switch(option) {
            presence.push(option.flag())
        } else {
            values.push(option.flag())
        }
    }
    require_known_flags(args, command, &values, &presence)?;
    Ok(scope
        .iter()
        .filter_map(|&option| match is_switch(option) {
            true => args.iter().any(|a| a == option.flag()).then_some((option, "")),
            false => flag_value(args, option.flag()).map(|value| (option, value)),
        })
        .collect())
}

/// Loads the scenario of a fresh `eotora run` and applies its scenario
/// flags. `--cold-start` pins the paper-faithful solver regardless of the
/// file's `start` field, `--bdma-eps` overrides the warm-mode
/// early-termination threshold, and `--shards` switches P2-A to the
/// sharded CGBA engine (decision-identical to the sequential solver on
/// separable topologies, and a safe no-op on dense ones).
fn fresh_scenario(args: &[String]) -> Result<Scenario, String> {
    let path = args.first().ok_or("run requires a scenario file")?;
    apply_jobs_flag(args)?;
    let mut scenario = load_scenario(path)?;
    if args.iter().any(|a| a == "--cold-start") {
        scenario.dpp.start = eotora_core::bdma::StartPolicy::Cold;
    }
    scenario.dpp.bdma_epsilon = parse_flag(args, "--bdma-eps", scenario.dpp.bdma_epsilon)?;
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
    Ok(scenario)
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

/// The flags that configure a fresh federation; a resumed one's manifest
/// fixes them.
const FEDERATION_FLAGS: &[&str] = &[
    "--regions",
    "--devices",
    "--horizon",
    "--seed",
    "--sync-every",
    "--budget",
    "--policy",
    "--floor",
    "--link-faults",
];

/// `eotora federate`: N per-region DPP controllers sharing one fleet
/// budget `C̄` over a (possibly faulty) peer link. With
/// `--checkpoint-dir` the whole federation is durable; `--resume` picks
/// a killed federation back up from its checkpoint root.
fn cmd_federate(args: &[String]) -> Result<(), String> {
    let standalone = args.iter().any(|a| a == "--standalone");
    if standalone {
        // Checked before any option, config or fault file is read, so the
        // conflict surfaces even when the named file does not exist.
        let durability = DURABILITY_OPTIONS.iter().map(|option| option.flag());
        for flag in std::iter::once("--link-faults").chain(durability) {
            if flag_value(args, flag).is_some() {
                return Err(format!(
                    "{flag} does not apply to --standalone (independent regions, no peer link)"
                ));
            }
        }
    }
    let flags = [FEDERATION_FLAGS, &["--csv-dir", "--out"]].concat();
    let given =
        engine_options(args, "eotora federate", &flags, &["--standalone"], DURABILITY_OPTIONS)?;

    let (cfg, faults) = if let Some(dir) = flag_value(args, EngineOption::Resume.flag()) {
        for flag in FEDERATION_FLAGS {
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
        (manifest.config, manifest.faults)
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
        (cfg, faults)
    };
    cfg.validate().map_err(|reason| format!("invalid federation config: {reason}"))?;
    let options = EngineOptions::parse(Surface::Cli, &given, &eotora_sim::region_scenario(&cfg, 0))
        .map_err(|e| e.to_string())?;

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

    let mut durability = options.durability().cloned();
    if let (Some(d), true) = (durability.as_mut(), options.resume()) {
        // A resumed federation keeps the cadence and fsync policy its
        // region manifests were started with.
        let kept = read_manifest_in(&d.dir.join("region-0")).map_err(|e| e.to_string())?;
        (d.checkpoint_every, d.fsync) = (kept.checkpoint_every, kept.fsync.parse()?);
    }
    let outcome = eotora_sim::run_federation(&cfg, &faults, durability.as_ref())
        .map_err(|e| e.to_string())?;
    report_outcome(outcome, "federate", durability.as_ref().map(|d| d.dir.as_path()), |report| {
        report_federation(args, &report)
    })
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
    let journal_p99_ms = prom_histogram_quantile(
        text,
        &format!("{}_ns", eotora_obs::prometheus_name(eotora_obs::SPAN_JOURNAL_APPEND)),
        0.99,
    )
    .map_or(0.0, |ns| ns / 1e6);
    let totals = HealthSample::from_counters(
        counter(eotora_obs::COUNTER_SLOTS),
        gauge(eotora_obs::GAUGE_QUEUE_BACKLOG).unwrap_or(0.0),
        gauge(eotora_obs::GAUGE_AVG_COST).unwrap_or(0.0),
        journal_p99_ms,
        counter,
    );
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

/// Health over a metrics JSONL file: each line is the session's
/// [`RegistrySnapshot`]. Multiple snapshots are replayed through the
/// hysteresis monitor; a single (final-only) snapshot falls back to
/// whole-run classification.
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
        let snap: RegistrySnapshot =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let gauge = |name: &str| snap.gauges.get(name).copied();
        v = gauge(eotora_obs::GAUGE_CONFIG_V).unwrap_or(v);
        budget = gauge(eotora_obs::GAUGE_CONFIG_BUDGET).unwrap_or(budget);
        let journal_p99_ms =
            snap.spans.get(eotora_obs::SPAN_JOURNAL_APPEND).map_or(0.0, |s| s.p99_ns as f64 / 1e6);
        samples.push(HealthSample::from_counters(
            snap.slot,
            gauge(eotora_obs::GAUGE_QUEUE_BACKLOG).unwrap_or(0.0),
            gauge(eotora_obs::GAUGE_AVG_COST).unwrap_or(0.0),
            journal_p99_ms,
            |name| snap.counters.get(name).copied().unwrap_or(0),
        ));
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
                monitor.observe(HealthSample::from_counters(
                    slot,
                    field(&value, "queue").and_then(serde_json::Value::as_f64).unwrap_or(0.0),
                    cost_sum / slots as f64,
                    journal.quantile(0.99).map_or(0.0, |ns| ns / 1e6),
                    |name| counters.get(name).copied().unwrap_or(0),
                ));
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
    use eotora_sim::robust_config;

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
        let scenario = Scenario::paper(4, 1);
        let mut robust = robust_config(&scenario, Some(std::time::Duration::from_millis(5)));
        robust.sanitize = false;
        let expected = DriverMode::Robust { faults: Default::default(), robust };
        assert_eq!(run_mode_of(&args, &scenario).unwrap(), expected);
    }

    /// The pipeline `eotora run` picks for `args` on `scenario`: its flag
    /// check, option parse, validation and mode, without the run.
    fn run_mode_of(args: &[String], scenario: &Scenario) -> Result<DriverMode, String> {
        let options = EngineOptions::parse(Surface::Cli, &run_options(args)?, scenario)
            .map_err(|e| e.to_string())?;
        Ok(options.mode().clone())
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
            match (run_mode_of(&args, &scenario), refused) {
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

    #[test]
    fn every_engine_option_rule_is_refused_by_name_through_both_parsers() {
        use eotora_core::dpp::SolverKind;
        let dir = std::env::temp_dir().join(format!("eotora-cli-rules-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ropt_path = dir.join("ropt.json");
        let ropt = Scenario::paper(4, 1).with_solver(SolverKind::Ropt);
        std::fs::write(&ropt_path, serde_json::to_string(&ropt).unwrap()).unwrap();
        // (`eotora run` arguments, whether the scenario runs ROPT, the flag
        // the CLI error must name, and — where the daemon has the knob — its
        // config sections and the key that error must name)
        type Toml = Option<(&'static str, &'static str)>;
        let rows: [(&str, bool, &str, Toml); 19] = [
            (
                "s.json --slot-deadline-ms 0",
                false,
                "--slot-deadline-ms",
                Some((
                    "[server]\ndeadline_ms = 0\n[durability]\ndir = \"ck\"\n",
                    "server.deadline_ms",
                )),
            ),
            (
                "s.json --checkpoint-dir ck --checkpoint-every 0",
                false,
                "--checkpoint-every",
                Some((
                    "[durability]\ndir = \"ck\"\ncheckpoint_every = 0\n",
                    "durability.checkpoint_every",
                )),
            ),
            (
                "s.json --checkpoint-every 5",
                false,
                "--checkpoint-every",
                Some(("[durability]\ncheckpoint_every = 5\n", "durability.checkpoint_every")),
            ),
            (
                "s.json --fsync os",
                false,
                "--fsync",
                Some(("[durability]\nfsync = \"os\"\n", "durability.fsync")),
            ),
            (
                "s.json --kill-at-slot 3",
                false,
                "--kill-at-slot",
                Some(("[server]\nkill_after_slot = 3\n", "server.kill_after_slot")),
            ),
            (
                "s.json --metrics-every 5",
                false,
                "--metrics-every",
                Some((
                    "[durability]\ndir = \"ck\"\n[telemetry]\nmetrics_every = 5\n",
                    "telemetry.metrics_every",
                )),
            ),
            (
                "s.json --checkpoint-dir ck --fsync always",
                false,
                "--fsync",
                Some(("[durability]\ndir = \"ck\"\nfsync = \"always\"\n", "durability.fsync")),
            ),
            (
                "s.json --slot-deadline-ms 1000",
                true,
                "--slot-deadline-ms",
                Some((
                    "[server]\ndeadline_ms = 1000\n[durability]\ndir = \"ck\"\n",
                    "server.deadline_ms",
                )),
            ),
            ("s.json --fault-trace f.json", true, "--fault-trace", None),
            ("s.json --no-sanitize", false, "--no-sanitize", None),
            (
                "s.json --slot-deadline-ms 5 --no-sanitize --checkpoint-dir ck",
                false,
                "--no-sanitize",
                None,
            ),
            ("s.json --trace t.jsonl --checkpoint-dir ck", false, "--trace", None),
            ("--resume ck --checkpoint-dir ck2", false, "--checkpoint-dir", None),
            ("--resume ck --checkpoint-every 2", false, "--checkpoint-every", None),
            ("--resume ck --fsync os", false, "--fsync", None),
            ("--resume ck --fault-trace f.json", false, "--fault-trace", None),
            ("--resume ck --slot-deadline-ms 5", false, "--slot-deadline-ms", None),
            ("--resume ck --no-sanitize", false, "--no-sanitize", None),
            ("--resume ck --trace t.jsonl", false, "--trace", None),
        ];
        let durability_flags: Vec<&str> = DURABILITY_OPTIONS.iter().map(|o| o.flag()).collect();
        let fed_root = dir.join("fed").display().to_string();
        cmd_federate(&fed_args(&["--checkpoint-dir", &fed_root])).expect("a durable federation");
        for (args, is_ropt, flag, toml) in rows {
            let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
            let scenario = if is_ropt { ropt.clone() } else { Scenario::paper(4, 1) };
            let err = run_mode_of(&args, &scenario).expect_err("the rule must refuse");
            assert!(err.contains(flag) && !err.contains("unknown flag"), "{args:?}: {err}");
            // The same durability flags through `eotora federate`'s parser,
            // resuming a real (finished) federation root.
            let flags = args.iter().filter(|a| a.starts_with("--"));
            if flags.clone().all(|a| durability_flags.contains(&a.as_str())) {
                let federate: Vec<String> = args
                    .iter()
                    .filter(|a| *a != "s.json")
                    .map(|a| if a == "ck" { fed_root.clone() } else { a.clone() })
                    .collect();
                let err = cmd_federate(&federate).expect_err("the rule must refuse");
                assert!(err.contains(flag), "federate {federate:?}: {err}");
            }
            let Some((sections, key)) = toml else { continue };
            let scenario = if is_ropt {
                format!("path = \"{}\"", ropt_path.display())
            } else {
                "devices = 4\nseed = 1".to_owned()
            };
            let text = format!("[scenario]\n{scenario}\n{sections}");
            match eotora_server::ServerConfig::from_str(&text) {
                Err(err @ eotora_server::ConfigError::Invalid { .. }) => {
                    assert!(err.to_string().contains(key), "{text}: {err}");
                }
                other => panic!("{text}: expected an invalid field, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_and_readme_list_every_engine_option() {
        let federate = &USAGE[USAGE.find("eotora federate").unwrap()..];
        let readme = include_str!("../../../README.md");
        for &(option, flag, key) in ENGINE_OPTIONS {
            assert!(USAGE.contains(flag), "`eotora --help` misses {flag}");
            assert!(readme.contains(flag), "README misses {flag}");
            if let Some(key) = key {
                assert!(readme.contains(key), "README misses {key}");
            }
            if DURABILITY_OPTIONS.contains(&option) {
                assert!(federate.contains(flag), "federate help misses {flag}");
            }
        }
    }

    fn fed_args(extra: &[&str]) -> Vec<String> {
        let mut args = vec!["--regions", "2", "--devices", "4", "--horizon", "5"];
        args.extend_from_slice(extra);
        args.into_iter().map(str::to_owned).collect()
    }

    #[test]
    fn federate_resume_keeps_the_region_manifests_durability_policy() {
        let root = std::env::temp_dir().join(format!("eotora-cli-fed-{}", std::process::id()));
        let root_arg = root.display().to_string();
        let policy = |region: u32| {
            let dir = root.join(format!("region-{region}"));
            let manifest = read_manifest_in(&dir).unwrap();
            (manifest.checkpoint_every, manifest.fsync)
        };
        let start = ["--checkpoint-every", "4", "--fsync", "every-slot", "--kill-at-slot", "2"];
        cmd_federate(&fed_args(&[&["--checkpoint-dir", root_arg.as_str()], &start[..]].concat()))
            .unwrap();
        cmd_federate(&owned(&["--resume", &root_arg])).unwrap();
        for region in 0..2 {
            assert_eq!(policy(region), (4, "every-slot".to_owned()), "region {region}");
        }
        // Rerunning with `--checkpoint-dir` on the same root follows the
        // flags given, as `open_session` does for every durable engine.
        let rerun =
            ["--checkpoint-dir", root_arg.as_str(), "--checkpoint-every", "2", "--fsync", "os"];
        cmd_federate(&fed_args(&rerun)).unwrap();
        for region in 0..2 {
            assert_eq!(policy(region), (2, "os".to_owned()), "region {region}");
        }
        let _ = std::fs::remove_dir_all(&root);
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
