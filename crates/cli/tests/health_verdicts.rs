//! `eotora health` on every artifact kind of one faulted run: a
//! sanitizer-off corrupt-state burst recorded as metrics JSONL, as a
//! Prometheus exposition and as a JSONL event trace. The trace replays
//! the run slot by slot, so its verdict must be the live session's own
//! `health:` line; the two metrics artifacts are sampled (every 10 slots,
//! or once at the end), and their verdicts are pinned as they stand.

use std::path::Path;
use std::process::Command;

use eotora_sim::Scenario;

fn eotora(dir: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_eotora"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("eotora starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "eotora {args:?} failed: {stderr}");
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// The run's live verdict: `health: ok (worst critical, 3 transition(s))`
/// → `ok (worst critical, 3 transition(s))`.
fn live_verdict(stdout: &str) -> String {
    let line = stdout.lines().find_map(|l| l.strip_prefix("health: ")).expect("a health: line");
    line.split(" | ").next().unwrap_or(line).to_owned()
}

/// `eotora health`'s verdict: `<path>: overall ok (worst …)` → `ok (worst …)`.
fn offline_verdict(dir: &Path, artifact: &str) -> String {
    let stdout = eotora(dir, &["health", artifact]);
    let prefix = format!("{artifact}: overall ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no verdict line in {stdout}"))
        .to_owned()
}

#[test]
fn health_reads_every_artifact_of_a_faulted_run() {
    let dir = std::env::temp_dir().join(format!("eotora-health-verdicts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for sub in ["jsonl", "prom", "trace"] {
        std::fs::create_dir_all(dir.join(sub)).expect("temp dir");
    }
    let scenario = Scenario::paper(8, 31).with_horizon(100);
    let json = serde_json::to_string(&scenario).expect("serializable");
    std::fs::write(dir.join("scenario.json"), json).expect("scenario written");
    std::fs::write(
        dir.join("faults.json"),
        r#"{"events": [{"slot": 5, "action": {"CorruptState": {"slots": 25}}}]}"#,
    )
    .expect("faults written");

    let faulted = ["run", "scenario.json", "--fault-trace", "faults.json", "--no-sanitize"];
    let artifacts = [
        (
            "jsonl/faulted.jsonl",
            &["--metrics-out", "jsonl/faulted.jsonl", "--metrics-every", "10"][..],
        ),
        ("prom/faulted.prom", &["--metrics-out", "prom/faulted.prom"][..]),
        ("trace/faulted.jsonl", &["--trace", "trace/faulted.jsonl"][..]),
    ];
    let mut verdicts = Vec::new();
    for (artifact, flags) in artifacts {
        let args: Vec<&str> = faulted.iter().chain(flags).copied().collect();
        let live = live_verdict(&eotora(&dir, &args));
        verdicts.push((live, offline_verdict(&dir, artifact)));
    }

    let live = &verdicts[0].0;
    assert_eq!(live, "ok (worst critical, 3 transition(s))");
    assert!(
        verdicts.iter().all(|(l, _)| l == live),
        "the artifact sink changed the run: {verdicts:?}"
    );
    assert_eq!(verdicts[2].1, *live, "the trace replay must reproduce the live verdict");
    assert_eq!(verdicts[0].1, "critical (worst critical, 1 transition(s))");
    assert_eq!(verdicts[1].1, "critical (worst critical, 0 transition(s))");
    let _ = std::fs::remove_dir_all(&dir);
}
