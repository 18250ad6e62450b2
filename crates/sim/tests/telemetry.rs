//! End-to-end telemetry: a run with sanitization disabled under a
//! corrupt-state burst must escalate the robust ladder, and the attached
//! [`TelemetrySession`] must dump a flight-recorder postmortem that is
//! valid JSONL.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use eotora_core::fault::{FaultAction, FaultEvent, FaultSchedule};
use eotora_obs::{TelemetryConfig, TelemetrySession};
use eotora_sim::runner::{robust_config, run_mode};
use eotora_sim::scenario::Scenario;
use eotora_sim::DriverMode;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("eotora-telemetry-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A long corrupt-state burst with the sanitizer switched off: NaN/garbage
/// observations reach the solver, the robust ladder falls through to its
/// lifeboat, and the telemetry session must capture a postmortem.
#[test]
fn induced_solve_failure_produces_valid_postmortem() {
    let scenario = Scenario::paper(6, 4242).with_horizon(40);
    let faults = FaultSchedule {
        events: vec![FaultEvent { slot: 5, action: FaultAction::CorruptState { slots: 25 } }],
    };
    let mut robust = robust_config(&scenario, None);
    robust.sanitize = false;

    let dir = temp_dir("postmortem");
    let telemetry = TelemetrySession::new(TelemetryConfig {
        v: scenario.dpp.v,
        budget: scenario.system.budget_per_slot,
        postmortem_dir: Some(dir.clone()),
        ..TelemetryConfig::default()
    });
    let result = run_mode(&scenario, DriverMode::Robust { faults, robust }, Some(&telemetry));
    assert_eq!(result.queue.len(), 40);

    // The ladder actually escalated (the whole point of --no-sanitize).
    let escalations = result.counters.get("robust.solve_errors").copied().unwrap_or(0)
        + result.counters.get("robust.equal_share_fallbacks").copied().unwrap_or(0);
    assert!(
        escalations > 0,
        "corrupt burst with sanitize=false should escalate the ladder; counters: {:?}",
        result.counters
    );

    assert!(telemetry.postmortems() > 0, "escalation should have dumped a postmortem");
    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-slot") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(!dumps.is_empty(), "no flight-slot*.jsonl in {}", dir.display());

    // Every dumped line is a well-formed TraceRecord JSON object.
    for path in &dumps {
        let text = std::fs::read_to_string(path).unwrap();
        let mut lines = 0;
        for line in text.lines() {
            let value = serde_json::parse(line)
                .unwrap_or_else(|e| panic!("bad JSONL in {}: {e}", path.display()));
            let serde::Value::Object(fields) = value else {
                panic!("postmortem line is not an object: {line}");
            };
            for key in ["seq", "t_ns", "type"] {
                assert!(fields.iter().any(|(name, _)| name == key), "missing {key}: {line}");
            }
            lines += 1;
        }
        assert!(lines > 0, "empty postmortem {}", path.display());
    }
    let health = telemetry.health_summary();
    assert_ne!(
        health.worst,
        eotora_obs::HealthStatus::Ok,
        "induced failures should degrade health"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// With the sanitizer left on (the default), the same corrupt burst is
/// screened: no ladder escalation, no postmortems, health recovers.
#[test]
fn sanitized_run_produces_no_postmortem() {
    let scenario = Scenario::paper(6, 4242).with_horizon(40);
    let faults = FaultSchedule {
        events: vec![FaultEvent { slot: 5, action: FaultAction::CorruptState { slots: 25 } }],
    };
    let robust = robust_config(&scenario, None);
    assert!(robust.sanitize, "sanitizer should be on by default");

    let dir = temp_dir("clean");
    let telemetry = TelemetrySession::new(TelemetryConfig {
        v: scenario.dpp.v,
        budget: scenario.system.budget_per_slot,
        postmortem_dir: Some(dir.clone()),
        ..TelemetryConfig::default()
    });
    let result = run_mode(&scenario, DriverMode::Robust { faults, robust }, Some(&telemetry));
    assert!(result.counters.get("fault.state_substitutions").copied().unwrap_or(0) > 0);
    assert_eq!(result.counters.get("robust.solve_errors").copied().unwrap_or(0), 0);
    assert_eq!(telemetry.postmortems(), 0, "sanitized run should not dump postmortems");

    std::fs::remove_dir_all(&dir).ok();
}
