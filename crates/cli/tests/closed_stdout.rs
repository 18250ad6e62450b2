//! A reader that closes `eotora`'s stdout early (`eotora … | head`) must
//! end the command quietly with exit status 0, not a panic.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_command_quietly() {
    let dir = std::env::temp_dir().join(format!("eotora-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("scenario.json");
    let json = serde_json::to_string(&eotora_sim::Scenario::paper(10, 1)).expect("serializable");
    std::fs::write(&scenario, json).expect("scenario written");

    // 2000 slot states are megabytes of JSONL, far more than a pipe holds,
    // so the writer must meet the closed pipe whatever the timing.
    let mut child = Command::new(env!("CARGO_BIN_EXE_eotora"))
        .arg("states")
        .arg(&scenario)
        .args(["--slots", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("eotora starts");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("eotora exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "exit {:?}, stderr: {stderr}", output.status.code());
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
