//! Refusals `eotora` makes before it solves a slot: a checkpoint directory
//! that belongs to the other front-end, and a federation configuration
//! that describes no federation. Each exits 1 naming the problem; none
//! panics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use eotora_sim::Scenario;

fn eotora(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eotora"))
        .current_dir(dir)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("eotora starts")
}

/// Asserts `output` succeeded.
fn ran(output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "exit {:?}, stderr: {stderr}", output.status.code());
}

/// Asserts `output` is a refusal — exit status 1, no panic — and returns
/// its stderr.
fn refused(output: &Output) -> String {
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eotora-refusals-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A daemon's checkpoint directory is not a batch run's, and the other
/// way round: `run --resume` names the daemon's run and how to resume
/// it, and the daemon names the batch run it will not take over.
#[test]
fn a_checkpoint_directory_resumes_only_on_its_own_front_end() {
    let dir = temp_dir("front-ends");
    let scenario = Scenario::paper(4, 3).with_horizon(3);
    let json = serde_json::to_string(&scenario).expect("serializable");
    std::fs::write(dir.join("scenario.json"), json).expect("scenario written");
    std::fs::write(dir.join("empty.jsonl"), "").expect("input written");
    let config = |ckpt: &str| {
        format!("[scenario]\npath = \"scenario.json\"\n[durability]\ndir = \"{ckpt}\"\n")
    };
    std::fs::write(dir.join("served.toml"), config("served")).expect("config written");
    std::fs::write(dir.join("batch.toml"), config("batch")).expect("config written");
    let serve =
        |config: &str| eotora(&dir, &["serve", "--config", config, "--input", "empty.jsonl"]);

    ran(&serve("served.toml"));
    let stderr = refused(&eotora(&dir, &["run", "--resume", "served"]));
    assert!(stderr.contains("holds an `eotora serve` run"), "{stderr}");
    assert!(stderr.contains("restarting `eotora serve`"), "{stderr}");
    assert!(!stderr.contains("corrupt"), "{stderr}");

    ran(&eotora(&dir, &["run", "scenario.json", "--checkpoint-dir", "batch"]));
    let stderr = refused(&serve("batch.toml"));
    assert!(stderr.contains("holds a different run (mode `plain`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Too few regions or devices is refused as a federation-config error,
/// with `--standalone` as without, before any region is built.
#[test]
fn federate_refuses_a_config_that_is_no_federation() {
    let dir = temp_dir("federate");
    let base = ["federate", "--devices", "2", "--horizon", "2"];
    for standalone in [false, true] {
        let mut args = base.to_vec();
        args.extend(["--regions", "3"]);
        args.extend(standalone.then_some("--standalone"));
        let stderr = refused(&eotora(&dir, &args));
        assert!(
            stderr.contains("invalid federation config: 2 devices cannot cover 3 regions"),
            "standalone {standalone}: {stderr}"
        );
    }
    let stderr = refused(&eotora(&dir, &[&base[..], &["--regions", "0", "--standalone"]].concat()));
    assert!(stderr.contains("invalid federation config: a federation needs at least 2 regions"));
    let _ = std::fs::remove_dir_all(&dir);
}
