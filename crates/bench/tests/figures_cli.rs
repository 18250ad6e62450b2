//! The `figures` binary refuses what it does not understand: an unknown
//! flag, a stray argument or a value flag without its value fails the run
//! and names the culprit instead of silently running nothing.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures runs")
}

fn assert_refused(args: &[&str], named: &str) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`figures {}` exited 0", args.join(" "));
    assert!(
        stderr.contains(named),
        "`figures {}` stderr does not name {named}: {stderr}",
        args.join(" ")
    );
    assert!(out.stdout.is_empty(), "`figures {}` ran something before refusing", args.join(" "));
}

#[test]
fn unknown_flags_are_refused_by_name() {
    assert_refused(&["--bogus"], "--bogus");
    assert_refused(&["--fig3", "--chaos"], "--chaos");
    assert_refused(&["--fig10"], "--fig10");
}

#[test]
fn value_flags_without_a_value_are_refused() {
    assert_refused(&["--jobs"], "--jobs");
    assert_refused(&["--quick", "--svg"], "--svg");
    assert_refused(&["--jobs", "--fig3"], "--jobs");
    assert_refused(&["--jobs", "0", "--fig3"], "--jobs");
}

#[test]
fn stray_arguments_are_refused() {
    assert_refused(&["--fig3", "fig4"], "fig4");
}

#[test]
fn a_known_figure_flag_runs_only_that_figure() {
    let out = figures(&["--fig3", "--jobs", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== Fig. 3"), "{stdout}");
    assert!(!stdout.contains("=== Fig. 2"), "{stdout}");
}
