//! Steady-state slots start no OS thread: the split CGBA kernel and the
//! sharded solver's shard batches take their helpers from the pool's
//! process-lifetime crew. Lists the process's own threads (Linux
//! `/proc/self/task`), so it holds exactly one test and no other test's
//! threads share the list.

use std::collections::BTreeSet;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use eotora_core::system::MecSystem;
use eotora_sim::{DriverMode, DriverTuning, Scenario, StepDriver};
use eotora_states::StateProvider;
use eotora_util::pool;

/// The ids of the process's threads.
fn threads() -> BTreeSet<String> {
    fs::read_dir("/proc/self/task")
        .expect("Linux /proc/self/task")
        .map(|task| task.expect("a task entry").file_name().to_string_lossy().into_owned())
        .collect()
}

/// Runs one warm-up slot of `scenario`, then 50 more while a sampler
/// thread lists the process's threads over and over. Returns how many
/// threads ran before the warm-up, the threads after it (the sampler
/// included) and every distinct list the sampler saw during the 50 slots.
fn thread_lists(scenario: &Scenario) -> (usize, BTreeSet<String>, Vec<BTreeSet<String>>) {
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let mut states = StateProvider::paper(system.topology(), &scenario.states, scenario.seed);
    let mut driver =
        StepDriver::new(scenario, system, DriverMode::Plain, None, None, DriverTuning::default());
    let mut step = || {
        let beta = states.observe(driver.cursor(), driver.topology());
        driver.step(beta).expect("an undurable step cannot fail");
    };
    let start = threads().len();
    step();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut seen = Vec::new();
            while !done.load(Ordering::Acquire) {
                let now = threads();
                if seen.last() != Some(&now) {
                    seen.push(now);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            seen
        });
        let warm = threads();
        for _ in 0..50 {
            step();
        }
        done.store(true, Ordering::Release);
        let seen = sampler.join().expect("the sampler thread panicked");
        (start, warm, seen)
    })
}

#[test]
fn steady_state_slots_start_no_thread() {
    // Two workers on any host: the paper game's one shard splits the
    // kernel in two, and the four islands run as shard batches of width 2.
    pool::set_default_workers(2);
    let (start, warm, seen) = thread_lists(&Scenario::paper(100, 7).with_horizon(60));
    // Besides the sampler, the warm-up slot's split kernel started a helper.
    assert_eq!(warm.len(), start + 2, "{warm:?}");
    assert!(
        seen.iter().all(|list| *list == warm),
        "paper(100): {warm:?} after the warm-up, then {seen:?}"
    );

    let islands = Scenario::scale_up(200, 4, 7).with_horizon(60).with_shards(0);
    let (_, warm, seen) = thread_lists(&islands);
    assert!(
        seen.iter().all(|list| *list == warm),
        "scale_up(200, 4): {warm:?} after the warm-up, then {seen:?}"
    );
}
