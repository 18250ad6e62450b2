//! One P2-A slot solved four ways: CGBA, MCBA, ROPT, and branch-and-bound.
//!
//! ```text
//! cargo run -p eotora-examples --release --bin compare_algorithms [devices]
//! ```
//!
//! A miniature of the paper's Fig. 4–5: objective values and wall-clock
//! times for all algorithms, plus the exact solver's certified lower bound.

use std::time::Instant;

use eotora_core::baselines::{ExactSolver, McbaSolver, RoptSolver};
use eotora_core::bdma::P2aSolver;
use eotora_core::p2a::P2aProblem;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::CgbaSolver;
use eotora_obs::NoopRecorder;
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn main() {
    let devices: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(20);
    let seed = 7;
    let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
    let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
    let state = states.observe(0, system.topology());
    let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
    println!("P2-A instance: {devices} devices, {} strategies each\n", p2a.num_strategies(0));

    let run = |name: &str, solver: &mut dyn P2aSolver| -> Vec<usize> {
        let mut rng = Pcg32::seed(seed);
        let started = Instant::now();
        let choices = solver
            .solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder)
            .expect("an unmasked solve cannot fail");
        let elapsed = started.elapsed();
        println!(
            "{name:<6} latency {:.4} s   solved in {:>10.3?}",
            p2a.total_latency(&choices),
            elapsed
        );
        choices
    };

    let cgba_choices = run("CGBA", &mut CgbaSolver::default());
    run("MCBA", &mut McbaSolver::with_iterations(5_000));
    run("ROPT", &mut RoptSolver);

    let exact = ExactSolver { node_budget: 30_000, warm_start: false };
    let started = Instant::now();
    let report = exact.solve_with_report_from(&p2a, Some(&cgba_choices));
    println!(
        "OPT    latency {:.4} s   solved in {:>10.3?}   (lower bound {:.4}, {} nodes, {})",
        report.latency,
        started.elapsed(),
        report.lower_bound,
        report.nodes_expanded,
        if report.proven_optimal { "proven optimal" } else { "budget-limited incumbent" }
    );
    let cgba_latency = p2a.total_latency(&cgba_choices);
    println!(
        "\nCGBA vs best-known solution : {:.4}x (Theorem 2 guarantees ≤ 2.62x vs optimum)",
        cgba_latency / report.latency
    );
    println!(
        "CGBA vs certified lower bound: {:.4}x{}",
        cgba_latency / report.lower_bound,
        if report.proven_optimal {
            ""
        } else {
            " (bound is loose when the search is budget-limited)"
        }
    );
}
