//! P2-B in isolation: how optimal clock frequencies respond to queue
//! pressure and electricity price.
//!
//! ```text
//! cargo run -p eotora-examples --release --bin frequency_scaling
//! ```
//!
//! Fixes one offloading decision and sweeps the virtual-queue backlog `Q`
//! and the price `p_t`, printing the resulting mean clock frequency, fleet
//! power, and processing latency — the mechanism DPP uses to keep the
//! time-average energy cost under budget.

use eotora_core::bdma::P2aSolver;
use eotora_core::p2a::P2aProblem;
use eotora_core::p2b::solve_p2b;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::CgbaSolver;
use eotora_obs::NoopRecorder;
use eotora_sim::report::{ascii_table, num};
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn main() {
    let seed = 3;
    let system = MecSystem::random(&SystemConfig::paper_defaults(50), seed);
    let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
    let mut state = states.observe(0, system.topology());

    // Fix a good offloading decision once (CGBA at minimum frequencies).
    let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
    let mut rng = Pcg32::seed(seed);
    let choices = CgbaSolver::default()
        .solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder)
        .expect("an unmasked solve cannot fail");
    let assignments = p2a.assignments_from_choices(&choices);

    let v = 100.0;
    let mut rows = Vec::new();
    for price in [0.03, 0.06, 0.09] {
        for queue in [0.0, 3.0, 10.0, 30.0] {
            state.price_per_kwh = price;
            let sol = solve_p2b(&system, &state, &assignments, v, queue);
            let mean_ghz = sol.freqs_hz.iter().sum::<f64>() / sol.freqs_hz.len() as f64 / 1e9;
            let power = system.fleet_power_watts(&sol.freqs_hz);
            let latency =
                eotora_core::latency::optimal_latency(&system, &state, &assignments, &sol.freqs_hz);
            rows.push(vec![
                format!("{price:.2}"),
                format!("{queue:.0}"),
                format!("{mean_ghz:.2}"),
                num(power / 1000.0),
                num(latency.processing),
            ]);
        }
    }
    println!(
        "{}",
        ascii_table(
            &["price $/kWh", "queue Q", "mean clock GHz", "fleet power kW", "proc latency s"],
            &rows
        )
    );
    println!("Higher queue backlog or pricier energy ⇒ lower clocks, less power, more latency.");
}
