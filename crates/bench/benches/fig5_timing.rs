//! Fig. 5 bench: CGBA solve time as the device count grows (the paper's
//! time-complexity sweep I ∈ {80, …, 120}).
//!
//! The cross-algorithm wall-clock table is printed by
//! `cargo run -p eotora-bench --release --bin figures -- --fig5`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eotora_core::bdma::P2aSolver;
use eotora_core::p2a::P2aProblem;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::CgbaSolver;
use eotora_obs::NoopRecorder;
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn bench(c: &mut Criterion) {
    let counts: &[usize] =
        if eotora_bench::quick_mode() { &[20, 40] } else { &[80, 90, 100, 110, 120] };
    let mut group = c.benchmark_group("fig5_cgba_scaling");
    group.sample_size(10);
    for &devices in counts {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), 11);
        let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 11);
        let state = states.observe(0, system.topology());
        let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
        group.bench_with_input(BenchmarkId::from_parameter(devices), &devices, |b, _| {
            b.iter(|| {
                let mut rng = Pcg32::seed(5);
                let mut solver = CgbaSolver::default();
                std::hint::black_box(solver.solve(
                    &p2a,
                    None,
                    None,
                    &|| false,
                    &mut rng,
                    &NoopRecorder,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
