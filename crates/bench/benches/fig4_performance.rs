//! Fig. 4 bench: solution quality kernels — one P2-A solve per algorithm.
//!
//! Criterion measures the solve; the objective values plotted in Fig. 4 come
//! from `cargo run -p eotora-bench --release --bin figures -- --fig4`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eotora_core::baselines::{McbaSolver, RoptSolver};
use eotora_core::bdma::P2aSolver;
use eotora_core::p2a::P2aProblem;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::CgbaSolver;
use eotora_obs::NoopRecorder;
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn build(devices: usize, seed: u64) -> (MecSystem, P2aProblem) {
    let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
    let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
    let state = states.observe(0, system.topology());
    let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
    (system, p2a)
}

fn bench(c: &mut Criterion) {
    let devices = if eotora_bench::quick_mode() { 30 } else { 100 };
    let (_system, p2a) = build(devices, 2023);
    let mut group = c.benchmark_group("fig4_solvers");
    group.sample_size(10);

    let mut run = |name: &str, solver: &mut dyn P2aSolver| {
        group.bench_with_input(BenchmarkId::new(name, devices), &devices, |b, _| {
            b.iter(|| {
                let mut rng = Pcg32::seed(7);
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
    };
    run("cgba", &mut CgbaSolver::default());
    run("mcba", &mut McbaSolver::with_iterations(5_000));
    run("ropt", &mut RoptSolver);
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
