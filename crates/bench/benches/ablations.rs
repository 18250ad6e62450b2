//! Ablation benches: the computational kernels behind the design-choice
//! studies (BDMA rounds, CGBA scheduling rule, greedy warm start).
//!
//! The ablation tables are printed by
//! `cargo run -p eotora-bench --release --bin figures -- --ablations`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eotora_core::baselines::GreedySolver;
use eotora_core::bdma::{solve_p2, BdmaConfig, P2aSolver};
use eotora_core::p2a::P2aProblem;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::{CgbaSolver, SlotWorkspace};
use eotora_game::{CgbaConfig, SchedulingRule};
use eotora_obs::NoopRecorder;
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn bench(c: &mut Criterion) {
    let devices = if eotora_bench::quick_mode() { 20 } else { 60 };
    let system = MecSystem::random(&SystemConfig::paper_defaults(devices), 2024);
    let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 2024);
    let state = states.observe(0, system.topology());
    let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());

    let mut group = c.benchmark_group("ablation_bdma_rounds");
    group.sample_size(10);
    for z in [1usize, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(z), &z, |b, &z| {
            b.iter(|| {
                let mut solver = CgbaSolver::default();
                let mut rng = Pcg32::seed(7);
                std::hint::black_box(solve_p2(
                    &system,
                    &state,
                    100.0,
                    20.0,
                    &BdmaConfig { rounds: z, ..Default::default() },
                    &mut solver,
                    &mut SlotWorkspace::new(),
                    &mut rng,
                    0,
                    &NoopRecorder,
                    None,
                ))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation_scheduling");
    group.sample_size(10);
    for (name, rule) in
        [("max_gain", SchedulingRule::MaxGain), ("round_robin", SchedulingRule::RoundRobin)]
    {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = Pcg32::seed(9);
                let cfg = CgbaConfig { scheduling: rule, ..Default::default() };
                std::hint::black_box(p2a.solve_cgba(&cfg, &mut rng))
            });
        });
    }
    group.finish();

    c.bench_function("ablation_greedy_assign", |b| {
        b.iter(|| std::hint::black_box(GreedySolver::assign(&p2a)));
    });
    // Keep the solver trait import exercised (greedy through the trait).
    let mut g = GreedySolver;
    let mut rng = Pcg32::seed(1);
    std::hint::black_box(g.solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder).unwrap());
}

criterion_group!(benches, bench);
criterion_main!(benches);
