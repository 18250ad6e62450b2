//! Microbenchmarks of the numerical kernels substituting CVX/Gurobi:
//! scalar minimizers (bisection vs golden section vs Brent vs the Cardano
//! closed form) on the exact P2-B per-server objective, and one full P2-B
//! fleet solve.

use criterion::{criterion_group, criterion_main, Criterion};
use eotora_core::bdma::P2aSolver;
use eotora_core::p2a::P2aProblem;
use eotora_core::p2b::solve_p2b;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_core::CgbaSolver;
use eotora_obs::NoopRecorder;
use eotora_optim::cubic::root_in_interval;
use eotora_optim::scalar::{minimize_bisection, minimize_brent, minimize_golden};
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn bench(c: &mut Criterion) {
    // The per-server P2-B objective at realistic scales.
    let (v, a_load, q, p) = (100.0, 2.0e7, 40.0, 0.06);
    let (qa, qb) = (4.6 * 16.0, 4.1 * 16.0);
    let c_w = q * p * 1e-3;
    let f = |w: f64| v * a_load / w + c_w * (qa * (w / 1e9) * (w / 1e9) + qb * (w / 1e9));
    let df = |w: f64| -v * a_load / (w * w) + c_w * (2.0 * qa * w / 1e18 + qb / 1e9);
    let (lo, hi) = (1.8e9, 3.6e9);

    let mut group = c.benchmark_group("p2b_scalar_kernels");
    group.bench_function("bisection", |b| {
        b.iter(|| std::hint::black_box(minimize_bisection(f, df, lo, hi, 1.0, 200)))
    });
    group.bench_function("golden_section", |b| {
        b.iter(|| std::hint::black_box(minimize_golden(f, lo, hi, 1.0, 200)))
    });
    group.bench_function("brent", |b| {
        b.iter(|| std::hint::black_box(minimize_brent(f, lo, hi, 1e-12, 200)))
    });
    group.bench_function("cardano_closed_form", |b| {
        b.iter(|| {
            std::hint::black_box(root_in_interval(
                2.0 * qa * c_w / 1e18,
                qb * c_w / 1e9,
                0.0,
                -(v * a_load),
                lo,
                hi,
            ))
        })
    });
    group.finish();

    // Full fleet P2-B plus one CGBA solve for end-to-end context.
    let devices = if eotora_bench::quick_mode() { 20 } else { 100 };
    let system = MecSystem::random(&SystemConfig::paper_defaults(devices), 3);
    let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 3);
    let state = states.observe(0, system.topology());
    let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
    let mut rng = Pcg32::seed(4);
    let choices = CgbaSolver::default()
        .solve(&p2a, None, None, &|| false, &mut rng, &NoopRecorder)
        .expect("an unmasked solve cannot fail");
    let assignments = p2a.assignments_from_choices(&choices);

    c.bench_function("p2b_full_fleet", |b| {
        b.iter(|| std::hint::black_box(solve_p2b(&system, &state, &assignments, 100.0, 40.0)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
