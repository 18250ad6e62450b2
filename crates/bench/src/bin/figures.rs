//! Regenerates the data behind every figure of the paper's evaluation (§VI)
//! and every ablation EXPERIMENTS.md reports.
//!
//! ```text
//! cargo run -p eotora-bench --release --bin figures -- --all
//! cargo run -p eotora-bench --release --bin figures -- --fig4 --fig5
//! cargo run -p eotora-bench --release --bin figures -- --all --quick
//! ```
//!
//! `--quick` runs the scaled-down configurations (useful for smoke tests);
//! without it the paper-scale settings of each experiment run. With no
//! figure flag every figure runs, as under `--all`. Each figure prints the
//! rows/series the paper plots; `--ablations` adds the studies beyond the
//! paper and `--federation` the multi-region A/B table. `--svg <dir>`
//! additionally writes SVG plots of the line-chart figures (2, 7, 8) into
//! `<dir>`; `--jobs N` caps the worker pool the sweep experiments fan out on
//! (default: all cores). An unknown flag or a value flag without its value
//! is an error. EXPERIMENTS.md records the paper-vs-measured comparison.

use std::process::ExitCode;

use eotora_cli::{flag_value, require_known_flags};
use eotora_core::p1::hardness_witness;
use eotora_obs::{
    COUNTER_FAULT_MASKED_RESOURCES, COUNTER_FAULT_REPAIRED_PLAYERS,
    COUNTER_FAULT_STATE_SUBSTITUTIONS, COUNTER_FED_BUDGET_REBALANCES, COUNTER_FED_GOSSIP_DROPPED,
    COUNTER_FED_PARTITIONS, COUNTER_FED_ROUNDS_PROMOTED, COUNTER_FED_STALE_EPOCHS,
};
use eotora_sim::experiments::ablations::{
    bdma_rounds, energy_families, per_slot_vs_dpp, scheduling_rules,
};
use eotora_sim::experiments::beta_only_gap::{beta_only_gap, BetaOnlyGapConfig};
use eotora_sim::experiments::budget_sweep::{budget_sweep, BudgetSweepConfig};
use eotora_sim::experiments::chaos::chaos_default;
use eotora_sim::experiments::energy_fit::energy_fit;
use eotora_sim::experiments::fairness::{fairness, FairnessConfig};
use eotora_sim::experiments::federation::federation_default;
use eotora_sim::experiments::lambda_sweep::{lambda_sweep, LambdaSweepConfig};
use eotora_sim::experiments::p2a_comparison::{p2a_comparison, P2aComparisonConfig};
use eotora_sim::experiments::queue_trace::{queue_trace, QueueTraceConfig};
use eotora_sim::experiments::traces::traces;
use eotora_sim::experiments::v_sweep::{v_sweep, VSweepConfig};
use eotora_sim::experiments::warm_ab::warm_vs_cold;
use eotora_sim::report::{ascii_table, num};
use eotora_sim::svg::{render_line_chart, SvgChart, SvgSeries};

/// The flags that each select one figure or table.
const FIGURES: [&str; 10] = [
    "--fig2",
    "--fig3",
    "--fig4",
    "--fig5",
    "--fig6",
    "--fig7",
    "--fig8",
    "--fig9",
    "--ablations",
    "--federation",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let svg_dir = match parse_args(&args) {
        Ok(svg_dir) => svg_dir,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let quick = args.iter().any(|a| a == "--quick");
    let all = args.iter().any(|a| a == "--all") || !args.iter().any(|a| FIGURES.contains(&&**a));
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    if want("--fig2") {
        fig2(quick, svg_dir.as_deref());
    }
    if want("--fig3") {
        fig3();
    }
    if want("--fig4") || want("--fig5") {
        fig4_fig5(quick);
    }
    if want("--fig6") {
        fig6(quick);
    }
    if want("--fig7") {
        fig7(quick, svg_dir.as_deref());
    }
    if want("--fig8") {
        fig8(quick, svg_dir.as_deref());
    }
    if want("--fig9") {
        fig9(quick);
    }
    if want("--ablations") {
        ablations(quick);
    }
    if want("--federation") {
        federation(quick);
    }
    ExitCode::SUCCESS
}

/// Checks `args` against the known flags, applies `--jobs`, creates the
/// `--svg` directory and returns it.
fn parse_args(args: &[String]) -> Result<Option<String>, String> {
    let switches: Vec<&str> = FIGURES.iter().copied().chain(["--all", "--quick"]).collect();
    require_known_flags(args, "figures", &["--svg", "--jobs"], &switches)?;
    // Past the flag check every argument is a flag or a value flag's value.
    if let Some(stray) = args.iter().enumerate().find_map(|(i, arg)| {
        let is_value = i > 0 && matches!(args[i - 1].as_str(), "--svg" | "--jobs");
        (!arg.starts_with("--") && !is_value).then_some(arg)
    }) {
        return Err(format!("unexpected argument `{stray}` for `figures`"));
    }
    if let Some(raw) = flag_value(args, "--jobs") {
        match raw.parse::<usize>() {
            Ok(jobs) if jobs >= 1 => eotora_util::pool::set_default_workers(jobs),
            _ => return Err(format!("--jobs expects a positive integer, got `{raw}`")),
        }
    }
    let svg_dir = flag_value(args, "--svg").map(str::to_owned);
    if let Some(dir) = &svg_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create --svg {dir}: {e}"))?;
    }
    Ok(svg_dir)
}

fn ablations(quick: bool) {
    let (devices, trials, horizon) = if quick { (10, 2, 48) } else { (60, 5, 240) };

    println!("\n=== Ablation A: BDMA alternation rounds z (P2 objective) ===");
    let rows: Vec<Vec<String>> = bdma_rounds(devices, trials, 2024)
        .iter()
        .map(|r| vec![r.rounds.to_string(), num(r.objective)])
        .collect();
    println!("{}", ascii_table(&["z", "P2 objective"], &rows));

    println!("=== Ablation B: CGBA player scheduling ===");
    let rows: Vec<Vec<String>> = scheduling_rules(devices, trials, 2025)
        .iter()
        .map(|r| vec![r.rule.clone(), num(r.objective), format!("{:.1}", r.iterations)])
        .collect();
    println!("{}", ascii_table(&["rule", "objective (s)", "iterations"], &rows));

    println!("=== Ablation C: energy-model families under DPP ===");
    let rows: Vec<Vec<String>> = energy_families(devices.min(30), horizon, 2026)
        .iter()
        .map(|r| vec![r.family.clone(), num(r.average_latency), num(r.average_cost)])
        .collect();
    println!("{}", ascii_table(&["family", "avg latency (s)", "avg cost ($)"], &rows));

    println!("=== Ablation D: per-slot budget vs time-average (DPP) budget ===");
    let c = per_slot_vs_dpp(devices.min(30), horizon, 0.8, 2027);
    let rows = vec![
        vec!["DPP (time-average)".to_string(), num(c.dpp_latency), num(c.dpp_cost)],
        vec!["per-slot Lagrangian".to_string(), num(c.per_slot_latency), num(c.per_slot_cost)],
    ];
    println!("{}", ascii_table(&["controller", "avg latency (s)", "avg cost ($)"], &rows));
    println!("shared budget: ${:.2}/slot", c.budget);

    println!("\n=== Ablation E: per-device fairness (Jain's index) ===");
    let cfg = if quick { FairnessConfig::small() } else { FairnessConfig::paper() };
    let rows: Vec<Vec<String>> = fairness(&cfg)
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                format!("{:.4}", r.mean_jains_index),
                format!("{:.4}", r.worst_jains_index),
                num(r.average_latency),
            ]
        })
        .collect();
    println!("{}", ascii_table(&["variant", "mean Jain", "worst Jain", "avg latency (s)"], &rows));

    println!("\n=== Ablation F: DPP vs hindsight β-only policy (Lemma 2 / Thm 4) ===");
    let cfg = if quick { BetaOnlyGapConfig::small() } else { BetaOnlyGapConfig::paper() };
    let g = beta_only_gap(&cfg);
    println!(
        "β-only benchmark: latency {} s at cost ${} (μ = {:.2})",
        num(g.oracle_latency),
        num(g.oracle_cost),
        g.multiplier
    );
    let rows: Vec<Vec<String>> = g
        .dpp
        .iter()
        .map(|&(v, lat, cost, ratio)| vec![num(v), num(lat), num(cost), format!("{ratio:.4}")])
        .collect();
    println!("{}", ascii_table(&["V", "DPP latency (s)", "DPP cost ($)", "latency ratio"], &rows));

    println!("\n=== Ablation G: P1 hardness witness (Theorem 1) ===");
    let sizes: &[usize] = if quick { &[6, 12] } else { &[6, 8, 10, 12, 14] };
    let rows: Vec<Vec<String>> = hardness_witness(sizes, 5)
        .iter()
        .map(|r| {
            vec![
                r.devices.to_string(),
                r.exact_nodes.to_string(),
                num(r.optimum),
                num(r.cgba_cost),
                format!("{:.4}", r.cgba_cost / r.optimum),
                r.cgba_moves.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(&["n", "B&B nodes", "OPT", "CGBA", "CGBA/OPT", "CGBA moves"], &rows)
    );

    let horizon = if quick { 120 } else { 500 };
    println!("\n=== Ablation H: chaos (fault injection), I = 10, {horizon} slots ===");
    let c = chaos_default(10, horizon, 99);
    let counter = |name: &str| c.faulted.counters.get(name).copied().unwrap_or(0).to_string();
    let rows: Vec<Vec<String>> = [&c.baseline, &c.faulted]
        .iter()
        .map(|arm| {
            vec![
                arm.label.clone(),
                num(arm.average_latency),
                num(arm.average_cost),
                num(arm.converged_queue),
                num(arm.max_queue),
                arm.health.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &["arm", "avg latency (s)", "avg cost ($)", "converged Q", "max Q", "worst health"],
            &rows
        )
    );
    println!(
        "faulted vs baseline: latency {:+.1}%, cost {:+.1}%, converged queue {:+.1}%; \
         {} slot-resources masked, {} players repaired, {} state substitutions",
        100.0 * c.latency_degradation_rel,
        100.0 * c.cost_degradation_rel,
        100.0 * c.queue_growth_rel,
        counter(COUNTER_FAULT_MASKED_RESOURCES),
        counter(COUNTER_FAULT_REPAIRED_PLAYERS),
        counter(COUNTER_FAULT_STATE_SUBSTITUTIONS),
    );

    let (devices, horizon) = if quick { (10, 96) } else { (30, 500) };
    println!("\n=== Ablation I: warm vs cold start, I = {devices}, {horizon} slots ===");
    let ab = warm_vs_cold(devices, horizon, 4242);
    let rows: Vec<Vec<String>> = [&ab.cold, &ab.warm]
        .iter()
        .map(|arm| {
            vec![
                arm.policy.clone(),
                num(arm.average_latency),
                num(arm.average_cost),
                format!("{:.2}", arm.mean_rounds_used),
                if arm.budget_satisfied { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &["start", "avg latency (s)", "avg cost ($)", "BDMA rounds/slot", "under budget"],
            &rows
        )
    );
    println!(
        "warm vs cold gap: latency {:.3}%, cost {:.3}%",
        100.0 * ab.latency_gap_rel,
        100.0 * ab.cost_gap_rel
    );
}

fn federation(quick: bool) {
    let (devices, horizon, seed) = if quick { (12, 60, 5) } else { (24, 200, 11) };
    println!(
        "\n=== Federation A/B: 3 regions, {devices} devices, {horizon} slots, sync every 10 ==="
    );
    let report = federation_default(3, devices, horizon, seed);
    let rows: Vec<Vec<String>> = report
        .arms()
        .iter()
        .map(|arm| {
            let counter = |name: &str| match arm.label.as_str() {
                "global" => "-".to_string(),
                _ => arm.counters.get(name).copied().unwrap_or(0).to_string(),
            };
            vec![
                arm.label.clone(),
                num(arm.fleet_average_cost),
                counter(COUNTER_FED_GOSSIP_DROPPED),
                counter(COUNTER_FED_STALE_EPOCHS),
                counter(COUNTER_FED_PARTITIONS),
                counter(COUNTER_FED_BUDGET_REBALANCES),
                counter(COUNTER_FED_ROUNDS_PROMOTED),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &[
                "arm",
                "fleet avg cost ($)",
                "gossip dropped",
                "stale epochs",
                "partitions",
                "rebalances",
                "rounds promoted",
            ],
            &rows
        )
    );
    println!("fleet budget: ${:.2}/slot", report.total_budget);
}

fn write_svg(dir: &str, name: &str, chart: &SvgChart, series: &[SvgSeries]) {
    let path = format!("{dir}/{name}.svg");
    std::fs::write(&path, render_line_chart(chart, series))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn fig2(quick: bool, svg: Option<&str>) {
    let hours = if quick { 48 } else { 72 };
    let t = traces(hours, 0.08, 2);
    println!("\n=== Fig. 2: real-world-shaped system-state traces (non-iid) ===");
    let rows: Vec<Vec<String>> = t
        .hours
        .iter()
        .map(|&h| vec![h.to_string(), num(t.price[h as usize]), num(t.demand[h as usize])])
        .collect();
    println!("{}", ascii_table(&["hour", "price $/kWh", "demand xbase"], &rows));
    if let Some(dir) = svg {
        let xs = |v: &[f64]| v.iter().enumerate().map(|(h, &y)| (h as f64, y)).collect::<Vec<_>>();
        write_svg(
            dir,
            "fig2_traces",
            &SvgChart {
                title: "Fig. 2: non-iid system states".into(),
                x_label: "hour".into(),
                y_label: "value (price x10 for scale)".into(),
                ..Default::default()
            },
            &[
                SvgSeries {
                    label: "price x10".into(),
                    points: xs(&t.price.iter().map(|p| p * 10.0).collect::<Vec<_>>()),
                },
                SvgSeries { label: "demand".into(), points: xs(&t.demand) },
            ],
        );
    }
}

fn fig3() {
    let d = energy_fit(2, 3);
    println!("\n=== Fig. 3: i7-3770K power vs frequency, quadratic fit ===");
    let (a, b, c) = d.fit_coefficients;
    println!("fit: P(f) = {a:.3}·f² + {b:.3}·f + {c:.3}  (f in GHz, P in W)");
    let rows: Vec<Vec<String>> = d
        .measured
        .iter()
        .map(|&(f, p)| {
            let fitted = a * f * f + b * f + c;
            vec![num(f), num(p), num(fitted), num(p - fitted)]
        })
        .collect();
    println!("{}", ascii_table(&["GHz", "measured W", "fit W", "residual"], &rows));
    println!("two perturbed server curves at 1.8 / 2.7 / 3.6 GHz:");
    for (i, curve) in d.perturbed_curves.iter().enumerate() {
        let pick = |ghz: f64| {
            curve
                .iter()
                .min_by(|x, y| (x.0 - ghz).abs().partial_cmp(&(y.0 - ghz).abs()).expect("finite"))
                .expect("non-empty curve")
                .1
        };
        println!(
            "  server {}: {:.1} W / {:.1} W / {:.1} W",
            i + 1,
            pick(1.8),
            pick(2.7),
            pick(3.6)
        );
    }
}

fn fig4_fig5(quick: bool) {
    let config = if quick { P2aComparisonConfig::small() } else { P2aComparisonConfig::paper() };
    let rows = p2a_comparison(&config);
    println!("\n=== Fig. 4: P2-A objective (s): CGBA(0) vs baselines vs OPT ===");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.devices.to_string(),
                num(r.cgba.objective),
                num(r.mcba.objective),
                num(r.ropt.objective),
                num(r.exact.objective),
                num(r.exact_lower_bound),
                format!("{:.3}", r.cgba_to_opt_ratio()),
                format!("{:.0}%", r.proven_fraction * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &["I", "CGBA", "MCBA", "ROPT", "OPT(B&B)", "cert. LB", "CGBA/OPT", "proven"],
            &table
        )
    );

    println!("=== Fig. 5: wall-clock time per P2-A solve (s) ===");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.devices.to_string(),
                num(r.cgba.time_s),
                num(r.mcba.time_s),
                num(r.ropt.time_s),
                num(r.exact.time_s),
                format!("{:.0}x", r.exact.time_s / r.cgba.time_s.max(1e-12)),
            ]
        })
        .collect();
    println!("{}", ascii_table(&["I", "CGBA", "MCBA", "ROPT", "OPT(B&B)", "OPT/CGBA"], &table));
}

fn fig6(quick: bool) {
    let config = if quick { LambdaSweepConfig::small() } else { LambdaSweepConfig::paper() };
    let rows = lambda_sweep(&config);
    println!("\n=== Fig. 6: CGBA(λ) objective & iterations vs λ (I={}) ===", config.devices);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![format!("{:.2}", r.lambda), num(r.objective), format!("{:.1}", r.iterations)])
        .collect();
    println!("{}", ascii_table(&["lambda", "objective (s)", "iterations"], &table));
}

fn fig7(quick: bool, svg: Option<&str>) {
    let config = if quick { QueueTraceConfig::small() } else { QueueTraceConfig::paper() };
    let data = queue_trace(&config);
    if let Some(dir) = svg {
        let series: Vec<SvgSeries> = data
            .iter()
            .map(|t| SvgSeries {
                label: format!("V={}", t.v),
                points: t.queue.iter().enumerate().map(|(s, &q)| (s as f64, q)).collect(),
            })
            .collect();
        write_svg(
            dir,
            "fig7_queue_backlog",
            &SvgChart {
                title: "Fig. 7: queue backlog Q(t)".into(),
                x_label: "slot".into(),
                y_label: "backlog".into(),
                ..Default::default()
            },
            &series,
        );
    }
    println!("\n=== Fig. 7: queue backlog Q(t) vs time (every 12th slot) ===");
    let header: Vec<String> = std::iter::once("slot".to_string())
        .chain(data.iter().map(|t| format!("Q(t) V={}", t.v)))
        .chain(std::iter::once("price".to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..data[0].queue.len())
        .step_by(12)
        .map(|t| {
            std::iter::once(t.to_string())
                .chain(data.iter().map(|tr| num(tr.queue[t])))
                .chain(std::iter::once(num(data[0].price[t])))
                .collect()
        })
        .collect();
    println!("{}", ascii_table(&header_refs, &rows));
}

fn fig8(quick: bool, svg: Option<&str>) {
    let config = if quick { VSweepConfig::small() } else { VSweepConfig::paper() };
    let rows = v_sweep(&config);
    if let Some(dir) = svg {
        write_svg(
            dir,
            "fig8_queue_vs_v",
            &SvgChart {
                title: "Fig. 8 (left): converged backlog vs V".into(),
                x_label: "V".into(),
                y_label: "converged queue".into(),
                ..Default::default()
            },
            &[SvgSeries {
                label: "backlog".into(),
                points: rows.iter().map(|r| (r.v, r.converged_queue)).collect(),
            }],
        );
        write_svg(
            dir,
            "fig8_latency_vs_v",
            &SvgChart {
                title: "Fig. 8 (right): average latency vs V".into(),
                x_label: "V".into(),
                y_label: "latency (s)".into(),
                ..Default::default()
            },
            &[SvgSeries {
                label: "latency".into(),
                points: rows.iter().map(|r| (r.v, r.average_latency)).collect(),
            }],
        );
    }
    println!("\n=== Fig. 8: converged queue backlog & average latency vs V ===");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![num(r.v), num(r.converged_queue), num(r.average_latency), num(r.average_cost)]
        })
        .collect();
    println!("{}", ascii_table(&["V", "converged Q", "avg latency (s)", "avg cost ($)"], &table));
}

fn fig9(quick: bool) {
    let config = if quick { BudgetSweepConfig::small() } else { BudgetSweepConfig::paper() };
    let rows = budget_sweep(&config);
    println!("\n=== Fig. 9: time-average latency & energy cost vs budget C̄ ===");
    let mut table = Vec::new();
    for row in &rows {
        for p in &row.points {
            table.push(vec![
                num(row.budget),
                p.algorithm.clone(),
                num(p.tail_latency),
                num(p.average_cost),
                if p.average_cost <= row.budget * 1.02 { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        ascii_table(
            &["budget $", "algorithm", "tail latency (s)", "avg cost ($)", "under budget"],
            &table
        )
    );
}
