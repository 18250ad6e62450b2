//! Metric names, the human-readable table and the one-line JSON result.

use std::collections::BTreeMap;

use crate::check::Tally;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("decision_ms_p50", "ms"),
    ("decision_ms_p95", "ms"),
    ("slots_per_s", "1/s"),
    ("fleet_latency_s", "s"),
    ("cost_over_budget", "ratio"),
    ("clean_decision_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("frame.decode_ms_p50", "ms"),
    ("frame.bytes_per_slot", "B"),
    ("frame.encode_ms_p50", "ms"),
    ("queue.wait_ms_p50", "ms"),
    ("queue.depth_max", "count"),
    ("engine.step_ms_p50", "ms"),
    ("engine.residual_ms_p50", "ms"),
    ("p2a.ms_per_slot", "ms"),
    ("p2b.ms_per_slot", "ms"),
    ("dpp.queue_update_ms", "ms"),
    ("bdma.rounds_per_slot", "count"),
    ("bdma.accepted_ratio", "ratio"),
    ("cgba.iterations_per_slot", "count"),
    ("cgba.probes_per_slot", "count"),
    ("cgba.probes_per_iteration", "count"),
    ("shard.solves_per_slot", "count"),
    ("shard.cut_players_per_slot", "count"),
    ("shard.reconcile_moves_per_slot", "count"),
    ("journal.append_ms_p50", "ms"),
    ("journal.snapshot_ms_p50", "ms"),
    ("journal.bytes_per_slot", "B"),
    ("setup.system_ms", "ms"),
    ("setup.session_ms", "ms"),
    ("setup.driver_ms", "ms"),
    ("trace.unattributed_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The JSON value that stands for a metric the workload does not
/// exercise (or the program does not emit). Every listed metric must
/// appear in the result line as a number; a negative count or time
/// cannot be mistaken for a measurement, where 0 could.
pub const ABSENT: f64 = -1.0;

/// One measured figure and how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    /// The value in the metric's unit.
    pub value: f64,
    /// Samples behind it (slots, episodes or repetitions).
    pub samples: usize,
}

/// Metrics a run measured, by name; names not present are absent.
pub type Figures = BTreeMap<&'static str, Figure>;

/// The context every result is stamped with.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Slots in one episode of the workload.
    pub slots: u64,
    /// Episodes run in the measured phase.
    pub episodes: usize,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Worker threads of the solver's pool.
    pub workers: usize,
    /// Revision of the measured source, when known.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Whether this was the traced run.
    pub trace: bool,
}

/// Everything one run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Run context.
    pub stamp: Stamp,
    /// Measured figures.
    pub figures: Figures,
    /// Failure accounting over every attempted slot.
    pub tally: Tally,
    /// Failed correctness checks (empty when correct).
    pub problems: Vec<String>,
    /// Extra lines for the table (not part of the result line).
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric_list(&self) -> &'static [(&'static str, &'static str)] {
        if self.stamp.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// An untraced run must give every end-to-end metric a figure: a
    /// missing one is a failed check, since the result line would carry
    /// [`ABSENT`] where a lower-is-better figure belongs.
    pub fn require_end_to_end(&mut self) {
        if self.stamp.trace {
            return;
        }
        for (name, _) in END_TO_END {
            if !self.figures.contains_key(name) {
                self.problems.push(format!("end-to-end metric {name} has no figure"));
            }
        }
    }

    /// The human-readable report: stamp, one row per metric with its unit
    /// and sample count, the failure tally, and any failed check.
    pub fn table(&self) -> String {
        let s = &self.stamp;
        let mut out = format!(
            "# workload={} seed={} slots_per_episode={} episodes={} trace={} nproc={} \
             pool_workers={} git_rev={} profile={}\n",
            s.workload,
            s.seed,
            s.slots,
            s.episodes,
            u8::from(s.trace),
            s.nproc,
            s.workers,
            s.git_rev,
            s.profile
        );
        out.push_str(&format!("{:<34} {:>16} {:<6} {:>8}\n", "metric", "value", "unit", "samples"));
        for &(name, unit) in self.metric_list() {
            match self.figures.get(name) {
                Some(f) => out.push_str(&format!(
                    "{name:<34} {:>16.6} {unit:<6} {:>8}\n",
                    f.value, f.samples
                )),
                None => out.push_str(&format!("{name:<34} {:>16} {unit:<6} {:>8}\n", "absent", 0)),
            }
        }
        let top = crate::stats::highest_percentile(s.slots as usize)
            .map_or_else(|| "none".to_owned(), |p| format!("p{p}"));
        let basis = if s.trace {
            "per-layer figures pool every traced slot".to_owned()
        } else {
            format!("timing figures are host-speed corrected medians over {} episodes", s.episodes)
        };
        out.push_str(&format!(
            "# {basis}; episodes of {} slots, whose highest percentile with {} samples \
             beyond is {top}\n",
            s.slots,
            crate::stats::MIN_TAIL
        ));
        out.push_str(&format!(
            "# attempted={} failed={} failed_ratio={}\n",
            self.tally.attempted,
            self.tally.failed(),
            self.tally.failed_ratio()
        ));
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for problem in &self.problems {
            out.push_str(&format!("# CHECK FAILED: {problem}\n"));
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// run's metric list by name, each with its value and unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metric_list()
            .iter()
            .map(|&(name, unit)| {
                let value = self.figures.get(name).map_or(ABSENT, |f| f.value);
                format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, json_number(value))
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.problems.is_empty(),
            self.tally.attempted.max(1),
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

/// Formats a number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (which JSON cannot carry) become absent.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        format!("{ABSENT:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(trace: bool) -> Outcome {
        Outcome {
            stamp: Stamp {
                workload: "paper_plain",
                seed: 7,
                slots: 200,
                episodes: 2,
                nproc: 2,
                workers: 2,
                git_rev: "abc".into(),
                profile: "release",
                trace,
            },
            figures: [("decision_ms_p50", Figure { value: 12.5, samples: 400 })]
                .into_iter()
                .collect(),
            tally: Tally { attempted: 400, decided: 400, degraded: 0 },
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn a_missing_end_to_end_figure_fails_the_untraced_run() {
        let mut untraced = outcome(false);
        untraced.require_end_to_end();
        assert_eq!(untraced.problems.len(), END_TO_END.len() - 1);
        assert!(untraced.json_line().starts_with(r#"{"correct": false"#));
        let mut traced = outcome(true);
        traced.require_end_to_end();
        assert!(traced.problems.is_empty());
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let line = outcome(false).json_line();
        let parsed = serde_json::parse(&line).expect("result line is JSON");
        let fields = parsed.as_object().expect("object");
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = fields[3].1.as_object().expect("metrics object");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.as_object().expect("entry")[0].1.as_f64(), Some(12.5));
        assert_eq!(metrics[1].1.as_object().expect("entry")[0].1.as_f64(), Some(ABSENT));
        let traced = serde_json::parse(&outcome(true).json_line()).expect("JSON");
        assert_eq!(traced.as_object().expect("object")[3].1.as_object().expect("m").len(), 26);
    }

    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let spec = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let spec = spec.as_object().expect("object");
        for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let entries =
                spec.iter().find(|(k, _)| k == key).expect(key).1.as_array().expect("list");
            let declared: Vec<(String, String)> = entries
                .iter()
                .map(|e| {
                    let e = e.as_object().expect("entry");
                    let get = |f: &str| {
                        e.iter()
                            .find(|(k, _)| k == f)
                            .and_then(|(_, v)| v.as_str())
                            .expect(f)
                            .to_owned()
                    };
                    (get("name"), get("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
