//! Plain-text rendering of experiment results: ASCII tables and CSV.

use crate::runner::SimulationResult;

/// Renders rows as an aligned ASCII table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
///
/// # Examples
///
/// ```
/// use eotora_sim::report::ascii_table;
///
/// let s = ascii_table(&["x", "y"], &[vec!["1".into(), "2".into()]]);
/// assert!(s.contains("| x | y |"));
/// ```
pub fn ascii_table(header: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), header.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    let sep: String = {
        let mut s = String::from("|");
        for w in &widths {
            s.push_str(&format!("{}-|", "-".repeat(w + 2 - 1)));
        }
        s.push('\n');
        s
    };
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Renders rows as CSV with the given header (no quoting — callers pass
/// numeric cells).
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), header.len(), "ragged CSV row");
    }
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Renders a run's per-slot series as CSV: the headline series plus
/// `bdma_rounds` (alternation rounds actually executed, which the warm
/// ε-termination can cut below the configured `z`), one `stage_<name>_s`
/// column per instrumented solver stage (seconds spent in `p2a`, `p2b`,
/// `queue_update`, ... each slot), and one constant `ctr_<name>` column
/// per end-of-run counter family in
/// [`eotora_obs::EXPORTED_COUNTER_FAMILIES`] — the event families a
/// post-hoc reader cannot reconstruct from the series.
pub fn slot_csv(result: &SimulationResult) -> String {
    let counters: Vec<(&String, &u64)> =
        result.counters.iter().filter(|(name, _)| eotora_obs::is_exported_counter(name)).collect();
    let mut header: Vec<String> =
        ["slot", "latency_s", "cost_usd", "queue", "price", "solve_time_s", "bdma_rounds"]
            .map(String::from)
            .to_vec();
    header.extend(result.per_stage_solve_time.keys().map(|name| format!("stage_{name}_s")));
    header.extend(counters.iter().map(|(name, _)| format!("ctr_{name}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..result.latency.len())
        .map(|t| {
            let mut row = vec![
                t.to_string(),
                result.latency.values()[t].to_string(),
                result.cost.values()[t].to_string(),
                result.queue.values()[t].to_string(),
                result.price.values()[t].to_string(),
                result.solve_time.values()[t].to_string(),
                result.rounds_used.values()[t].to_string(),
            ];
            row.extend(result.per_stage_solve_time.values().map(|s| s.values()[t].to_string()));
            row.extend(counters.iter().map(|(_, value)| value.to_string()));
            row
        })
        .collect();
    csv(&header_refs, &rows)
}

/// Formats a float with 4 significant-ish decimals for table cells.
pub fn num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.abs() < 0.001 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = ascii_table(
            &["algo", "latency"],
            &[vec!["CGBA".into(), "1.5".into()], vec!["ROPT".into(), "10.25".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{t}");
    }

    #[test]
    fn csv_rendering() {
        let c = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        ascii_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn slot_csv_includes_stage_columns() {
        use crate::runner::run;
        use crate::scenario::Scenario;
        let r = run(&Scenario::paper(6, 11).with_horizon(3).with_bdma_rounds(1));
        let text = slot_csv(&r);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let header: Vec<&str> = lines[0].split(',').collect();
        for col in [
            "slot",
            "latency_s",
            "bdma_rounds",
            "stage_p2a_s",
            "stage_p2b_s",
            "stage_queue_update_s",
        ] {
            assert!(header.contains(&col), "missing column {col} in {header:?}");
        }
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), header.len());
        }
    }

    #[test]
    fn slot_csv_exports_event_counters() {
        use crate::engine::DriverMode;
        use crate::runner::{robust_config, run_mode};
        use crate::scenario::Scenario;
        let s = Scenario::paper(6, 12).with_horizon(4).with_bdma_rounds(1);
        let faults = eotora_core::fault::FaultSchedule {
            events: vec![eotora_core::fault::FaultEvent {
                slot: 1,
                action: eotora_core::fault::FaultAction::CorruptState { slots: 2 },
            }],
        };
        let r = run_mode(&s, DriverMode::Robust { faults, robust: robust_config(&s, None) }, None);
        let subs = r.counters["fault.state_substitutions"];
        assert!(subs > 0);
        let text = slot_csv(&r);
        let lines: Vec<&str> = text.lines().collect();
        let header: Vec<&str> = lines[0].split(',').collect();
        let col = header
            .iter()
            .position(|&c| c == "ctr_fault.state_substitutions")
            .expect("missing counter column");
        // Constant end-of-run value on every row, and no plain counters
        // (slots, bdma_rounds) exported as columns.
        for line in &lines[1..] {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), header.len());
            assert_eq!(cells[col], subs.to_string());
        }
        assert!(!header.contains(&"ctr_slots"));
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(1.5), "1.5000");
        assert!(num(12345.0).contains('e'));
        assert!(num(0.00001).contains('e'));
    }
}
