//! Argument-parsing helpers for the `eotora` CLI binary.
//!
//! Kept in a library target so the parsing logic is unit-testable; the
//! binary in `main.rs` stays a thin command dispatcher.

/// Returns the value following `--flag` in `args`, if present.
///
/// # Examples
///
/// ```
/// use eotora_cli::flag_value;
///
/// let args = vec!["--devices".to_string(), "50".to_string()];
/// assert_eq!(flag_value(&args, "--devices"), Some("50"));
/// assert_eq!(flag_value(&args, "--seed"), None);
/// ```
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].as_str())
}

/// Rejects value-taking flags that appear without a value (e.g. a trailing
/// `--trace`), which `flag_value` would otherwise silently treat as absent.
///
/// # Errors
///
/// Returns a message naming the first dangling flag.
///
/// # Examples
///
/// ```
/// use eotora_cli::require_flag_values;
///
/// let ok = vec!["--trace".to_string(), "t.jsonl".to_string()];
/// assert!(require_flag_values(&ok, &["--trace"]).is_ok());
/// let dangling = vec!["run.json".to_string(), "--trace".to_string()];
/// assert!(require_flag_values(&dangling, &["--trace"]).is_err());
/// let eaten = vec!["--trace".to_string(), "--csv".to_string(), "out".to_string()];
/// assert!(require_flag_values(&eaten, &["--trace", "--csv"]).is_err());
/// ```
pub fn require_flag_values(args: &[String], flags: &[&str]) -> Result<(), String> {
    for flag in flags {
        for (idx, arg) in args.iter().enumerate() {
            if arg != flag {
                continue;
            }
            match args.get(idx + 1) {
                Some(value) if !value.starts_with("--") => {}
                _ => return Err(format!("{flag} requires a value")),
            }
        }
    }
    Ok(())
}

/// Checks a command's flags against its allow-list: every flag in
/// `value_flags` must carry a value (see [`require_flag_values`]), and
/// every other `--flag` must be one of the presence-only `switches`. A
/// misspelled or retired flag is an error naming it, rather than being
/// ignored while the command runs without it.
///
/// # Errors
///
/// Returns a message naming the first dangling or unknown flag.
///
/// # Examples
///
/// ```
/// use eotora_cli::require_known_flags;
///
/// let ok = vec!["run.json".to_string(), "--csv".to_string(), "out".to_string()];
/// assert!(require_known_flags(&ok, "eotora run", &["--csv"], &["--cold-start"]).is_ok());
/// let typo = vec!["run.json".to_string(), "--cold-strat".to_string()];
/// let err = require_known_flags(&typo, "eotora run", &["--csv"], &["--cold-start"]);
/// assert_eq!(err, Err("unknown flag `--cold-strat` for `eotora run`".to_string()));
/// ```
pub fn require_known_flags(
    args: &[String],
    command: &str,
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    require_flag_values(args, value_flags)?;
    // Past `require_flag_values`, no flag value starts with `--`, so every
    // such argument is a flag.
    match args.iter().find(|arg| {
        arg.starts_with("--")
            && !value_flags.contains(&arg.as_str())
            && !switches.contains(&arg.as_str())
    }) {
        Some(flag) => Err(format!("unknown flag `{flag}` for `{command}`")),
        None => Ok(()),
    }
}

/// Parses `--flag value` into `T`, falling back to `default` when absent.
///
/// # Errors
///
/// Returns a message naming the flag when the value fails to parse.
///
/// # Examples
///
/// ```
/// use eotora_cli::parse_flag;
///
/// let args: Vec<String> = vec!["--seed".into(), "7".into()];
/// assert_eq!(parse_flag(&args, "--seed", 0u64), Ok(7));
/// assert_eq!(parse_flag(&args, "--devices", 100usize), Ok(100));
/// assert!(parse_flag::<u64>(&["--seed".into(), "x".into()], "--seed", 0).is_err());
/// ```
pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value `{v}` for {flag}")),
    }
}

/// Parses a comma-separated list of floats (the `--budgets` argument).
///
/// # Errors
///
/// Returns a message naming the offending entry, or "empty list".
///
/// # Examples
///
/// ```
/// use eotora_cli::parse_float_list;
///
/// assert_eq!(parse_float_list("0.7, 1.0,1.3"), Ok(vec![0.7, 1.0, 1.3]));
/// assert!(parse_float_list("0.7,x").is_err());
/// assert!(parse_float_list("").is_err());
/// ```
pub fn parse_float_list(text: &str) -> Result<Vec<f64>, String> {
    let items: Vec<&str> = text.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if items.is_empty() {
        return Err("empty list".into());
    }
    items.iter().map(|s| s.parse().map_err(|_| format!("invalid number `{s}`"))).collect()
}

/// Formats a duration in seconds with an adaptive unit (ns/µs/ms/s), three
/// significant digits — for the `eotora trace` span table.
///
/// # Examples
///
/// ```
/// use eotora_cli::format_seconds;
///
/// assert_eq!(format_seconds(0.0), "0ns");
/// assert_eq!(format_seconds(4.2e-8), "42.0ns");
/// assert_eq!(format_seconds(0.00315), "3.15ms");
/// assert_eq!(format_seconds(12.5), "12.5s");
/// ```
pub fn format_seconds(seconds: f64) -> String {
    if seconds == 0.0 {
        return "0ns".into();
    }
    let (value, unit) = if seconds < 1e-6 {
        (seconds * 1e9, "ns")
    } else if seconds < 1e-3 {
        (seconds * 1e6, "µs")
    } else if seconds < 1.0 {
        (seconds * 1e3, "ms")
    } else {
        (seconds, "s")
    };
    let digits = if value >= 100.0 {
        0
    } else if value >= 10.0 {
        1
    } else {
        2
    };
    format!("{value:.digits$}{unit}")
}

/// A horizontal bar of `#`s, `width` characters at `max`, scaled linearly.
/// Non-zero values always get at least one character.
///
/// # Examples
///
/// ```
/// use eotora_cli::ascii_bar;
///
/// assert_eq!(ascii_bar(10.0, 10.0, 4), "####");
/// assert_eq!(ascii_bar(5.0, 10.0, 4), "##");
/// assert_eq!(ascii_bar(0.01, 10.0, 4), "#");
/// assert_eq!(ascii_bar(0.0, 10.0, 4), "");
/// ```
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    if value <= 0.0 || max <= 0.0 || width == 0 {
        return String::new();
    }
    let chars = ((value / max) * width as f64).round() as usize;
    "#".repeat(chars.clamp(1, width))
}

/// Renders `values` as a `width`×`height` ASCII line plot (`*` marks, one
/// column per bucket of consecutive samples), with y-axis extremes labelled
/// — the queue-drift view of `eotora trace`.
pub fn ascii_plot(values: &[f64], width: usize, height: usize) -> String {
    if values.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    // Downsample to `width` columns by averaging each chunk.
    let columns: Vec<f64> = (0..width.min(values.len()))
        .map(|c| {
            let lo = c * values.len() / width.min(values.len());
            let hi = ((c + 1) * values.len() / width.min(values.len())).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let min = columns.iter().copied().fold(f64::INFINITY, f64::min);
    let max = columns.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if max > min { max - min } else { 1.0 };
    let row_of = |v: f64| {
        let frac = (v - min) / span;
        ((1.0 - frac) * (height - 1) as f64).round() as usize
    };
    let mut grid = vec![vec![' '; columns.len()]; height];
    for (c, &v) in columns.iter().enumerate() {
        grid[row_of(v)][c] = '*';
    }
    let label_width = 10;
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{max:>label_width$.3}")
        } else if r == height - 1 {
            format!("{min:>label_width$.3}")
        } else {
            " ".repeat(label_width)
        };
        out.push_str(&label);
        out.push_str(" |");
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(label_width));
    out.push_str(" +");
    out.push_str(&"-".repeat(columns.len()));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_finds_pairs() {
        let a = args(&["run", "file.json", "--out", "r.json", "--csv", "pre"]);
        assert_eq!(flag_value(&a, "--out"), Some("r.json"));
        assert_eq!(flag_value(&a, "--csv"), Some("pre"));
        assert_eq!(flag_value(&a, "--missing"), None);
    }

    #[test]
    fn flag_at_end_without_value_is_none() {
        let a = args(&["run", "--out"]);
        assert_eq!(flag_value(&a, "--out"), None);
    }

    #[test]
    fn parse_flag_default_and_error() {
        let a = args(&["--devices", "64"]);
        assert_eq!(parse_flag(&a, "--devices", 10usize), Ok(64));
        assert_eq!(parse_flag(&a, "--seed", 3u64), Ok(3));
        assert!(parse_flag::<usize>(&args(&["--devices", "-2"]), "--devices", 1).is_err());
    }

    #[test]
    fn float_list_handles_whitespace_and_errors() {
        assert_eq!(parse_float_list(" 1.0 ,2.5 "), Ok(vec![1.0, 2.5]));
        assert!(parse_float_list(",,").is_err());
        assert!(parse_float_list("1.0,,2.0").map(|v| v.len()) == Ok(2));
    }

    #[test]
    fn format_seconds_picks_sane_units() {
        assert_eq!(format_seconds(1.5e-9), "1.50ns");
        assert_eq!(format_seconds(2.34e-6), "2.34µs");
        assert_eq!(format_seconds(0.25), "250ms");
        assert_eq!(format_seconds(3.0), "3.00s");
        assert_eq!(format_seconds(123.4), "123s");
    }

    #[test]
    fn plot_has_height_rows_plus_axis_and_marks_every_column() {
        let values: Vec<f64> = (0..40).map(|t| (t as f64 / 5.0).sin()).collect();
        let plot = ascii_plot(&values, 20, 6);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 7);
        let marks: usize = lines.iter().map(|l| l.matches('*').count()).sum();
        assert_eq!(marks, 20);
        assert!(lines[0].contains('.'), "max label on top row: {}", lines[0]);
        assert!(lines[5].contains('.'), "min label on bottom row: {}", lines[5]);
    }

    #[test]
    fn plot_of_constant_series_is_flat_and_finite() {
        let plot = ascii_plot(&[2.0; 10], 10, 4);
        assert!(plot.contains("**********"));
        assert!(!plot.contains("NaN") && !plot.contains("inf"));
    }

    #[test]
    fn plot_handles_fewer_values_than_width() {
        let plot = ascii_plot(&[1.0, 2.0, 3.0], 80, 5);
        let marks: usize = plot.matches('*').count();
        assert_eq!(marks, 3);
    }
}
