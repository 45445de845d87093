//! `bench_compare` — the CI regression gate for kernel benchmarks.
//!
//! Compares a freshly generated bench JSON (the criterion shim's
//! `SWS_BENCH_JSON` format) against a committed baseline and fails —
//! exit code 1 — when any matching row's median regressed by more than
//! the threshold:
//!
//! ```text
//! bench_compare <fresh.json> <baseline.json> \
//!     [--filter /kernel/]... [--threshold-pct 20] [--report out.txt]
//! ```
//!
//! Only rows whose id contains a filter substring participate; the
//! flag repeats, and a row matching any filter takes part (default
//! `/kernel/`, i.e. the kernel serving-path rows, not the naive-oracle
//! or sweep rows). Rows present in only one file are
//! reported but never fail the gate: quick mode intentionally skips the
//! slow rows, and new rows have no baseline yet. The human-readable
//! comparison table goes to stdout and, with `--report`, to a file CI
//! uploads as an artifact.
//!
//! The parser handles exactly the shim's writer output (one record per
//! line, fixed key order) — it is a deliberate non-goal to parse
//! general JSON here, since both inputs come from the same writer.

use std::process::ExitCode;

/// One bench row: id and median (the compared statistic).
struct Row {
    id: String,
    median_ns: u64,
}

/// Extracts the string value of `"key": "..."` from a record line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the integer value of `"key": N` from a record line.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Parses the shim's JSON array: one `{...}` record per line.
fn parse_records(text: &str) -> Vec<Row> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with('{') {
                return None;
            }
            Some(Row {
                id: str_field(line, "id")?,
                median_ns: int_field(line, "median_ns")?,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rows = parse_records(&text);
    if rows.is_empty() {
        return Err(format!("{path}: no bench records found"));
    }
    Ok(rows)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut filters: Vec<String> = Vec::new();
    let mut threshold_pct = 20.0f64;
    let mut report_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--filter" => filters.push(it.next().expect("--filter needs a value").clone()),
            "--threshold-pct" => {
                threshold_pct = it
                    .next()
                    .expect("--threshold-pct needs a value")
                    .parse()
                    .expect("--threshold-pct must be a number")
            }
            "--report" => report_path = it.next().cloned(),
            _ => positional.push(a.clone()),
        }
    }
    if positional.len() != 2 {
        eprintln!(
            "usage: bench_compare <fresh.json> <baseline.json> \
             [--filter SUBSTR]... [--threshold-pct N] [--report FILE]"
        );
        return ExitCode::from(2);
    }
    if filters.is_empty() {
        filters.push("/kernel/".to_string());
    }
    let gated = |id: &str| filters.iter().any(|f| id.contains(f.as_str()));

    let (fresh, baseline) = match (load(&positional[0]), load(&positional[1])) {
        (Ok(f), Ok(b)) => (f, b),
        (f, b) => {
            for e in [f.err(), b.err()].into_iter().flatten() {
                eprintln!("bench_compare: {e}");
            }
            return ExitCode::from(2);
        }
    };

    let mut out = String::new();
    out.push_str(&format!(
        "bench_compare: rows matching {:?}, gate at +{threshold_pct:.0}% median\n\n",
        filters
    ));
    out.push_str(&format!(
        "{:<45} {:>12} {:>12} {:>8}  verdict\n",
        "id", "base ns", "fresh ns", "delta"
    ));

    let mut regressions = 0usize;
    for row in fresh.iter().filter(|r| gated(&r.id)) {
        match baseline.iter().find(|b| b.id == row.id) {
            Some(base) => {
                let delta_pct =
                    (row.median_ns as f64 - base.median_ns as f64) / base.median_ns as f64 * 100.0;
                let verdict = if delta_pct > threshold_pct {
                    regressions += 1;
                    "REGRESSED"
                } else {
                    "ok"
                };
                out.push_str(&format!(
                    "{:<45} {:>12} {:>12} {:>+7.1}%  {}\n",
                    row.id, base.median_ns, row.median_ns, delta_pct, verdict
                ));
            }
            None => {
                out.push_str(&format!(
                    "{:<45} {:>12} {:>12} {:>8}  new (no baseline)\n",
                    row.id, "-", row.median_ns, "-"
                ));
            }
        }
    }
    for base in baseline.iter().filter(|b| gated(&b.id)) {
        if !fresh.iter().any(|r| r.id == base.id) {
            out.push_str(&format!(
                "{:<45} {:>12} {:>12} {:>8}  missing from fresh run\n",
                base.id, base.median_ns, "-", "-"
            ));
        }
    }

    out.push_str(&format!(
        "\n{} row(s) over the +{threshold_pct:.0}% gate\n",
        regressions
    ));
    print!("{out}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("bench_compare: could not write report {path}: {e}");
        }
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "g/kernel/10", "samples": 10, "min_ns": 1, "median_ns": 100, "mean_ns": 2, "throughput_elements": 10},
  {"id": "g/naive/10", "samples": 10, "min_ns": 1, "median_ns": 900, "mean_ns": 2, "throughput_elements": null}
]"#;

    #[test]
    fn parses_the_shim_writer_format() {
        let rows = parse_records(SAMPLE);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "g/kernel/10");
        assert_eq!(rows[0].median_ns, 100);
        assert_eq!(rows[1].median_ns, 900);
    }
}
