//! Bench-regression gate: compares a fresh `BENCH_JSON` report against a
//! committed baseline and fails when the suite regressed.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--threshold 1.15] [--row-bound R]
//! ```
//!
//! For every benchmark name present in both reports the gate computes the
//! ratio `current_mean / baseline_mean`, prints the comparison table, and
//! exits non-zero when the **median** ratio exceeds the threshold (default
//! 1.15, i.e. a >15% across-the-board regression). The median — not the
//! max — is the gate: single-benchmark noise on a shared CI runner is
//! expected, a systematic slowdown of half the suite is not.
//!
//! `--row-bound R` adds a per-row gate for suites whose every row is an
//! end-to-end measurement (the real-pipeline bench): the run also fails
//! when any single row's ratio exceeds `R`, so a large regression of the
//! one row that matters cannot hide behind a steady median.

use std::process::ExitCode;

/// One `{"name": ..., "mean_s": ..., "iters": ...}` row of a report.
struct Row {
    name: String,
    mean_s: f64,
}

/// Minimal parser for the shim's flat JSON array (no nesting, no escapes
/// beyond `\"` and `\\` in names).
fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for obj in text.split('{').skip(1) {
        let obj = obj.split('}').next().ok_or("unterminated object")?;
        let mut name = None;
        let mut mean_s = None;
        for field in obj.split(',') {
            let Some((key, value)) = field.split_once(':') else { continue };
            match key.trim().trim_matches('"') {
                "name" => {
                    let v = value.trim().trim_matches('"');
                    name = Some(v.replace("\\\"", "\"").replace("\\\\", "\\"));
                }
                "mean_s" => {
                    mean_s = Some(value.trim().parse::<f64>().map_err(|e| format!("mean_s: {e}"))?);
                }
                _ => {}
            }
        }
        match (name, mean_s) {
            (Some(name), Some(mean_s)) => rows.push(Row { name, mean_s }),
            _ => return Err("object missing name or mean_s".into()),
        }
    }
    Ok(rows)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 1.15f64;
    let mut row_bound: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" || a == "--row-bound" {
            let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()).filter(|v| *v > 0.0) else {
                eprintln!("{a} needs a positive number");
                return ExitCode::from(2);
            };
            if a == "--threshold" {
                threshold = v;
            } else {
                row_bound = Some(v);
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!(
            "usage: bench_gate <baseline.json> <current.json> [--threshold R] [--row-bound R]"
        );
        return ExitCode::from(2);
    };

    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_report(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (baseline, current) = match (read(baseline_path), read(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ratios = Vec::new();
    let mut over_bound = Vec::new();
    println!("{:<50}{:>14}{:>14}{:>9}", "benchmark", "baseline", "current", "ratio");
    for cur in &current {
        let Some(base) = baseline.iter().find(|b| b.name == cur.name) else { continue };
        if base.mean_s <= 0.0 {
            continue;
        }
        let ratio = cur.mean_s / base.mean_s;
        ratios.push(ratio);
        if row_bound.is_some_and(|bound| ratio > bound) {
            over_bound.push((cur.name.as_str(), ratio));
        }
        let flag = if ratio > threshold { " !" } else { "" };
        println!(
            "{:<50}{:>12.3}us{:>12.3}us{:>8.2}x{}",
            cur.name,
            base.mean_s * 1e6,
            cur.mean_s * 1e6,
            ratio,
            flag
        );
    }
    if ratios.is_empty() {
        eprintln!("bench_gate: no common benchmark names between the reports");
        return ExitCode::from(2);
    }
    let med = median(ratios);
    println!("\nmedian ratio: {med:.3}x (gate: {threshold:.2}x over {} benches)", current.len());
    if med > threshold {
        eprintln!("bench_gate: FAIL — median regression {med:.3}x exceeds {threshold:.2}x");
        return ExitCode::FAILURE;
    }
    if let Some(bound) = row_bound {
        println!("row bound: every row within {bound:.2}x");
        if !over_bound.is_empty() {
            for (name, ratio) in &over_bound {
                eprintln!("bench_gate: FAIL — {name} regressed {ratio:.3}x, over {bound:.2}x");
            }
            return ExitCode::FAILURE;
        }
    }
    println!("bench_gate: OK");
    ExitCode::SUCCESS
}
