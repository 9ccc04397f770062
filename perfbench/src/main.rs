//! The ppstap benchmark: three pipeline workloads, each measured end to
//! end for a fixed time, with every output checked against a reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload file-closed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics; `--workload all` runs the three in turn. The last line of
//! standard output is one JSON object; the exit code is non-zero when any
//! output mismatched its reference.

mod control;
mod layers;
mod pipeline;
mod report;
mod rss;
mod stats;

use ppstap::kernels::{KernelPath, SimdLevel};
use ppstap::trace::json::Json;
use report::Outcome;

/// End-to-end metrics, reported on every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Stage keys of the embedded/split pipeline, in stage order.
const STAGES: [&str; 7] = ["df", "ew", "hw", "eb", "hb", "pc", "cf"];

/// Per-layer metrics, reported on every workload with `--trace 1`; a
/// layer a workload does not run reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("radar.synth_s", "s"),
        ("radar.layout_s", "s"),
        ("pfs.stage_write_s", "s"),
        ("setup.residual_s", "s"),
        ("pfs.read_s_per_cpi", "s"),
        ("pfs.reads_per_cpi", "count"),
        ("pfs.bytes_read_per_cpi", "B"),
        ("ingest.wait_s_per_cpi", "s"),
        ("ingest.peak_depth", "count"),
        ("ingest.mean_occupancy", "count"),
        ("gen.late_p95_ms", "ms"),
        ("kernels.doppler_s_per_cpi", "s"),
        ("kernels.weights_easy_s_per_cpi", "s"),
        ("kernels.weights_hard_s_per_cpi", "s"),
        ("kernels.beamform_s_per_cpi", "s"),
        ("kernels.pulse_s_per_cpi", "s"),
        ("kernels.cfar_s_per_cpi", "s"),
        ("kernels.gflops", "GFLOP/s"),
        ("comm.send_s_per_cpi", "s"),
        ("comm.slab_fresh", "count"),
        ("comm.slab_peak_outstanding", "count"),
    ];
    let mut v: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for s in STAGES {
        v.push((format!("pipeline.{s}.busy_frac"), "1"));
        v.push((format!("pipeline.{s}.wait_frac"), "1"));
    }
    let tail: &[(&str, &str)] = &[
        ("pipeline.bottleneck", "index"),
        ("pipeline.fixed_s", "s"),
        ("pipeline.inflight_cpis", "count"),
        ("pipeline.peak_rss_mb", "MB"),
        ("planner.plan_s", "s"),
        ("planner.search_s", "s"),
        ("planner.labels_created", "count"),
        ("planner.labels_pruned", "count"),
        ("planner.exact_evals", "count"),
        ("des.validate_s", "s"),
        ("des.evals", "count"),
        ("serve.fleet_sim_s", "s"),
        ("serve.admitted", "count"),
        ("serve.rejected", "count"),
        ("serve.sim_s_per_mission", "s"),
    ];
    v.extend(tail.iter().map(|&(n, u)| (n.to_string(), u)));
    // Set-up is shared by both half-windows, so it has no overhead figure.
    v.extend(END_TO_END[1..].iter().map(|(n, _)| (format!("trace.overhead_frac.{n}"), "1")));
    v
}

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["file-closed", "stream-open", "io-bound"];

/// Machine and input metadata recorded with every result.
pub fn describe(o: &mut Outcome, seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.note(format!(
        "nproc={nproc} simd={} kernel_path={:?} seed={seed}",
        SimdLevel::detect().label(),
        KernelPath::Auto.resolve()
    ));
}

/// `trace.overhead_frac.<metric>`: the traced half-window's end-to-end
/// value relative to the untraced half-window's.
pub fn overhead(o: &mut Outcome, untraced: &Outcome, traced: &Outcome) {
    for (b, t) in untraced.metrics.iter().zip(&traced.metrics).filter(|(b, _)| b.name != "setup_s")
    {
        o.note(format!("untraced {} = {} {} | traced {}", b.name, b.value, b.unit, t.value));
        let frac = if b.value != 0.0 { (t.value - b.value) / b.value } else { 0.0 };
        o.push(format!("trace.overhead_frac.{}", b.name), frac, "1", b.samples.min(t.samples));
    }
}

/// Orders the outcome's metrics as the mode's canonical list, filling
/// layers the workload did not run with 0 and rejecting strays.
fn canonical(o: &mut Outcome, trace: bool) -> Result<(), String> {
    let names: Vec<(String, &'static str)> = if trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    if let Some(stray) =
        o.metrics.iter().find(|m| !names.iter().any(|(n, u)| *n == m.name && *u == m.unit))
    {
        return Err(format!(
            "metric {} [{}] is not in the list for this mode",
            stray.name, stray.unit
        ));
    }
    let mut ordered = Vec::with_capacity(names.len());
    for (name, unit) in names {
        match o.metrics.iter().position(|m| m.name == name) {
            Some(i) => ordered.push(o.metrics.swap_remove(i)),
            None if trace => {
                ordered.push(report::Metric { name, value: 0.0, unit: unit.into(), samples: 0 });
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    if let Some(bad) = ordered.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    o.metrics = ordered;
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--workload" => {
                return Err(format!("unknown workload '{value}' (all, or one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S [--trace 0|1]");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        run_all(&args);
    }
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let result = match args.workload.as_str() {
        "file-closed" => pipeline::run(pipeline::FILE_CLOSED, seed, seconds, trace),
        "stream-open" => pipeline::run(pipeline::STREAM_OPEN, seed, seconds, trace),
        _ => pipeline::run(pipeline::IO_BOUND, seed, seconds, trace),
    };
    let mut outcome = match result.and_then(|mut o| canonical(&mut o, trace).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    outcome.notes.insert(0, format!("workload={} trace={}", args.workload, u8::from(trace)));
    print!("{}", outcome.render());
    if !outcome.correct() {
        eprintln!(
            "error: {}: {} of {} outputs did not match the reference",
            args.workload, outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
}

/// `--workload all`: runs every workload in a child process of this
/// binary, prefixing each child's lines with its workload, and ends with
/// one JSON object whose metrics are named `<workload>.<metric>`. Exits
/// non-zero when any workload failed or mismatched.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: locating this executable: {e}");
        std::process::exit(1);
    });
    let mut all = Outcome::default();
    let mut ok = true;
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", &u8::from(args.trace).to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match child {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: {w}: {e}");
                ok = false;
                continue;
            }
        };
        ok &= out.status.success();
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let result = lines.pop().and_then(|l| ppstap::trace::json::parse(l).ok());
        for line in lines {
            println!("{w}: {line}");
        }
        let Some(json) = result else {
            eprintln!("error: {w}: no result line");
            ok = false;
            continue;
        };
        let count = |k: &str| json.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        all.attempted += count("attempted");
        all.failed += count("failed");
        if let Some(Json::Obj(metrics)) = json.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(|v| v.as_str()).unwrap_or("");
                all.push(format!("{w}.{name}"), value, unit, 1);
            }
        }
    }
    println!("{}", all.json());
    std::process::exit(if ok && all.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in this file and in `BENCHMARK.json` agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = ppstap::trace::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f).and_then(|v| v.as_str()).expect("name and unit").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.into(), u.into())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer_names().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn canonical_fills_unrun_layers_and_rejects_strays() {
        let mut o = Outcome::default();
        o.push("kernels.gflops", 2.5, "GFLOP/s", 9);
        canonical(&mut o, true).expect("per-layer metric accepted");
        assert_eq!(o.metrics.len(), per_layer_names().len());
        assert!(o.metrics.iter().any(|m| m.name == "kernels.gflops" && m.value == 2.5));
        assert!(o.metrics.iter().any(|m| m.name == "planner.search_s" && m.value == 0.0));

        let mut o = Outcome::default();
        o.push("kernels.gflops", 2.5, "GFLOP/s", 9);
        assert!(canonical(&mut o, false).is_err(), "a layer metric is not end to end");
        let mut o = Outcome::default();
        o.push("setup_s", 1.0, "s", 3);
        assert!(canonical(&mut o, false).is_err(), "missing end-to-end metrics are an error");
    }
}
