//! Trace conformance: the phase spans the tracer records must reconcile
//! with the wall totals they claim to decompose, and the phase fractions
//! the DES predicts must match the fractions the real traced pipeline
//! measures.
//!
//! Three layers:
//! 1. Exact bookkeeping under the virtual clock: spans tile their CPI
//!    records (no overlap, no negative residue), and the per-phase sums
//!    recorded in `CpiRecord::phase_secs` equal the span durations they
//!    were accumulated from.
//! 2. Wall-clock reconciliation within a documented epsilon: phases are
//!    timed with the same single-timestamp transition and a CPI's first
//!    phase opens at the CPI's start, so only an explicitly paused section
//!    can leave time inside a CPI unattributed.
//! 3. Differential phase prediction: a DES calibrated from the traced
//!    run's own compute/send rates must predict the Doppler task's
//!    read/compute/send split within the PR 2 tolerance band, and the CLI's
//!    `--trace chrome:PATH` artifact must validate as a Chrome trace.
//!
//! Layer 3 also writes `target/conformance/trace_tolerance_report.txt`
//! (uploaded as a CI artifact) recording the observed disagreement.

use ppstap::core::config::StapConfig;
use ppstap::core::desmodel::DesExperiment;
use ppstap::core::{IoStrategy, StapSystem, TailStructure};
use ppstap::kernels::covariance::TrainingConfig;
use ppstap::model::assignment::Assignment;
use ppstap::model::machines::MachineModel;
use ppstap::model::workload::{ShapeParams, StapWorkload, TaskId};
use ppstap::pipeline::timing::{Phase, PipelineReport};
use ppstap::pipeline::topology::StageId;
use ppstap::pipeline::ClockSpec;
use ppstap::trace::json::validate_chrome_trace;

/// Tolerance for DES-predicted vs traced phase agreement, matching the
/// analytic-vs-DES throughput band of the differential conformance suite
/// (`tests/conformance.rs`): the calibrated model and the paced run share
/// the same per-server queueing constants, so 25% absorbs scheduler noise
/// and the real kernels' non-modeled memory traffic.
const PHASE_TOL_PCT: f64 = 25.0;

/// Wall-clock reconciliation epsilon, per CPI record: the residue
/// `total − Σ phases` may not exceed `EPS_FRAC` of the record's span plus
/// `EPS_ABS` of fixed scheduler/bookkeeping noise. The tracer opens a CPI's
/// first phase at the CPI's start (so a thread descheduled before its first
/// phase entry is still charged to that phase) and hands the closing
/// timestamp of one phase to the opening of the next, so residue cannot
/// accrue before or *between* phases; exactness is pinned separately under
/// the virtual clock.
const EPS_FRAC: f64 = 0.05;
const EPS_ABS: f64 = 10e-3;

fn rel_pct(model: f64, measured: f64) -> f64 {
    ((measured - model) / model * 100.0).abs()
}

fn small_config(cpis: u64) -> StapConfig {
    StapConfig { cpis, warmup: 1, ..StapConfig::default() }
}

/// Collects every span of one `(stage, node)` track, in recording order.
fn track(report: &PipelineReport, stage: usize, node: usize) -> Vec<ppstap::trace::Span> {
    report.spans.iter().filter(|s| s.stage == stage && s.node == node).copied().collect()
}

#[test]
fn virtual_clock_spans_tile_cpi_records_exactly() {
    let sys = StapSystem::prepare(small_config(3)).expect("prepare");
    let out = sys.run_with_clock(ClockSpec::virtual_default()).expect("run");
    let report = &out.timing;
    assert!(!report.spans.is_empty(), "traced run produced no spans");

    for (stage, nodes) in report.records.iter().enumerate() {
        for (node, recs) in nodes.iter().enumerate() {
            assert!(!recs.is_empty(), "stage {stage} node {node} recorded no CPIs");
            let spans = track(report, stage, node);
            // Monotone, non-overlapping along the track.
            for w in spans.windows(2) {
                assert!(
                    w[1].start >= w[0].end - 1e-12,
                    "overlapping spans on stage {stage} node {node}: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            for r in recs {
                // Every span of this CPI sits inside the record's interval,
                // and the per-phase sums equal the span durations.
                let mut by_phase = [0.0f64; Phase::COUNT];
                for s in spans.iter().filter(|s| s.cpi == r.cpi) {
                    assert!(
                        s.start >= r.start - 1e-12 && s.end <= r.end + 1e-12,
                        "span outside its CPI record on stage {stage} node {node}: {s:?} vs [{}, {}]",
                        r.start,
                        r.end
                    );
                    by_phase[s.phase.index()] += s.secs();
                }
                for p in Phase::ALL {
                    assert!(
                        (by_phase[p.index()] - r.phase(p)).abs() < 1e-9,
                        "stage {stage} node {node} cpi {}: span sum {} != record {} for {p:?}",
                        r.cpi,
                        by_phase[p.index()],
                        r.phase(p)
                    );
                }
                // The first phase opens at the CPI's start and phases tile
                // the rest, so at most a few ticks of residue could come
                // from a paused section.
                let resid = r.unaccounted();
                assert!(
                    (-1e-9..=0.032).contains(&resid),
                    "stage {stage} node {node} cpi {}: unaccounted {resid}",
                    r.cpi
                );
            }
        }
    }
}

#[test]
fn virtual_clock_traces_are_reproducible() {
    let run = || {
        let sys = StapSystem::prepare(small_config(3)).expect("prepare");
        sys.run_with_clock(ClockSpec::virtual_default()).expect("run").timing.chrome_trace()
    };
    assert_eq!(run(), run(), "virtual-clock Chrome traces differ between runs");
}

#[test]
fn wall_clock_phase_sums_reconcile_within_documented_epsilon() {
    let sys = StapSystem::prepare(small_config(4)).expect("prepare");
    let out = sys.run().expect("run");
    let mut worst = 0.0f64;
    for (stage, nodes) in out.timing.records.iter().enumerate() {
        for (node, recs) in nodes.iter().enumerate() {
            for r in recs {
                let resid = r.unaccounted();
                assert!(
                    resid >= -1e-6,
                    "stage {stage} node {node} cpi {}: phases over-attribute by {resid}",
                    r.cpi
                );
                let bound = EPS_FRAC * r.total() + EPS_ABS;
                assert!(
                    resid <= bound,
                    "stage {stage} node {node} cpi {}: unaccounted {resid} > {bound} \
                     (total {}, phases {})",
                    r.cpi,
                    r.total(),
                    r.total() - resid
                );
                worst = worst.max(resid);
            }
        }
    }
    // The registry's per-stage sums are derived from the same spans, so
    // they can never exceed the summed wall totals.
    let reg = out.timing.registry();
    for (stage, nodes) in out.timing.records.iter().enumerate() {
        let wall: f64 = nodes.iter().flatten().map(|r| r.total()).sum();
        let attributed: f64 = Phase::ALL.iter().map(|&p| reg.phase_sum(stage, p)).sum();
        assert!(
            attributed <= wall + 1e-6,
            "stage {stage}: attributed {attributed} exceeds wall {wall}"
        );
    }
    eprintln!("worst per-CPI unaccounted residue: {worst:.6} s");
}

/// Mirrors the shape derivation the system itself uses for watchdog
/// deadlines, so the calibrated DES models exactly the executed workload.
fn shape_of(cfg: &StapConfig, sys: &StapSystem) -> ShapeParams {
    ShapeParams {
        pulses: cfg.dims.pulses,
        channels: cfg.dims.channels,
        ranges: cfg.dims.ranges,
        hard_fraction: sys.plan().hard_bins.len() as f64 / cfg.nbins() as f64,
        beams: cfg.beams.len(),
        training_stride: TrainingConfig::default().range_stride,
        waveform_len: cfg.waveform_len,
    }
}

#[test]
fn des_predicted_phase_fractions_match_traced_fractions() {
    // Pace reads at PACE× the queueing model and force synchronous reads,
    // so the traced Read phase carries the full modeled service time
    // instead of hiding behind `iread` overlap. The pace multiplier keeps
    // the un-modeled real cost of a read (byte shuffling through the
    // user-space servers, scheduler noise — milliseconds in a debug build)
    // small relative to the modeled part; the DES prediction is scaled by
    // the same factor before comparing.
    const PACE: f64 = 8.0;
    let mut config = small_config(6).with_read_pacing(PACE);
    config.fs.supports_async = false;
    let sys = StapSystem::prepare(config.clone()).expect("prepare");
    let out = sys.run().expect("run");

    // Stage 0 is the Doppler task (embedded I/O: it carries the read).
    let d = StageId(0);
    let read_meas = out.timing.phase_time(d, Phase::Read);
    let comp_meas = out.timing.phase_time(d, Phase::Compute);
    let send_meas = out.timing.phase_time(d, Phase::Send);
    assert!(read_meas > 0.0 && comp_meas > 0.0, "read {read_meas}, compute {comp_meas}");

    // Calibrate a machine model from the traced run itself: compute rate
    // and link bandwidth from the measured compute/send phases (zero
    // message latency, zero parallelization overhead), the file system
    // taken verbatim. The read phase is then a genuine *prediction* of the
    // per-server queueing model, not a fit.
    let shape = shape_of(&config, &sys);
    let w = StapWorkload::derive(shape);
    let n = config.nodes;
    let dn = n.doppler;
    let mut m = MachineModel::paragon(config.fs.stripe_factor);
    m.fs = config.fs.clone();
    m.net_latency = 0.0;
    m.v0 = 0.0;
    m.node_flops = w.flops(TaskId::Doppler) / (dn as f64 * comp_meas.max(1e-9));
    m.net_bandwidth = w.output_bytes(TaskId::Doppler) as f64 / (dn as f64 * send_meas.max(1e-9));

    let nodes_vec =
        vec![n.doppler, n.easy_weight, n.hard_weight, n.easy_bf, n.hard_bf, n.pulse, n.cfar];
    let total: usize = nodes_vec.iter().sum();
    let mut exp = DesExperiment::new(m, IoStrategy::Embedded, TailStructure::Split, total);
    exp.shape = shape;
    exp.assignment_override = Some(Assignment::new(TaskId::SEVEN.to_vec(), nodes_vec));
    let r = exp.run();
    let pred = r.tasks[0].phases; // Doppler is the first task when I/O is embedded
    let pred_read = PACE * pred.read; // the run paces reads at PACE x the model

    let meas_total = read_meas + comp_meas + send_meas;
    let pred_total = pred_read + pred.compute + pred.send;
    let mut lines = vec![format!(
        "{:<10} {:>12} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "phase", "traced(s)", "DES(s)", "err%", "traced frac", "DES frac", "frac err%"
    )];
    for (label, meas, model) in [
        ("read", read_meas, pred_read),
        ("compute", comp_meas, pred.compute),
        ("send", send_meas, pred.send),
    ] {
        let (fm, fp) = (meas / meas_total, model / pred_total);
        let (e_abs, e_frac) = (rel_pct(model, meas), rel_pct(fp, fm));
        lines.push(format!(
            "{label:<10} {meas:>12.6} {model:>12.6} {e_abs:>9.2}% {fm:>12.4} {fp:>12.4} {e_frac:>9.2}%"
        ));
        assert!(
            e_frac <= PHASE_TOL_PCT,
            "{label}: traced fraction {fm:.4} vs DES {fp:.4} disagree by {e_frac:.2}% \
             (> {PHASE_TOL_PCT}%)\n{}",
            lines.join("\n")
        );
    }
    // The read phase is the only un-calibrated quantity; hold it to the
    // band in absolute seconds too.
    assert!(
        rel_pct(pred_read, read_meas) <= PHASE_TOL_PCT,
        "read seconds: traced {read_meas:.6} vs DES {pred_read:.6}"
    );

    let report = format!(
        "Trace conformance: DES-predicted vs traced Doppler phase split\n\
         (embedded I/O, paced synchronous reads at {PACE}x, {} CPIs, tolerance {}%)\n\n{}\n",
        config.cpis,
        PHASE_TOL_PCT,
        lines.join("\n")
    );
    let dir = std::path::Path::new("target/conformance");
    std::fs::create_dir_all(dir).expect("create target/conformance");
    std::fs::write(dir.join("trace_tolerance_report.txt"), report).expect("write report");
}

#[test]
fn cli_chrome_trace_validates() {
    let path = std::env::temp_dir().join(format!("ppstap_trace_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_ppstap"))
        .args(["run", "--cpis", "3", "--virtual-clock", "--trace", &format!("chrome:{path_str}")])
        .output()
        .expect("spawn ppstap");
    assert!(
        output.status.success(),
        "ppstap run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    let summary = validate_chrome_trace(&text).expect("trace must validate");
    assert!(summary.complete > 0, "no complete events: {summary:?}");
    assert!(summary.metadata > 0, "no track metadata: {summary:?}");
    // One track per (stage, node): the default topology runs 11 nodes.
    assert_eq!(summary.tracks, 11, "unexpected track count: {summary:?}");
}
