//! Layer timings measured from outside, by calling each layer's public
//! entry points on the workload's own inputs: radar synthesis, PFS staging
//! writes, and the seven STAP kernels.

use crate::report::Outcome;
use crate::stats::median;
use ppstap::core::StapConfig;
use ppstap::kernels::cfar::detect;
use ppstap::kernels::covariance::TrainingConfig;
use ppstap::kernels::{Beamformer, DopplerFilter, PulseCompressor, WeightComputer};
use ppstap::model::workload::{ShapeParams, StapWorkload, TaskId};
use ppstap::pfs::{OpenMode, Pfs};
use ppstap::radar::CubeGenerator;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each layer timing; the median is reported.
const REPS: usize = 9;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// `radar.synth_s`, `radar.layout_s` and `pfs.stage_write_s`, and the
/// split of `setup_s` they explain, with its residual.
pub fn radar_and_pfs(o: &mut Outcome, cfg: &StapConfig, setup_s: f64) {
    let mut g = CubeGenerator::new(cfg.dims, cfg.scene.clone(), cfg.waveform_len, cfg.seed)
        .with_motion(cfg.motion.clone());
    let mut synth = Vec::new();
    let mut layout = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..REPS {
        let (cube, s) = time(|| g.next_cube());
        let (b, l) = time(|| cube.to_range_major_bytes());
        synth.push(s);
        layout.push(l);
        bytes = b;
    }
    let mut write = Vec::new();
    for _ in 0..REPS {
        let fs = Pfs::mount(cfg.fs.clone());
        let t = Instant::now();
        for slot in 0..cfg.fanout {
            let f = fs.gopen(&StapConfig::file_name(slot), OpenMode::Async);
            f.write_at(0, &bytes).expect("staging write to a fresh in-memory PFS");
        }
        write.push(t.elapsed().as_secs_f64());
    }
    let (s, l, w) = (
        median(&synth).unwrap_or(0.0),
        median(&layout).unwrap_or(0.0),
        median(&write).unwrap_or(0.0),
    );
    o.push("radar.synth_s", s, "s", synth.len());
    o.push("radar.layout_s", l, "s", layout.len());
    o.push("pfs.stage_write_s", w, "s", write.len());
    let explained = cfg.fanout as f64 * (s + l) + w;
    o.push("setup.residual_s", setup_s - explained, "s", 1);
    o.note(format!(
        "split setup_s {setup_s} = {} x (radar.synth_s {s} + radar.layout_s {l}) + \
         pfs.stage_write_s {w} + residual {} ({:.1}% explained)",
        cfg.fanout,
        setup_s - explained,
        100.0 * explained / setup_s
    ));
}

/// Per-CPI time of each kernel on one thread, over a whole cube, and the
/// rate they achieve on the workload model's operation count.
pub fn kernels(o: &mut Outcome, cfg: &StapConfig) {
    let mut g = CubeGenerator::new(cfg.dims, cfg.scene.clone(), cfg.waveform_len, cfg.seed);
    let cube = g.next_cube();
    let path = cfg.kernel_path;
    let nbins = cfg.nbins();
    let (easy_bins, hard_bins) =
        (cfg.doppler.bins.easy_bins(nbins), cfg.doppler.bins.hard_bins(nbins));
    let filter = DopplerFilter::new(cfg.dims.pulses, cfg.doppler.clone());
    let computer = WeightComputer {
        beams: cfg.beams.clone(),
        training: TrainingConfig::default(),
        stagger_offset: cfg.doppler.stagger_offset,
        method: cfg.weight_method,
    };
    let compressor = PulseCompressor::new(cfg.dims.ranges, g.waveform());
    let names = ["doppler", "weights_easy", "weights_hard", "beamform", "pulse", "cfar"];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for _ in 0..REPS {
        let ((easy, hard), t0) = time(|| {
            (filter.filter_easy_with(&cube, path), filter.filter_staggered_with(&cube, path))
        });
        let (we, t1) = time(|| computer.compute(&easy, &easy_bins).expect("easy weights solve"));
        let (wh, t2) = time(|| computer.compute(&hard, &hard_bins).expect("hard weights solve"));
        let ((mut be, mut bh), t3) = time(|| {
            (Beamformer.apply_with(&easy, &we, path), Beamformer.apply_with(&hard, &wh, path))
        });
        let ((), t4) = time(|| {
            compressor.compress_with(&mut be, path);
            compressor.compress_with(&mut bh, path);
        });
        let (_, t5) = time(|| {
            let a = detect(&be, cfg.cfar).map(|d| d.len());
            let b = detect(&bh, cfg.cfar).map(|d| d.len());
            (a, b)
        });
        for (s, t) in samples.iter_mut().zip([t0, t1, t2, t3, t4, t5]) {
            s.push(t);
        }
    }
    let mut total = 0.0;
    for (name, s) in names.iter().zip(&samples) {
        let m = median(s).unwrap_or(0.0);
        total += m;
        o.push(format!("kernels.{name}_s_per_cpi"), m, "s", s.len());
    }
    let shape = ShapeParams {
        pulses: cfg.dims.pulses,
        channels: cfg.dims.channels,
        ranges: cfg.dims.ranges,
        hard_fraction: hard_bins.len() as f64 / nbins as f64,
        beams: cfg.beams.len(),
        training_stride: TrainingConfig::default().range_stride,
        waveform_len: cfg.waveform_len,
    };
    let w = StapWorkload::derive(shape);
    let flops: f64 = [
        TaskId::Doppler,
        TaskId::EasyWeight,
        TaskId::HardWeight,
        TaskId::EasyBeamform,
        TaskId::HardBeamform,
        TaskId::PulseCompression,
        TaskId::Cfar,
    ]
    .into_iter()
    .map(|t| w.flops(t))
    .sum();
    o.push("kernels.gflops", flops / total / 1e9, "GFLOP/s", REPS);
    o.note(format!(
        "kernels: {flops:.0} modeled flops per CPI in {total} s on one thread, path {:?}",
        path.resolve()
    ));
}
