//! Inspect what the adaptive weights actually learned: the adapted spatial
//! beam pattern, the jammer null, and the SINR improvement factor.
//!
//! ```text
//! cargo run --example adapted_pattern --release
//! ```

use ppstap::kernels::covariance::{estimate_covariance, TrainingConfig};
use ppstap::kernels::diagnostics::{improvement_factor_db, null_depth_db, spatial_pattern};
use ppstap::kernels::doppler::{DopplerConfig, DopplerFilter};
use ppstap::kernels::weights::{BeamSet, WeightComputer};
use ppstap::math::C64;
use ppstap::radar::{CubeGenerator, Jammer, Scene};
use stap_kernels::cube::CubeDims;

fn main() {
    // A jammer at spatial frequency +0.3, no targets: the weights' only job
    // is to null it while keeping gain at broadside.
    let jam_fs = 0.3;
    let scene = Scene {
        jammers: vec![Jammer { spatial_freq: jam_fs, jnr_db: 35.0 }],
        noise_power: 1.0,
        ..Default::default()
    };
    let dims = CubeDims::new(32, 16, 256);
    let mut gen = CubeGenerator::new(dims, scene, 8, 11);
    let cube = gen.next_cube();

    // Doppler filter, then train weights on one easy bin.
    let df = DopplerFilter::new(dims.pulses, DopplerConfig::default());
    let filtered = df.filter_easy(&cube);
    let wc = WeightComputer {
        beams: BeamSet { spatial_freqs: vec![0.0] },
        training: TrainingConfig { range_stride: 1, loading: 0.01 },
        stagger_offset: 1,
        method: Default::default(),
    };
    let bin = 8; // an easy bin away from zero Doppler
    let ws = wc.compute(&filtered, &[bin]).expect("weight solve");
    let w: Vec<C64> = ws.weights[0][0].iter().map(|z| z.cast()).collect();

    // Pattern plot.
    println!(
        "Adapted spatial pattern (bin {bin}, look direction fs=0.0, jammer at fs={jam_fs}):\n"
    );
    let pattern = spatial_pattern(&w, 61);
    let peak = pattern.iter().map(|&(_, p)| p).fold(0.0, f64::max);
    for &(fs, p) in &pattern {
        let db = 10.0 * (p / peak).log10();
        let cols = ((db + 60.0).max(0.0)).round() as usize;
        let marker = if (fs - jam_fs).abs() < 0.009 {
            " <-- jammer"
        } else if fs.abs() < 0.009 {
            " <-- look direction"
        } else {
            ""
        };
        println!("{fs:>6.2}  {db:>7.1} dB |{}{marker}", "#".repeat(cols));
    }

    // Quantitative summary.
    let r = estimate_covariance(
        &filtered.rows(),
        bin,
        TrainingConfig { range_stride: 1, loading: 0.01 },
    );
    println!("\nnull depth at the jammer : {:>7.1} dB", null_depth_db(&w, jam_fs));
    println!(
        "SINR improvement factor  : {:>7.1} dB over the conventional beamformer",
        improvement_factor_db(&w, &wc.beams, 0, &r).expect("sinr")
    );
}
