//! Differential kernel-correctness suite: every optimized kernel path
//! (cache-blocked panels, explicit SIMD, chunked fork-join decompositions)
//! must be **bit-identical** — 0 ULP — to the always-compiled scalar
//! reference, over random shapes including non-multiple-of-block range
//! counts and degenerate single-pulse cubes.
//!
//! The optimized paths earn this by vectorizing across *independent
//! outputs* (range-gate lanes), never inside a reduction, so each output
//! element sees the exact FP operation sequence of the reference loop.
//! These tests are the contract that keeps that true.
//!
//! The FFT section forces each [`SimdLevel`] the CPU supports (AVX, SSE3,
//! portable) on the multi-lane transforms and compares every lane with the
//! scalar single-sequence transform, special values included.
//!
//! On top of the kernel-level differentials, the scenario section pins
//! detection-set bit-parity end to end: the full pipeline's detection
//! reports are byte-identical across kernel paths on the catalog's
//! `two-target` and `noise-only` scenarios.

use ppstap::core::config::StapConfig;
use ppstap::core::StapSystem;
use ppstap::kernels::beamform::Beamformer;
use ppstap::kernels::cube::{partition_even, CubeDims, DataCube, DopplerCube};
use ppstap::kernels::doppler::{DopplerConfig, DopplerFilter};
use ppstap::kernels::pulse::{lfm_chirp, PulseCompressor};
use ppstap::kernels::weights::WeightSet;
use ppstap::kernels::{KernelPath, SimdLevel};
use ppstap::math::{FftPlan, C32};
use ppstap::scenario::find;
use proptest::prelude::*;

/// splitmix64: all random data is a pure function of the case seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of f32 draws in [-1, 1).
struct Draws {
    state: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn f32(&mut self) -> f32 {
        self.state = mix(self.state);
        (self.state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn c32(&mut self) -> C32 {
        C32::new(self.f32(), self.f32())
    }
}

fn random_cube(dims: CubeDims, d: &mut Draws) -> DataCube {
    let mut cube = DataCube::zeros(dims);
    for v in cube.as_mut_slice() {
        *v = d.c32();
    }
    cube
}

/// Inputs the FFT differential mixes in besides ordinary draws.
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// Bit equality, except that any NaN matches any NaN: Rust leaves the
/// payload and sign of a NaN result unspecified, scalar code included.
fn same_bits(x: C32, y: C32) -> bool {
    let eq = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    eq(x.re, y.re) && eq(x.im, y.im)
}

/// Runs the forward and inverse multi-lane FFT at `level` on a lane-minor
/// panel and checks every lane against the scalar per-sequence transform.
fn check_fft_level(plan: &FftPlan<f32>, panel: &[C32], lanes: usize, level: SimdLevel) {
    let n = plan.len();
    let lane = |p: &[C32], l: usize| (0..n).map(|k| p[k * lanes + l]).collect::<Vec<_>>();
    let mut fwd = panel.to_vec();
    plan.forward_multi_level(&mut fwd, lanes, level);
    let mut inv = fwd.clone();
    plan.inverse_multi_level(&mut inv, lanes, level);
    for l in 0..lanes {
        let mut want = lane(panel, l);
        plan.forward(&mut want);
        for (k, (&got, &w)) in lane(&fwd, l).iter().zip(&want).enumerate() {
            assert!(
                same_bits(got, w),
                "{} forward lane {l} bin {k}: {got:?} vs {w:?}",
                level.label()
            );
        }
        plan.inverse(&mut want);
        for (k, (&got, &w)) in lane(&inv, l).iter().zip(&want).enumerate() {
            assert!(
                same_bits(got, w),
                "{} inverse lane {l} bin {k}: {got:?} vs {w:?}",
                level.label()
            );
        }
    }
}

/// The levels this CPU can run, each forced explicitly.
fn supported_levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|l| {
            let ok = l.is_supported();
            if !ok {
                eprintln!("skipping SIMD level {}: not supported by this CPU", l.label());
            }
            ok
        })
        .collect()
}

#[test]
fn fft_levels_handle_special_values_and_odd_lane_counts() {
    for log2n in [0u32, 1, 3, 6] {
        let plan = FftPlan::<f32>::new(1 << log2n);
        for lanes in [1usize, 3, 5, 6, 7, 9, 13] {
            let mut d = Draws::new(u64::from(log2n) * 31 + lanes as u64);
            // Every lane but the first carries one special value in one
            // component at a lane-dependent position.
            let panel: Vec<C32> = (0..plan.len() * lanes)
                .map(|i| {
                    let (k, l) = (i / lanes, i % lanes);
                    let z = d.c32();
                    match (l, k == l % plan.len()) {
                        (0, _) | (_, false) => z,
                        (_, true) if l % 2 == 0 => C32::new(SPECIALS[l % SPECIALS.len()], z.im),
                        _ => C32::new(z.re, SPECIALS[l % SPECIALS.len()]),
                    }
                })
                .collect();
            for level in supported_levels() {
                check_fft_level(&plan, &panel, lanes, level);
            }
        }
    }
}

fn assert_doppler_bits_equal(a: &DopplerCube, b: &DopplerCube, what: &str) {
    assert_eq!(a.as_slice().len(), b.as_slice().len(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: sample {i} differs: {x:?} vs {y:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Doppler: blocked, SIMD, and compact-chunk+stitch outputs are
    /// bit-identical to the scalar reference, easy and staggered paths,
    /// over random shapes (single-pulse cubes included).
    #[test]
    fn doppler_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        pulses in 1usize..21,
        channels in 1usize..5,
        ranges in 1usize..71,
        parts in 1usize..6,
    ) {
        let mut d = Draws::new(seed);
        let cube = random_cube(CubeDims::new(pulses, channels, ranges), &mut d);
        let cfg = DopplerConfig {
            stagger_offset: if pulses > 1 { 1 } else { 0 },
            ..DopplerConfig::default()
        };
        let filter = DopplerFilter::new(pulses, cfg);

        type FullFn = fn(&DopplerFilter, &DataCube, KernelPath) -> DopplerCube;
        type ChunkFn = fn(&DopplerFilter, &DataCube, usize, usize, KernelPath) -> DopplerCube;
        let variants: [(FullFn, ChunkFn); 2] = [
            (|f, c, p| f.filter_easy_with(c, p), |f, c, r0, r1, p| f.filter_easy_chunk(c, r0, r1, p)),
            (
                |f, c, p| f.filter_staggered_with(c, p),
                |f, c, r0, r1, p| f.filter_staggered_chunk(c, r0, r1, p),
            ),
        ];
        for (full, chunk) in variants {
            let reference = full(&filter, &cube, KernelPath::Reference);
            for path in [KernelPath::Blocked, KernelPath::Simd, KernelPath::Auto] {
                let fast = full(&filter, &cube, path);
                assert_doppler_bits_equal(&reference, &fast, &format!("{path}"));
            }
            // Compact chunks stitched back in range order — the steal
            // executor's decomposition — reproduce the same bits no
            // matter where the chunk boundaries fall.
            let mut stitched = DopplerCube::zeros(
                reference.staggers(),
                reference.bins(),
                reference.channels(),
                reference.ranges(),
            );
            for path in [KernelPath::Blocked, KernelPath::Simd] {
                for (r0, r1) in partition_even(ranges, parts.min(ranges)) {
                    stitched.copy_range_from(&chunk(&filter, &cube, r0, r1, path), r0);
                }
                assert_doppler_bits_equal(&reference, &stitched, &format!("{path} chunk stitch"));
            }
        }
    }

    /// FFT: the multi-lane forward and inverse transforms at every
    /// supported SIMD level are bit-identical per lane to the scalar
    /// transform, over random lengths, lane counts and sprinkled special
    /// values (±0, ±inf, NaN).
    #[test]
    fn fft_levels_are_bit_identical(
        seed in 0u64..u64::MAX,
        log2n in 0u32..9,
        lanes in 1usize..12,
        special_every in 2usize..40,
    ) {
        let mut d = Draws::new(seed);
        let plan = FftPlan::<f32>::new(1 << log2n);
        let panel: Vec<C32> = (0..plan.len() * lanes)
            .map(|i| {
                let z = d.c32();
                if i % special_every == 0 {
                    C32::new(SPECIALS[(i / special_every) % SPECIALS.len()], z.im)
                } else {
                    z
                }
            })
            .collect();
        for level in supported_levels() {
            check_fft_level(&plan, &panel, lanes, level);
        }
    }

    /// Beamforming: blocked and SIMD weighted sums are bit-identical to
    /// the scalar reference under random weights, shapes, and stagger
    /// counts.
    #[test]
    fn beamform_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        channels in 1usize..9,
        ranges in 1usize..71,
        nbins in 1usize..7,
        beams in 1usize..4,
        staggers in 1usize..3,
    ) {
        let mut d = Draws::new(seed);
        let mut cube = DopplerCube::zeros(staggers, nbins, channels, ranges);
        for v in cube.as_mut_slice() {
            *v = d.c32();
        }
        let dof = staggers * channels;
        let bins: Vec<usize> = (0..nbins).collect();
        let weights: Vec<Vec<Vec<C32>>> = bins
            .iter()
            .map(|_| (0..beams).map(|_| (0..dof).map(|_| d.c32()).collect()).collect())
            .collect();
        let ws = WeightSet { bins, weights, dof };

        let reference = Beamformer.apply_with(&cube, &ws, KernelPath::Reference);
        for path in [KernelPath::Blocked, KernelPath::Simd, KernelPath::Auto] {
            let fast = Beamformer.apply_with(&cube, &ws, path);
            prop_assert_eq!(reference.rows_total(), fast.rows_total());
            for beam in 0..beams {
                for (i, _) in reference.bins.iter().enumerate() {
                    for (r, (x, y)) in
                        reference.row(beam, i).iter().zip(fast.row(beam, i)).enumerate()
                    {
                        prop_assert!(
                            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                            "{} beam {} bin {} gate {}: {:?} vs {:?}",
                            path, beam, i, r, x, y
                        );
                    }
                }
            }
        }
    }

    /// Pulse compression: the batched panel kernel is bit-identical to the
    /// per-row reference, and row-chunk boundaries (the steal executor's
    /// decomposition) never change any row's bits.
    #[test]
    fn pulse_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        ranges in 2usize..81,
        rows in 1usize..21,
        wf_len in 2usize..17,
        chunk_rows in 1usize..8,
    ) {
        let mut d = Draws::new(seed);
        let wf = lfm_chirp(wf_len.min(ranges), 0.8);
        let pc = PulseCompressor::new(ranges, &wf);
        let data: Vec<C32> = (0..rows * ranges).map(|_| d.c32()).collect();

        let mut reference = data.clone();
        pc.compress_rows(&mut reference, ranges, KernelPath::Reference);

        for path in [KernelPath::Blocked, KernelPath::Simd, KernelPath::Auto] {
            let mut fast = data.clone();
            pc.compress_rows(&mut fast, ranges, path);
            for (i, (x, y)) in reference.iter().zip(&fast).enumerate() {
                prop_assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "{} sample {}: {:?} vs {:?}",
                    path, i, x, y
                );
            }
        }

        // Chunked: compress row chunks independently, as the steal pool
        // does, and compare against the whole-batch result.
        let mut chunked = data.clone();
        for chunk in chunked.chunks_mut(ranges * chunk_rows) {
            pc.compress_rows(chunk, ranges, KernelPath::Blocked);
        }
        for (i, (x, y)) in reference.iter().zip(&chunked).enumerate() {
            prop_assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "chunked sample {}: {:?} vs {:?}",
                i, x, y
            );
        }
    }
}

/// Detection reports of a full pipeline run, flattened to bytes.
fn report_bytes(cfg: StapConfig) -> Vec<u8> {
    let out = StapSystem::prepare(cfg).unwrap().run().unwrap();
    assert!(!out.reports.is_empty());
    out.reports.iter().flat_map(|r| r.to_bytes()).collect()
}

/// End-to-end detection-set bit-parity: the kernel path must never change
/// a single detection on the catalog's `two-target` (real targets through
/// both the easy and hard chains) and `noise-only` (false-alarm behavior)
/// scenarios.
#[test]
fn detection_sets_are_bit_identical_across_kernel_paths() {
    for name in ["two-target", "noise-only"] {
        let base = find(name).expect("catalog scenario").config();
        let scalar =
            report_bytes(StapConfig { kernel_path: KernelPath::Reference, ..base.clone() });
        for path in [KernelPath::Blocked, KernelPath::Simd, KernelPath::Auto] {
            let fast = report_bytes(StapConfig { kernel_path: path, ..base.clone() });
            assert_eq!(scalar, fast, "{name}: {path} detections differ from scalar");
        }
    }
}
