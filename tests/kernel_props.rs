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
//! scalar single-sequence transform, special values included. The rank-K
//! section does the same for the f64 covariance update against the scalar
//! `CMat::rank1_update` loop.
//!
//! The slab-view section checks that weights and beams computed straight
//! from received range slabs, split anywhere, equal those computed from the
//! assembled cube, bit for bit.
//!
//! On top of the kernel-level differentials, the scenario section pins
//! detection-set bit-parity end to end: the full pipeline's detection
//! reports are byte-identical across kernel paths on the catalog's
//! `two-target` and `noise-only` scenarios.

use ppstap::core::config::StapConfig;
use ppstap::core::messages::{slab_rows, BinSlab};
use ppstap::core::StapSystem;
use ppstap::kernels::beamform::{BeamCube, Beamformer};
use ppstap::kernels::cube::{partition_even, CubeDims, DataCube, DopplerCube};
use ppstap::kernels::doppler::{DopplerConfig, DopplerFilter};
use ppstap::kernels::pulse::{lfm_chirp, PulseCompressor};
use ppstap::kernels::weights::{WeightComputer, WeightSet};
use ppstap::kernels::{KernelPath, SimdLevel};
use ppstap::math::simd::rank_k_update;
use ppstap::math::{CMat, FftPlan, C32, C64};
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

/// Bit equality of f64 samples, any NaN matching any NaN.
fn same_bits64(x: C64, y: C64) -> bool {
    let eq = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    eq(x.re, y.re) && eq(x.im, y.im)
}

/// Runs the rank-K update at every supported level on `start` and checks
/// each element against `k` successive scalar `CMat::rank1_update` calls.
fn check_rank_k(start: &[C64], snaps: &[C64], dof: usize) {
    let mut want = CMat::from_vec(dof, dof, start.to_vec());
    for x in snaps.chunks_exact(dof) {
        want.rank1_update(x, 1.0);
    }
    for level in supported_levels() {
        let mut got = start.to_vec();
        rank_k_update(&mut got, snaps, dof, level);
        for (i, (&g, &w)) in got.iter().zip(want.as_slice()).enumerate() {
            assert!(
                same_bits64(g, w),
                "{} dof {dof} k {}: element ({}, {}) {g:?} vs {w:?}",
                level.label(),
                snaps.len() / dof,
                i / dof,
                i % dof
            );
        }
    }
}

/// Inputs the rank-K differential mixes in besides ordinary draws.
const SPECIALS64: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// A full-precision f64 draw in [-2⁴, 2⁴): a 53-bit mantissa at a random
/// scale, so products and sums round (f32-sized draws would make every
/// product, and so every operation order, exact).
fn draw_f64(d: &mut Draws) -> f64 {
    d.state = mix(d.state);
    let unit = (d.state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    unit * 2f64.powi((d.state & 7) as i32 - 3)
}

fn draw_c64(d: &mut Draws) -> C64 {
    C64::new(draw_f64(d), draw_f64(d))
}

#[test]
fn rank_k_levels_handle_special_values_and_odd_shapes() {
    for dof in [1usize, 3, 17, 32] {
        for k_count in [0usize, 1, 5] {
            let mut d = Draws::new(dof as u64 * 131 + k_count as u64);
            let start: Vec<C64> = (0..dof * dof).map(|_| draw_c64(&mut d)).collect();
            // Each snapshot carries one special value in one component at a
            // snapshot-dependent position; the first stays ordinary.
            let snaps: Vec<C64> = (0..k_count * dof)
                .map(|i| {
                    let (k, j) = (i / dof, i % dof);
                    let z = draw_c64(&mut d);
                    let special = SPECIALS64[k % SPECIALS64.len()];
                    match (k, j == (3 * k) % dof) {
                        (0, _) | (_, false) => z,
                        (_, true) if k % 2 == 0 => C64::new(special, z.im),
                        _ => C64::new(z.re, special),
                    }
                })
                .collect();
            check_rank_k(&start, &snaps, dof);
        }
    }
}

/// A Doppler cube of random samples.
fn random_doppler(
    staggers: usize,
    bins: usize,
    channels: usize,
    ranges: usize,
    d: &mut Draws,
) -> DopplerCube {
    let mut cube = DopplerCube::zeros(staggers, bins, channels, ranges);
    for v in cube.as_mut_slice() {
        *v = d.c32();
    }
    cube
}

/// Gates `[r0, r1)` and bins `bins` of `full`, as a compact cube.
fn sub_cube(full: &DopplerCube, bins: &[usize], r0: usize, r1: usize) -> DopplerCube {
    let mut out = DopplerCube::zeros(full.staggers(), bins.len(), full.channels(), r1 - r0);
    for s in 0..full.staggers() {
        for (i, &b) in bins.iter().enumerate() {
            for c in 0..full.channels() {
                out.row_mut(s, i, c).copy_from_slice(&full.row(s, b, c)[r0..r1]);
            }
        }
    }
    out
}

fn assert_beam_bits_equal(a: &BeamCube, b: &BeamCube, what: &str) {
    assert_eq!(a.bins, b.bins, "{what}: bins differ");
    for beam in 0..a.beams {
        for i in 0..a.bins.len() {
            for (r, (&x, &y)) in a.row(beam, i).iter().zip(b.row(beam, i)).enumerate() {
                assert!(same_bits(x, y), "{what}: beam {beam} bin {i} gate {r}: {x:?} vs {y:?}");
            }
        }
    }
}

/// Weights and beams computed from slabs that split the range axis at
/// `cuts` equal those from the assembled cube of the consumer's bins,
/// bit for bit. Each Doppler node's slab carries every bin of `full`,
/// in reverse order on odd nodes, and the slabs arrive last node first.
fn check_slab_view(full: &DopplerCube, my_bins: &[usize], cuts: &[(usize, usize)]) {
    let all: Vec<usize> = (0..full.bins()).collect();
    let slabs: Vec<BinSlab> = cuts
        .iter()
        .enumerate()
        .rev()
        .map(|(n, &(r0, r1))| {
            let mut carried = all.clone();
            if n % 2 == 1 {
                carried.reverse();
            }
            BinSlab::from_cube(&sub_cube(full, &all, r0, r1), &carried, r0)
        })
        .collect();
    let rows = slab_rows(my_bins, full.ranges(), &slabs).expect("slabs tile the range axis");
    let cube = sub_cube(full, my_bins, 0, full.ranges());
    let positional: Vec<usize> = (0..my_bins.len()).collect();
    let wc = WeightComputer::default();
    let from_cube = wc.compute(&cube, &positional).expect("cube weights");
    let from_slabs = wc.compute_rows(&rows, &positional).expect("slab weights");
    assert_eq!(from_cube.bins, from_slabs.bins);
    for (a, b) in from_cube.weights.iter().flatten().zip(from_slabs.weights.iter().flatten()) {
        for (&x, &y) in a.iter().zip(b) {
            assert!(same_bits(x, y), "weights differ: {x:?} vs {y:?} (cuts {cuts:?})");
        }
    }
    for path in [KernelPath::Reference, KernelPath::Blocked, KernelPath::Simd] {
        let want = Beamformer.apply_with(&cube, &from_cube, path);
        let got = Beamformer.apply_rows(&rows, &from_slabs, path);
        assert_beam_bits_equal(&want, &got, &format!("{path} beams, cuts {cuts:?}"));
    }
}

/// Three Doppler nodes over 250 gates: the slab edges (84, 167) miss both
/// the 32-gate beamforming block and the stride-4 training grid.
#[test]
fn slab_views_match_the_assembled_cube_at_uneven_node_splits() {
    let mut d = Draws::new(250);
    for staggers in [1usize, 2] {
        let full = random_doppler(staggers, 6, 3, 250, &mut d);
        check_slab_view(&full, &[1, 4, 5], &partition_even(250, 3));
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

    /// Rank-K covariance update: every supported SIMD level is
    /// bit-identical to the scalar rank-1 loop over random DoF (odd and
    /// past the vector blocks), snapshot counts (0 and odd included) and
    /// sprinkled special values (±0, ±inf, NaN).
    #[test]
    fn rank_k_levels_are_bit_identical(
        seed in 0u64..u64::MAX,
        dof in 1usize..34,
        k_count in 0usize..12,
        special_every in 2usize..60,
    ) {
        let mut d = Draws::new(seed);
        let start: Vec<C64> = (0..dof * dof).map(|_| draw_c64(&mut d)).collect();
        let snaps: Vec<C64> = (0..k_count * dof)
            .map(|i| {
                let z = draw_c64(&mut d);
                if i % special_every == special_every - 1 {
                    C64::new(z.re, SPECIALS64[(i / special_every) % SPECIALS64.len()])
                } else {
                    z
                }
            })
            .collect();
        check_rank_k(&start, &snaps, dof);
    }

    /// Slab views: weights and beams from slabs cut at random gates equal
    /// those from the assembled cube, bit for bit.
    #[test]
    fn slab_views_match_the_assembled_cube(
        seed in 0u64..u64::MAX,
        staggers in 1usize..3,
        channels in 1usize..5,
        ranges in 1usize..90,
        cut_a in 0usize..90,
        cut_b in 0usize..90,
    ) {
        let mut d = Draws::new(seed);
        let full = random_doppler(staggers, 4, channels, ranges, &mut d);
        let (a, b) = (cut_a.min(ranges), cut_b.min(ranges));
        let (lo, hi) = (a.min(b), a.max(b));
        check_slab_view(&full, &[3, 0, 2], &[(0, lo), (lo, hi), (hi, ranges)]);
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
