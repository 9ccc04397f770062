//! Doppler filtering — the pipeline's first compute task.
//!
//! For the *easy* path a single windowed FFT across the full pulse train
//! converts each (channel, range) pulse sequence into Doppler bins. For the
//! *hard* path (the modified PRI-staggered post-Doppler algorithm of the
//! paper) two pulse segments offset by one PRI are each windowed and
//! FFT-filtered, yielding two staggered Doppler cubes whose per-bin channel
//! vectors are later combined adaptively by the hard weight/beamforming
//! tasks.

use crate::cube::{DataCube, DopplerCube};
use crate::path::KernelPath;
use stap_math::fft::next_pow2;
use stap_math::simd::{scale_row_into, SimdLevel};
use stap_math::window::Window;
use stap_math::{FftPlan, C32};

/// Range-gate lane count per blocked panel. 32 lanes keep a 128-bin panel
/// at 32 KiB — L1-resident on anything the paper targets — while giving the
/// autovectorizer full-width contiguous lane loops.
const RANGE_BLOCK: usize = 32;

/// Classification of Doppler bins into easy and hard processing cases.
///
/// Hard bins sit inside the clutter notch around zero Doppler (where the
/// two-stagger adaptive nulling is required); the rest are easy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinClass {
    /// Fraction of bins (centred on zero Doppler, wrapping) that are hard.
    pub hard_fraction: f64,
}

impl Default for BinClass {
    fn default() -> Self {
        // Half the bins hard: gives the hard tasks the dominant share of the
        // pipeline workload, matching the paper's per-task time tables.
        Self { hard_fraction: 0.5 }
    }
}

impl BinClass {
    /// Returns `true` when Doppler bin `b` (of `nbins`) is a hard bin.
    ///
    /// Exactly `round(hard_fraction · nbins)` bins are hard: the ones
    /// closest (circularly) to bin 0, i.e. closest to zero Doppler, with the
    /// positive-Doppler side winning ties.
    pub fn is_hard(&self, b: usize, nbins: usize) -> bool {
        if nbins == 0 || b >= nbins {
            return false;
        }
        let target = (self.hard_fraction * nbins as f64).round() as usize;
        let target = target.min(nbins);
        if target == 0 {
            return false;
        }
        let dist = b.min(nbins - b); // circular distance from bin 0
                                     // Number of bins strictly closer than `dist`: ring 0 has one member,
                                     // every other full ring has two.
        let closer = if dist == 0 { 0 } else { 2 * dist - 1 };
        if closer >= target {
            return false;
        }
        if closer + ring_size(dist, nbins) <= target {
            return true;
        }
        // Partial ring: the positive-Doppler member (lower bin index) wins.
        b == dist
    }

    /// The list of hard bin indices.
    pub fn hard_bins(&self, nbins: usize) -> Vec<usize> {
        (0..nbins).filter(|&b| self.is_hard(b, nbins)).collect()
    }

    /// The list of easy bin indices.
    pub fn easy_bins(&self, nbins: usize) -> Vec<usize> {
        (0..nbins).filter(|&b| !self.is_hard(b, nbins)).collect()
    }
}

/// Number of bins at circular distance `dist` from bin 0 in an
/// `nbins`-point spectrum (1 for the poles, 2 otherwise).
fn ring_size(dist: usize, nbins: usize) -> usize {
    if dist == 0 || 2 * dist == nbins {
        1
    } else {
        2
    }
}

/// Configuration of the Doppler filter task.
#[derive(Debug, Clone)]
pub struct DopplerConfig {
    /// Taper window applied to each pulse train before the FFT.
    pub window: Window,
    /// PRI offset between the two staggered segments (usually 1).
    pub stagger_offset: usize,
    /// Bin classification shared with the weight/beamforming tasks.
    pub bins: BinClass,
}

impl Default for DopplerConfig {
    fn default() -> Self {
        Self { window: Window::Hamming, stagger_offset: 1, bins: BinClass::default() }
    }
}

/// Planned Doppler filter for a fixed cube geometry.
#[derive(Debug)]
pub struct DopplerFilter {
    config: DopplerConfig,
    pulses: usize,
    fft_len: usize,
    plan: FftPlan<f32>,
    window_full: Vec<f32>,
    window_seg: Vec<f32>,
}

impl DopplerFilter {
    /// Builds a filter for cubes with `pulses` PRIs.
    ///
    /// # Panics
    /// Panics when `stagger_offset >= pulses`.
    pub fn new(pulses: usize, config: DopplerConfig) -> Self {
        assert!(
            config.stagger_offset < pulses,
            "stagger offset {} must be < pulses {}",
            config.stagger_offset,
            pulses
        );
        let fft_len = next_pow2(pulses);
        let seg_len = pulses - config.stagger_offset;
        Self {
            plan: FftPlan::new(fft_len),
            window_full: config.window.coefficients(pulses),
            window_seg: config.window.coefficients(seg_len),
            config,
            pulses,
            fft_len,
        }
    }

    /// Number of Doppler bins produced (the zero-padded FFT length).
    pub fn bins(&self) -> usize {
        self.fft_len
    }

    /// The configured bin classification.
    pub fn bin_class(&self) -> BinClass {
        self.config.bins
    }

    /// Easy-path filtering: one windowed FFT over the full pulse train for
    /// every (channel, range). Output stagger count is 1.
    pub fn filter_easy(&self, cube: &DataCube) -> DopplerCube {
        self.filter_easy_with(cube, KernelPath::Auto)
    }

    /// [`DopplerFilter::filter_easy`] with an explicit kernel path.
    pub fn filter_easy_with(&self, cube: &DataCube, path: KernelPath) -> DopplerCube {
        let d = cube.dims();
        assert_eq!(d.pulses, self.pulses, "cube pulse count differs from plan");
        let mut out = DopplerCube::zeros(1, self.fft_len, d.channels, d.ranges);
        match path.resolve() {
            KernelPath::Reference => self.filter_easy_ref(cube, &mut out),
            _ => self.filter_easy_into(cube, &mut out, 0, d.ranges, path),
        }
        out
    }

    /// Blocked easy-path filtering of range gates `[r0, r1)` into `out` —
    /// the chunk-level entry the work-stealing executor schedules. `out`
    /// must cover the full cube geometry; gates outside `[r0, r1)` are left
    /// untouched. Bit-identical to the scalar reference: the panel FFT runs
    /// every range-gate lane through the exact scalar butterfly sequence,
    /// at the lane-kernel tier [`KernelPath::simd_level`] picks (the
    /// reference path runs the portable blocked loops here).
    ///
    /// # Panics
    /// Panics when the cube/output geometry disagrees with the plan or the
    /// gate interval is out of bounds.
    pub fn filter_easy_into(
        &self,
        cube: &DataCube,
        out: &mut DopplerCube,
        r0: usize,
        r1: usize,
        path: KernelPath,
    ) {
        assert_eq!(out.ranges(), cube.dims().ranges, "output range extent differs from cube");
        self.filter_easy_span(cube, out, r0, r1, 0, path.simd_level());
    }

    /// Easy-path filtering of gates `[r0, r1)` into a *compact* cube of
    /// `r1 - r0` gates — the owned-output form the work-stealing executor's
    /// items return (stitch with [`DopplerCube::copy_range_from`]).
    pub fn filter_easy_chunk(
        &self,
        cube: &DataCube,
        r0: usize,
        r1: usize,
        path: KernelPath,
    ) -> DopplerCube {
        let d = cube.dims();
        let mut out = DopplerCube::zeros(1, self.fft_len, d.channels, r1 - r0);
        self.filter_easy_span(cube, &mut out, r0, r1, r0, path.simd_level());
        out
    }

    /// Shared blocked easy path: gates `[r0, r1)` of `cube`, written to
    /// `out` at range offset `b0 - out_base` (0 for full-size outputs,
    /// `r0` for compact chunks), at lane-kernel tier `level`.
    fn filter_easy_span(
        &self,
        cube: &DataCube,
        out: &mut DopplerCube,
        r0: usize,
        r1: usize,
        out_base: usize,
        level: SimdLevel,
    ) {
        let d = cube.dims();
        assert_eq!(d.pulses, self.pulses, "cube pulse count differs from plan");
        assert_eq!(out.staggers(), 1, "easy output must have one stagger");
        assert_eq!(out.bins(), self.fft_len, "output bin count differs from plan");
        assert_eq!(out.channels(), d.channels, "output channel count differs from cube");
        assert!(r0 <= r1 && r1 <= d.ranges, "invalid gate interval {r0}..{r1}");
        assert!(out_base <= r0 && r1 - out_base <= out.ranges(), "output too small for interval");
        let mut panel = vec![C32::zero(); self.fft_len * RANGE_BLOCK.min((r1 - r0).max(1))];
        let mut b0 = r0;
        while b0 < r1 {
            let lanes = RANGE_BLOCK.min(r1 - b0);
            let o0 = b0 - out_base;
            let panel = &mut panel[..self.fft_len * lanes];
            for c in 0..d.channels {
                // Gather: cube rows at fixed (p, c) are contiguous in range,
                // so each panel row is one windowed streaming copy.
                let src_all = cube.as_slice();
                for p in 0..self.pulses {
                    let base = (p * d.channels + c) * d.ranges + b0;
                    let src = &src_all[base..base + lanes];
                    let dst = &mut panel[p * lanes..(p + 1) * lanes];
                    scale_row_into(dst, src, self.window_full[p], level);
                }
                panel[self.pulses * lanes..].fill(C32::zero());
                self.plan.forward_multi_level(panel, lanes, level);
                // Scatter: output rows at fixed (bin, c) are contiguous too.
                for b in 0..self.fft_len {
                    out.row_mut(0, b, c)[o0..o0 + lanes]
                        .copy_from_slice(&panel[b * lanes..(b + 1) * lanes]);
                }
            }
            b0 += lanes;
        }
    }

    /// Scalar reference easy path: per-(channel, range) gather + FFT, the
    /// original naive loop kept as the correctness and bench baseline.
    #[allow(clippy::needless_range_loop)] // gathers strided cube samples into a dense FFT buffer
    fn filter_easy_ref(&self, cube: &DataCube, out: &mut DopplerCube) {
        let d = cube.dims();
        let mut buf = vec![C32::zero(); self.fft_len];
        for c in 0..d.channels {
            for r in 0..d.ranges {
                for p in 0..self.pulses {
                    buf[p] = cube.get(p, c, r).scale(self.window_full[p]);
                }
                for v in buf.iter_mut().skip(self.pulses) {
                    *v = C32::zero();
                }
                self.plan.forward(&mut buf);
                for (b, &v) in buf.iter().enumerate() {
                    *out.get_mut(0, b, c, r) = v;
                }
            }
        }
    }

    /// Hard-path (PRI-staggered) filtering: two windowed FFTs over the pulse
    /// segments `[0, P-s)` and `[s, P)`. Output stagger count is 2.
    pub fn filter_staggered(&self, cube: &DataCube) -> DopplerCube {
        self.filter_staggered_with(cube, KernelPath::Auto)
    }

    /// [`DopplerFilter::filter_staggered`] with an explicit kernel path.
    pub fn filter_staggered_with(&self, cube: &DataCube, path: KernelPath) -> DopplerCube {
        let d = cube.dims();
        assert_eq!(d.pulses, self.pulses, "cube pulse count differs from plan");
        let mut out = DopplerCube::zeros(2, self.fft_len, d.channels, d.ranges);
        match path.resolve() {
            KernelPath::Reference => self.filter_staggered_ref(cube, &mut out),
            _ => self.filter_staggered_into(cube, &mut out, 0, d.ranges, path),
        }
        out
    }

    /// Blocked staggered filtering of range gates `[r0, r1)` into `out` —
    /// the chunk-level entry the work-stealing executor schedules.
    ///
    /// # Panics
    /// Panics when the cube/output geometry disagrees with the plan or the
    /// gate interval is out of bounds.
    pub fn filter_staggered_into(
        &self,
        cube: &DataCube,
        out: &mut DopplerCube,
        r0: usize,
        r1: usize,
        path: KernelPath,
    ) {
        assert_eq!(out.ranges(), cube.dims().ranges, "output range extent differs from cube");
        self.filter_staggered_span(cube, out, r0, r1, 0, path.simd_level());
    }

    /// Staggered filtering of gates `[r0, r1)` into a *compact* cube of
    /// `r1 - r0` gates — the owned-output form the work-stealing executor's
    /// items return (stitch with [`DopplerCube::copy_range_from`]).
    pub fn filter_staggered_chunk(
        &self,
        cube: &DataCube,
        r0: usize,
        r1: usize,
        path: KernelPath,
    ) -> DopplerCube {
        let d = cube.dims();
        let mut out = DopplerCube::zeros(2, self.fft_len, d.channels, r1 - r0);
        self.filter_staggered_span(cube, &mut out, r0, r1, r0, path.simd_level());
        out
    }

    /// Shared blocked staggered path (see [`Self::filter_easy_span`]).
    fn filter_staggered_span(
        &self,
        cube: &DataCube,
        out: &mut DopplerCube,
        r0: usize,
        r1: usize,
        out_base: usize,
        level: SimdLevel,
    ) {
        let d = cube.dims();
        assert_eq!(d.pulses, self.pulses, "cube pulse count differs from plan");
        assert_eq!(out.staggers(), 2, "staggered output must have two staggers");
        assert_eq!(out.bins(), self.fft_len, "output bin count differs from plan");
        assert_eq!(out.channels(), d.channels, "output channel count differs from cube");
        assert!(r0 <= r1 && r1 <= d.ranges, "invalid gate interval {r0}..{r1}");
        assert!(out_base <= r0 && r1 - out_base <= out.ranges(), "output too small for interval");
        let s = self.config.stagger_offset;
        let seg = self.pulses - s;
        let mut panel = vec![C32::zero(); self.fft_len * RANGE_BLOCK.min((r1 - r0).max(1))];
        let mut b0 = r0;
        while b0 < r1 {
            let lanes = RANGE_BLOCK.min(r1 - b0);
            let o0 = b0 - out_base;
            let panel = &mut panel[..self.fft_len * lanes];
            for c in 0..d.channels {
                for (stagger, start) in [(0usize, 0usize), (1, s)] {
                    let src_all = cube.as_slice();
                    for k in 0..seg {
                        let base = ((start + k) * d.channels + c) * d.ranges + b0;
                        let src = &src_all[base..base + lanes];
                        let dst = &mut panel[k * lanes..(k + 1) * lanes];
                        scale_row_into(dst, src, self.window_seg[k], level);
                    }
                    panel[seg * lanes..].fill(C32::zero());
                    self.plan.forward_multi_level(panel, lanes, level);
                    for b in 0..self.fft_len {
                        out.row_mut(stagger, b, c)[o0..o0 + lanes]
                            .copy_from_slice(&panel[b * lanes..(b + 1) * lanes]);
                    }
                }
            }
            b0 += lanes;
        }
    }

    /// Scalar reference staggered path (the original naive loop).
    #[allow(clippy::needless_range_loop)] // gathers strided cube samples into a dense FFT buffer
    fn filter_staggered_ref(&self, cube: &DataCube, out: &mut DopplerCube) {
        let d = cube.dims();
        let s = self.config.stagger_offset;
        let seg = self.pulses - s;
        let mut buf = vec![C32::zero(); self.fft_len];
        for c in 0..d.channels {
            for r in 0..d.ranges {
                for (stagger, start) in [(0usize, 0usize), (1, s)] {
                    for k in 0..seg {
                        buf[k] = cube.get(start + k, c, r).scale(self.window_seg[k]);
                    }
                    for v in buf.iter_mut().skip(seg) {
                        *v = C32::zero();
                    }
                    self.plan.forward(&mut buf);
                    for (b, &v) in buf.iter().enumerate() {
                        *out.get_mut(stagger, b, c, r) = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeDims;
    use stap_math::stats::argmax;

    /// A cube with a single target: constant Doppler phasor across pulses.
    fn phasor_cube(dims: CubeDims, norm_doppler: f32) -> DataCube {
        let mut cube = DataCube::zeros(dims);
        for p in 0..dims.pulses {
            let z = C32::cis(2.0 * std::f32::consts::PI * norm_doppler * p as f32);
            for c in 0..dims.channels {
                for r in 0..dims.ranges {
                    *cube.get_mut(p, c, r) = z;
                }
            }
        }
        cube
    }

    #[test]
    fn easy_filter_localizes_doppler_tone() {
        let dims = CubeDims::new(32, 2, 3);
        let df = DopplerFilter::new(
            32,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        );
        // Target at bin 8 of 32: normalized Doppler 8/32.
        let cube = phasor_cube(dims, 8.0 / 32.0);
        let out = df.filter_easy(&cube);
        assert_eq!(out.staggers(), 1);
        assert_eq!(out.bins(), 32);
        let spectrum: Vec<f64> = (0..32).map(|b| out.get(0, b, 0, 0).norm_sqr() as f64).collect();
        let (peak, _) = argmax(&spectrum).unwrap();
        assert_eq!(peak, 8);
    }

    #[test]
    fn staggered_filter_produces_two_consistent_staggers() {
        let dims = CubeDims::new(16, 1, 1);
        let df = DopplerFilter::new(
            16,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        );
        let cube = phasor_cube(dims, 0.25);
        let out = df.filter_staggered(&cube);
        assert_eq!(out.staggers(), 2);
        // Both staggers see the same tone; their peak bins agree and their
        // magnitudes match (the segments are the same length).
        let s0: Vec<f64> = (0..16).map(|b| out.get(0, b, 0, 0).norm_sqr() as f64).collect();
        let s1: Vec<f64> = (0..16).map(|b| out.get(1, b, 0, 0).norm_sqr() as f64).collect();
        assert_eq!(argmax(&s0).unwrap().0, argmax(&s1).unwrap().0);
        let (b0, m0) = argmax(&s0).unwrap();
        assert!((m0 - s1[b0]).abs() < 1e-3 * m0);
    }

    #[test]
    fn stagger_phase_relationship_encodes_doppler() {
        // For a pure tone, stagger 1 lags stagger 0 by exactly the
        // per-PRI Doppler phase 2π·f̄ — the property hard beamforming
        // exploits.
        let dims = CubeDims::new(16, 1, 1);
        let fd = 3.0 / 16.0;
        let df = DopplerFilter::new(
            16,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        );
        let cube = phasor_cube(dims, fd);
        let out = df.filter_staggered(&cube);
        let b = 3;
        let z0 = out.get(0, b, 0, 0);
        let z1 = out.get(1, b, 0, 0);
        let measured = (z1 * z0.conj()).arg();
        let expect = 2.0 * std::f32::consts::PI * fd;
        let diff = (measured - expect).rem_euclid(2.0 * std::f32::consts::PI);
        let diff = diff.min(2.0 * std::f32::consts::PI - diff);
        assert!(diff < 1e-3, "phase diff {measured} vs {expect}");
    }

    #[test]
    fn non_pow2_pulse_counts_are_zero_padded() {
        let dims = CubeDims::new(12, 1, 1);
        let df = DopplerFilter::new(12, DopplerConfig::default());
        assert_eq!(df.bins(), 16);
        let cube = DataCube::zeros(dims);
        let out = df.filter_easy(&cube);
        assert_eq!(out.bins(), 16);
    }

    /// Deterministic pseudo-noise cube for differential checks.
    fn noise_cube(dims: CubeDims, seed: u64) -> DataCube {
        let mut cube = DataCube::zeros(dims);
        let mut state = seed | 1;
        for z in cube.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *z = C32::new(
                (state as u32 as f32 / u32::MAX as f32) - 0.5,
                ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5,
            );
        }
        cube
    }

    fn assert_cubes_bit_equal(a: &DopplerCube, b: &DopplerCube) {
        assert_eq!(a.as_slice().len(), b.as_slice().len());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re differs at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im differs at {i}");
        }
    }

    #[test]
    fn blocked_and_simd_easy_filter_are_bit_identical_to_reference() {
        // 45 ranges: not a multiple of the 32-lane block, exercising the tail.
        let dims = CubeDims::new(12, 3, 45);
        let cube = noise_cube(dims, 0x5EED);
        let df = DopplerFilter::new(12, DopplerConfig::default());
        let reference = df.filter_easy_with(&cube, KernelPath::Reference);
        for path in [KernelPath::Blocked, KernelPath::Simd] {
            assert_cubes_bit_equal(&reference, &df.filter_easy_with(&cube, path));
        }
    }

    #[test]
    fn blocked_and_simd_staggered_filter_are_bit_identical_to_reference() {
        let dims = CubeDims::new(16, 2, 37);
        let cube = noise_cube(dims, 0xBEEF);
        let df = DopplerFilter::new(16, DopplerConfig::default());
        let reference = df.filter_staggered_with(&cube, KernelPath::Reference);
        for path in [KernelPath::Blocked, KernelPath::Simd] {
            assert_cubes_bit_equal(&reference, &df.filter_staggered_with(&cube, path));
        }
    }

    #[test]
    fn chunked_intervals_compose_to_full_filter() {
        let dims = CubeDims::new(8, 2, 21);
        let cube = noise_cube(dims, 0xF00D);
        let df = DopplerFilter::new(8, DopplerConfig::default());
        let full = df.filter_easy_with(&cube, KernelPath::Blocked);
        let mut stitched = DopplerCube::zeros(1, df.bins(), 2, 21);
        for (r0, r1) in [(0usize, 7usize), (7, 16), (16, 21)] {
            df.filter_easy_into(&cube, &mut stitched, r0, r1, KernelPath::Blocked);
        }
        assert_cubes_bit_equal(&full, &stitched);
        let full_s = df.filter_staggered_with(&cube, KernelPath::Blocked);
        let mut stitched_s = DopplerCube::zeros(2, df.bins(), 2, 21);
        for (r0, r1) in [(0usize, 5usize), (5, 21)] {
            df.filter_staggered_into(&cube, &mut stitched_s, r0, r1, KernelPath::Simd);
        }
        assert_cubes_bit_equal(&full_s, &stitched_s);
    }

    #[test]
    fn compact_chunks_stitch_to_full_filter() {
        let dims = CubeDims::new(12, 2, 50);
        let cube = noise_cube(dims, 0xC0FFEE);
        let df = DopplerFilter::new(12, DopplerConfig::default());
        let full = df.filter_easy_with(&cube, KernelPath::Blocked);
        let mut stitched = DopplerCube::zeros(1, df.bins(), 2, 50);
        for (r0, r1) in [(0usize, 33usize), (33, 41), (41, 50)] {
            let chunk = df.filter_easy_chunk(&cube, r0, r1, KernelPath::Simd);
            stitched.copy_range_from(&chunk, r0);
        }
        assert_cubes_bit_equal(&full, &stitched);
        let full_s = df.filter_staggered_with(&cube, KernelPath::Blocked);
        let mut stitched_s = DopplerCube::zeros(2, df.bins(), 2, 50);
        for (r0, r1) in [(0usize, 17usize), (17, 50)] {
            let chunk = df.filter_staggered_chunk(&cube, r0, r1, KernelPath::Blocked);
            stitched_s.copy_range_from(&chunk, r0);
        }
        assert_cubes_bit_equal(&full_s, &stitched_s);
    }

    #[test]
    fn bin_class_splits_around_zero_doppler() {
        let bc = BinClass { hard_fraction: 0.5 };
        let hard = bc.hard_bins(16);
        // 8 hard bins centred (circularly) on bin 0.
        assert_eq!(hard.len(), 8);
        assert!(bc.is_hard(0, 16));
        assert!(bc.is_hard(15, 16));
        assert!(!bc.is_hard(8, 16));
        let easy = bc.easy_bins(16);
        assert_eq!(easy.len(), 8);
        let mut all: Vec<usize> = hard.into_iter().chain(easy).collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn bin_class_extremes() {
        let none = BinClass { hard_fraction: 0.0 };
        assert!(none.hard_bins(8).is_empty());
        let all = BinClass { hard_fraction: 1.0 };
        assert_eq!(all.hard_bins(8).len(), 8);
    }

    #[test]
    #[should_panic(expected = "stagger offset")]
    fn oversized_stagger_rejected() {
        DopplerFilter::new(4, DopplerConfig { stagger_offset: 4, ..Default::default() });
    }

    #[test]
    fn windowed_filter_reduces_sidelobes() {
        let dims = CubeDims::new(64, 1, 1);
        // Off-bin tone: the rectangular window then leaks hard (Dirichlet
        // sidelobes), which the Hamming taper must suppress.
        let cube = phasor_cube(dims, 16.5 / 64.0);
        let rect = DopplerFilter::new(
            64,
            DopplerConfig { window: Window::Rectangular, ..Default::default() },
        )
        .filter_easy(&cube);
        let ham =
            DopplerFilter::new(64, DopplerConfig { window: Window::Hamming, ..Default::default() })
                .filter_easy(&cube);
        // Compare far-sidelobe energy (≈5.5 bins out) to the peak:
        // Hamming must be lower than rectangular.
        let ratio = |dc: &DopplerCube| {
            let peak = dc.get(0, 16, 0, 0).norm_sqr().max(dc.get(0, 17, 0, 0).norm_sqr());
            dc.get(0, 22, 0, 0).norm_sqr() / peak
        };
        assert!(ratio(&ham) < ratio(&rect));
    }
}
