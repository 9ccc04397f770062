//! Beamforming — applying the adaptive weights to the Doppler cube.
//!
//! For every (bin, range gate) the DoF-length snapshot is projected onto the
//! per-beam weight vectors: `y[beam][bin][range] = wᴴ x`. This is the hot
//! inner loop of the pipeline's middle tasks.

use crate::cube::DopplerCube;
use crate::path::{KernelPath, SimdLevel};
use crate::rows::DopplerRows;
use crate::weights::WeightSet;
use stap_math::simd::accum_row;
use stap_math::C32;

/// Range-gate lane count per blocked accumulator row (32 complex = 256 B,
/// comfortably register/L1 resident alongside the snapshot rows).
const RANGE_BLOCK: usize = 32;

/// Beamformed output: `beams × bins × ranges` (bins restricted to the set
/// the weights cover).
#[derive(Debug, Clone, PartialEq)]
pub struct BeamCube {
    /// The Doppler bins covered (same order as the weight set).
    pub bins: Vec<usize>,
    /// Number of beams.
    pub beams: usize,
    /// Number of range gates.
    pub ranges: usize,
    /// `data[((beam·nbins)+bin_idx)·ranges + r]`.
    data: Vec<C32>,
}

impl BeamCube {
    /// Zero-filled beam cube.
    pub fn zeros(bins: Vec<usize>, beams: usize, ranges: usize) -> Self {
        let n = bins.len();
        Self { bins, beams, ranges, data: vec![C32::zero(); beams * n * ranges] }
    }

    #[inline]
    fn idx(&self, beam: usize, bin_idx: usize, r: usize) -> usize {
        (beam * self.bins.len() + bin_idx) * self.ranges + r
    }

    /// Sample at (beam, bin-index, range).
    #[inline]
    pub fn get(&self, beam: usize, bin_idx: usize, r: usize) -> C32 {
        self.data[self.idx(beam, bin_idx, r)]
    }

    /// Mutable range row for (beam, bin-index) — the unit pulse compression
    /// and CFAR operate on.
    #[inline]
    pub fn row_mut(&mut self, beam: usize, bin_idx: usize) -> &mut [C32] {
        let start = self.idx(beam, bin_idx, 0);
        &mut self.data[start..start + self.ranges]
    }

    /// Range row for (beam, bin-index).
    #[inline]
    pub fn row(&self, beam: usize, bin_idx: usize) -> &[C32] {
        let start = self.idx(beam, bin_idx, 0);
        &self.data[start..start + self.ranges]
    }

    /// Total number of (beam, bin) rows.
    pub fn rows_total(&self) -> usize {
        self.beams * self.bins.len()
    }

    /// Mutable flat storage: all (beam, bin) range rows back to back, beam
    /// major — the layout the batched pulse compressor streams through.
    #[inline]
    pub fn rows_flat_mut(&mut self) -> &mut [C32] {
        &mut self.data
    }

    /// Merges two beam cubes over disjoint bin sets (easy + hard halves)
    /// into one covering the union.
    ///
    /// # Panics
    /// Panics when beam counts or range extents differ, or bins overlap.
    pub fn merge(&self, other: &BeamCube) -> BeamCube {
        assert_eq!(self.beams, other.beams, "beam count mismatch");
        assert_eq!(self.ranges, other.ranges, "range extent mismatch");
        for b in &other.bins {
            assert!(!self.bins.contains(b), "bin {b} present in both beam cubes");
        }
        let mut bins = self.bins.clone();
        bins.extend(other.bins.iter().copied());
        let mut out = BeamCube::zeros(bins, self.beams, self.ranges);
        for beam in 0..self.beams {
            for (i, _) in self.bins.iter().enumerate() {
                out.row_mut(beam, i).copy_from_slice(self.row(beam, i));
            }
            for (i, _) in other.bins.iter().enumerate() {
                let o = self.bins.len() + i;
                out.row_mut(beam, o).copy_from_slice(other.row(beam, i));
            }
        }
        out
    }
}

/// Applies weight vectors to Doppler snapshots.
#[derive(Debug, Default)]
pub struct Beamformer;

impl Beamformer {
    /// Beamforms the bins covered by `weights` over all range gates of
    /// `cube`.
    ///
    /// # Panics
    /// Panics when the weight DoF does not match the cube DoF.
    pub fn apply(&self, cube: &DopplerCube, weights: &WeightSet) -> BeamCube {
        self.apply_with(cube, weights, KernelPath::Auto)
    }

    /// [`Beamformer::apply`] with an explicit kernel path.
    pub fn apply_with(
        &self,
        cube: &DopplerCube,
        weights: &WeightSet,
        path: KernelPath,
    ) -> BeamCube {
        self.apply_rows(&cube.rows(), weights, path)
    }

    /// [`Beamformer::apply_with`] over any [`DopplerRows`] view — the
    /// beamforming stage reads its received slabs in place. `weights.bins`
    /// index the view's bin axis.
    ///
    /// # Panics
    /// Panics when the weight DoF does not match the view's DoF.
    pub fn apply_rows(
        &self,
        rows: &DopplerRows<'_>,
        weights: &WeightSet,
        path: KernelPath,
    ) -> BeamCube {
        assert_eq!(weights.dof, rows.dof(), "weight DoF must match cube DoF");
        let beams = weights.weights.first().map_or(0, |w| w.len());
        let mut out = BeamCube::zeros(weights.bins.clone(), beams, rows.ranges());
        match path.resolve() {
            KernelPath::Reference => Self::apply_ref(rows, weights, &mut out),
            _ => {
                Self::apply_into_level(rows, weights, &mut out, 0, rows.ranges(), path.simd_level())
            }
        }
        out
    }

    /// Blocked beamforming of range gates `[r0, r1)` into `out` — the
    /// chunk-level entry the work-stealing executor schedules. Gates
    /// outside the interval are left untouched.
    ///
    /// # Panics
    /// Panics when geometry disagrees or the interval is out of bounds.
    pub fn apply_into(
        &self,
        cube: &DopplerCube,
        weights: &WeightSet,
        out: &mut BeamCube,
        r0: usize,
        r1: usize,
        path: KernelPath,
    ) {
        Self::apply_into_level(&cube.rows(), weights, out, r0, r1, path.simd_level());
    }

    fn apply_into_level(
        rows: &DopplerRows<'_>,
        weights: &WeightSet,
        out: &mut BeamCube,
        r0: usize,
        r1: usize,
        level: SimdLevel,
    ) {
        assert_eq!(weights.dof, rows.dof(), "weight DoF must match cube DoF");
        assert_eq!(out.bins, weights.bins, "output bins must match weight bins");
        assert_eq!(out.ranges, rows.ranges(), "output range extent differs from cube");
        assert!(r0 <= r1 && r1 <= rows.ranges(), "invalid gate interval {r0}..{r1}");
        let beams = weights.weights.first().map_or(0, |w| w.len());
        assert_eq!(out.beams, beams, "output beam count differs from weights");
        let channels = rows.channels();
        let mut acc = [C32::zero(); RANGE_BLOCK];
        let mut dof_rows = Vec::with_capacity(rows.dof());
        for (bi, &bin) in weights.bins.iter().enumerate() {
            // Lane blocks split at segment edges; lanes are independent
            // gates, so where a block starts never changes a gate's bits.
            for seg in rows.segments() {
                let (lo, hi) = (seg.r0().max(r0), seg.r1().min(r1));
                // DoF index k maps to (stagger, channel) exactly as the
                // reference snapshot concatenates them, so the per-gate
                // accumulation order is identical to the scalar loop.
                dof_rows.clear();
                dof_rows.extend((0..rows.dof()).map(|k| seg.row(k / channels, bin, k % channels)));
                let mut b0 = lo;
                while b0 < hi {
                    let lanes = RANGE_BLOCK.min(hi - b0);
                    let off = b0 - seg.r0();
                    for beam in 0..beams {
                        let w = &weights.weights[bi][beam];
                        let acc = &mut acc[..lanes];
                        acc.fill(C32::zero());
                        for (wk, row) in w.iter().zip(&dof_rows) {
                            accum_row(acc, &row[off..off + lanes], wk.conj(), level);
                        }
                        let start = out.idx(beam, bi, b0);
                        out.data[start..start + lanes].copy_from_slice(acc);
                    }
                    b0 += lanes;
                }
            }
        }
    }

    /// Scalar reference: per-(bin, gate) snapshot gather + per-beam dot,
    /// the original naive loop kept as correctness and bench baseline.
    fn apply_ref(rows: &DopplerRows<'_>, weights: &WeightSet, out: &mut BeamCube) {
        let beams = weights.weights.first().map_or(0, |w| w.len());
        let mut snap = Vec::with_capacity(rows.dof());
        for (bi, &bin) in weights.bins.iter().enumerate() {
            for r in 0..rows.ranges() {
                rows.snapshot(bin, r, &mut snap);
                for beam in 0..beams {
                    let w = &weights.weights[bi][beam];
                    let mut acc = C32::zero();
                    for (wk, xk) in w.iter().zip(snap.iter()) {
                        acc = acc.mul_add(wk.conj(), *xk);
                    }
                    let i = out.idx(beam, bi, r);
                    out.data[i] = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{BeamSet, WeightComputer};

    fn cube_with_signal(channels: usize, ranges: usize, fs: f32, gate: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(1, 2, channels, ranges);
        for c in 0..channels {
            *dc.get_mut(0, 1, c, gate) =
                C32::cis(2.0 * std::f32::consts::PI * fs * c as f32).scale(5.0);
        }
        dc
    }

    #[test]
    fn uniform_weights_coherently_sum_matched_signal() {
        let channels = 8;
        let dc = cube_with_signal(channels, 16, 0.0, 3);
        let wc =
            WeightComputer { beams: BeamSet { spatial_freqs: vec![0.0] }, ..Default::default() };
        let ws = wc.uniform(channels, channels, 1, &[1], 2);
        let out = Beamformer.apply(&dc, &ws);
        // Signal gate: unit-gain MVDR-style normalization keeps amplitude 5.
        assert!((out.get(0, 0, 3).abs() - 5.0) < 1e-3);
        // Empty gates stay zero.
        assert!(out.get(0, 0, 0).abs() < 1e-6);
    }

    #[test]
    fn mismatched_steering_attenuates() {
        let channels = 8;
        let dc = cube_with_signal(channels, 16, 0.25, 3);
        let wc =
            WeightComputer { beams: BeamSet { spatial_freqs: vec![0.0] }, ..Default::default() };
        let ws = wc.uniform(channels, channels, 1, &[1], 2);
        let out = Beamformer.apply(&dc, &ws);
        // Signal arrives from fs=0.25 but we look at broadside: heavy loss.
        assert!(out.get(0, 0, 3).abs() < 1.0);
    }

    #[test]
    fn beam_cube_rows_are_contiguous_ranges() {
        let mut bc = BeamCube::zeros(vec![4, 7], 2, 5);
        bc.row_mut(1, 1)[3] = C32::new(9.0, 0.0);
        assert_eq!(bc.get(1, 1, 3), C32::new(9.0, 0.0));
        assert_eq!(bc.rows_total(), 4);
    }

    #[test]
    fn merge_preserves_rows() {
        let mut a = BeamCube::zeros(vec![0], 1, 4);
        a.row_mut(0, 0)[1] = C32::new(1.0, 0.0);
        let mut b = BeamCube::zeros(vec![2], 1, 4);
        b.row_mut(0, 0)[2] = C32::new(2.0, 0.0);
        let m = a.merge(&b);
        assert_eq!(m.bins, vec![0, 2]);
        assert_eq!(m.get(0, 0, 1), C32::new(1.0, 0.0));
        assert_eq!(m.get(0, 1, 2), C32::new(2.0, 0.0));
    }

    fn noise_doppler(staggers: usize, bins: usize, channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(staggers, bins, channels, ranges);
        let mut state = 0xC0FFEEu64;
        for s in 0..staggers {
            for b in 0..bins {
                for c in 0..channels {
                    for r in 0..ranges {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        *dc.get_mut(s, b, c, r) = C32::new(
                            (state as u32 as f32 / u32::MAX as f32) - 0.5,
                            ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5,
                        );
                    }
                }
            }
        }
        dc
    }

    fn assert_beams_bit_equal(a: &BeamCube, b: &BeamCube) {
        assert_eq!(a.bins, b.bins);
        for (i, (x, y)) in a.data.iter().zip(b.data.iter()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re differs at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im differs at {i}");
        }
    }

    #[test]
    fn blocked_and_simd_beamforming_are_bit_identical_to_reference() {
        // 2 staggers × 3 channels (DoF 6), 39 gates: exercises the lane
        // tail of both the 32-gate block and the SIMD vectors.
        let dc = noise_doppler(2, 4, 3, 39);
        let wc = WeightComputer::default();
        let ws = wc.compute(&dc, &[1, 3]).unwrap();
        let reference = Beamformer.apply_with(&dc, &ws, KernelPath::Reference);
        let blocked = Beamformer.apply_with(&dc, &ws, KernelPath::Blocked);
        let simd = Beamformer.apply_with(&dc, &ws, KernelPath::Simd);
        assert_beams_bit_equal(&reference, &blocked);
        assert_beams_bit_equal(&reference, &simd);
    }

    #[test]
    fn chunked_beamforming_composes_to_full_apply() {
        let dc = noise_doppler(1, 3, 4, 23);
        let wc = WeightComputer::default();
        let ws = wc.compute(&dc, &[0, 2]).unwrap();
        let full = Beamformer.apply_with(&dc, &ws, KernelPath::Blocked);
        let beams = ws.weights.first().map_or(0, |w| w.len());
        let mut stitched = BeamCube::zeros(ws.bins.clone(), beams, 23);
        for (r0, r1) in [(0usize, 9usize), (9, 20), (20, 23)] {
            Beamformer.apply_into(&dc, &ws, &mut stitched, r0, r1, KernelPath::Blocked);
        }
        assert_beams_bit_equal(&full, &stitched);
    }

    #[test]
    #[should_panic(expected = "DoF")]
    fn dof_mismatch_panics() {
        let dc = DopplerCube::zeros(2, 2, 4, 8);
        let wc = WeightComputer::default();
        let ws = wc.uniform(4, 4, 1, &[0], 2); // DoF 4 but cube DoF 8
        Beamformer.apply(&dc, &ws);
    }
}
