//! Sample covariance estimation for the adaptive weight tasks.
//!
//! Weights for Doppler bin `b` are trained on the space(-time) snapshots of
//! that bin across a subsampled set of range gates from the *previous* CPI
//! (the paper's temporal data dependency). The estimate is diagonally loaded
//! to guarantee positive definiteness even with few training snapshots.
//!
//! The training gates are gathered from a [`DopplerRows`] view (a cube or
//! the received slabs alike) into one k-major snapshot matrix, which a
//! single SIMD Hermitian rank-K update folds into the estimate. That update
//! is bit-identical to the snapshot-by-snapshot rank-1 loop.

use crate::rows::DopplerRows;
use stap_math::simd::{rank_k_update, SimdLevel};
use stap_math::{CMat, C64};

/// Training configuration for covariance estimation.
#[derive(Debug, Clone, Copy)]
pub struct TrainingConfig {
    /// Use every `stride`-th range gate as a training snapshot.
    pub range_stride: usize,
    /// Diagonal loading factor relative to the average trained power
    /// (a typical value is 0.01–0.1 of the noise floor).
    pub loading: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self { range_stride: 4, loading: 0.05 }
    }
}

/// Estimates the DoF×DoF sample covariance of Doppler bin `bin`:
/// `R = (1/K) Σ_k x_k x_kᴴ + δ·tr(R)/N·I`, trained on the absolute gates
/// `0, stride, 2·stride, …`.
///
/// Returns the estimate in double precision (the solvers need the headroom).
///
/// # Panics
/// Panics when `bin` is out of range or the stride is zero.
pub fn estimate_covariance(rows: &DopplerRows<'_>, bin: usize, cfg: TrainingConfig) -> CMat<f64> {
    assert!(bin < rows.bins(), "bin {bin} out of range {}", rows.bins());
    assert!(cfg.range_stride > 0, "range stride must be positive");
    let (dof, channels, stride) = (rows.dof(), rows.channels(), cfg.range_stride);
    let count = training_count(rows.ranges(), cfg);
    // Snapshot k (gate k·stride) is row k of the k-major matrix.
    let mut snaps = vec![C64::zero(); count * dof];
    for seg in rows.segments() {
        let first = seg.r0().div_ceil(stride) * stride;
        for d in 0..dof {
            let row = seg.row(d / channels, bin, d % channels);
            for gate in (first..seg.r1()).step_by(stride) {
                snaps[gate / stride * dof + d] = row[gate - seg.r0()].cast();
            }
        }
    }
    let mut r = CMat::<f64>::zeros(dof, dof);
    rank_k_update(r.as_mut_slice(), &snaps, dof, SimdLevel::detect());
    if count > 0 {
        r = r.scale(1.0 / count as f64);
    }
    // Diagonal loading proportional to the mean diagonal power; falls back
    // to unity loading when the training data is all-zero so the factor
    // stays positive definite.
    let trace: f64 = (0..dof).map(|i| r[(i, i)].re).sum();
    let load = if trace > 0.0 { cfg.loading * trace / dof as f64 } else { 1.0 };
    r.load_diagonal(load);
    r
}

/// Number of training snapshots the configuration extracts from `ranges`
/// gates (used by the workload/FLOP model).
pub fn training_count(ranges: usize, cfg: TrainingConfig) -> usize {
    if cfg.range_stride == 0 {
        return 0;
    }
    ranges.div_ceil(cfg.range_stride)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DopplerCube;
    use stap_math::{CholeskyFactor, C32};

    fn tone_cube(channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(1, 2, channels, ranges);
        for r in 0..ranges {
            for c in 0..channels {
                // Rank-1 interference: same spatial signature at every gate.
                *dc.get_mut(0, 1, c, r) = C32::cis(0.3 * c as f32).scale(2.0)
            }
        }
        dc
    }

    #[test]
    fn covariance_is_hermitian_positive_definite() {
        let dc = tone_cube(4, 32);
        let r = estimate_covariance(&dc.rows(), 1, TrainingConfig::default());
        assert!(r.hermitian_defect() < 1e-12);
        assert!(CholeskyFactor::new(&r).is_ok());
    }

    #[test]
    fn estimate_is_bit_identical_to_the_rank1_snapshot_loop() {
        // 2 staggers × 3 channels (odd DoF per stagger), 37 gates at
        // stride 4: the last training gate is 36.
        let mut dc = DopplerCube::zeros(2, 2, 3, 37);
        for (i, z) in dc.as_mut_slice().iter_mut().enumerate() {
            *z = C32::new((i as f32 * 0.7).sin(), (i as f32 * 0.3).cos());
        }
        let cfg = TrainingConfig::default();
        let (mut want, mut snap32) = (CMat::<f64>::zeros(6, 6), Vec::new());
        for gate in (0..37).step_by(4) {
            dc.snapshot(1, gate, &mut snap32);
            let snap: Vec<C64> = snap32.iter().map(|z| z.cast()).collect();
            want.rank1_update(&snap, 1.0);
        }
        want = want.scale(1.0 / 10.0);
        let trace: f64 = (0..6).map(|i| want[(i, i)].re).sum();
        want.load_diagonal(cfg.loading * trace / 6.0);
        let got = estimate_covariance(&dc.rows(), 1, cfg);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!((g.re.to_bits(), g.im.to_bits()), (w.re.to_bits(), w.im.to_bits()));
        }
    }

    #[test]
    fn zero_data_still_factorizable_thanks_to_loading() {
        let dc = DopplerCube::zeros(1, 3, 4, 16);
        let r = estimate_covariance(&dc.rows(), 0, TrainingConfig::default());
        assert!(CholeskyFactor::new(&r).is_ok());
    }

    #[test]
    fn rank1_interference_dominates_covariance() {
        let dc = tone_cube(4, 64);
        let r =
            estimate_covariance(&dc.rows(), 1, TrainingConfig { range_stride: 1, loading: 0.01 });
        // Diagonal ≈ |2|² = 4 (plus small loading); off-diagonal magnitude
        // equals diagonal for a rank-1 snapshot set.
        assert!((r[(0, 0)].re - 4.0).abs() < 0.2);
        assert!((r[(0, 1)].abs() - 4.0).abs() < 0.2);
    }

    #[test]
    fn stride_reduces_training_count() {
        assert_eq!(training_count(512, TrainingConfig { range_stride: 4, loading: 0.0 }), 128);
        assert_eq!(training_count(10, TrainingConfig { range_stride: 3, loading: 0.0 }), 4);
    }

    #[test]
    fn two_stagger_cube_doubles_dof() {
        let dc = DopplerCube::zeros(2, 2, 3, 8);
        let r = estimate_covariance(&dc.rows(), 0, TrainingConfig::default());
        assert_eq!(r.rows(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_bounds_checked() {
        let dc = DopplerCube::zeros(1, 2, 2, 4);
        estimate_covariance(&dc.rows(), 5, TrainingConfig::default());
    }
}
