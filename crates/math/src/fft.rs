//! Radix-2 decimation-in-time FFT with precomputed plans.
//!
//! The Doppler filter and pulse-compression kernels apply the same transform
//! length millions of times per CPI, so twiddle factors and the bit-reversal
//! permutation are computed once in an [`FftPlan`] and reused.
//!
//! The multi-lane transforms run many independent sequences at once; for
//! `f32` their butterflies also come in explicit SSE3/AVX form
//! ([`FftPlan::forward_multi_level`]), bit-identical to the scalar path.

use crate::complex::{Complex, C32};
use crate::scalar::Scalar;
use crate::simd::{self, SimdLevel};

/// Precomputed FFT plan for a fixed power-of-two length.
#[derive(Debug, Clone)]
pub struct FftPlan<T> {
    n: usize,
    log2n: u32,
    /// Twiddles `e^{-2πik/n}` for k in 0..n/2 (forward direction).
    twiddles: Vec<Complex<T>>,
    /// Bit-reversal permutation of 0..n.
    bitrev: Vec<u32>,
}

/// Rounds `n` up to the next power of two (`0` maps to `1`).
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

impl<T: Scalar> FftPlan<T> {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n > 0, "FFT length must be a power of two, got {n}");
        let log2n = n.trailing_zeros();
        let mut twiddles = Vec::with_capacity(n / 2);
        for k in 0..n / 2 {
            let theta = -T::TWO * T::PI * T::from_usize(k) / T::from_usize(n);
            twiddles.push(Complex::cis(theta));
        }
        let mut bitrev = vec![0u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        Self { n, log2n, twiddles, bitrev }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan length is 1 (the identity transform).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward DFT: `X[k] = Σ x[j]·e^{-2πijk/n}`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward(&self, buf: &mut [Complex<T>]) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan");
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place inverse DFT with 1/n normalization, so
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [Complex<T>]) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan");
        self.permute(buf);
        self.butterflies(buf, true);
        self.normalize(buf);
    }

    fn permute(&self, buf: &mut [Complex<T>]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    fn butterflies(&self, buf: &mut [Complex<T>], inverse: bool) {
        let n = self.n;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
        let _ = self.log2n;
    }

    /// Out-of-place convenience wrapper around [`FftPlan::forward`].
    pub fn forward_to(&self, input: &[Complex<T>], out: &mut Vec<Complex<T>>) {
        out.clear();
        out.extend_from_slice(input);
        self.forward(out);
    }

    /// In-place forward DFT over a multi-lane panel.
    ///
    /// `panel` holds `lanes` independent length-`n` sequences interleaved
    /// lane-minor: sample `k` of lane `l` lives at `panel[k·lanes + l]`.
    /// Every lane runs the exact butterfly schedule and per-element operation
    /// order of [`FftPlan::forward`], so each lane's output is bit-identical
    /// to transforming it alone; the lane-innermost loops read and write
    /// contiguous memory and autovectorize across lanes.
    ///
    /// # Panics
    /// Panics when `lanes` is zero or `panel.len() != n·lanes`.
    pub fn forward_multi(&self, panel: &mut [Complex<T>], lanes: usize) {
        self.check_panel(panel, lanes);
        self.permute_multi(panel, lanes);
        self.butterflies_multi(panel, lanes, false);
    }

    /// In-place inverse DFT (with 1/n normalization) over a multi-lane
    /// panel; see [`FftPlan::forward_multi`] for the layout and the
    /// per-lane bit-parity guarantee.
    pub fn inverse_multi(&self, panel: &mut [Complex<T>], lanes: usize) {
        self.check_panel(panel, lanes);
        self.permute_multi(panel, lanes);
        self.butterflies_multi(panel, lanes, true);
        self.normalize(panel);
    }

    /// The inverse transforms' `1/n` scaling.
    fn normalize(&self, buf: &mut [Complex<T>]) {
        let scale = T::ONE / T::from_usize(self.n);
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn check_panel(&self, panel: &[Complex<T>], lanes: usize) {
        assert!(lanes > 0, "panel needs at least one lane");
        assert_eq!(panel.len(), self.n * lanes, "panel length must be n·lanes");
    }

    fn permute_multi(&self, panel: &mut [Complex<T>], lanes: usize) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                let (lo, hi) = panel.split_at_mut(j * lanes);
                lo[i * lanes..(i + 1) * lanes].swap_with_slice(&mut hi[..lanes]);
            }
        }
    }

    fn butterflies_multi(&self, panel: &mut [Complex<T>], lanes: usize, inverse: bool) {
        let n = self.n;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let a = (start + k) * lanes;
                    butterfly_lanes(panel, a, a + half * lanes, lanes, w);
                }
            }
            len <<= 1;
        }
    }
}

impl FftPlan<f32> {
    /// [`FftPlan::forward_multi`] with the butterflies run at an explicit
    /// [`SimdLevel`] (lowered to what the CPU supports). Every level is
    /// 0-ULP identical to [`FftPlan::forward`] per lane; see
    /// [`crate::simd`].
    pub fn forward_multi_level(&self, panel: &mut [C32], lanes: usize, level: SimdLevel) {
        self.check_panel(panel, lanes);
        self.permute_multi(panel, lanes);
        self.butterflies_multi_level(panel, lanes, false, level);
    }

    /// [`FftPlan::inverse_multi`] with the butterflies run at an explicit
    /// [`SimdLevel`]; see [`FftPlan::forward_multi_level`].
    pub fn inverse_multi_level(&self, panel: &mut [C32], lanes: usize, level: SimdLevel) {
        self.check_panel(panel, lanes);
        self.permute_multi(panel, lanes);
        self.butterflies_multi_level(panel, lanes, true, level);
        self.normalize(panel);
    }

    fn butterflies_multi_level(
        &self,
        panel: &mut [C32],
        lanes: usize,
        inverse: bool,
        level: SimdLevel,
    ) {
        // SAFETY: `capped` never returns a level above the detected CPU
        // level, `check_panel` asserted `lanes > 0` and
        // `panel.len() == n·lanes`, and the plan holds `n / 2` twiddles.
        match level.capped() {
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            SimdLevel::Avx => unsafe {
                simd::x86::butterflies_avx(panel, lanes, &self.twiddles, inverse)
            },
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            SimdLevel::Sse3 => unsafe {
                simd::x86::butterflies_sse3(panel, lanes, &self.twiddles, inverse)
            },
            _ => self.butterflies_multi(panel, lanes, inverse),
        }
    }
}

/// The radix-2 butterfly over lanes `[0, len)` of the panel rows starting
/// at `a` and `b > a`: `v = row_b·w`, then `row_a ← row_a + v` and
/// `row_b ← row_a − v`, lane by lane in the scalar operation order.
#[inline]
pub(crate) fn butterfly_lanes<T: Scalar>(
    panel: &mut [Complex<T>],
    a: usize,
    b: usize,
    len: usize,
    w: Complex<T>,
) {
    let (head, tail) = panel.split_at_mut(b);
    for (x, y) in head[a..a + len].iter_mut().zip(&mut tail[..len]) {
        let u = *x;
        let v = *y * w;
        *x = u + v;
        *y = u - v;
    }
}

/// Naive O(n²) DFT used as a test oracle and for non-power-of-two lengths.
pub fn dft_naive<T: Scalar>(input: &[Complex<T>]) -> Vec<Complex<T>> {
    let n = input.len();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::zero();
        for (j, &x) in input.iter().enumerate() {
            let theta = -T::TWO * T::PI * T::from_usize(j * k % n) / T::from_usize(n);
            acc = acc.mul_add(x, Complex::cis(theta));
        }
        out.push(acc);
    }
    out
}

/// Circular convolution of two equal-length power-of-two sequences via FFT.
pub fn circular_convolve<T: Scalar>(a: &[Complex<T>], b: &[Complex<T>]) -> Vec<Complex<T>> {
    assert_eq!(a.len(), b.len(), "circular convolution needs equal lengths");
    let plan = FftPlan::new(a.len());
    let mut fa = a.to_vec();
    let mut fb = b.to_vec();
    plan.forward(&mut fa);
    plan.forward(&mut fb);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    plan.inverse(&mut fa);
    fa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn impulse(n: usize, at: usize) -> Vec<C64> {
        let mut v = vec![C64::zero(); n];
        v[at] = C64::one();
        v
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let plan = FftPlan::<f64>::new(8);
        let mut x = impulse(8, 0);
        plan.forward(&mut x);
        for v in x {
            assert!((v - C64::one()).abs() < 1e-12);
        }
    }

    #[test]
    fn shifted_impulse_gives_linear_phase() {
        let n = 16;
        let plan = FftPlan::<f64>::new(n);
        let mut x = impulse(n, 1);
        plan.forward(&mut x);
        for (k, v) in x.iter().enumerate() {
            let expect = C64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((*v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let input: Vec<C64> = (0..n)
                .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let plan = FftPlan::new(n);
            let mut fast = input.clone();
            plan.forward(&mut fast);
            let slow = dft_naive(&input);
            assert!(max_err(&fast, &slow) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let n = 64;
        let plan = FftPlan::<f64>::new(n);
        let input: Vec<C64> =
            (0..n).map(|i| C64::new((i as f64).sin(), (i as f64 * 2.0).cos())).collect();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        assert!(max_err(&buf, &input) < 1e-12);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let plan = FftPlan::<f64>::new(n);
        let input: Vec<C64> =
            (0..n).map(|i| C64::new((0.3 * i as f64).cos(), (0.9 * i as f64).sin())).collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn convolution_with_impulse_is_identity() {
        let n = 32;
        let sig: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let out = circular_convolve(&sig, &impulse(n, 0));
        assert!(max_err(&out, &sig) < 1e-9);
    }

    #[test]
    fn convolution_with_shifted_impulse_rotates() {
        let n = 8;
        let sig: Vec<C64> = (0..n).map(|i| C64::from_re(i as f64)).collect();
        let out = circular_convolve(&sig, &impulse(n, 2));
        for i in 0..n {
            let expect = sig[(i + n - 2) % n];
            assert!((out[i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn length_one_plan_is_identity() {
        let plan = FftPlan::<f64>::new(1);
        let mut x = vec![C64::new(3.0, 4.0)];
        plan.forward(&mut x);
        assert_eq!(x[0], C64::new(3.0, 4.0));
        plan.inverse(&mut x);
        assert_eq!(x[0], C64::new(3.0, 4.0));
    }

    #[test]
    fn multi_lane_forward_is_bit_identical_per_lane() {
        use crate::complex::C32;
        let n = 64;
        let lanes = 5; // deliberately not a power of two / SIMD width
        let plan = FftPlan::<f32>::new(n);
        // Lane-minor panel with distinct per-lane content.
        let mut panel = vec![C32::zero(); n * lanes];
        for k in 0..n {
            for l in 0..lanes {
                panel[k * lanes + l] = C32::new(
                    (k as f32 * 0.17 + l as f32).sin(),
                    (k as f32 * 0.23 - l as f32).cos(),
                );
            }
        }
        let mut lanes_scalar: Vec<Vec<C32>> =
            (0..lanes).map(|l| (0..n).map(|k| panel[k * lanes + l]).collect()).collect();
        plan.forward_multi(&mut panel, lanes);
        for (l, lane) in lanes_scalar.iter_mut().enumerate() {
            plan.forward(lane);
            for k in 0..n {
                let got = panel[k * lanes + l];
                let want = lane[k];
                assert!(
                    got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                    "lane {l} bin {k}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn multi_lane_inverse_round_trips_bitwise_with_scalar() {
        use crate::complex::C32;
        let n = 32;
        let lanes = 3;
        let plan = FftPlan::<f32>::new(n);
        let mut panel = vec![C32::zero(); n * lanes];
        for (i, z) in panel.iter_mut().enumerate() {
            *z = C32::new((i as f32 * 0.31).cos(), (i as f32 * 0.07).sin());
        }
        let mut lanes_scalar: Vec<Vec<C32>> =
            (0..lanes).map(|l| (0..n).map(|k| panel[k * lanes + l]).collect()).collect();
        plan.forward_multi(&mut panel, lanes);
        plan.inverse_multi(&mut panel, lanes);
        for (l, lane) in lanes_scalar.iter_mut().enumerate() {
            plan.forward(lane);
            plan.inverse(lane);
            for k in 0..n {
                let got = panel[k * lanes + l];
                let want = lane[k];
                assert_eq!(got.re.to_bits(), want.re.to_bits(), "lane {l} sample {k}");
                assert_eq!(got.im.to_bits(), want.im.to_bits(), "lane {l} sample {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "n·lanes")]
    fn multi_lane_length_checked() {
        let plan = FftPlan::<f64>::new(8);
        let mut panel = vec![C64::zero(); 8 * 3 + 1];
        plan.forward_multi(&mut panel, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = FftPlan::<f64>::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_rejected() {
        let plan = FftPlan::<f64>::new(8);
        let mut x = vec![C64::zero(); 4];
        plan.forward(&mut x);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(64), 64);
        assert_eq!(next_pow2(65), 128);
    }

    #[test]
    fn f32_plan_reasonable_accuracy() {
        use crate::complex::C32;
        let n = 256;
        let plan = FftPlan::<f32>::new(n);
        let input: Vec<C32> =
            (0..n).map(|i| C32::new((0.05 * i as f32).sin(), (0.02 * i as f32).cos())).collect();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        let err = buf.iter().zip(&input).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max);
        assert!(err < 1e-4, "err={err}");
    }
}
