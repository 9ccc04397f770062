//! Runtime SIMD tier detection and the f32 complex lane kernels the
//! multi-lane transforms and the STAP kernels share.
//!
//! A *lane row* is a contiguous run of independent [`C32`] samples that all
//! receive the same operation (one twiddle, one window coefficient, one
//! replica-spectrum bin). Every helper here computes, per lane, exactly the
//! scalar [`Complex`](crate::Complex) operation sequence it replaces, built
//! from plain `mul`/`add`/`sub`/`addsub` and never fused, so results are
//! 0-ULP identical at every [`SimdLevel`]. (IEEE addition and
//! multiplication are commutative, so swapping operands inside one `add` or
//! `mul` keeps the bits; only the payload of a NaN result is unspecified, as
//! it is for scalar Rust code.)
//!
//! A level above what the running CPU supports is lowered to the detected
//! one before dispatch ([`SimdLevel::capped`]), so forcing a level can never
//! execute an instruction the CPU lacks.

use crate::complex::C32;
use std::sync::OnceLock;

/// Widest usable x86 SIMD tier for the complex inner loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// 8 f32 lanes (4 complex) per vector.
    Avx,
    /// 4 f32 lanes (2 complex) per vector; needs SSE3 for `addsub`.
    Sse3,
    /// No usable SIMD: portable lane loops only.
    None,
}

impl SimdLevel {
    /// Every level, widest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Avx, SimdLevel::Sse3, SimdLevel::None];

    /// Runtime CPU feature detection, cached after the first call.
    pub fn detect() -> SimdLevel {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(Self::probe)
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    fn probe() -> SimdLevel {
        if is_x86_feature_detected!("avx") {
            SimdLevel::Avx
        } else if is_x86_feature_detected!("sse3") {
            SimdLevel::Sse3
        } else {
            SimdLevel::None
        }
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    fn probe() -> SimdLevel {
        SimdLevel::None
    }

    fn width(self) -> u8 {
        match self {
            SimdLevel::Avx => 2,
            SimdLevel::Sse3 => 1,
            SimdLevel::None => 0,
        }
    }

    /// This level, lowered to the detected CPU level when it asks for more.
    pub fn capped(self) -> SimdLevel {
        let cpu = Self::detect();
        if self.width() <= cpu.width() {
            self
        } else {
            cpu
        }
    }

    /// True when the running CPU can execute this level as asked.
    pub fn is_supported(self) -> bool {
        self.capped() == self
    }

    /// Human-readable label for reports and the README feature table.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Avx => "avx",
            SimdLevel::Sse3 => "sse3",
            SimdLevel::None => "scalar",
        }
    }
}

/// `row[l] = row[l] * w` for every lane: the pulse compressor's
/// replica-spectrum multiply.
pub fn mul_row(row: &mut [C32], w: C32, level: SimdLevel) {
    // SAFETY: `capped` never returns a level above `SimdLevel::detect()`,
    // so the CPU supports the instructions of the arm taken.
    match level.capped() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Avx => unsafe { x86::mul_row_avx(row, w) },
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Sse3 => unsafe { x86::mul_row_sse3(row, w) },
        _ => mul_row_portable(row, w),
    }
}

fn mul_row_portable(row: &mut [C32], w: C32) {
    for z in row {
        *z *= w;
    }
}

/// `dst[l] = src[l].scale(s)` for every lane: the Doppler filter's
/// windowed gather.
///
/// # Panics
/// Panics when the rows differ in length.
pub fn scale_row_into(dst: &mut [C32], src: &[C32], s: f32, level: SimdLevel) {
    assert_eq!(dst.len(), src.len(), "lane rows must have equal length");
    // SAFETY: `capped` never raises the level above the detected CPU level,
    // and the lengths were checked above.
    match level.capped() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Avx => unsafe { x86::scale_row_into_avx(dst, src, s) },
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Sse3 => unsafe { x86::scale_row_into_sse3(dst, src, s) },
        _ => scale_row_into_portable(dst, src, s),
    }
}

fn scale_row_into_portable(dst: &mut [C32], src: &[C32], s: f32) {
    for (d, v) in dst.iter_mut().zip(src) {
        *d = v.scale(s);
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
pub(crate) mod x86 {
    //! Explicit SSE3/AVX lane kernels over interleaved `[re, im]` f32 pairs
    //! (`Complex<f32>` is `repr(C)`).
    //!
    //! The complex product `x·w` with `w` splatted is
    //! `addsub(x·splat(w.re), swap(x)·splat(w.im))`: even float lanes get
    //! `x.re·w.re − x.im·w.im`, odd ones `x.im·w.re + x.re·w.im` — the
    //! scalar `Complex` multiply's products and its one `sub`/`add`.
    use super::C32;
    use crate::fft::butterfly_lanes;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Swaps the re/im pair inside each 64-bit half.
    const SWAP: i32 = 0b10_11_00_01;

    #[inline]
    #[target_feature(enable = "avx")]
    fn cmul_avx(x: __m256, wr: __m256, wi: __m256) -> __m256 {
        let xs = _mm256_permute_ps(x, SWAP);
        _mm256_addsub_ps(_mm256_mul_ps(x, wr), _mm256_mul_ps(xs, wi))
    }

    #[inline]
    #[target_feature(enable = "sse3")]
    fn cmul_sse3(x: __m128, wr: __m128, wi: __m128) -> __m128 {
        let xs = _mm_shuffle_ps(x, x, SWAP);
        _mm_addsub_ps(_mm_mul_ps(x, wr), _mm_mul_ps(xs, wi))
    }

    /// # Safety
    /// Caller must ensure AVX is available, `lanes > 0`, and the panel
    /// holds `n·lanes` samples with `n` a power of two and
    /// `twiddles.len() >= n / 2`.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn butterflies_avx(
        panel: &mut [C32],
        lanes: usize,
        twiddles: &[C32],
        inverse: bool,
    ) {
        let n = panel.len() / lanes;
        let quads = lanes / 4; // 4 complex lanes per 256-bit vector
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = twiddles[k * stride];
                    let w = if inverse { w.conj() } else { w };
                    let (wr, wi) = (_mm256_set1_ps(w.re), _mm256_set1_ps(w.im));
                    let a = (start + k) * lanes;
                    let b = a + half * lanes;
                    let p = panel.as_mut_ptr() as *mut f32;
                    // SAFETY: `b + lanes <= (start + len)·lanes <= n·lanes`,
                    // the panel length, and `4q + 4 <= lanes`.
                    for q in 0..quads {
                        let pa = p.add(2 * (a + 4 * q));
                        let pb = p.add(2 * (b + 4 * q));
                        let u = _mm256_loadu_ps(pa);
                        let v = cmul_avx(_mm256_loadu_ps(pb), wr, wi);
                        _mm256_storeu_ps(pa, _mm256_add_ps(u, v));
                        _mm256_storeu_ps(pb, _mm256_sub_ps(u, v));
                    }
                    let done = quads * 4;
                    if done < lanes {
                        butterfly_lanes(panel, a + done, b + done, lanes - done, w);
                    }
                }
            }
            len <<= 1;
        }
    }

    /// # Safety
    /// Caller must ensure SSE3 is available, `lanes > 0`, and the panel
    /// holds `n·lanes` samples with `n` a power of two and
    /// `twiddles.len() >= n / 2`.
    #[target_feature(enable = "sse3")]
    pub(crate) unsafe fn butterflies_sse3(
        panel: &mut [C32],
        lanes: usize,
        twiddles: &[C32],
        inverse: bool,
    ) {
        let n = panel.len() / lanes;
        let pairs = lanes / 2; // 2 complex lanes per 128-bit vector
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = twiddles[k * stride];
                    let w = if inverse { w.conj() } else { w };
                    let (wr, wi) = (_mm_set1_ps(w.re), _mm_set1_ps(w.im));
                    let a = (start + k) * lanes;
                    let b = a + half * lanes;
                    let p = panel.as_mut_ptr() as *mut f32;
                    // SAFETY: `b + lanes <= (start + len)·lanes <= n·lanes`,
                    // the panel length, and `2q + 2 <= lanes`.
                    for q in 0..pairs {
                        let pa = p.add(2 * (a + 2 * q));
                        let pb = p.add(2 * (b + 2 * q));
                        let u = _mm_loadu_ps(pa);
                        let v = cmul_sse3(_mm_loadu_ps(pb), wr, wi);
                        _mm_storeu_ps(pa, _mm_add_ps(u, v));
                        _mm_storeu_ps(pb, _mm_sub_ps(u, v));
                    }
                    let done = pairs * 2;
                    if done < lanes {
                        butterfly_lanes(panel, a + done, b + done, lanes - done, w);
                    }
                }
            }
            len <<= 1;
        }
    }

    /// # Safety
    /// Caller must ensure AVX is available.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn mul_row_avx(row: &mut [C32], w: C32) {
        let quads = row.len() / 4;
        let p = row.as_mut_ptr() as *mut f32;
        let (wr, wi) = (_mm256_set1_ps(w.re), _mm256_set1_ps(w.im));
        // SAFETY: `4q + 4 <= row.len()`.
        for q in 0..quads {
            let x = _mm256_loadu_ps(p.add(8 * q));
            _mm256_storeu_ps(p.add(8 * q), cmul_avx(x, wr, wi));
        }
        super::mul_row_portable(&mut row[quads * 4..], w);
    }

    /// # Safety
    /// Caller must ensure SSE3 is available.
    #[target_feature(enable = "sse3")]
    pub(super) unsafe fn mul_row_sse3(row: &mut [C32], w: C32) {
        let pairs = row.len() / 2;
        let p = row.as_mut_ptr() as *mut f32;
        let (wr, wi) = (_mm_set1_ps(w.re), _mm_set1_ps(w.im));
        // SAFETY: `2q + 2 <= row.len()`.
        for q in 0..pairs {
            let x = _mm_loadu_ps(p.add(4 * q));
            _mm_storeu_ps(p.add(4 * q), cmul_sse3(x, wr, wi));
        }
        super::mul_row_portable(&mut row[pairs * 2..], w);
    }

    /// # Safety
    /// Caller must ensure AVX is available and `dst.len() == src.len()`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn scale_row_into_avx(dst: &mut [C32], src: &[C32], s: f32) {
        let quads = dst.len() / 4;
        let (dp, sp) = (dst.as_mut_ptr() as *mut f32, src.as_ptr() as *const f32);
        let sv = _mm256_set1_ps(s);
        // SAFETY: `4q + 4 <= dst.len() == src.len()`.
        for q in 0..quads {
            _mm256_storeu_ps(dp.add(8 * q), _mm256_mul_ps(_mm256_loadu_ps(sp.add(8 * q)), sv));
        }
        super::scale_row_into_portable(&mut dst[quads * 4..], &src[quads * 4..], s);
    }

    /// # Safety
    /// Caller must ensure SSE3 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "sse3")]
    pub(super) unsafe fn scale_row_into_sse3(dst: &mut [C32], src: &[C32], s: f32) {
        let pairs = dst.len() / 2;
        let (dp, sp) = (dst.as_mut_ptr() as *mut f32, src.as_ptr() as *const f32);
        let sv = _mm_set1_ps(s);
        // SAFETY: `2q + 2 <= dst.len() == src.len()`.
        for q in 0..pairs {
            _mm_storeu_ps(dp.add(4 * q), _mm_mul_ps(_mm_loadu_ps(sp.add(4 * q)), sv));
        }
        super::scale_row_into_portable(&mut dst[pairs * 2..], &src[pairs * 2..], s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(n: usize, seed: f32) -> Vec<C32> {
        (0..n).map(|i| C32::new((i as f32 * 0.37 + seed).sin(), (i as f32 * 0.11).cos())).collect()
    }

    fn assert_bits(a: &[C32], b: &[C32], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what} lane {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn detection_is_stable_and_capping_never_raises() {
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
        assert!(SimdLevel::detect().is_supported());
        assert!(SimdLevel::None.is_supported());
        for level in SimdLevel::ALL {
            assert!(level.capped().width() <= SimdLevel::detect().width());
            assert!(!level.label().is_empty());
        }
    }

    #[test]
    fn lane_helpers_match_portable_at_every_level() {
        let w = C32::new(0.3, -0.8);
        for n in [0usize, 1, 2, 3, 5, 8, 11] {
            let src = lanes(n, 0.5);
            let mut want_mul = src.clone();
            mul_row_portable(&mut want_mul, w);
            let mut want_scale = vec![C32::zero(); n];
            scale_row_into_portable(&mut want_scale, &src, 0.7);
            for level in SimdLevel::ALL {
                let mut got = src.clone();
                mul_row(&mut got, w, level);
                assert_bits(&got, &want_mul, level.label());
                let mut got = vec![C32::zero(); n];
                scale_row_into(&mut got, &src, 0.7, level);
                assert_bits(&got, &want_scale, level.label());
            }
        }
    }
}
