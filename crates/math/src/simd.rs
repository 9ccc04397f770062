//! Runtime SIMD tier detection and the complex lane kernels the
//! multi-lane transforms and the STAP kernels share.
//!
//! A *lane row* is a contiguous run of independent [`C32`] samples that all
//! receive the same operation (one twiddle, one window coefficient, one
//! replica-spectrum bin, one beamforming weight). The f64
//! [`rank_k_update`] vectorizes the same way, across the independent
//! elements of one covariance row. Every helper here computes, per lane,
//! exactly the scalar [`Complex`](crate::Complex) operation sequence it
//! replaces, built from plain `mul`/`add`/`sub`/`addsub` and never fused,
//! so results are 0-ULP identical at every [`SimdLevel`]. (IEEE addition
//! and multiplication are commutative, so swapping operands inside one
//! `add` or `mul` keeps the bits; only the payload of a NaN result is
//! unspecified, as it is for scalar Rust code.)
//!
//! A level above what the running CPU supports is lowered to the detected
//! one before dispatch ([`SimdLevel::capped`]), so forcing a level can never
//! execute an instruction the CPU lacks.

use crate::complex::{C32, C64};
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
    #[inline]
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

    #[inline]
    fn width(self) -> u8 {
        match self {
            SimdLevel::Avx => 2,
            SimdLevel::Sse3 => 1,
            SimdLevel::None => 0,
        }
    }

    /// This level, lowered to the detected CPU level when it asks for more.
    #[inline]
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

/// `acc[l] = acc[l].mul_add(wc, x[l])` for every lane: the beamformer's
/// weighted accumulation of one DoF row into a block of range gates.
///
/// # Panics
/// Panics when the rows differ in length.
#[inline]
pub fn accum_row(acc: &mut [C32], x: &[C32], wc: C32, level: SimdLevel) {
    assert_eq!(acc.len(), x.len(), "lane rows must have equal length");
    // SAFETY: `capped` never raises the level above the detected CPU level,
    // and the lengths were checked above.
    match level.capped() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Avx => unsafe { x86::accum_row_avx(acc, x, wc) },
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Sse3 => unsafe { x86::accum_row_sse3(acc, x, wc) },
        _ => accum_row_portable(acc, x, wc),
    }
}

fn accum_row_portable(acc: &mut [C32], x: &[C32], wc: C32) {
    for (a, xv) in acc.iter_mut().zip(x) {
        *a = a.mul_add(wc, *xv);
    }
}

/// Hermitian rank-K update `A += Σ_k x_k x_kᴴ` of a `dof × dof` row-major
/// matrix, with the K snapshots stored k-major in `snaps`
/// (`snaps[k·dof + i]`).
///
/// Every element sees the operations of K successive
/// [`CMat::rank1_update`](crate::CMat::rank1_update) calls with `alpha = 1`,
/// in snapshot order: `a = (a + x_r.re·conj(x_c)) + x_r.im·swap(x_c)`
/// through plain `mul`/`add`, never fused. Both triangles are filled (they
/// are not mirrored: the two halves round differently), so the result is
/// bit-identical to that loop at every level.
///
/// # Panics
/// Panics when `acc` is not `dof²` long or `snaps` is not a whole number
/// of snapshots.
pub fn rank_k_update(acc: &mut [C64], snaps: &[C64], dof: usize, level: SimdLevel) {
    assert_eq!(acc.len(), dof * dof, "accumulator must be dof x dof");
    if dof == 0 {
        return;
    }
    assert_eq!(snaps.len() % dof, 0, "snapshots must be whole dof-length vectors");
    // SAFETY: `capped` never raises the level above the detected CPU level,
    // and the shapes were checked above.
    match level.capped() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Avx => unsafe { x86::rank_k_update_avx(acc, snaps, dof) },
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        SimdLevel::Sse3 => unsafe { x86::rank_k_update_sse3(acc, snaps, dof) },
        _ => rank_k_columns(acc, snaps, dof, 0),
    }
}

/// The portable rank-K update of columns `[c0, dof)` of every row.
fn rank_k_columns(acc: &mut [C64], snaps: &[C64], dof: usize, c0: usize) {
    for (r, row) in acc.chunks_exact_mut(dof).enumerate() {
        for x in snaps.chunks_exact(dof) {
            let xr = x[r];
            for (a, xc) in row[c0..].iter_mut().zip(&x[c0..]) {
                *a = a.mul_add(xr, xc.conj());
            }
        }
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
pub(crate) mod x86 {
    //! Explicit SSE3/AVX lane kernels over interleaved `[re, im]` pairs:
    //! f32 for the lane rows, f64 for the rank-K update (`Complex<T>` is
    //! `repr(C)`).
    //!
    //! The complex product `x·w` with `w` splatted is
    //! `addsub(x·splat(w.re), swap(x)·splat(w.im))`: even float lanes get
    //! `x.re·w.re − x.im·w.im`, odd ones `x.im·w.re + x.re·w.im` — the
    //! scalar `Complex` multiply's products and its one `sub`/`add`.
    use super::{C32, C64};
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

    /// `acc + wc·x` per lane: `addsub(acc + splat(wc.re)·x,
    /// splat(wc.im)·swap(x))` — even float lanes get
    /// `(acc.re + wc.re·x.re) − wc.im·x.im`, odd ones
    /// `(acc.im + wc.re·x.im) + wc.im·x.re`, `Complex::mul_add`'s order.
    ///
    /// # Safety
    /// Caller must ensure AVX is available and `acc.len() == x.len()`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn accum_row_avx(acc: &mut [C32], x: &[C32], wc: C32) {
        let quads = acc.len() / 4;
        let (ap, xp) = (acc.as_mut_ptr() as *mut f32, x.as_ptr() as *const f32);
        let (wr, wi) = (_mm256_set1_ps(wc.re), _mm256_set1_ps(wc.im));
        // SAFETY: `4q + 4 <= acc.len() == x.len()`.
        for q in 0..quads {
            let a = _mm256_loadu_ps(ap.add(8 * q));
            let xv = _mm256_loadu_ps(xp.add(8 * q));
            let step = _mm256_add_ps(a, _mm256_mul_ps(wr, xv));
            let xs = _mm256_permute_ps(xv, SWAP);
            _mm256_storeu_ps(ap.add(8 * q), _mm256_addsub_ps(step, _mm256_mul_ps(wi, xs)));
        }
        super::accum_row_portable(&mut acc[quads * 4..], &x[quads * 4..], wc);
    }

    /// # Safety
    /// Caller must ensure SSE3 is available and `acc.len() == x.len()`.
    #[target_feature(enable = "sse3")]
    pub(super) unsafe fn accum_row_sse3(acc: &mut [C32], x: &[C32], wc: C32) {
        let pairs = acc.len() / 2;
        let (ap, xp) = (acc.as_mut_ptr() as *mut f32, x.as_ptr() as *const f32);
        let (wr, wi) = (_mm_set1_ps(wc.re), _mm_set1_ps(wc.im));
        // SAFETY: `2q + 2 <= acc.len() == x.len()`.
        for q in 0..pairs {
            let a = _mm_loadu_ps(ap.add(4 * q));
            let xv = _mm_loadu_ps(xp.add(4 * q));
            let step = _mm_add_ps(a, _mm_mul_ps(wr, xv));
            let xs = _mm_shuffle_ps(xv, xv, SWAP);
            _mm_storeu_ps(ap.add(4 * q), _mm_addsub_ps(step, _mm_mul_ps(wi, xs)));
        }
        super::accum_row_portable(&mut acc[pairs * 2..], &x[pairs * 2..], wc);
    }

    /// Accumulator vectors per row block of the f64 rank-K update: 4 × 2
    /// complex = 8 columns held in registers across the snapshot loop.
    const RANK_K_VECS: usize = 4;

    /// Rank-K update with 2 complex f64 per 256-bit vector. Per element,
    /// with `w = conj(x_c)` (a sign flip, exact) and `t = x_r`:
    /// `a = add(a, splat(t.re)·w)` then `a = addsub(a, splat(t.im)·swap(w))`,
    /// i.e. `re = (a.re + t.re·x_c.re) − t.im·(−x_c.im)` and
    /// `im = (a.im + t.re·(−x_c.im)) + t.im·x_c.re` — `Complex::mul_add(t,
    /// conj(x_c))` term for term.
    ///
    /// # Safety
    /// Caller must ensure AVX is available, `dof > 0`,
    /// `acc.len() == dof²` and `snaps.len()` a multiple of `dof`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn rank_k_update_avx(acc: &mut [C64], snaps: &[C64], dof: usize) {
        let k_count = snaps.len() / dof;
        let pairs = dof / 2;
        let xp = snaps.as_ptr() as *const f64;
        let neg_im = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
        for r in 0..dof {
            let ap = acc.as_mut_ptr().add(r * dof) as *mut f64;
            let mut q0 = 0;
            while q0 < pairs {
                let nv = RANK_K_VECS.min(pairs - q0);
                let mut a = [_mm256_setzero_pd(); RANK_K_VECS];
                // SAFETY: column pair `q < pairs` ends at complex
                // `2q + 2 <= dof`, inside row `r` of `acc` and of every
                // snapshot `k < k_count`.
                for (v, av) in a.iter_mut().enumerate().take(nv) {
                    *av = _mm256_loadu_pd(ap.add(4 * (q0 + v)));
                }
                for k in 0..k_count {
                    let row = xp.add(2 * k * dof);
                    let tr = _mm256_set1_pd(*row.add(2 * r));
                    let ti = _mm256_set1_pd(*row.add(2 * r + 1));
                    for (v, av) in a.iter_mut().enumerate().take(nv) {
                        let w = _mm256_xor_pd(_mm256_loadu_pd(row.add(4 * (q0 + v))), neg_im);
                        let step = _mm256_add_pd(*av, _mm256_mul_pd(tr, w));
                        let ws = _mm256_permute_pd(w, 0b0101);
                        *av = _mm256_addsub_pd(step, _mm256_mul_pd(ti, ws));
                    }
                }
                for (v, av) in a.iter().enumerate().take(nv) {
                    _mm256_storeu_pd(ap.add(4 * (q0 + v)), *av);
                }
                q0 += nv;
            }
        }
        super::rank_k_columns(acc, snaps, dof, 2 * pairs);
    }

    /// Rank-K update with 1 complex f64 per 128-bit vector; the same
    /// per-element sequence as [`rank_k_update_avx`].
    ///
    /// # Safety
    /// Caller must ensure SSE3 is available, `dof > 0`,
    /// `acc.len() == dof²` and `snaps.len()` a multiple of `dof`.
    #[target_feature(enable = "sse3")]
    pub(super) unsafe fn rank_k_update_sse3(acc: &mut [C64], snaps: &[C64], dof: usize) {
        let k_count = snaps.len() / dof;
        let xp = snaps.as_ptr() as *const f64;
        let neg_im = _mm_set_pd(-0.0, 0.0);
        for r in 0..dof {
            let ap = acc.as_mut_ptr().add(r * dof) as *mut f64;
            let mut c0 = 0;
            while c0 < dof {
                let nv = RANK_K_VECS.min(dof - c0);
                let mut a = [_mm_setzero_pd(); RANK_K_VECS];
                // SAFETY: column `c < dof` lies inside row `r` of `acc`
                // and of every snapshot `k < k_count`.
                for (v, av) in a.iter_mut().enumerate().take(nv) {
                    *av = _mm_loadu_pd(ap.add(2 * (c0 + v)));
                }
                for k in 0..k_count {
                    let row = xp.add(2 * k * dof);
                    let tr = _mm_set1_pd(*row.add(2 * r));
                    let ti = _mm_set1_pd(*row.add(2 * r + 1));
                    for (v, av) in a.iter_mut().enumerate().take(nv) {
                        let w = _mm_xor_pd(_mm_loadu_pd(row.add(2 * (c0 + v))), neg_im);
                        let step = _mm_add_pd(*av, _mm_mul_pd(tr, w));
                        let ws = _mm_shuffle_pd(w, w, 0b01);
                        *av = _mm_addsub_pd(step, _mm_mul_pd(ti, ws));
                    }
                }
                for (v, av) in a.iter().enumerate().take(nv) {
                    _mm_storeu_pd(ap.add(2 * (c0 + v)), *av);
                }
                c0 += nv;
            }
        }
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
            let acc0 = lanes(n, 1.5);
            let mut want_acc = acc0.clone();
            accum_row_portable(&mut want_acc, &src, w);
            for level in SimdLevel::ALL {
                let mut got = acc0.clone();
                accum_row(&mut got, &src, w, level);
                assert_bits(&got, &want_acc, level.label());
            }
        }
    }

    #[test]
    fn rank_k_update_matches_rank1_loop_at_every_level() {
        for dof in [0usize, 1, 2, 3, 8, 9] {
            for k_count in [0usize, 1, 4] {
                let snaps: Vec<C64> = (0..k_count * dof)
                    .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                    .collect();
                let mut want = crate::CMat::<f64>::from_fn(dof, dof, |r, c| {
                    C64::new(r as f64 * 0.25, -(c as f64))
                });
                let start = want.as_slice().to_vec();
                for x in snaps.chunks_exact(dof.max(1)).take(k_count) {
                    want.rank1_update(x, 1.0);
                }
                for level in SimdLevel::ALL {
                    let mut got = start.clone();
                    rank_k_update(&mut got, &snaps, dof, level);
                    for (i, (g, w)) in got.iter().zip(want.as_slice()).enumerate() {
                        assert!(
                            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                            "{} dof {dof} k {k_count} element {i}: {g:?} vs {w:?}",
                            level.label()
                        );
                    }
                }
            }
        }
    }
}
