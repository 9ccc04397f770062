#![warn(missing_docs)]

//! # stap-math — from-scratch numerics for the STAP reproduction
//!
//! The paper's signal-processing chain needs complex arithmetic, FFTs,
//! window functions and dense complex linear algebra (covariance solves for
//! the adaptive weights). None of that is taken from external crates: this
//! crate implements all of it on top of `std` only, generically over [`f32`]
//! and [`f64`] via the [`Scalar`] trait.
//!
//! Contents:
//! - [`complex`]: a `Complex<T>` type with full arithmetic;
//! - [`fft`]: radix-2 decimation-in-time FFT with precomputed plans;
//! - [`simd`]: runtime SSE3/AVX detection and the bit-exact f32 complex
//!   lane kernels shared by the multi-lane FFT and the STAP kernels;
//! - [`window`]: taper windows (Hann, Hamming, Blackman, Kaiser, ...);
//! - [`matrix`]: dense row-major complex matrices;
//! - [`cholesky`]: Hermitian positive-definite factorization and solves;
//! - [`qr`]: complex Householder QR and least-squares solves;
//! - [`solve`]: triangular substitution primitives;
//! - [`stats`]: small statistics and decibel helpers.
//!
//! # Example
//!
//! ```
//! use stap_math::{C64, CMat, CholeskyFactor, FftPlan};
//!
//! // FFT round trip.
//! let plan = FftPlan::<f64>::new(8);
//! let mut signal: Vec<C64> = (0..8).map(|i| C64::cis(0.3 * i as f64)).collect();
//! let original = signal.clone();
//! plan.forward(&mut signal);
//! plan.inverse(&mut signal);
//! assert!((signal[3] - original[3]).abs() < 1e-12);
//!
//! // Solve a Hermitian positive-definite system.
//! let mut a = CMat::<f64>::identity(3);
//! a.load_diagonal(1.0); // A = 2I
//! let x = CholeskyFactor::new(&a).unwrap().solve(&[C64::one(); 3]).unwrap();
//! assert!((x[0].re - 0.5).abs() < 1e-12);
//! ```

pub mod cholesky;
pub mod complex;
pub mod eigen;
pub mod fft;
pub mod matrix;
pub mod qr;
pub mod scalar;
pub mod simd;
pub mod solve;
pub mod stats;
pub mod window;

pub use cholesky::CholeskyFactor;
pub use complex::{Complex, C32, C64};
pub use eigen::Eigh;
pub use fft::FftPlan;
pub use matrix::CMat;
pub use qr::QrFactor;
pub use scalar::Scalar;
pub use simd::SimdLevel;

/// Errors produced by the linear-algebra routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// A matrix that must be Hermitian positive definite was not
    /// (pivot index of the failing leading minor is given).
    NotPositiveDefinite(usize),
    /// Dimensions of the operands do not agree.
    DimensionMismatch {
        /// What the caller supplied.
        got: (usize, usize),
        /// What the routine required.
        expected: (usize, usize),
    },
    /// A matrix was numerically singular (column index given).
    Singular(usize),
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::NotPositiveDefinite(k) => {
                write!(f, "matrix is not positive definite (leading minor {k})")
            }
            MathError::DimensionMismatch { got, expected } => {
                write!(f, "dimension mismatch: got {got:?}, expected {expected:?}")
            }
            MathError::Singular(k) => write!(f, "matrix is singular (column {k})"),
        }
    }
}

impl std::error::Error for MathError {}
