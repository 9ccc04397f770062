//! Kernel implementation selection: scalar reference, cache-blocked, or
//! `std::arch` SIMD. Runtime feature detection ([`SimdLevel`]) lives in
//! `stap-math` next to the lane kernels it gates and is re-exported here.
//!
//! Every optimized path is constructed to be **bit-identical** to the scalar
//! reference: blocking and SIMD vectorize across *independent outputs*
//! (range gates), never inside a reduction, so each output element sees the
//! exact floating-point operation sequence of the reference loop. The
//! differential suite in `tests/kernel_props.rs` pins this down to 0 ULP.

pub use stap_math::simd::SimdLevel;
use std::fmt;

/// Which implementation of a kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The naive scalar loops — always compiled, the correctness oracle.
    Reference,
    /// Cache-blocked panels with autovectorizer-friendly lane-inner loops.
    Blocked,
    /// Blocked layout plus explicit `std::arch` SSE3/AVX inner loops.
    /// Falls back to [`KernelPath::Blocked`] when the CPU lacks the
    /// features (or off x86).
    Simd,
    /// [`KernelPath::Simd`] when the CPU supports it, else
    /// [`KernelPath::Blocked`].
    #[default]
    Auto,
}

impl KernelPath {
    /// Resolves [`KernelPath::Auto`] against the detected CPU features.
    pub fn resolve(self) -> KernelPath {
        match self {
            KernelPath::Auto => {
                if SimdLevel::detect() == SimdLevel::None {
                    KernelPath::Blocked
                } else {
                    KernelPath::Simd
                }
            }
            other => other,
        }
    }

    /// The lane-kernel tier this path runs its blocked loops at:
    /// [`SimdLevel::detect`] for [`KernelPath::Simd`] (and `Auto` on a
    /// SIMD-capable CPU), the portable loops otherwise.
    pub fn simd_level(self) -> SimdLevel {
        match self.resolve() {
            KernelPath::Simd => SimdLevel::detect(),
            _ => SimdLevel::None,
        }
    }

    /// Parses a CLI/config spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "reference" | "scalar" | "ref" => Ok(KernelPath::Reference),
            "blocked" => Ok(KernelPath::Blocked),
            "simd" => Ok(KernelPath::Simd),
            "auto" | "fast" => Ok(KernelPath::Auto),
            other => Err(format!("kernel path must be scalar|blocked|simd|auto, got '{other}'")),
        }
    }
}

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelPath::Reference => "scalar",
            KernelPath::Blocked => "blocked",
            KernelPath::Simd => "simd",
            KernelPath::Auto => "auto",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_concrete_path() {
        let r = KernelPath::Auto.resolve();
        assert!(matches!(r, KernelPath::Blocked | KernelPath::Simd));
        assert_eq!(KernelPath::Reference.resolve(), KernelPath::Reference);
        assert_eq!(KernelPath::Blocked.resolve(), KernelPath::Blocked);
    }

    #[test]
    fn parse_round_trip() {
        assert_eq!(KernelPath::parse("scalar").unwrap(), KernelPath::Reference);
        assert_eq!(KernelPath::parse("blocked").unwrap(), KernelPath::Blocked);
        assert_eq!(KernelPath::parse("simd").unwrap(), KernelPath::Simd);
        assert_eq!(KernelPath::parse("auto").unwrap(), KernelPath::Auto);
        assert!(KernelPath::parse("mmx").is_err());
    }

    #[test]
    fn simd_level_follows_the_resolved_path() {
        assert_eq!(KernelPath::Reference.simd_level(), SimdLevel::None);
        assert_eq!(KernelPath::Blocked.simd_level(), SimdLevel::None);
        assert_eq!(KernelPath::Simd.simd_level(), SimdLevel::detect());
    }
}
