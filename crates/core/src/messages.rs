//! Inter-stage message payloads of the real pipeline.
//!
//! Stages exchange typed values through `stap-comm`; these are the payload
//! types with their validation logic. The bin-slab type carries
//! Doppler-filtered data for a set of bins over one node's range interval;
//! receivers check that the slabs from every sender tile the range axis for
//! their bins and then read them in place through one [`DopplerRows`]
//! view, with no cube assembled. The row-batch type carries beamformed
//! (bin, beam) range rows between the tail tasks.
//!
//! Every payload's sample/byte storage is a [`PoolVec`] so the data plane
//! can recycle slabs through a [`SlabPool`] arena across CPIs (zero-copy
//! mode); `--copy-comm` constructs detached (plain-allocation) buffers
//! instead.

use stap_comm::{PoolVec, SlabPool};
use stap_kernels::cube::DopplerCube;
use stap_kernels::rows::{DopplerRows, RowSegment};
use stap_math::C32;

/// A dropped CPI, flowing through the pipeline in place of real data.
///
/// Under [`crate::config::FailurePolicy::SkipCpi`], a node whose CPI read
/// keeps failing gives the CPI up and ships a gap instead; every
/// downstream stage that receives a gap for a CPI forwards a gap on all of
/// its own output edges (its sends are stage-wide, so consumers observe a
/// consistent drop), and the sink records it. No receive ever goes
/// unmatched: each producer emits exactly one message — data or gap — per
/// consumer per CPI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gap {
    /// The dropped CPI's sequence number.
    pub cpi: u64,
    /// Name of the stage that originated the drop.
    pub origin: String,
    /// The final read error that exhausted the retry budget.
    pub reason: String,
}

/// An inter-stage message that is either real data or a gap bubble.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload<T> {
    /// A normal CPI's payload.
    Data(T),
    /// This CPI was dropped upstream.
    Gap(Gap),
}

impl<T> Payload<T> {
    /// True when this message is a gap bubble.
    pub fn is_gap(&self) -> bool {
        matches!(self, Payload::Gap(_))
    }

    /// Splits into data or the gap that displaced it.
    ///
    /// # Errors
    /// Returns the [`Gap`] when this payload is a bubble.
    pub fn into_result(self) -> Result<T, Gap> {
        match self {
            Payload::Data(d) => Ok(d),
            Payload::Gap(g) => Err(g),
        }
    }
}

/// Doppler-filtered samples for `bins` over ranges `[r0, r1)`.
///
/// Layout: `data[((bin_idx · staggers + s) · channels + c) · (r1-r0) + r]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinSlab {
    /// The absolute Doppler bin numbers carried (in order).
    pub bins: Vec<usize>,
    /// Stagger count (1 easy, 2 hard).
    pub staggers: usize,
    /// Channel count.
    pub channels: usize,
    /// First range gate (inclusive).
    pub r0: usize,
    /// Last range gate (exclusive).
    pub r1: usize,
    /// Samples.
    pub data: PoolVec<C32>,
}

impl BinSlab {
    /// Extracts a slab from a Doppler cube covering ranges `[r0, r1)` of the
    /// cube's local range axis, relabeled as absolute gates. The sample
    /// buffer is detached (plain allocation); the pipeline's zero-copy path
    /// uses [`BinSlab::from_cube_pooled`].
    ///
    /// `cube` holds this node's range interval starting at absolute gate
    /// `cube_r0`; the slab covers the cube's *entire* local range extent.
    pub fn from_cube(cube: &DopplerCube, bins: &[usize], cube_r0: usize) -> Self {
        Self::from_cube_pooled(cube, bins, cube_r0, None)
    }

    /// [`BinSlab::from_cube`] drawing the sample buffer from `pool` (when
    /// one is given), so steady-state CPIs recycle slabs instead of
    /// allocating.
    pub fn from_cube_pooled(
        cube: &DopplerCube,
        bins: &[usize],
        cube_r0: usize,
        pool: Option<&SlabPool<C32>>,
    ) -> Self {
        let n = cube.ranges();
        let cap = bins.len() * cube.staggers() * cube.channels() * n;
        let mut data = match pool {
            Some(pool) => pool.take(cap),
            None => PoolVec::detached(Vec::with_capacity(cap)),
        };
        for &b in bins {
            for s in 0..cube.staggers() {
                for c in 0..cube.channels() {
                    // Rows are contiguous in range: one streaming copy each.
                    data.extend_from_slice(cube.row(s, b, c));
                }
            }
        }
        Self {
            bins: bins.to_vec(),
            staggers: cube.staggers(),
            channels: cube.channels(),
            r0: cube_r0,
            r1: cube_r0 + n,
            data,
        }
    }

    /// The contiguous range row `[r0, r1)` at (bin index, stagger, channel).
    pub fn row(&self, bin_idx: usize, s: usize, c: usize) -> &[C32] {
        let n = self.r1 - self.r0;
        let start = ((bin_idx * self.staggers + s) * self.channels + c) * n;
        &self.data[start..start + n]
    }

    /// Sample lookup.
    pub fn get(&self, bin_idx: usize, s: usize, c: usize, abs_r: usize) -> C32 {
        let n = self.r1 - self.r0;
        let r = abs_r - self.r0;
        self.data[((bin_idx * self.staggers + s) * self.channels + c) * n + r]
    }

    /// Number of bytes of sample payload (for I/O accounting).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

/// Why a set of slabs does not form a full-range view of the requested
/// bins ([`slab_rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssemblyError {
    /// No slabs were provided at all.
    NoSlabs,
    /// A slab's stagger count disagrees with the first slab's.
    StaggerMismatch {
        /// Stagger count of the first slab.
        expected: usize,
        /// Stagger count of the offending slab.
        found: usize,
    },
    /// A slab's channel count disagrees with the first slab's.
    ChannelMismatch {
        /// Channel count of the first slab.
        expected: usize,
        /// Channel count of the offending slab.
        found: usize,
    },
    /// A slab does not carry one of the requested bins.
    MissingBin(usize),
    /// The slabs leave a range gate uncovered.
    RangeGap {
        /// First absolute gate with no covering slab.
        gate: usize,
    },
    /// Two slabs cover the same range gate.
    RangeOverlap {
        /// First absolute gate covered twice.
        gate: usize,
    },
    /// A slab's range interval is reversed or runs past the range axis.
    BadExtent {
        /// The slab's first gate.
        r0: usize,
        /// The slab's end gate.
        r1: usize,
        /// Gates on the range axis.
        ranges: usize,
    },
    /// A slab's sample count disagrees with its bins, staggers, channels
    /// and range interval.
    DataLength {
        /// Samples the slab's header implies.
        expected: usize,
        /// Samples it carries.
        found: usize,
    },
}

impl std::fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyError::NoSlabs => write!(f, "no slabs to assemble"),
            AssemblyError::StaggerMismatch { expected, found } => {
                write!(f, "stagger mismatch across slabs: expected {expected}, found {found}")
            }
            AssemblyError::ChannelMismatch { expected, found } => {
                write!(f, "channel mismatch across slabs: expected {expected}, found {found}")
            }
            AssemblyError::MissingBin(b) => write!(f, "slab missing bin {b}"),
            AssemblyError::RangeGap { gate } => {
                write!(f, "slabs do not tile the range axis: gate {gate} uncovered")
            }
            AssemblyError::RangeOverlap { gate } => {
                write!(f, "slabs do not tile the range axis: gate {gate} covered twice")
            }
            AssemblyError::BadExtent { r0, r1, ranges } => {
                write!(f, "slab range {r0}..{r1} does not fit the range axis 0..{ranges}")
            }
            AssemblyError::DataLength { expected, found } => {
                write!(f, "slab carries {found} samples, its header implies {expected}")
            }
        }
    }
}

impl std::error::Error for AssemblyError {}

/// Validates slabs received for `bins` and returns them as one
/// [`DopplerRows`] view over the range axis `[0, ranges)`, read in place.
///
/// The view's bin axis is *compacted*: view bin `i` is `bins[i]`. The
/// slabs may arrive in any order and carry their bins in any order.
///
/// # Errors
/// Returns an [`AssemblyError`] when the slabs are inconsistent, miss a
/// requested bin, or do not cover every gate of the range axis exactly
/// once.
pub fn slab_rows<'a>(
    bins: &[usize],
    ranges: usize,
    slabs: &'a [BinSlab],
) -> Result<DopplerRows<'a>, AssemblyError> {
    let first = slabs.first().ok_or(AssemblyError::NoSlabs)?;
    let (staggers, channels) = (first.staggers, first.channels);
    let mut segments = Vec::with_capacity(slabs.len());
    for slab in slabs {
        if slab.staggers != staggers {
            return Err(AssemblyError::StaggerMismatch {
                expected: staggers,
                found: slab.staggers,
            });
        }
        if slab.channels != channels {
            return Err(AssemblyError::ChannelMismatch {
                expected: channels,
                found: slab.channels,
            });
        }
        if slab.r0 > slab.r1 || slab.r1 > ranges {
            return Err(AssemblyError::BadExtent { r0: slab.r0, r1: slab.r1, ranges });
        }
        let expected = slab.bins.len() * staggers * channels * (slab.r1 - slab.r0);
        if slab.data.len() != expected {
            return Err(AssemblyError::DataLength { expected, found: slab.data.len() });
        }
        // Slab layout: bin-major, then stagger, then channel.
        let bin_rows = bins
            .iter()
            .map(|&b| {
                let i =
                    slab.bins.iter().position(|&x| x == b).ok_or(AssemblyError::MissingBin(b))?;
                Ok(i * staggers * channels)
            })
            .collect::<Result<Vec<_>, _>>()?;
        segments.push(RowSegment::new(slab.r0, slab.r1, &slab.data, bin_rows, channels));
    }
    segments.sort_by_key(|seg| seg.r0());
    let mut next = 0;
    for seg in segments.iter().filter(|seg| seg.r0() < seg.r1()) {
        if seg.r0() > next {
            return Err(AssemblyError::RangeGap { gate: next });
        }
        if seg.r0() < next {
            return Err(AssemblyError::RangeOverlap { gate: seg.r0() });
        }
        next = seg.r1();
    }
    if next < ranges {
        return Err(AssemblyError::RangeGap { gate: next });
    }
    Ok(DopplerRows::new(staggers, bins.len(), channels, ranges, segments))
}

/// Raw on-disk bytes for range gates `[r0, r1)` — what the separate read
/// task ships to the Doppler nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSlab {
    /// First absolute range gate covered (inclusive).
    pub r0: usize,
    /// Last absolute range gate covered (exclusive).
    pub r1: usize,
    /// Range-major bytes (`(r1-r0)·channels·pulses·8`).
    pub bytes: PoolVec<u8>,
}

impl RawSlab {
    /// A slab over a detached byte buffer (tests and `--copy-comm`).
    pub fn new(r0: usize, r1: usize, bytes: Vec<u8>) -> Self {
        Self { r0, r1, bytes: PoolVec::detached(bytes) }
    }
}

/// Beamformed range rows for a set of (bin, beam) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBatch {
    /// The (absolute bin, beam) identity of each row.
    pub rows: Vec<(usize, usize)>,
    /// Range gates per row.
    pub ranges: usize,
    /// `data[row · ranges + r]`.
    pub data: PoolVec<C32>,
}

impl RowBatch {
    /// An empty batch over a detached buffer.
    pub fn new(ranges: usize) -> Self {
        Self { rows: Vec::new(), ranges, data: PoolVec::detached(Vec::new()) }
    }

    /// An empty batch whose sample buffer comes from `pool` with room for
    /// `capacity_rows` rows — the zero-copy path's constructor.
    pub fn pooled(ranges: usize, capacity_rows: usize, pool: &SlabPool<C32>) -> Self {
        Self {
            rows: Vec::with_capacity(capacity_rows),
            ranges,
            data: pool.take(capacity_rows * ranges),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row length differs from `ranges`.
    pub fn push(&mut self, bin: usize, beam: usize, row: &[C32]) {
        assert_eq!(row.len(), self.ranges, "row length mismatch");
        self.rows.push((bin, beam));
        self.data.extend_from_slice(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Borrow of the `i`-th row.
    pub fn row(&self, i: usize) -> &[C32] {
        &self.data[i * self.ranges..(i + 1) * self.ranges]
    }

    /// Mutable borrow of the `i`-th row.
    pub fn row_mut(&mut self, i: usize) -> &mut [C32] {
        &mut self.data[i * self.ranges..(i + 1) * self.ranges]
    }

    /// Merges another batch into this one (the other's buffer recycles to
    /// its pool on return).
    pub fn extend(&mut self, other: RowBatch) {
        assert_eq!(self.ranges, other.ranges, "range extent mismatch");
        self.rows.extend(other.rows);
        self.data.extend_from_slice(&other.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cube(staggers: usize, bins: usize, channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(staggers, bins, channels, ranges);
        for s in 0..staggers {
            for b in 0..bins {
                for c in 0..channels {
                    for r in 0..ranges {
                        *dc.get_mut(s, b, c, r) =
                            C32::new((s * 1000 + b * 100 + c * 10 + r) as f32, 0.0);
                    }
                }
            }
        }
        dc
    }

    #[test]
    fn slab_view_reads_every_sender_in_place() {
        // A node computed bins over local ranges [0,3) at absolute r0=2.
        let cube = tiny_cube(2, 4, 3, 3);
        let slab_a = BinSlab::from_cube(&cube, &[1, 3], 2);
        assert_eq!(slab_a.get(0, 1, 2, 4), cube.get(1, 1, 2, 2));

        // Two more slabs, out of order and with their bins in a different
        // order, tile [0,6) with slab_a.
        let cube_c = tiny_cube(2, 4, 3, 1);
        let slab_c = BinSlab::from_cube(&cube_c, &[3, 1], 5);
        let cube_b = tiny_cube(2, 4, 3, 2);
        let slab_b = BinSlab::from_cube(&cube_b, &[1, 3], 0);
        let slabs = [slab_a, slab_c, slab_b];
        let rows = slab_rows(&[1, 3], 6, &slabs).expect("tiled");
        assert_eq!((rows.bins(), rows.ranges(), rows.dof()), (2, 6, 6));
        let mut snap = Vec::new();
        // Absolute gate 3 comes from slab_a local r=1 of bin 3 (index 1).
        rows.snapshot(1, 3, &mut snap);
        assert_eq!(snap[3], cube.get(1, 3, 0, 1));
        // Absolute gate 1 comes from slab_b; gate 5 from slab_c.
        rows.snapshot(0, 1, &mut snap);
        assert_eq!(snap[2], cube_b.get(0, 1, 2, 1));
        rows.snapshot(0, 5, &mut snap);
        assert_eq!(snap[5], cube_c.get(1, 1, 2, 0));
    }

    #[test]
    fn assembly_detects_gaps() {
        let cube = tiny_cube(1, 2, 1, 2);
        let slab = BinSlab::from_cube(&cube, &[0], 0);
        let err = slab_rows(&[0], 4, &[slab]).unwrap_err();
        assert_eq!(err, AssemblyError::RangeGap { gate: 2 });
        assert!(format!("{err}").contains("do not tile"));
        let inner = BinSlab::from_cube(&cube, &[0], 2);
        assert_eq!(slab_rows(&[0], 4, &[inner]).unwrap_err(), AssemblyError::RangeGap { gate: 0 });
    }

    #[test]
    fn assembly_detects_missing_bin() {
        let cube = tiny_cube(1, 2, 1, 2);
        let slab = BinSlab::from_cube(&cube, &[0], 0);
        let err = slab_rows(&[1], 2, &[slab]).unwrap_err();
        assert_eq!(err, AssemblyError::MissingBin(1));
        assert!(format!("{err}").contains("missing bin 1"));
    }

    #[test]
    fn assembly_rejects_empty_and_mismatched_slabs() {
        assert_eq!(slab_rows(&[0], 2, &[]).unwrap_err(), AssemblyError::NoSlabs);
        let a = BinSlab::from_cube(&tiny_cube(1, 2, 1, 2), &[0], 0);
        let b = BinSlab::from_cube(&tiny_cube(2, 2, 1, 2), &[0], 0);
        assert_eq!(
            slab_rows(&[0], 2, &[a.clone(), b]).unwrap_err(),
            AssemblyError::StaggerMismatch { expected: 1, found: 2 }
        );
        let c = BinSlab::from_cube(&tiny_cube(1, 2, 3, 2), &[0], 0);
        assert_eq!(
            slab_rows(&[0], 2, &[a, c]).unwrap_err(),
            AssemblyError::ChannelMismatch { expected: 1, found: 3 }
        );
    }

    #[test]
    fn assembly_rejects_overlaps_overruns_and_short_data() {
        let cube = tiny_cube(1, 2, 1, 2);
        let a = BinSlab::from_cube(&cube, &[0], 0);
        let b = BinSlab::from_cube(&cube, &[0], 1);
        let err = slab_rows(&[0], 3, &[a.clone(), b.clone()]).unwrap_err();
        assert_eq!(err, AssemblyError::RangeOverlap { gate: 1 });
        assert!(format!("{err}").contains("covered twice"));
        assert_eq!(
            slab_rows(&[0], 2, &[b]).unwrap_err(),
            AssemblyError::BadExtent { r0: 1, r1: 3, ranges: 2 }
        );
        let mut short = a;
        short.data.truncate(1);
        assert_eq!(
            slab_rows(&[0], 2, &[short]).unwrap_err(),
            AssemblyError::DataLength { expected: 2, found: 1 }
        );
    }

    #[test]
    fn row_batch_accumulates_rows() {
        let mut b = RowBatch::new(3);
        b.push(4, 0, &[C32::one(); 3]);
        b.push(7, 1, &[C32::i(); 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows[1], (7, 1));
        assert_eq!(b.row(1)[0], C32::i());
        let mut c = RowBatch::new(3);
        c.push(9, 0, &[C32::zero(); 3]);
        b.extend(c);
        assert_eq!(b.len(), 3);
        assert_eq!(b.rows[2], (9, 0));
    }

    #[test]
    fn payload_bytes_counts_samples() {
        let cube = tiny_cube(1, 2, 2, 4);
        let slab = BinSlab::from_cube(&cube, &[0, 1], 0);
        assert_eq!(slab.payload_bytes(), 2 * 2 * 4 * 8);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn row_length_checked() {
        RowBatch::new(4).push(0, 0, &[C32::zero(); 3]);
    }

    #[test]
    fn payload_splits_into_data_or_gap() {
        let d: Payload<u32> = Payload::Data(7);
        assert!(!d.is_gap());
        assert_eq!(d.into_result().unwrap(), 7);
        let gap = Gap { cpi: 3, origin: "Doppler filter".into(), reason: "boom".into() };
        let g: Payload<u32> = Payload::Gap(gap.clone());
        assert!(g.is_gap());
        assert_eq!(g.into_result().unwrap_err(), gap);
    }
}
