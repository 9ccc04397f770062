//! Read-only views of Doppler-filtered range rows, whether they sit in one
//! [`DopplerCube`] or in range segments received from several Doppler
//! nodes.
//!
//! The adaptive kernels (covariance training and beamforming) only ever
//! read contiguous range rows at (stagger, bin, channel). A [`DopplerRows`]
//! view serves those rows from any storage that tiles the range axis, so
//! the consumers of the pipeline compute straight from the slabs they
//! received instead of stitching them into a cube first. A cube is the
//! one-segment case.

use crate::cube::DopplerCube;
use stap_math::C32;

/// One range segment of a [`DopplerRows`] view: gates `[r0, r1)` of every
/// (stagger, bin, channel) row, each stored as `r1 - r0` consecutive
/// samples.
#[derive(Debug, Clone)]
pub struct RowSegment<'a> {
    r0: usize,
    r1: usize,
    data: &'a [C32],
    /// Row number of (bin, stagger 0, channel 0) for each view bin.
    bin_rows: Vec<usize>,
    /// Rows between stagger `s` and `s + 1` of one (bin, channel).
    stagger_rows: usize,
}

impl<'a> RowSegment<'a> {
    /// A segment over gates `[r0, r1)` whose row (stagger `s`, view bin
    /// `b`, channel `c`) is row number `bin_rows[b] + s·stagger_rows + c`
    /// of `data`, rows being `r1 - r0` samples long.
    ///
    /// # Panics
    /// Panics when `r1 < r0`.
    pub fn new(
        r0: usize,
        r1: usize,
        data: &'a [C32],
        bin_rows: Vec<usize>,
        stagger_rows: usize,
    ) -> Self {
        assert!(r0 <= r1, "invalid row segment {r0}..{r1}");
        Self { r0, r1, data, bin_rows, stagger_rows }
    }

    /// First gate covered (inclusive).
    #[inline]
    pub fn r0(&self) -> usize {
        self.r0
    }

    /// Last gate covered (exclusive).
    #[inline]
    pub fn r1(&self) -> usize {
        self.r1
    }

    /// The gates `[r0, r1)` of the row at (stagger, view bin, channel).
    #[inline]
    pub fn row(&self, s: usize, b: usize, c: usize) -> &'a [C32] {
        let n = self.r1 - self.r0;
        let start = (self.bin_rows[b] + s * self.stagger_rows + c) * n;
        &self.data[start..start + n]
    }
}

/// Doppler-filtered rows `staggers × bins × channels` over the full range
/// axis `[0, ranges)`, served from range segments that tile it in order.
#[derive(Debug, Clone)]
pub struct DopplerRows<'a> {
    staggers: usize,
    bins: usize,
    channels: usize,
    ranges: usize,
    segments: Vec<RowSegment<'a>>,
}

impl<'a> DopplerRows<'a> {
    /// A view over `segments`, which must tile `[0, ranges)` in order
    /// (empty segments may appear anywhere).
    ///
    /// # Panics
    /// Panics when the segments leave a gap, overlap, overrun `ranges`,
    /// map a different number of bins, or index rows past their data.
    pub fn new(
        staggers: usize,
        bins: usize,
        channels: usize,
        ranges: usize,
        segments: Vec<RowSegment<'a>>,
    ) -> Self {
        let mut next = 0;
        for seg in &segments {
            assert_eq!(seg.bin_rows.len(), bins, "segment maps a different bin count");
            let n = seg.r1 - seg.r0;
            if n == 0 {
                continue;
            }
            assert_eq!(seg.r0, next, "segments must tile the range axis in order");
            next = seg.r1;
            let last_row = seg.bin_rows.iter().max().map_or(0, |&b| {
                b + staggers.saturating_sub(1) * seg.stagger_rows + channels.saturating_sub(1)
            });
            assert!(
                bins == 0 || staggers * channels == 0 || (last_row + 1) * n <= seg.data.len(),
                "segment rows overrun its data"
            );
        }
        assert_eq!(next, ranges, "segments must cover [0, {ranges})");
        Self { staggers, bins, channels, ranges, segments }
    }

    /// Number of staggered segments (1 = easy, 2 = hard).
    #[inline]
    pub fn staggers(&self) -> usize {
        self.staggers
    }

    /// Number of Doppler bins in the view.
    #[inline]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of range gates.
    #[inline]
    pub fn ranges(&self) -> usize {
        self.ranges
    }

    /// Degrees of freedom per snapshot (`staggers × channels`).
    #[inline]
    pub fn dof(&self) -> usize {
        self.staggers * self.channels
    }

    /// The range segments, in gate order.
    #[inline]
    pub fn segments(&self) -> &[RowSegment<'a>] {
        &self.segments
    }

    /// The space(-time) snapshot for (bin, gate): channel samples of every
    /// stagger concatenated, as [`DopplerCube::snapshot`] orders them.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    pub fn snapshot(&self, b: usize, r: usize, out: &mut Vec<C32>) {
        let seg = self
            .segments
            .iter()
            .find(|seg| seg.r0 <= r && r < seg.r1)
            .unwrap_or_else(|| panic!("gate {r} out of range {}", self.ranges));
        out.clear();
        out.reserve(self.dof());
        for s in 0..self.staggers {
            for c in 0..self.channels {
                out.push(seg.row(s, b, c)[r - seg.r0]);
            }
        }
    }
}

impl DopplerCube {
    /// This cube as a one-segment [`DopplerRows`] view; view bin `b` is
    /// cube bin `b`.
    pub fn rows(&self) -> DopplerRows<'_> {
        let (bins, channels) = (self.bins(), self.channels());
        let bin_rows = (0..bins).map(|b| b * channels).collect();
        let seg = RowSegment::new(0, self.ranges(), self.as_slice(), bin_rows, bins * channels);
        DopplerRows::new(self.staggers(), bins, channels, self.ranges(), vec![seg])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(staggers: usize, bins: usize, channels: usize, ranges: usize) -> DopplerCube {
        let mut dc = DopplerCube::zeros(staggers, bins, channels, ranges);
        for (i, z) in dc.as_mut_slice().iter_mut().enumerate() {
            *z = C32::new(i as f32, 0.0);
        }
        dc
    }

    #[test]
    fn cube_view_serves_the_cube_rows_and_snapshots() {
        let dc = numbered(2, 3, 2, 5);
        let rows = dc.rows();
        assert_eq!((rows.staggers(), rows.bins(), rows.channels(), rows.ranges()), (2, 3, 2, 5));
        assert_eq!(rows.dof(), 4);
        let seg = &rows.segments()[0];
        for s in 0..2 {
            for b in 0..3 {
                for c in 0..2 {
                    assert_eq!(seg.row(s, b, c), dc.row(s, b, c));
                }
            }
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        dc.snapshot(2, 4, &mut a);
        rows.snapshot(2, 4, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn segments_split_the_range_axis() {
        // Bin-major segments (the slab layout): gates [0, 2) and [2, 5).
        let dc = numbered(1, 2, 1, 5);
        let left: Vec<C32> = (0..2).flat_map(|b| dc.row(0, b, 0)[..2].to_vec()).collect();
        let right: Vec<C32> = (0..2).flat_map(|b| dc.row(0, b, 0)[2..].to_vec()).collect();
        let rows = DopplerRows::new(
            1,
            2,
            1,
            5,
            vec![
                RowSegment::new(0, 2, &left, vec![0, 1], 1),
                RowSegment::new(2, 2, &[], vec![0, 0], 1),
                RowSegment::new(2, 5, &right, vec![0, 1], 1),
            ],
        );
        let mut snap = Vec::new();
        for r in 0..5 {
            rows.snapshot(1, r, &mut snap);
            assert_eq!(snap, vec![dc.get(0, 1, 0, r)]);
        }
    }

    #[test]
    #[should_panic(expected = "tile the range axis")]
    fn gaps_are_rejected() {
        let data = [C32::zero(); 4];
        DopplerRows::new(
            1,
            1,
            1,
            4,
            vec![
                RowSegment::new(0, 1, &data, vec![0], 1),
                RowSegment::new(2, 4, &data, vec![0], 1),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "overrun its data")]
    fn short_data_is_rejected() {
        let data = [C32::zero(); 3];
        DopplerRows::new(1, 2, 1, 2, vec![RowSegment::new(0, 2, &data, vec![0, 1], 1)]);
    }
}
