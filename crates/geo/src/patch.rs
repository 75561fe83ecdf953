//! Patch extraction and sew-and-average.
//!
//! SpectraGAN never processes a whole city at once: training and
//! generation both operate on fixed-size square patches (§2.2.1). Each
//! traffic patch of `H_t×W_t` pixels is conditioned on a *wider*
//! `H_c×W_c` context window centered on it (`H_c > H_t`), because
//! context *around* a location also correlates with its traffic. At
//! generation time a sliding window produces overlapping patches that
//! are averaged per pixel (Eq. 2) to sew an arbitrary-size city map.

use crate::context::ContextMap;
use crate::grid::GridSpec;
use crate::traffic::TrafficMap;
use serde::{Deserialize, Serialize};
use spectragan_tensor::Tensor;

/// Patch geometry: square traffic window, square (larger) context
/// window, and the sliding-window stride used at generation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatchSpec {
    /// Traffic patch side `H_t = W_t`.
    pub traffic: usize,
    /// Context patch side `H_c = W_c`; must satisfy
    /// `context ≥ traffic` with an even difference.
    pub context: usize,
    /// Sliding-window stride; `stride < traffic` yields overlap.
    pub stride: usize,
}

impl PatchSpec {
    /// Creates a spec, validating the geometry.
    ///
    /// # Panics
    /// Panics if `context < traffic`, the margin is odd, or the stride
    /// is zero.
    pub fn new(traffic: usize, context: usize, stride: usize) -> Self {
        assert!(traffic > 0, "traffic patch side must be positive");
        assert!(
            context >= traffic,
            "context window must cover the traffic patch"
        );
        assert_eq!(
            (context - traffic) % 2,
            0,
            "context margin must be symmetric"
        );
        assert!(stride > 0, "stride must be positive");
        PatchSpec {
            traffic,
            context,
            stride,
        }
    }

    /// The symmetric context margin `(H_c − H_t)/2`.
    pub fn margin(&self) -> usize {
        (self.context - self.traffic) / 2
    }
}

/// The set of patch positions covering one city, plus extraction and
/// sewing.
#[derive(Debug, Clone)]
pub struct PatchLayout {
    spec: PatchSpec,
    grid: GridSpec,
    /// Top-left corners `(y, x)` of each traffic patch.
    positions: Vec<(usize, usize)>,
}

impl PatchLayout {
    /// Computes the sliding-window positions covering `grid`: every
    /// stride multiple, plus a final position flush with each edge so
    /// no pixel is missed.
    ///
    /// # Panics
    /// Panics if the grid is smaller than one traffic patch.
    pub fn new(grid: GridSpec, spec: PatchSpec) -> Self {
        assert!(
            grid.height >= spec.traffic && grid.width >= spec.traffic,
            "grid {grid:?} smaller than patch {}",
            spec.traffic
        );
        let axis_positions = |extent: usize| -> Vec<usize> {
            let last = extent - spec.traffic;
            let mut out: Vec<usize> = (0..=last).step_by(spec.stride).collect();
            if *out.last().expect("non-empty") != last {
                out.push(last);
            }
            out
        };
        let ys = axis_positions(grid.height);
        let xs = axis_positions(grid.width);
        let positions = ys
            .iter()
            .flat_map(|&y| xs.iter().map(move |&x| (y, x)))
            .collect();
        PatchLayout {
            spec,
            grid,
            positions,
        }
    }

    /// The patch spec this layout was built with.
    pub fn spec(&self) -> PatchSpec {
        self.spec
    }

    /// The grid this layout covers.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Top-left corners of all traffic patches.
    pub fn positions(&self) -> &[(usize, usize)] {
        &self.positions
    }

    /// Extracts the context window for the traffic patch at `pos`, as a
    /// `[C, H_c, W_c]` tensor, zero-padded outside the city.
    pub fn extract_context(&self, ctx: &ContextMap, pos: (usize, usize)) -> Tensor {
        let m = self.spec.margin() as isize;
        let side = self.spec.context;
        let (c, h, w) = (ctx.channels(), ctx.height(), ctx.width());
        let mut out = Tensor::zeros([c, side, side]);
        // The window's columns that fall inside the city.
        let x0 = pos.1 as isize - m;
        let dx0 = (-x0).clamp(0, side as isize) as usize;
        let dx1 = (w as isize - x0).clamp(dx0 as isize, side as isize) as usize;
        if dx0 == dx1 {
            return out;
        }
        let sx0 = (x0 + dx0 as isize) as usize;
        let cols = dx1 - dx0;
        for ch in 0..c {
            let plane = ctx.channel(ch);
            for dy in 0..side {
                let sy = pos.0 as isize - m + dy as isize;
                if sy < 0 || sy >= h as isize {
                    continue;
                }
                let src = sy as usize * w + sx0;
                let dst = (ch * side + dy) * side + dx0;
                out.data_mut()[dst..dst + cols].copy_from_slice(&plane[src..src + cols]);
            }
        }
        out
    }

    /// Extracts the traffic patch at `pos` over time steps `t0..t1`, as
    /// a `[t1−t0, H_t, W_t]` tensor.
    pub fn extract_traffic(
        &self,
        map: &TrafficMap,
        pos: (usize, usize),
        t0: usize,
        t1: usize,
    ) -> Tensor {
        assert!(t0 <= t1 && t1 <= map.len_t(), "bad time range {t0}..{t1}");
        let side = self.spec.traffic;
        let mut out = Tensor::zeros([t1 - t0, side, side]);
        for (ti, t) in (t0..t1).enumerate() {
            let frame = map.frame(t);
            for dy in 0..side {
                let src = (pos.0 + dy) * map.width() + pos.1;
                let dst = (ti * side + dy) * side;
                out.data_mut()[dst..dst + side].copy_from_slice(&frame[src..src + side]);
            }
        }
        out
    }

    /// Sews per-patch generated traffic back into a city map (Eq. 2):
    /// each pixel's value is the average over all patches containing
    /// it. `patches[i]` must be `[T, H_t, W_t]` for position `i`.
    ///
    /// Equivalent to pushing every patch through a
    /// [`SewAccumulator`] — the streaming form used by bounded-memory
    /// generation — and bit-identical to it, since both add each
    /// patch's contribution in position order.
    ///
    /// # Panics
    /// Panics on count or shape mismatches.
    pub fn sew(&self, patches: &[Tensor]) -> TrafficMap {
        assert_eq!(
            patches.len(),
            self.positions.len(),
            "expected {} patches, got {}",
            self.positions.len(),
            patches.len()
        );
        let t = patches.first().map(|p| p.shape().dim(0)).unwrap_or(0);
        let mut acc = self.sew_accumulator(t);
        for patch in patches {
            acc.push(patch);
        }
        acc.finish()
    }

    /// Starts a streaming sew over this layout for patches of `t` time
    /// steps. Push patches in position order; peak memory is one
    /// running sum map plus per-pixel counts, independent of how many
    /// patches the city needs.
    pub fn sew_accumulator(&self, t: usize) -> SewAccumulator<'_> {
        let (h, w) = (self.grid.height, self.grid.width);
        SewAccumulator {
            layout: self,
            sum: TrafficMap::zeros(t, h, w),
            count: vec![0u32; h * w],
            next: 0,
            emitted: 0,
        }
    }
}

/// Streaming counterpart of [`PatchLayout::sew`]: patches are folded
/// into a running per-pixel sum/count as they arrive and can be dropped
/// immediately, so sewing a city holds O(1) patch tensors instead of
/// all of them.
///
/// Bit-equality with the batch path holds by construction: every
/// destination element receives exactly one contribution per covering
/// patch, applied in patch-position order, so the accumulation order
/// per element is identical no matter how patches are produced or
/// batched. [`PatchLayout::sew`] is itself implemented on top of this
/// type.
pub struct SewAccumulator<'a> {
    layout: &'a PatchLayout,
    sum: TrafficMap,
    count: Vec<u32>,
    /// Index of the next expected patch position.
    next: usize,
    /// First row not yet handed out by [`SewAccumulator::emit_band`].
    emitted: usize,
}

/// A horizontal slice of a sewn city map: rows `y0 .. y0 + rows` over
/// all `t` time steps, already averaged. Bands are what streaming
/// generation hands to a consumer as soon as every patch touching
/// those rows has been folded — concatenating a run's bands row-wise
/// reproduces [`SewAccumulator::finish`]'s map bit-for-bit, because
/// each element undergoes the same single multiply by the same
/// `1 / count` no matter when it is emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficBand {
    /// First city row this band covers.
    pub y0: usize,
    /// Number of rows in the band.
    pub rows: usize,
    /// Time steps (same for every band of a run).
    pub t: usize,
    /// City width in pixels.
    pub w: usize,
    /// Averaged traffic in `[t, rows, w]` order.
    pub data: Vec<f32>,
}

impl TrafficBand {
    /// Copies the band into its place in a full `[t, h, w]` map.
    ///
    /// # Panics
    /// Panics if the band does not fit the map's dimensions.
    pub fn write_into(&self, map: &mut TrafficMap) {
        assert_eq!(self.t, map.len_t(), "band disagrees with map on T");
        assert_eq!(self.w, map.width(), "band disagrees with map on width");
        assert!(self.y0 + self.rows <= map.height(), "band overflows map");
        let h = map.height();
        let dst = map.data_mut();
        for ti in 0..self.t {
            let s0 = ti * self.rows * self.w;
            let d0 = (ti * h + self.y0) * self.w;
            dst[d0..d0 + self.rows * self.w]
                .copy_from_slice(&self.data[s0..s0 + self.rows * self.w]);
        }
    }
}

impl SewAccumulator<'_> {
    /// Number of patches pushed so far.
    pub fn pushed(&self) -> usize {
        self.next
    }

    /// Adds the patch for the next position (`[T, H_t, W_t]`) into the
    /// running sums. Rows are accumulated as contiguous slices: source
    /// row `(ti, dy)` of the patch adds onto the destination row
    /// starting at `(ti, py+dy, px)`.
    ///
    /// # Panics
    /// Panics if more patches arrive than the layout has positions, or
    /// on a shape mismatch.
    pub fn push(&mut self, patch: &Tensor) {
        let positions = &self.layout.positions;
        assert!(
            self.next < positions.len(),
            "more patches than layout positions ({})",
            positions.len()
        );
        let side = self.layout.spec.traffic;
        let t = self.sum.len_t();
        assert_eq!(patch.shape().ndim(), 3, "patch must be [T, H_t, W_t]");
        assert_eq!(patch.shape().dim(0), t, "patches disagree on T");
        assert_eq!(patch.shape().dim(1), side, "patch height mismatch");
        assert_eq!(patch.shape().dim(2), side, "patch width mismatch");
        let (py, px) = positions[self.next];
        self.next += 1;
        let (h, w) = (self.sum.height(), self.sum.width());
        let src = patch.data();
        let dst = self.sum.data_mut();
        for ti in 0..t {
            for dy in 0..side {
                let s = &src[(ti * side + dy) * side..(ti * side + dy) * side + side];
                let d0 = (ti * h + py + dy) * w + px;
                let d = &mut dst[d0..d0 + side];
                for (dv, sv) in d.iter_mut().zip(s) {
                    *dv += *sv;
                }
            }
        }
        for dy in 0..side {
            let c0 = (py + dy) * w + px;
            for c in &mut self.count[c0..c0 + side] {
                *c += 1;
            }
        }
    }

    /// Rows `0 .. completed_rows()` have received every contribution
    /// they will ever get: positions are row-major, so once the next
    /// expected patch starts at row `y`, no remaining patch can touch
    /// any row above `y`.
    pub fn completed_rows(&self) -> usize {
        let positions = &self.layout.positions;
        if self.next >= positions.len() {
            self.sum.height()
        } else {
            positions[self.next].0
        }
    }

    /// First row not yet emitted by [`SewAccumulator::emit_band`].
    pub fn emitted_rows(&self) -> usize {
        self.emitted
    }

    /// Finalizes (divides by cover counts) and returns the rows that
    /// completed since the last call, or `None` when no new rows are
    /// ready. This is the streaming alternative to
    /// [`SewAccumulator::finish`]: calling it after every push drains
    /// the map as bands, and the concatenated bands are bit-identical
    /// to the map `finish` would have returned — the division is the
    /// same single `sum * (1/count)` per element either way.
    ///
    /// # Panics
    /// Panics if a completed row contains a pixel no patch covered.
    pub fn emit_band(&mut self) -> Option<TrafficBand> {
        let upto = self.completed_rows();
        if upto <= self.emitted {
            return None;
        }
        let (y0, rows) = (self.emitted, upto - self.emitted);
        let t = self.sum.len_t();
        let (h, w) = (self.sum.height(), self.sum.width());
        // Finalize the cover counts once per band row.
        let mut inv = vec![0.0f32; rows * w];
        for (j, slot) in inv.iter_mut().enumerate() {
            let n = self.count[y0 * w + j];
            assert!(n > 0, "pixel {} not covered by any patch", y0 * w + j);
            *slot = 1.0 / n as f32;
        }
        let src = self.sum.data();
        let mut data = vec![0.0f32; t * rows * w];
        for ti in 0..t {
            let s0 = (ti * h + y0) * w;
            let d0 = ti * rows * w;
            for j in 0..rows * w {
                data[d0 + j] = src[s0 + j] * inv[j];
            }
        }
        self.emitted = upto;
        Some(TrafficBand {
            y0,
            rows,
            t,
            w,
            data,
        })
    }

    /// Divides the sums by the per-pixel cover counts and returns the
    /// sewn map.
    ///
    /// # Panics
    /// Panics if any position's patch was never pushed, any pixel is
    /// uncovered, or rows were already drained via
    /// [`SewAccumulator::emit_band`] (the two finalization styles do
    /// not mix).
    pub fn finish(mut self) -> TrafficMap {
        assert_eq!(
            self.emitted, 0,
            "finish() after emit_band(): drain the remaining bands instead"
        );
        assert_eq!(
            self.next,
            self.layout.positions.len(),
            "expected {} patches, got {}",
            self.layout.positions.len(),
            self.next
        );
        let t = self.sum.len_t();
        let (h, w) = (self.sum.height(), self.sum.width());
        let data = self.sum.data_mut();
        for (i, &n) in self.count.iter().enumerate() {
            assert!(n > 0, "pixel {i} not covered by any patch");
            let inv = 1.0 / n as f32;
            for ti in 0..t {
                data[ti * h * w + i] *= inv;
            }
        }
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PatchSpec {
        PatchSpec::new(4, 8, 2)
    }

    #[test]
    fn spec_validates_geometry() {
        assert_eq!(spec().margin(), 2);
    }

    #[test]
    #[should_panic(expected = "margin must be symmetric")]
    fn spec_rejects_odd_margin() {
        PatchSpec::new(4, 7, 2);
    }

    #[test]
    fn positions_cover_every_pixel() {
        let layout = PatchLayout::new(GridSpec::new(10, 11), spec());
        let mut covered = [false; 110];
        for &(y, x) in layout.positions() {
            for dy in 0..4 {
                for dx in 0..4 {
                    covered[(y + dy) * 11 + (x + dx)] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "some pixels uncovered");
        // Last positions must be flush with the far edges.
        assert!(layout.positions().iter().any(|&(y, _)| y == 6));
        assert!(layout.positions().iter().any(|&(_, x)| x == 7));
    }

    #[test]
    fn context_extraction_pads_with_zeros_at_borders() {
        let mut ctx = ContextMap::zeros(1, 6, 6);
        for y in 0..6 {
            for x in 0..6 {
                *ctx.at_mut(0, y, x) = 1.0;
            }
        }
        let layout = PatchLayout::new(GridSpec::new(6, 6), spec());
        // Patch at (0,0): context window starts at (-2,-2) → the first
        // two rows/cols of the window are padding.
        let c = layout.extract_context(&ctx, (0, 0));
        assert_eq!(c.shape().dims(), &[1, 8, 8]);
        assert_eq!(c.at(&[0, 0, 0]), 0.0);
        assert_eq!(c.at(&[0, 1, 5]), 0.0);
        assert_eq!(c.at(&[0, 2, 2]), 1.0);
        assert_eq!(c.at(&[0, 7, 7]), 1.0); // (5,5) inside the city
    }

    #[test]
    fn traffic_extraction_matches_map() {
        let data: Vec<f32> = (0..2 * 6 * 6).map(|i| i as f32).collect();
        let map = TrafficMap::from_vec(data, 2, 6, 6);
        let layout = PatchLayout::new(GridSpec::new(6, 6), spec());
        let p = layout.extract_traffic(&map, (1, 2), 0, 2);
        assert_eq!(p.shape().dims(), &[2, 4, 4]);
        assert_eq!(p.at(&[0, 0, 0]), map.at(0, 1, 2));
        assert_eq!(p.at(&[1, 3, 3]), map.at(1, 4, 5));
    }

    #[test]
    fn sew_of_extracted_patches_reconstructs_the_map() {
        // Round-trip property: extracting overlapping patches from a map
        // and sewing them back must reproduce the map exactly, because
        // every generated value for a pixel equals the original value.
        let data: Vec<f32> = (0..3 * 9 * 10).map(|i| (i % 17) as f32).collect();
        let map = TrafficMap::from_vec(data, 3, 9, 10);
        let layout = PatchLayout::new(map.grid(), spec());
        let patches: Vec<Tensor> = layout
            .positions()
            .to_vec()
            .into_iter()
            .map(|pos| layout.extract_traffic(&map, pos, 0, 3))
            .collect();
        let sewn = layout.sew(&patches);
        for (a, b) in sewn.data().iter().zip(map.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn streaming_sew_is_bitwise_equal_to_batch() {
        let layout = PatchLayout::new(GridSpec::new(9, 10), spec());
        let patches: Vec<Tensor> = (0..layout.positions().len())
            .map(|i| {
                let data: Vec<f32> = (0..3 * 4 * 4)
                    .map(|j| ((i * 31 + j * 7) % 101) as f32 * 0.137)
                    .collect();
                Tensor::from_vec(data, [3, 4, 4])
            })
            .collect();
        let batch = layout.sew(&patches);
        let mut acc = layout.sew_accumulator(3);
        for p in &patches {
            acc.push(p);
        }
        let streamed = acc.finish();
        assert_eq!(
            batch.data(),
            streamed.data(),
            "streaming sew must be bit-identical to batch"
        );
    }

    #[test]
    fn band_emission_is_bitwise_equal_to_finish() {
        let layout = PatchLayout::new(GridSpec::new(9, 10), spec());
        let patches: Vec<Tensor> = (0..layout.positions().len())
            .map(|i| {
                let data: Vec<f32> = (0..3 * 4 * 4)
                    .map(|j| ((i * 13 + j * 5) % 97) as f32 * 0.219 - 3.0)
                    .collect();
                Tensor::from_vec(data, [3, 4, 4])
            })
            .collect();
        let reference = layout.sew(&patches);

        // Drain bands after every push; rebuild the map from them.
        let mut acc = layout.sew_accumulator(3);
        let mut rebuilt = TrafficMap::zeros(3, 9, 10);
        let mut bands = 0usize;
        let mut rows_seen = 0usize;
        for p in &patches {
            acc.push(p);
            while let Some(band) = acc.emit_band() {
                assert_eq!(band.y0, rows_seen, "bands must arrive in row order");
                rows_seen += band.rows;
                bands += 1;
                band.write_into(&mut rebuilt);
            }
        }
        assert_eq!(rows_seen, 9, "bands must cover every row");
        assert!(bands > 1, "a strided layout must emit multiple bands");
        assert_eq!(acc.emitted_rows(), 9);
        assert!(acc.emit_band().is_none(), "drained accumulator is empty");
        assert_eq!(
            rebuilt.data(),
            reference.data(),
            "band emission must be bit-identical to finish()"
        );
    }

    #[test]
    fn bands_only_cover_rows_no_pending_patch_can_touch() {
        let layout = PatchLayout::new(GridSpec::new(9, 10), spec());
        let mut acc = layout.sew_accumulator(1);
        // Nothing pushed: no band can be complete.
        assert_eq!(acc.completed_rows(), 0);
        assert!(acc.emit_band().is_none());
        // Push the first row of patches (positions with y = 0).
        let first_row = layout.positions().iter().filter(|p| p.0 == 0).count();
        for _ in 0..first_row {
            acc.push(&Tensor::full([1, 4, 4], 1.0));
        }
        // The next patch row starts at y = 2, so exactly rows 0..2 are
        // final.
        let band = acc.emit_band().expect("first band ready");
        assert_eq!((band.y0, band.rows), (0, 2));
    }

    #[test]
    #[should_panic(expected = "finish() after emit_band()")]
    fn finish_rejects_partially_drained_accumulator() {
        let layout = PatchLayout::new(GridSpec::new(4, 4), PatchSpec::new(4, 4, 4));
        let mut acc = layout.sew_accumulator(1);
        acc.push(&Tensor::zeros([1, 4, 4]));
        let _ = acc.emit_band();
        let _ = acc.finish();
    }

    #[test]
    #[should_panic(expected = "more patches than layout positions")]
    fn accumulator_rejects_extra_patches() {
        let layout = PatchLayout::new(GridSpec::new(4, 4), PatchSpec::new(4, 4, 4));
        let mut acc = layout.sew_accumulator(1);
        acc.push(&Tensor::zeros([1, 4, 4]));
        acc.push(&Tensor::zeros([1, 4, 4]));
    }

    #[test]
    #[should_panic(expected = "expected 1 patches, got 0")]
    fn accumulator_finish_requires_all_positions() {
        let layout = PatchLayout::new(GridSpec::new(4, 4), PatchSpec::new(4, 4, 4));
        layout.sew_accumulator(2).finish();
    }

    #[test]
    fn sew_averages_disagreeing_patches() {
        // Two fully-overlapping patches with constant values 0 and 2
        // must average to 1.
        let layout = PatchLayout::new(GridSpec::new(4, 4), PatchSpec::new(4, 4, 4));
        assert_eq!(layout.positions().len(), 1);
        // Fake a second patch at the same position by duplicating the
        // layout position list through a custom layout.
        let mut layout2 = layout.clone();
        layout2.positions.push((0, 0));
        let p0 = Tensor::zeros([1, 4, 4]);
        let p2 = Tensor::full([1, 4, 4], 2.0);
        let sewn = layout2.sew(&[p0, p2]);
        assert!(sewn.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }
}
