//! The one convolution kernel, shared by the golden executor and the
//! NVDLA engine model.
//!
//! # Order contract
//!
//! Every output `(oc, oy, ox)` is one strictly sequential chain
//!
//! ```text
//! acc = init(oc); for (ic, ky, kx) in order: acc = acc + f * w
//! ```
//!
//! with padding taps *skipped*, not added as zeros (adding `0.0` would
//! turn a `-0.0` partial sum into `+0.0`). f32 addition is not
//! associative, so this sequence is what makes the result bit-exact.
//! The golden executor starts from `bias[oc]`; the engine starts from
//! zero and applies its INT8 scale in `finish`.
//!
//! # Speed without reordering
//!
//! [`run`] gathers each `(group, oy, ox)` window's valid taps once and
//! reduces [`LANES`] output channels against it together. Each lane
//! keeps its own chain in the order above, so the independent lanes
//! hide the add latency without changing a single sum. Runs of four
//! unclipped windows (row-major over the output plane) are reduced
//! together, each weight load serving all four. Weights are packed
//! once per call into the lane layout `[group][block][tap][lane]`
//! ([`LaneWeights`]), straight from their source.
//!
//! [`reference`] is the naive tap-at-a-time loop, kept as the single
//! bit-exactness oracle for the kernel.

use std::ops::{Add, Mul, Range};

use crate::graph::ConvParams;
use crate::tensor::{Shape, Tensor};

/// Output channels reduced together by [`run`].
pub const LANES: usize = 8;

/// Adjacent unclipped windows of one output row reduced together by
/// [`run`], sharing each weight load.
const TILE: usize = 4;

/// Accumulator element: `f32` (golden, FP16 engine) or `i32` (INT8
/// engine, exact).
pub trait Elem: Copy + Default + Add<Output = Self> + Mul<Output = Self> {}

impl<T: Copy + Default + Add<Output = T> + Mul<Output = T>> Elem for T {}

/// Convolution geometry of one image, in elements. Feature maps are
/// CHW, weights OIHW with `in_c / groups` input channels per output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels (all groups).
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels (all groups).
    pub out_c: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both dimensions).
    pub stride: usize,
    /// Zero padding (all sides).
    pub pad: usize,
    /// Group count.
    pub groups: usize,
}

impl ConvGeom {
    /// The geometry of a golden conv node from input to output shape.
    #[must_use]
    fn of(p: &ConvParams, input: Shape, out: Shape) -> Self {
        ConvGeom {
            in_c: input.c,
            in_h: input.h,
            in_w: input.w,
            out_c: out.c,
            out_h: out.h,
            out_w: out.w,
            kh: p.weights.kh,
            kw: p.weights.kw,
            stride: p.stride,
            pad: p.pad,
            groups: p.groups,
        }
    }

    fn in_per_group(&self) -> usize {
        self.in_c / self.groups
    }

    fn out_per_group(&self) -> usize {
        self.out_c / self.groups
    }

    /// Taps of one output channel (`in_c / groups * kh * kw`).
    #[must_use]
    pub fn taps(&self) -> usize {
        self.in_per_group() * self.kh * self.kw
    }

    fn blocks(&self) -> usize {
        self.out_per_group().div_ceil(LANES)
    }

    /// Kernel offsets along one axis that land inside `0..len` for a
    /// window starting at `base` (negative in the padding).
    fn valid(base: isize, len: usize, k: usize) -> Range<usize> {
        let lo = usize::try_from(-base).unwrap_or(0).min(k);
        let hi = usize::try_from(len as isize - base).unwrap_or(0).min(k);
        lo..hi.max(lo)
    }

    /// The window of output position `i` (row-major over the plane).
    fn window(&self, i: usize) -> Window {
        let (oy, ox) = (i / self.out_w, i % self.out_w);
        let base_y = (oy * self.stride) as isize - self.pad as isize;
        let base_x = (ox * self.stride) as isize - self.pad as isize;
        Window {
            base_y,
            base_x,
            ky: Self::valid(base_y, self.in_h, self.kh),
            kx: Self::valid(base_x, self.in_w, self.kw),
        }
    }
}

/// One output position's kernel window: its input origin (padding
/// included) and the kernel rows and columns that land on data.
struct Window {
    base_y: isize,
    base_x: isize,
    ky: Range<usize>,
    kx: Range<usize>,
}

impl Window {
    /// No tap falls in the padding.
    fn full(&self, g: &ConvGeom) -> bool {
        self.ky.len() == g.kh && self.kx.len() == g.kw
    }
}

/// Weights in the lane layout `[group][block][tap][lane]`: block `b`
/// of group `g` holds output channels `g * out_per_group + b * LANES ..`,
/// tail lanes zero.
#[derive(Debug, Clone)]
pub struct LaneWeights<T> {
    data: Vec<[T; LANES]>,
}

impl<T: Elem> LaneWeights<T> {
    /// Pack from any source, given each weight by its OIHW index.
    #[must_use]
    pub fn pack(geom: &ConvGeom, weight: impl Fn(usize) -> T) -> Self {
        let (taps, opg) = (geom.taps(), geom.out_per_group());
        let mut data = Vec::with_capacity(geom.groups * geom.blocks() * taps);
        for g in 0..geom.groups {
            for oc0 in (0..opg).step_by(LANES) {
                let lanes = LANES.min(opg - oc0);
                let first = (g * opg + oc0) * taps;
                data.extend((0..taps).map(|t| lane_array(lanes, |l| weight(first + l * taps + t))));
            }
        }
        LaneWeights { data }
    }
}

/// `f(l)` in the first `lanes` lanes, zero in the tail.
fn lane_array<T: Elem>(lanes: usize, f: impl Fn(usize) -> T) -> [T; LANES] {
    std::array::from_fn(|l| if l < lanes { f(l) } else { T::default() })
}

/// `acc[j][l] = acc[j][l] + f * w[l]` for every tap `t`, window `j`
/// and lane `l`, with `f = patches[j][t]` and `w = weight(t)`: each
/// output is one chain over the taps in order.
#[inline(always)]
fn reduce<'w, T: Elem + 'w, const W: usize>(
    mut acc: [[T; LANES]; W],
    patches: [&[T]; W],
    weight: impl Fn(usize) -> &'w [T; LANES],
) -> [[T; LANES]; W] {
    let n = patches[0].len();
    let patches = patches.map(|p| &p[..n]);
    for t in 0..n {
        let w = weight(t);
        for (acc, p) in acc.iter_mut().zip(&patches) {
            let f = p[t];
            for (a, &w) in acc.iter_mut().zip(w) {
                *a = *a + f * w;
            }
        }
    }
    acc
}

/// The convolution kernel: NCHW output, `finish(acc)` per element.
///
/// # Panics
///
/// Panics if `feature` or `weights` is smaller than `geom` implies.
#[must_use]
pub fn run<T: Elem>(
    geom: &ConvGeom,
    feature: &[T],
    weights: &LaneWeights<T>,
    init: impl Fn(usize) -> T,
    finish: impl Fn(T) -> f32,
) -> Vec<f32> {
    let g = geom;
    let (taps, ipg, opg, blocks) = (g.taps(), g.in_per_group(), g.out_per_group(), g.blocks());
    let plane = g.in_h * g.in_w;
    let init: Vec<[T; LANES]> = (0..g.groups * blocks)
        .map(|gb| {
            let oc0 = (gb / blocks) * opg + (gb % blocks) * LANES;
            let lanes = LANES.min(opg - (gb % blocks) * LANES);
            lane_array(lanes, |l| init(oc0 + l))
        })
        .collect();
    let out_plane = g.out_h * g.out_w;
    let mut out = vec![0.0f32; g.out_c * out_plane];
    // The gathered taps of up to `TILE` windows, one after another.
    let mut patch: Vec<T> = Vec::with_capacity(TILE * taps);
    // Tap offsets of a single window's gathered values.
    let mut offsets: Vec<usize> = Vec::with_capacity(taps);
    for grp in 0..g.groups {
        let fgroup = &feature[grp * ipg * plane..][..ipg * plane];
        let mut i = 0;
        while i < out_plane {
            // `TILE` unclipped windows in a row (row-major over the
            // output plane) share each weight load; any other window
            // is reduced on its own.
            let tiled = i + TILE <= out_plane && (i..i + TILE).all(|j| g.window(j).full(g));
            let n = if tiled { TILE } else { 1 };
            patch.clear();
            for j in i..i + n {
                let w = g.window(j);
                if w.ky.is_empty() || w.kx.is_empty() {
                    continue;
                }
                for fplane in fgroup.chunks_exact(plane) {
                    for ky in w.ky.clone() {
                        let row = (w.base_y + ky as isize) as usize * g.in_w;
                        let col = (w.base_x + w.kx.start as isize) as usize;
                        patch.extend_from_slice(&fplane[row + col..][..w.kx.len()]);
                    }
                }
            }
            if !tiled {
                let w = g.window(i);
                offsets.clear();
                for ic in 0..ipg {
                    for ky in w.ky.clone() {
                        offsets.extend(w.kx.clone().map(|kx| (ic * g.kh + ky) * g.kw + kx));
                    }
                }
            }
            for b in 0..blocks {
                let gb = grp * blocks + b;
                let wblock = &weights.data[gb * taps..][..taps];
                let oc0 = grp * opg + b * LANES;
                let mut emit = |j: usize, acc: [T; LANES]| {
                    for (l, &a) in acc.iter().enumerate().take(opg - b * LANES) {
                        out[(oc0 + l) * out_plane + j] = finish(a);
                    }
                };
                if tiled {
                    let patches = std::array::from_fn(|j| &patch[j * taps..][..taps]);
                    let acc = reduce([init[gb]; TILE], patches, |t| &wblock[t]);
                    for (j, acc) in acc.into_iter().enumerate() {
                        emit(i + j, acc);
                    }
                } else {
                    let [acc] = reduce([init[gb]], [&patch], |t| &wblock[offsets[t]]);
                    emit(i, acc);
                }
            }
            i += n;
        }
    }
    out
}

/// The naive tap-at-a-time loop: the oracle [`run`] must match bit
/// for bit. `weight` takes an OIHW index.
///
/// # Panics
///
/// Panics if `feature` is smaller than `geom` implies.
#[must_use]
pub fn reference<T: Elem>(
    geom: &ConvGeom,
    feature: &[T],
    weight: impl Fn(usize) -> T,
    init: impl Fn(usize) -> T,
    finish: impl Fn(T) -> f32,
) -> Vec<f32> {
    let g = geom;
    let (ipg, opg) = (g.in_per_group(), g.out_per_group());
    let mut out = Vec::with_capacity(g.out_c * g.out_h * g.out_w);
    for oc in 0..g.out_c {
        let in_base = oc / opg * ipg;
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let mut acc = init(oc);
                for ic in 0..ipg {
                    for ky in 0..g.kh {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        if iy < 0 || iy as usize >= g.in_h {
                            continue;
                        }
                        for kx in 0..g.kw {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if ix < 0 || ix as usize >= g.in_w {
                                continue;
                            }
                            let f = feature
                                [((in_base + ic) * g.in_h + iy as usize) * g.in_w + ix as usize];
                            acc = acc + f * weight(((oc * ipg + ic) * g.kh + ky) * g.kw + kx);
                        }
                    }
                }
                out.push(finish(acc));
            }
        }
    }
    out
}

/// The golden executor's convolution: bias first, then the taps.
#[must_use]
pub fn golden(x: &Tensor, p: &ConvParams, out: Shape) -> Tensor {
    let geom = ConvGeom::of(p, x.shape(), out);
    let w = p.weights.data();
    let weights = LaneWeights::pack(&geom, |i| w[i]);
    let y = run(&geom, x.data(), &weights, |oc| p.bias[oc], |acc| acc);
    Tensor::from_vec(out, y)
}

/// [`golden`] through the [`reference`] oracle.
#[must_use]
pub fn golden_reference(x: &Tensor, p: &ConvParams, out: Shape) -> Tensor {
    let geom = ConvGeom::of(p, x.shape(), out);
    let w = p.weights.data();
    let y = reference(&geom, x.data(), |i| w[i], |oc| p.bias[oc], |acc| acc);
    Tensor::from_vec(out, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::WeightTensor;

    /// Geometry with a square input and kernel; output size derived.
    #[allow(clippy::too_many_arguments)]
    fn geom(
        in_c: usize,
        hw: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> ConvGeom {
        let out_hw = (hw + 2 * pad - k) / stride + 1;
        ConvGeom {
            in_c,
            in_h: hw,
            in_w: hw,
            out_c,
            out_h: out_hw,
            out_w: out_hw,
            kh: k,
            kw: k,
            stride,
            pad,
            groups,
        }
    }

    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rvnv_util::SplitMix64::new(seed);
        (0..len)
            .map(|_| (rng.next_u32() as i32 as f32) * 2.0f32.powi(-31))
            .collect()
    }

    /// `run` against `reference` bit for bit, in f32 and in i32.
    fn assert_matches_oracle(g: &ConvGeom, seed: u64) {
        let f = values(g.in_c * g.in_h * g.in_w, seed);
        let w = values(g.out_c * g.taps(), seed ^ 0xBEEF);
        let bias = values(g.out_c, seed ^ 0xB1A5);
        let fast = run(g, &f, &LaneWeights::pack(g, |i| w[i]), |oc| bias[oc], |a| a);
        let slow = reference(g, &f, |i| w[i], |oc| bias[oc], |a| a);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&slow), "f32 {g:?}");

        let q = |v: &[f32]| -> Vec<i32> { v.iter().map(|x| (x * 127.0) as i32).collect() };
        let (fi, wi) = (q(&f), q(&w));
        let fast = run(
            g,
            &fi,
            &LaneWeights::pack(g, |i| wi[i]),
            |_| 0,
            |a| a as f32,
        );
        let slow = reference(g, &fi, |i| wi[i], |_| 0, |a| a as f32);
        assert_eq!(fast, slow, "i32 {g:?}");
    }

    #[test]
    fn lane_tails_match_oracle() {
        for (i, out_per_group) in [1, 7, 8, 9, 17].into_iter().enumerate() {
            assert_matches_oracle(&geom(3, 6, out_per_group, 3, 1, 1, 1), i as u64);
            assert_matches_oracle(&geom(4, 5, 2 * out_per_group, 3, 2, 1, 2), 10 + i as u64);
        }
    }

    #[test]
    fn depthwise_matches_oracle() {
        assert_matches_oracle(&geom(8, 6, 8, 3, 1, 1, 8), 20);
        assert_matches_oracle(&geom(5, 7, 5, 3, 2, 1, 5), 21);
        // Channel multiplier 2.
        assert_matches_oracle(&geom(4, 5, 8, 3, 1, 1, 4), 22);
    }

    #[test]
    fn clipped_windows_match_oracle() {
        assert_matches_oracle(&geom(1, 1, 3, 3, 1, 1, 1), 30); // pad > data
        assert_matches_oracle(&geom(2, 3, 9, 3, 1, 3, 1), 31); // pad == k
        assert_matches_oracle(&geom(2, 5, 4, 5, 1, 4, 1), 32); // clipped off every edge
        assert_matches_oracle(&geom(3, 4, 10, 2, 3, 4, 1), 33); // windows wholly in padding
    }

    #[test]
    fn window_tiles_match_oracle() {
        assert_matches_oracle(&geom(4, 5, 9, 1, 1, 0, 1), 50); // tiles cross rows
        assert_matches_oracle(&geom(3, 9, 8, 3, 2, 1, 1), 51); // strided runs
        assert_matches_oracle(&geom(2, 3, 8, 1, 1, 0, 1), 52); // plane of 9: two tiles + one
        assert_matches_oracle(&geom(2, 2, 8, 1, 1, 0, 1), 53); // one exact tile
    }

    #[test]
    fn whole_plane_matches_oracle() {
        // A fully-connected layer lowered to a conv.
        assert_matches_oracle(&geom(16, 5, 10, 5, 1, 0, 1), 40);
        assert_matches_oracle(&geom(6, 3, 9, 3, 1, 0, 1), 41);
    }

    #[test]
    fn negative_zero_bias_survives_all_padding_windows() {
        // 1x1 input, 1x1 kernel, pad 1: eight of the nine outputs see
        // no data and must keep the -0.0 bias bit for bit.
        let p = ConvParams {
            weights: WeightTensor::from_vec(9, 1, 1, 1, vec![0.5; 9]),
            bias: vec![-0.0; 9],
            stride: 1,
            pad: 1,
            groups: 1,
        };
        let x = Tensor::from_vec(Shape::new(1, 1, 1), vec![2.0]);
        let out = Shape::new(9, 3, 3);
        let y = golden(&x, &p, out);
        assert_eq!(y, golden_reference(&x, &p, out));
        for oc in 0..9 {
            for (oy, ox) in [(0, 0), (0, 1), (1, 0), (2, 2)] {
                assert_eq!(y.at(oc, oy, ox).to_bits(), (-0.0f32).to_bits());
            }
            assert_eq!(y.at(oc, 1, 1), 1.0);
        }
    }
}
