//! Convolution pipeline (CDMA → CBUF → CSC → CMAC → CACC) functional
//! model.
//!
//! Computes the accumulator surface for one convolution descriptor.
//! INT8 accumulates exactly in `i32` (as the RTL's 34-bit accumulators
//! do) and converts to real values with the input×weight scale; FP16
//! accumulates in f32 (the RTL uses wider-than-fp16 accumulation too).
//!
//! Both paths run the shared kernel in `rvnv_nn::conv`, which keeps
//! the summation order of every output fixed — zero, then the taps in
//! `(ic, ky, kx)` order with padding skipped — so f32 results are
//! bit-exact:
//!
//! * [`compute`] — the production path: [`conv::run`], reducing
//!   [`conv::LANES`] output channels at once against weights decoded
//!   straight from DRAM bytes into the kernel's lane layout.
//! * [`compute_reference`] — [`conv::reference`], the naive
//!   tap-at-a-time oracle, kept for tests, the determinism fingerprint
//!   and the perf harness.
//!
//! The one exception to bit-exactness is NaN *inputs*, whose payload
//! propagation IEEE 754 (and the compiler) leaves underdetermined —
//! encoded model data never contains them.

use crate::config::Precision;
use crate::descriptor::ConvDesc;
use rvnv_nn::conv::{self, ConvGeom, LaneWeights};
use rvnv_nn::F16;

/// Compute the convolution accumulator as real (f32) values in NCHW
/// output order.
///
/// `feature` and `weights` are the packed DRAM buffers (NCHW / OIHW at
/// the descriptor's precision).
///
/// # Panics
///
/// Panics if the buffers are smaller than the descriptor implies.
#[must_use]
pub fn compute(desc: &ConvDesc, feature: &[u8], weights: &[u8]) -> Vec<f32> {
    convolve(desc, feature, weights, false)
}

/// [`compute`] through the naive oracle — slow, obviously correct, and
/// bit-identical by contract.
///
/// # Panics
///
/// Panics if the buffers are smaller than the descriptor implies.
#[must_use]
pub fn compute_reference(desc: &ConvDesc, feature: &[u8], weights: &[u8]) -> Vec<f32> {
    convolve(desc, feature, weights, true)
}

fn convolve(desc: &ConvDesc, feature: &[u8], weights: &[u8], reference: bool) -> Vec<f32> {
    let g = geometry(desc);
    let elem = desc.precision.bytes() as usize;
    let in_elems = g.in_c * g.in_h * g.in_w;
    assert!(feature.len() >= in_elems * elem, "feature buffer too small");
    assert!(
        weights.len() >= g.out_c * g.taps() * elem,
        "weight buffer too small"
    );
    match desc.precision {
        Precision::Int8 => {
            let f: Vec<i32> = feature[..in_elems]
                .iter()
                .map(|&b| i32::from(b as i8))
                .collect();
            let w = |i: usize| i32::from(weights[i] as i8);
            let acc_scale = desc.in_scale * desc.wt_scale;
            let finish = |acc: i32| acc as f32 * acc_scale;
            if reference {
                conv::reference(&g, &f, w, |_| 0, finish)
            } else {
                conv::run(&g, &f, &LaneWeights::pack(&g, w), |_| 0, finish)
            }
        }
        Precision::Fp16 => {
            let f: Vec<f32> = (0..in_elems).map(|i| f16_at(feature, i)).collect();
            let w = |i: usize| f16_at(weights, i);
            if reference {
                conv::reference(&g, &f, w, |_| 0.0, |acc| acc)
            } else {
                conv::run(&g, &f, &LaneWeights::pack(&g, w), |_| 0.0, |acc| acc)
            }
        }
    }
}

/// Element `i` of a little-endian f16 buffer.
fn f16_at(bytes: &[u8], i: usize) -> f32 {
    F16::from_bits(u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]])).to_f32()
}

fn geometry(desc: &ConvDesc) -> ConvGeom {
    ConvGeom {
        in_c: desc.in_c as usize,
        in_h: desc.in_h as usize,
        in_w: desc.in_w as usize,
        out_c: desc.out_c as usize,
        out_h: desc.out_h as usize,
        out_w: desc.out_w as usize,
        kh: desc.kh as usize,
        kw: desc.kw as usize,
        stride: desc.stride as usize,
        pad: desc.pad as usize,
        groups: desc.groups as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;

    #[allow(clippy::too_many_arguments)]
    fn desc(
        in_c: u32,
        in_hw: u32,
        out_c: u32,
        k: u32,
        stride: u32,
        pad: u32,
        groups: u32,
        precision: Precision,
    ) -> ConvDesc {
        let out_hw = (in_hw + 2 * pad - k) / stride + 1;
        ConvDesc {
            src: 0,
            in_w: in_hw,
            in_h: in_hw,
            in_c,
            wt_addr: 0,
            wt_bytes: out_c * (in_c / groups) * k * k * precision.bytes(),
            stride,
            pad,
            out_w: out_hw,
            out_h: out_hw,
            out_c,
            kw: k,
            kh: k,
            groups,
            in_scale: 1.0,
            wt_scale: 1.0,
            precision,
        }
    }

    #[test]
    fn int8_sum_window() {
        // 3x3 input 1..9, 2x2 kernel of ones.
        let d = desc(1, 3, 1, 2, 1, 0, 1, Precision::Int8);
        let feature: Vec<u8> = (1..=9i8).map(|v| v as u8).collect();
        let weights = vec![1u8; 4];
        let out = compute(&d, &feature, &weights);
        assert_eq!(out, vec![12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn int8_scales_applied() {
        let mut d = desc(1, 1, 1, 1, 1, 0, 1, Precision::Int8);
        d.in_scale = 0.5;
        d.wt_scale = 0.25;
        let out = compute(&d, &[4i8 as u8], &[8i8 as u8]);
        // 4*8 = 32 raw; × 0.5×0.25 = 4.0 real.
        assert_eq!(out, vec![4.0]);
    }

    #[test]
    fn padding_zeros_contribute_nothing() {
        let d = desc(1, 1, 1, 3, 1, 1, 1, Precision::Int8);
        let out = compute(&d, &[5i8 as u8], &[1u8; 9]);
        // Only the center tap sees data.
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn grouped_convolution_separates_channels() {
        // 2 channels, 2 groups, 1x1 kernels [2] and [3].
        let d = desc(2, 2, 2, 1, 1, 0, 2, Precision::Int8);
        let feature = [1u8, 1, 1, 1, 1, 1, 1, 1];
        let weights = [2u8, 3];
        let out = compute(&d, &feature, &weights);
        assert_eq!(&out[..4], &[2.0; 4]);
        assert_eq!(&out[4..], &[3.0; 4]);
    }

    #[test]
    fn negative_int8_values() {
        let d = desc(1, 1, 1, 1, 1, 0, 1, Precision::Int8);
        let out = compute(&d, &[(-5i8) as u8], &[3u8]);
        assert_eq!(out, vec![-15.0]);
    }

    #[test]
    fn fp16_matches_f32_within_tolerance() {
        let d = desc(2, 4, 3, 3, 1, 1, 1, Precision::Fp16);
        // Build f16 buffers from a known pattern.
        let fvals: Vec<f32> = (0..2 * 4 * 4).map(|i| (i as f32 * 0.125) - 1.0).collect();
        let wvals: Vec<f32> = (0..3 * 2 * 9)
            .map(|i| ((i % 7) as f32 - 3.0) * 0.0625)
            .collect();
        let fbytes = super::super::from_real(&fvals, Precision::Fp16, 1.0);
        let wbytes = super::super::from_real(&wvals, Precision::Fp16, 1.0);
        let out = compute(&d, &fbytes, &wbytes);
        // Reference: the f32 oracle on the real values (chosen
        // representable in f16).
        let expect = conv::reference(&geometry(&d), &fvals, |i| wvals[i], |_| 0.0, |a| a);
        assert_eq!(out.len(), 3 * 4 * 4);
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn stride_subsamples() {
        let d = desc(1, 4, 1, 2, 2, 0, 1, Precision::Int8);
        let feature: Vec<u8> = (0..16i8).map(|v| v as u8).collect();
        let weights = [1u8, 0, 0, 0]; // picks top-left of each window
        let out = compute(&d, &feature, &weights);
        assert_eq!(out, vec![0.0, 2.0, 8.0, 10.0]);
    }

    /// Pseudo-random byte pattern over the shared SplitMix64 core.
    fn pattern(len: usize, seed: u32) -> Vec<u8> {
        let mut rng = rvnv_util::SplitMix64::new(u64::from(seed));
        (0..len).map(|_| (rng.next_u64() >> 16) as u8).collect()
    }

    /// Replace f16 NaN encodings with max-normal values. A NaN *input*
    /// is the one case where IEEE leaves the result underdetermined
    /// (which operand's payload survives `NaN*NaN` is implementation-
    /// defined, and the compiler may commute `fmul`), and encoded
    /// model data never contains NaNs — `from_real` rounds finite
    /// reals. Everything else, including infinities and the canonical
    /// NaNs born from `inf*0`/`inf-inf`, is deterministic.
    fn strip_f16_nans(bytes: &mut [u8]) {
        for p in bytes.chunks_exact_mut(2) {
            let v = u16::from_le_bytes([p[0], p[1]]);
            if v & 0x7C00 == 0x7C00 && v & 0x03FF != 0 {
                let clean = (v & 0x8000) | 0x7BFF; // ±max normal
                p.copy_from_slice(&clean.to_le_bytes());
            }
        }
    }

    /// The lane kernel must match the naive reference *bit for bit* —
    /// including fp16, where the summation order is the contract —
    /// across shapes that cover padding, stride, grouping and windows
    /// fully clipped off every edge.
    #[test]
    fn kernel_matches_reference_bit_exact() {
        let shapes = [
            desc(1, 3, 1, 2, 1, 0, 1, Precision::Int8),
            desc(3, 8, 4, 3, 1, 1, 1, Precision::Int8),
            desc(4, 7, 6, 5, 2, 2, 2, Precision::Int8),
            desc(1, 1, 1, 3, 1, 1, 1, Precision::Int8), // pad > data
            desc(2, 5, 2, 5, 1, 4, 1, Precision::Int8), // windows clip all edges
            desc(8, 4, 8, 1, 1, 0, 8, Precision::Int8), // depthwise
            desc(3, 8, 4, 3, 1, 1, 1, Precision::Fp16),
            desc(4, 6, 6, 5, 2, 2, 2, Precision::Fp16),
            desc(2, 5, 2, 5, 1, 4, 1, Precision::Fp16),
        ];
        for (i, mut d) in shapes.into_iter().enumerate() {
            d.in_scale = 0.031;
            d.wt_scale = 0.27;
            let elem = d.precision.bytes() as usize;
            let mut feature = pattern(
                (d.in_c * d.in_h * d.in_w) as usize * elem,
                0xC0FE + i as u32,
            );
            let mut weights = pattern(d.wt_bytes as usize, 0xBEEF + i as u32);
            if d.precision == Precision::Fp16 {
                strip_f16_nans(&mut feature);
                strip_f16_nans(&mut weights);
            }
            let fast = compute(&d, &feature, &weights);
            let slow = compute_reference(&d, &feature, &weights);
            assert_eq!(fast.len(), slow.len(), "shape {i}");
            for (j, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "shape {i} output {j}: {a} vs {b}");
            }
        }
    }
}
