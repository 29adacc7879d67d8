//! Symmetric INT8 quantization with max-abs calibration.
//!
//! `nv_small` "supports only INT8 precision", and the paper names the
//! missing INT8 calibration tables as the main limitation of its model
//! coverage. This module implements the standard NVDLA-style scheme:
//! per-tensor symmetric scales derived from a calibration run of the
//! golden executor, i.e. the calibration-table generation the paper
//! defers to future work.

use crate::exec::Executor;
use crate::graph::{GraphError, Network};
use crate::tensor::{Tensor, WeightTensor};

/// A symmetric per-tensor quantization scale: `real = scale * int8`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantScale {
    /// Real value represented by int8 value 1.
    pub scale: f32,
}

impl QuantScale {
    /// Scale chosen so that `max_abs` maps to ±127.
    #[must_use]
    pub fn from_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        QuantScale { scale }
    }

    /// Quantize one value (round-to-nearest, saturating).
    #[must_use]
    pub fn quantize(&self, v: f32) -> i8 {
        let q = (v / self.scale).round();
        q.clamp(-127.0, 127.0) as i8
    }

    /// Dequantize one value.
    #[must_use]
    pub fn dequantize(&self, q: i8) -> f32 {
        f32::from(q) * self.scale
    }
}

/// An INT8 tensor with its scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Quantized elements (same layout as the source tensor).
    pub data: Vec<i8>,
    /// The scale.
    pub scale: QuantScale,
}

impl QuantTensor {
    /// Quantize an activation tensor with the given scale.
    #[must_use]
    pub fn from_tensor(t: &Tensor, scale: QuantScale) -> Self {
        QuantTensor {
            data: t.data().iter().map(|&v| scale.quantize(v)).collect(),
            scale,
        }
    }

    /// Quantize a weight tensor with its own max-abs scale.
    #[must_use]
    pub fn from_weights(w: &WeightTensor) -> Self {
        let scale = QuantScale::from_max_abs(w.max_abs());
        QuantTensor {
            data: w.data().iter().map(|&v| scale.quantize(v)).collect(),
            scale,
        }
    }

    /// Dequantize back to f32 values.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        self.data
            .iter()
            .map(|&q| self.scale.dequantize(q))
            .collect()
    }
}

/// Per-node activation scales — the NVDLA compiler's "calibration table".
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationTable {
    scales: Vec<QuantScale>,
}

impl CalibrationTable {
    /// Build a table by running `calib_inputs` through the golden
    /// executor and recording each node's max-abs activation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the network's shapes are inconsistent
    /// or an input does not match the network.
    pub fn calibrate(net: &Network, calib_inputs: &[Tensor]) -> Result<Self, GraphError> {
        let exec = Executor::try_new(net)?;
        let mut max_abs = vec![0.0f32; net.nodes().len()];
        for input in calib_inputs {
            let acts = exec.run_all(input)?;
            for (m, t) in max_abs.iter_mut().zip(&acts) {
                *m = m.max(t.max_abs());
            }
        }
        Ok(CalibrationTable {
            scales: max_abs.into_iter().map(QuantScale::from_max_abs).collect(),
        })
    }

    /// Scale of node `idx` (topological index).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn scale(&self, idx: usize) -> QuantScale {
        self.scales[idx]
    }

    /// Number of entries (== node count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// True when the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// Serialize to the on-disk calibration-table format the NVDLA
    /// compiler consumes: one `index scale` pair per line. Generating
    /// these tables is the paper's first named piece of future work.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from("# NVDLA INT8 calibration table (node-index scale)\n");
        for (i, s) in self.scales.iter().enumerate() {
            out.push_str(&format!("{i} {:e}\n", s.scale));
        }
        out
    }

    /// Parse the textual calibration-table format.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut scales = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let idx: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("line {}: bad index", n + 1))?;
            let scale: f32 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("line {}: bad scale", n + 1))?;
            if idx != scales.len() {
                return Err(format!("line {}: indices must be dense", n + 1));
            }
            if !(scale.is_finite() && scale > 0.0) {
                return Err(format!("line {}: scale must be positive", n + 1));
            }
            scales.push(QuantScale { scale });
        }
        Ok(CalibrationTable { scales })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Network, Op};
    use crate::tensor::Shape;

    #[test]
    fn scale_maps_extremes_to_127() {
        let s = QuantScale::from_max_abs(6.35);
        assert_eq!(s.quantize(6.35), 127);
        assert_eq!(s.quantize(-6.35), -127);
        assert_eq!(s.quantize(0.0), 0);
    }

    #[test]
    fn quantize_saturates_beyond_calibrated_range() {
        let s = QuantScale::from_max_abs(1.0);
        assert_eq!(s.quantize(50.0), 127);
        assert_eq!(s.quantize(-50.0), -127);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let s = QuantScale::from_max_abs(10.0);
        for i in -100..=100 {
            let v = i as f32 * 0.1;
            let r = s.dequantize(s.quantize(v));
            assert!((r - v).abs() <= s.scale / 2.0 + 1e-6, "{v} -> {r}");
        }
    }

    #[test]
    fn zero_tensor_has_unit_scale() {
        let s = QuantScale::from_max_abs(0.0);
        assert_eq!(s.scale, 1.0);
    }

    #[test]
    fn weight_quantization_uses_own_scale() {
        let w = crate::tensor::WeightTensor::from_vec(1, 1, 1, 2, vec![0.5, -0.25]);
        let q = QuantTensor::from_weights(&w);
        assert_eq!(q.data[0], 127);
        assert_eq!(q.data[1], -64);
    }

    #[test]
    fn calibration_covers_every_node() {
        let mut net = Network::new("t", Shape::new(1, 4, 4));
        let r = net.add("r", Op::Relu, &[net.input()]).unwrap();
        net.add("s", Op::Softmax, &[r]).unwrap();
        let inputs = [
            Tensor::random(Shape::new(1, 4, 4), 1),
            Tensor::random(Shape::new(1, 4, 4), 2),
        ];
        let table = CalibrationTable::calibrate(&net, &inputs).unwrap();
        assert_eq!(table.len(), 3);
        // ReLU output scale is ≤ input scale (negatives clipped).
        assert!(table.scale(1).scale <= table.scale(0).scale + 1e-9);
    }

    #[test]
    fn calibration_table_text_round_trips() {
        let mut net = Network::new("t", Shape::new(1, 4, 4));
        net.add("r", Op::Relu, &[net.input()]).unwrap();
        let inputs = [Tensor::random(Shape::new(1, 4, 4), 1)];
        let table = CalibrationTable::calibrate(&net, &inputs).unwrap();
        let text = table.to_text();
        let back = CalibrationTable::from_text(&text).unwrap();
        assert_eq!(back.len(), table.len());
        for i in 0..table.len() {
            assert!((back.scale(i).scale - table.scale(i).scale).abs() < 1e-9);
        }
    }

    #[test]
    fn calibration_table_rejects_corrupt_text() {
        assert!(CalibrationTable::from_text("0 nope").is_err());
        assert!(
            CalibrationTable::from_text("1 0.5").is_err(),
            "sparse index"
        );
        assert!(CalibrationTable::from_text("0 -1.0").is_err(), "negative");
        assert!(CalibrationTable::from_text("# only comments\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn calibration_takes_max_over_inputs() {
        let mut net = Network::new("t", Shape::new(1, 1, 1));
        net.add("r", Op::Relu, &[net.input()]).unwrap();
        let a = Tensor::from_vec(Shape::new(1, 1, 1), vec![0.5]);
        let b = Tensor::from_vec(Shape::new(1, 1, 1), vec![2.0]);
        let t = CalibrationTable::calibrate(&net, &[a, b]).unwrap();
        assert!((t.scale(0).scale - 2.0 / 127.0).abs() < 1e-6);
    }

    #[test]
    fn calibration_rejects_inconsistent_network() {
        // The conv expects 2 x 2 = 4 input channels; the input has 3.
        let mut net = Network::new("t", Shape::new(3, 4, 4));
        let conv = crate::graph::ConvParams {
            weights: crate::tensor::WeightTensor::random(4, 2, 3, 3, 1),
            bias: vec![0.0; 4],
            stride: 1,
            pad: 1,
            groups: 2,
        };
        net.add("c", Op::Conv2d(conv), &[net.input()]).unwrap();
        let inputs = [Tensor::random(Shape::new(3, 4, 4), 1)];
        let e = CalibrationTable::calibrate(&net, &inputs).unwrap_err();
        assert!(e.to_string().contains("input channels"), "{e}");
    }
}
