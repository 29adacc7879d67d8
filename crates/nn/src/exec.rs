//! Reference (golden) f32 executor.
//!
//! Executes a [`Network`] layer by layer in plain f32 arithmetic. The
//! NVDLA model's INT8/FP16 results are verified against this executor in
//! the integration tests, exactly as the paper validates its SoC output
//! against the NVDLA virtual platform.

use crate::conv;
use crate::graph::{GraphError, Network, NodeId, Op, PoolKind};
use crate::tensor::{Shape, Tensor};

/// Executes a network and retains every intermediate activation.
#[derive(Debug)]
pub struct Executor<'a> {
    net: &'a Network,
    shapes: Vec<Shape>,
}

impl<'a> Executor<'a> {
    /// Prepare an executor (infers shapes once).
    ///
    /// # Panics
    ///
    /// Panics if the network's shapes are inconsistent; use
    /// [`Executor::try_new`] for a `Result`.
    #[must_use]
    pub fn new(net: &'a Network) -> Self {
        Self::try_new(net).expect("network shapes must be consistent")
    }

    /// Prepare an executor, rejecting inconsistent networks.
    ///
    /// # Errors
    ///
    /// Returns the [`GraphError`] of [`Network::infer_shapes`].
    pub fn try_new(net: &'a Network) -> Result<Self, GraphError> {
        let shapes = net.infer_shapes()?;
        Ok(Executor { net, shapes })
    }

    /// Inferred output shape of each node.
    #[must_use]
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Run inference, returning the final output.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the input shape does not match the
    /// network.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, GraphError> {
        Ok(self.run_all(input)?.pop().expect("network has nodes"))
    }

    /// Run inference, returning every node's activation (used for
    /// calibration and layer-by-layer verification).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the input shape does not match.
    pub fn run_all(&self, input: &Tensor) -> Result<Vec<Tensor>, GraphError> {
        if input.shape() != self.net.input_shape() {
            return Err(GraphError {
                node: "data".into(),
                message: format!(
                    "input shape {} does not match network input {}",
                    input.shape(),
                    self.net.input_shape()
                ),
            });
        }
        let mut acts: Vec<Tensor> = Vec::with_capacity(self.net.nodes().len());
        for (idx, node) in self.net.nodes().iter().enumerate() {
            let out_shape = self.shapes[idx];
            let get = |k: usize| -> &Tensor { &acts[node.inputs[k].index()] };
            let out = match &node.op {
                Op::Input => input.clone(),
                Op::Conv2d(p) => conv::golden(get(0), p, out_shape),
                Op::FullyConnected {
                    weights,
                    out,
                    input: in_dim,
                    bias,
                } => fully_connected(get(0), weights, *out, *in_dim, bias),
                Op::Pool {
                    kind,
                    k,
                    stride,
                    pad,
                } => pool(get(0), *kind, *k, *stride, *pad, out_shape),
                Op::GlobalAvgPool => global_avg_pool(get(0)),
                Op::Relu => relu(get(0)),
                Op::BatchNorm { scale, shift } => batch_norm(get(0), scale, shift),
                Op::EltwiseAdd => eltwise_add(get(0), get(1)),
                Op::Concat => concat(&node.inputs, &acts, out_shape),
                Op::Lrn {
                    local_size,
                    alpha,
                    beta,
                    k,
                } => lrn(get(0), *local_size, *alpha, *beta, *k),
                Op::Softmax => softmax(get(0)),
            };
            debug_assert_eq!(out.shape(), out_shape, "node {} shape", node.name);
            acts.push(out);
        }
        Ok(acts)
    }

    /// Run and return the activation of one specific node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the input shape does not match.
    pub fn run_to(&self, input: &Tensor, node: NodeId) -> Result<Tensor, GraphError> {
        let mut all = self.run_all(input)?;
        Ok(all.swap_remove(node.index()))
    }
}

fn fully_connected(x: &Tensor, weights: &[f32], out: usize, in_dim: usize, bias: &[f32]) -> Tensor {
    let mut y = Tensor::zeros(Shape::new(out, 1, 1));
    let xv = x.data();
    for o in 0..out {
        let row = &weights[o * in_dim..(o + 1) * in_dim];
        let mut acc = bias[o];
        for (w, v) in row.iter().zip(xv) {
            acc += w * v;
        }
        y.data_mut()[o] = acc;
    }
    y
}

fn pool(x: &Tensor, kind: PoolKind, k: usize, stride: usize, pad: usize, out: Shape) -> Tensor {
    let mut y = Tensor::zeros(out);
    let s = x.shape();
    for c in 0..out.c {
        for oy in 0..out.h {
            for ox in 0..out.w {
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= s.h {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix as usize >= s.w {
                            continue;
                        }
                        let v = x.at(c, iy as usize, ix as usize);
                        best = best.max(v);
                        sum += v;
                    }
                }
                let v = match kind {
                    PoolKind::Max => best,
                    // Caffe averages over the full window including padding.
                    PoolKind::Avg => sum / (k * k) as f32,
                };
                y.set(c, oy, ox, v);
            }
        }
    }
    y
}

fn global_avg_pool(x: &Tensor) -> Tensor {
    let s = x.shape();
    let mut y = Tensor::zeros(Shape::new(s.c, 1, 1));
    let denom = (s.h * s.w) as f32;
    for c in 0..s.c {
        let mut sum = 0.0;
        for h in 0..s.h {
            for w in 0..s.w {
                sum += x.at(c, h, w);
            }
        }
        y.data_mut()[c] = sum / denom;
    }
    y
}

fn relu(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    for v in y.data_mut() {
        *v = v.max(0.0);
    }
    y
}

fn batch_norm(x: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    let s = x.shape();
    let mut y = x.clone();
    for c in 0..s.c {
        let (a, b) = (scale[c], shift[c]);
        let plane = &mut y.data_mut()[c * s.h * s.w..(c + 1) * s.h * s.w];
        for v in plane {
            *v = *v * a + b;
        }
    }
    y
}

fn eltwise_add(a: &Tensor, b: &Tensor) -> Tensor {
    let mut y = a.clone();
    for (v, w) in y.data_mut().iter_mut().zip(b.data()) {
        *v += w;
    }
    y
}

fn concat(inputs: &[NodeId], acts: &[Tensor], out: Shape) -> Tensor {
    let mut y = Tensor::zeros(out);
    let mut c0 = 0usize;
    for id in inputs {
        let t = &acts[id.index()];
        let s = t.shape();
        let plane = s.h * s.w;
        y.data_mut()[c0 * plane..(c0 + s.c) * plane].copy_from_slice(t.data());
        c0 += s.c;
    }
    y
}

fn lrn(x: &Tensor, local_size: usize, alpha: f32, beta: f32, k: f32) -> Tensor {
    let s = x.shape();
    let mut y = Tensor::zeros(s);
    let half = local_size / 2;
    for c in 0..s.c {
        let lo = c.saturating_sub(half);
        let hi = (c + half).min(s.c - 1);
        for h in 0..s.h {
            for w in 0..s.w {
                let mut sum_sq = 0.0;
                for cc in lo..=hi {
                    let v = x.at(cc, h, w);
                    sum_sq += v * v;
                }
                let denom = (k + alpha * sum_sq / local_size as f32).powf(beta);
                y.set(c, h, w, x.at(c, h, w) / denom);
            }
        }
    }
    y
}

fn softmax(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    let max = y.data().iter().fold(f32::NEG_INFINITY, |m, v| m.max(*v));
    let mut sum = 0.0;
    for v in y.data_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in y.data_mut() {
        *v /= sum;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConvParams, Network};
    use crate::tensor::WeightTensor;

    fn identity_conv(c: usize) -> Op {
        // 1x1 conv with identity weights.
        let mut data = vec![0.0f32; c * c];
        for o in 0..c {
            data[o * c + o] = 1.0;
        }
        Op::Conv2d(ConvParams {
            weights: WeightTensor::from_vec(c, c, 1, 1, data),
            bias: vec![0.0; c],
            stride: 1,
            pad: 0,
            groups: 1,
        })
    }

    fn weight_from(o: usize, i: usize, kh: usize, kw: usize, data: Vec<f32>) -> WeightTensor {
        WeightTensor::from_vec(o, i, kh, kw, data)
    }

    #[test]
    fn identity_conv_preserves_input() {
        let mut net = Network::new("t", Shape::new(3, 4, 4));
        net.add("c", identity_conv(3), &[net.input()]).unwrap();
        let x = Tensor::random(Shape::new(3, 4, 4), 5);
        let y = Executor::new(&net).run(&x).unwrap();
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn conv_known_answer() {
        // 1 input channel 3x3, one 2x2 kernel of ones, stride 1, no pad:
        // each output = sum of 2x2 window.
        let mut net = Network::new("t", Shape::new(1, 3, 3));
        let w = weight_from(1, 1, 2, 2, vec![1.0; 4]);
        net.add(
            "c",
            Op::Conv2d(ConvParams {
                weights: w,
                bias: vec![0.5],
                stride: 1,
                pad: 0,
                groups: 1,
            }),
            &[net.input()],
        )
        .unwrap();
        let x = Tensor::from_vec(
            Shape::new(1, 3, 3),
            vec![1., 2., 3., 4., 5., 6., 7., 8., 9.],
        );
        let y = Executor::new(&net).run(&x).unwrap();
        assert_eq!(y.shape(), Shape::new(1, 2, 2));
        assert_eq!(y.data(), &[12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn depthwise_conv_groups() {
        // groups == channels: each channel convolved independently.
        let mut net = Network::new("t", Shape::new(2, 2, 2));
        let w = weight_from(2, 1, 1, 1, vec![2.0, 3.0]);
        net.add(
            "dw",
            Op::Conv2d(ConvParams {
                weights: w,
                bias: vec![0.0, 0.0],
                stride: 1,
                pad: 0,
                groups: 2,
            }),
            &[net.input()],
        )
        .unwrap();
        let x = Tensor::from_vec(Shape::new(2, 2, 2), vec![1., 1., 1., 1., 1., 1., 1., 1.]);
        let y = Executor::new(&net).run(&x).unwrap();
        assert_eq!(&y.data()[..4], &[2., 2., 2., 2.]);
        assert_eq!(&y.data()[4..], &[3., 3., 3., 3.]);
    }

    #[test]
    fn max_and_avg_pool() {
        let mut net = Network::new("t", Shape::new(1, 2, 2));
        net.add(
            "p",
            Op::Pool {
                kind: PoolKind::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
            &[net.input()],
        )
        .unwrap();
        let x = Tensor::from_vec(Shape::new(1, 2, 2), vec![1., 5., 3., 2.]);
        let y = Executor::new(&net).run(&x).unwrap();
        assert_eq!(y.data(), &[5.0]);

        let mut net2 = Network::new("t", Shape::new(1, 2, 2));
        net2.add(
            "p",
            Op::Pool {
                kind: PoolKind::Avg,
                k: 2,
                stride: 2,
                pad: 0,
            },
            &[net2.input()],
        )
        .unwrap();
        let y = Executor::new(&net2).run(&x).unwrap();
        assert_eq!(y.data(), &[2.75]);
    }

    #[test]
    fn relu_and_batchnorm() {
        let mut net = Network::new("t", Shape::new(2, 1, 1));
        let bn = net
            .add(
                "bn",
                Op::BatchNorm {
                    scale: vec![2.0, -1.0],
                    shift: vec![0.0, 1.0],
                },
                &[net.input()],
            )
            .unwrap();
        net.add("r", Op::Relu, &[bn]).unwrap();
        let x = Tensor::from_vec(Shape::new(2, 1, 1), vec![3.0, 4.0]);
        let y = Executor::new(&net).run(&x).unwrap();
        assert_eq!(y.data(), &[6.0, 0.0]); // -4+1=-3 -> relu 0
    }

    #[test]
    fn residual_add_matches_manual_sum() {
        let mut net = Network::new("t", Shape::new(1, 2, 2));
        let r = net.add("r", Op::Relu, &[net.input()]).unwrap();
        net.add("sum", Op::EltwiseAdd, &[r, net.input()]).unwrap();
        let x = Tensor::from_vec(Shape::new(1, 2, 2), vec![-1., 2., -3., 4.]);
        let y = Executor::new(&net).run(&x).unwrap();
        assert_eq!(y.data(), &[-1., 4., -3., 8.]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut net = Network::new("t", Shape::new(4, 1, 1));
        net.add("s", Op::Softmax, &[net.input()]).unwrap();
        let x = Tensor::from_vec(Shape::new(4, 1, 1), vec![1., 2., 3., 4.]);
        let y = Executor::new(&net).run(&x).unwrap();
        let sum: f32 = y.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert_eq!(y.argmax(), 3);
    }

    #[test]
    fn lrn_reduces_magnitude() {
        let mut net = Network::new("t", Shape::new(5, 1, 1));
        net.add(
            "lrn",
            Op::Lrn {
                local_size: 5,
                alpha: 1.0,
                beta: 0.75,
                k: 1.0,
            },
            &[net.input()],
        )
        .unwrap();
        let x = Tensor::from_vec(Shape::new(5, 1, 1), vec![1.0; 5]);
        let y = Executor::new(&net).run(&x).unwrap();
        for v in y.data() {
            assert!(*v < 1.0 && *v > 0.0);
        }
    }

    #[test]
    fn wrong_input_shape_is_error() {
        let mut net = Network::new("t", Shape::new(1, 4, 4));
        net.add("r", Op::Relu, &[net.input()]).unwrap();
        let e = Executor::new(&net)
            .run(&Tensor::zeros(Shape::new(1, 5, 5)))
            .unwrap_err();
        assert!(e.to_string().contains("does not match"));
    }
}
