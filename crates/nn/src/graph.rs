//! Caffe-like layer graph.
//!
//! A [`Network`] is a DAG of [`Node`]s in topological order (builders
//! append nodes only after their inputs), mirroring a Caffe prototxt:
//! convolutions, pooling, inner products, activations, batch-norm/scale,
//! element-wise sums (ResNet), concats (GoogLeNet) and LRN (AlexNet).

use crate::hash::Fnv;
use crate::tensor::{Shape, WeightTensor};
use std::fmt;

/// Identifier of a node within its [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in topological order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Convolution hyper-parameters and parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvParams {
    /// OIHW weights (`in_c` is per-group).
    pub weights: WeightTensor,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Group count (`in_c_total / weights.in_c`); depthwise when groups
    /// equals the input channel count.
    pub groups: usize,
}

/// One layer operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The network input placeholder.
    Input,
    /// 2-D convolution.
    Conv2d(ConvParams),
    /// Fully connected (Caffe `InnerProduct`): weights are `out × in`.
    FullyConnected {
        /// Row-major `out × in` weight matrix.
        weights: Vec<f32>,
        /// Output dimension.
        out: usize,
        /// Input dimension (flattened CHW).
        input: usize,
        /// Per-output bias.
        bias: Vec<f32>,
    },
    /// Max/average pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Global average pooling (one value per channel).
    GlobalAvgPool,
    /// Rectified linear unit.
    Relu,
    /// Folded batch-norm + scale: `y = x * scale[c] + shift[c]`.
    BatchNorm {
        /// Per-channel multiplier.
        scale: Vec<f32>,
        /// Per-channel offset.
        shift: Vec<f32>,
    },
    /// Element-wise sum of two inputs (ResNet shortcut).
    EltwiseAdd,
    /// Channel concatenation (GoogLeNet inception).
    Concat,
    /// Local response normalization across channels (AlexNet).
    Lrn {
        /// Window size across channels.
        local_size: usize,
        /// Alpha coefficient.
        alpha: f32,
        /// Beta exponent.
        beta: f32,
        /// Bias constant k.
        k: f32,
    },
    /// Softmax over the flattened activations.
    Softmax,
}

impl Op {
    /// Short Caffe-style type name.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Input => "Input",
            Op::Conv2d(_) => "Convolution",
            Op::FullyConnected { .. } => "InnerProduct",
            Op::Pool { .. } => "Pooling",
            Op::GlobalAvgPool => "GlobalPooling",
            Op::Relu => "ReLU",
            Op::BatchNorm { .. } => "BatchNorm",
            Op::EltwiseAdd => "Eltwise",
            Op::Concat => "Concat",
            Op::Lrn { .. } => "LRN",
            Op::Softmax => "Softmax",
        }
    }
}

/// A named node of the layer DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Layer name (unique within the network).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Input nodes (empty only for [`Op::Input`]).
    pub inputs: Vec<NodeId>,
}

/// A complete model: nodes in topological order plus the input shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    input_shape: Shape,
    nodes: Vec<Node>,
}

/// Error produced when building or shape-checking a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphError {
    /// Offending node name.
    pub node: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node `{}`: {}", self.node, self.message)
    }
}

impl std::error::Error for GraphError {}

impl Network {
    /// Create a network with an input node of the given shape.
    #[must_use]
    pub fn new(name: impl Into<String>, input_shape: Shape) -> Self {
        Network {
            name: name.into(),
            input_shape,
            nodes: vec![Node {
                name: "data".into(),
                op: Op::Input,
                inputs: Vec::new(),
            }],
        }
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shape of the input tensor.
    #[must_use]
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The input node's id.
    #[must_use]
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    /// All nodes in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (the paper's "Layers" column counts these,
    /// excluding the input placeholder).
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Look up a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The last node (the network output).
    #[must_use]
    pub fn output(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// A 64-bit fingerprint of the network's *content*: structure,
    /// parameters and every weight value. Two networks with the same
    /// display name but different weights (e.g. the same zoo model
    /// built from different seeds) get different fingerprints, which is
    /// what compile caches and resident-weight checks key on — the name
    /// alone is not an identity.
    #[must_use]
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.name);
        let s = self.input_shape;
        h.mix(s.c as u64 | (s.h as u64) << 21 | (s.w as u64) << 42);
        for node in &self.nodes {
            h.str(&node.name);
            for i in &node.inputs {
                h.mix(i.index() as u64);
            }
            h.str(node.op.kind_name());
            match &node.op {
                Op::Input
                | Op::GlobalAvgPool
                | Op::Relu
                | Op::EltwiseAdd
                | Op::Concat
                | Op::Softmax => {}
                Op::Conv2d(p) => {
                    let w = &p.weights;
                    h.mix(w.out_c as u64 | (w.in_c as u64) << 32);
                    h.mix(w.kh as u64 | (w.kw as u64) << 32);
                    h.mix(p.stride as u64 | (p.pad as u64) << 21 | (p.groups as u64) << 42);
                    h.floats(w.data());
                    h.floats(&p.bias);
                }
                Op::FullyConnected {
                    weights,
                    out,
                    input,
                    bias,
                } => {
                    h.mix(*out as u64 | (*input as u64) << 32);
                    h.floats(weights);
                    h.floats(bias);
                }
                Op::Pool {
                    kind,
                    k,
                    stride,
                    pad,
                } => {
                    h.mix(u64::from(*kind == PoolKind::Avg));
                    h.mix(*k as u64 | (*stride as u64) << 21 | (*pad as u64) << 42);
                }
                Op::BatchNorm { scale, shift } => {
                    h.floats(scale);
                    h.floats(shift);
                }
                Op::Lrn {
                    local_size,
                    alpha,
                    beta,
                    k,
                } => {
                    h.mix(*local_size as u64);
                    h.floats(&[*alpha, *beta, *k]);
                }
            }
        }
        h.finish()
    }

    /// Append a node whose inputs must already exist.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an input id is out of range (forward
    /// reference) or the name duplicates an existing node.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[NodeId],
    ) -> Result<NodeId, GraphError> {
        let name = name.into();
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(GraphError {
                node: name.clone(),
                message: "duplicate node name".into(),
            });
        }
        if let Some(bad) = inputs.iter().find(|i| i.0 >= self.nodes.len()) {
            return Err(GraphError {
                node: name.clone(),
                message: format!("input #{} does not exist yet", bad.0),
            });
        }
        let needs_input = !matches!(op, Op::Input);
        if needs_input && inputs.is_empty() {
            return Err(GraphError {
                node: name,
                message: "non-input node requires at least one input".into(),
            });
        }
        self.nodes.push(Node {
            name,
            op,
            inputs: inputs.to_vec(),
        });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Infer the output shape of every node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on inconsistent shapes (mismatched eltwise
    /// inputs, FC dimension mismatch, kernel larger than input, zero
    /// stride or groups, out channels not divisible by groups, …).
    pub fn infer_shapes(&self) -> Result<Vec<Shape>, GraphError> {
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let fail = |message: String| GraphError {
                node: node.name.clone(),
                message,
            };
            let input_shape = |k: usize| -> Shape { shapes[node.inputs[k].0] };
            let s = match &node.op {
                Op::Input => self.input_shape,
                Op::Conv2d(p) => {
                    let s = input_shape(0);
                    if p.stride == 0 || p.groups == 0 {
                        return Err(fail("conv stride and groups must be at least 1".into()));
                    }
                    if p.weights.out_c % p.groups != 0 {
                        return Err(fail(format!(
                            "conv out channels {} not divisible by {} groups",
                            p.weights.out_c, p.groups
                        )));
                    }
                    if p.weights.in_c * p.groups != s.c {
                        return Err(fail(format!(
                            "conv expects {} input channels, got {}",
                            p.weights.in_c * p.groups,
                            s.c
                        )));
                    }
                    if p.bias.len() != p.weights.out_c {
                        return Err(fail("bias length != out channels".into()));
                    }
                    let h = (s.h + 2 * p.pad).checked_sub(p.weights.kh).ok_or_else(|| {
                        fail(format!("kernel {} taller than input {}", p.weights.kh, s.h))
                    })? / p.stride
                        + 1;
                    let w = (s.w + 2 * p.pad).checked_sub(p.weights.kw).ok_or_else(|| {
                        fail(format!("kernel {} wider than input {}", p.weights.kw, s.w))
                    })? / p.stride
                        + 1;
                    Shape::new(p.weights.out_c, h, w)
                }
                Op::FullyConnected { out, input, .. } => {
                    let s = input_shape(0);
                    if s.elements() != *input {
                        return Err(fail(format!(
                            "FC expects {input} inputs, got {} ({s})",
                            s.elements()
                        )));
                    }
                    Shape::new(*out, 1, 1)
                }
                Op::Pool { k, stride, pad, .. } => {
                    let s = input_shape(0);
                    if *stride == 0 {
                        return Err(fail("pool stride must be at least 1".into()));
                    }
                    if *k > s.h + 2 * pad || *k > s.w + 2 * pad {
                        return Err(fail(format!("pool kernel {k} larger than input {s}")));
                    }
                    // Caffe uses ceil division for pooling output sizes.
                    let h = (s.h + 2 * pad - k).div_ceil(*stride) + 1;
                    let w = (s.w + 2 * pad - k).div_ceil(*stride) + 1;
                    Shape::new(s.c, h, w)
                }
                Op::GlobalAvgPool => {
                    let s = input_shape(0);
                    Shape::new(s.c, 1, 1)
                }
                Op::Relu | Op::Softmax => input_shape(0),
                Op::BatchNorm { scale, shift } => {
                    let s = input_shape(0);
                    if scale.len() != s.c || shift.len() != s.c {
                        return Err(fail("batchnorm parameter length != channels".into()));
                    }
                    s
                }
                Op::EltwiseAdd => {
                    if node.inputs.len() != 2 {
                        return Err(fail("eltwise needs exactly two inputs".into()));
                    }
                    let a = input_shape(0);
                    let b = input_shape(1);
                    if a != b {
                        return Err(fail(format!("eltwise shape mismatch {a} vs {b}")));
                    }
                    a
                }
                Op::Concat => {
                    if node.inputs.is_empty() {
                        return Err(fail("concat needs inputs".into()));
                    }
                    let first = input_shape(0);
                    let mut c = 0;
                    for (k, _) in node.inputs.iter().enumerate() {
                        let s = input_shape(k);
                        if s.h != first.h || s.w != first.w {
                            return Err(fail(format!("concat spatial mismatch {s} vs {first}")));
                        }
                        c += s.c;
                    }
                    Shape::new(c, first.h, first.w)
                }
                Op::Lrn { local_size, .. } => {
                    if local_size % 2 == 0 {
                        return Err(fail("LRN local_size must be odd".into()));
                    }
                    input_shape(0)
                }
            };
            shapes.push(s);
        }
        Ok(shapes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::WeightTensor;

    fn conv(out_c: usize, in_c: usize, k: usize, stride: usize, pad: usize) -> Op {
        Op::Conv2d(ConvParams {
            weights: WeightTensor::random(out_c, in_c, k, k, 1),
            bias: vec![0.0; out_c],
            stride,
            pad,
            groups: 1,
        })
    }

    #[test]
    fn content_fingerprint_sees_weights_not_just_names() {
        let build = |seed| {
            let mut net = Network::new("twin", Shape::new(1, 8, 8));
            let weights = WeightTensor::random(4, 1, 3, 3, seed);
            net.add(
                "c1",
                Op::Conv2d(ConvParams {
                    weights,
                    bias: vec![0.0; 4],
                    stride: 1,
                    pad: 0,
                    groups: 1,
                }),
                &[net.input()],
            )
            .unwrap();
            net
        };
        assert_eq!(
            build(1).content_fingerprint(),
            build(1).content_fingerprint(),
            "deterministic"
        );
        assert_ne!(
            build(1).content_fingerprint(),
            build(2).content_fingerprint(),
            "same name, different weights, different identity"
        );
    }

    #[test]
    fn shapes_propagate_through_a_small_cnn() {
        let mut net = Network::new("tiny", Shape::new(1, 28, 28));
        let c1 = net
            .add("conv1", conv(20, 1, 5, 1, 0), &[net.input()])
            .unwrap();
        let p1 = net
            .add(
                "pool1",
                Op::Pool {
                    kind: PoolKind::Max,
                    k: 2,
                    stride: 2,
                    pad: 0,
                },
                &[c1],
            )
            .unwrap();
        let fc = net
            .add(
                "ip1",
                Op::FullyConnected {
                    weights: vec![0.0; 10 * 20 * 12 * 12],
                    out: 10,
                    input: 20 * 12 * 12,
                    bias: vec![0.0; 10],
                },
                &[p1],
            )
            .unwrap();
        let shapes = net.infer_shapes().unwrap();
        assert_eq!(shapes[c1.index()], Shape::new(20, 24, 24));
        assert_eq!(shapes[p1.index()], Shape::new(20, 12, 12));
        assert_eq!(shapes[fc.index()], Shape::new(10, 1, 1));
        assert_eq!(net.layer_count(), 3);
    }

    #[test]
    fn stride_and_padding_shapes() {
        let mut net = Network::new("t", Shape::new(3, 224, 224));
        let c = net.add("c", conv(64, 3, 7, 2, 3), &[net.input()]).unwrap();
        let shapes = net.infer_shapes().unwrap();
        assert_eq!(shapes[c.index()], Shape::new(64, 112, 112));
    }

    #[test]
    fn caffe_ceil_mode_pooling() {
        // 112x112, pool 3/2 -> ceil((112-3)/2)+1 = 56 (Caffe semantics).
        let mut net = Network::new("t", Shape::new(64, 112, 112));
        net.add(
            "p",
            Op::Pool {
                kind: PoolKind::Max,
                k: 3,
                stride: 2,
                pad: 0,
            },
            &[net.input()],
        )
        .unwrap();
        let shapes = net.infer_shapes().unwrap();
        assert_eq!(shapes[1], Shape::new(64, 56, 56));
    }

    #[test]
    fn eltwise_mismatch_detected() {
        let mut net = Network::new("t", Shape::new(8, 8, 8));
        let a = net.add("a", conv(8, 8, 1, 1, 0), &[net.input()]).unwrap();
        let b = net.add("b", conv(16, 8, 1, 1, 0), &[net.input()]).unwrap();
        net.add("sum", Op::EltwiseAdd, &[a, b]).unwrap();
        let e = net.infer_shapes().unwrap_err();
        assert!(e.to_string().contains("mismatch"));
    }

    #[test]
    fn concat_accumulates_channels() {
        let mut net = Network::new("t", Shape::new(4, 8, 8));
        let a = net.add("a", conv(3, 4, 1, 1, 0), &[net.input()]).unwrap();
        let b = net.add("b", conv(5, 4, 1, 1, 0), &[net.input()]).unwrap();
        let cat = net.add("cat", Op::Concat, &[a, b]).unwrap();
        let shapes = net.infer_shapes().unwrap();
        assert_eq!(shapes[cat.index()], Shape::new(8, 8, 8));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = Network::new("t", Shape::new(1, 4, 4));
        net.add("x", Op::Relu, &[net.input()]).unwrap();
        assert!(net.add("x", Op::Relu, &[net.input()]).is_err());
    }

    #[test]
    fn conv_channel_mismatch_detected() {
        let mut net = Network::new("t", Shape::new(3, 8, 8));
        net.add("c", conv(8, 4, 3, 1, 1), &[net.input()]).unwrap();
        assert!(net.infer_shapes().is_err());
    }

    #[test]
    fn fc_dimension_mismatch_detected() {
        let mut net = Network::new("t", Shape::new(2, 2, 2));
        net.add(
            "fc",
            Op::FullyConnected {
                weights: vec![0.0; 10 * 9],
                out: 10,
                input: 9,
                bias: vec![0.0; 10],
            },
            &[net.input()],
        )
        .unwrap();
        assert!(net.infer_shapes().is_err());
    }

    fn grouped_conv(out_c: usize, in_c: usize, stride: usize, groups: usize) -> Op {
        Op::Conv2d(ConvParams {
            weights: WeightTensor::random(out_c, in_c, 3, 3, 1),
            bias: vec![0.0; out_c],
            stride,
            pad: 1,
            groups,
        })
    }

    fn shape_error(op: Op, input: Shape) -> String {
        let mut net = Network::new("t", input);
        net.add("bad", op, &[net.input()]).unwrap();
        net.infer_shapes().unwrap_err().to_string()
    }

    #[test]
    fn conv_zero_stride_is_an_error() {
        let e = shape_error(grouped_conv(4, 2, 0, 1), Shape::new(2, 8, 8));
        assert!(e.contains("stride"), "{e}");
    }

    #[test]
    fn conv_zero_groups_is_an_error() {
        let e = shape_error(grouped_conv(4, 2, 1, 0), Shape::new(0, 8, 8));
        assert!(e.contains("groups"), "{e}");
    }

    #[test]
    fn conv_out_channels_must_divide_into_groups() {
        let e = shape_error(grouped_conv(5, 1, 1, 2), Shape::new(2, 8, 8));
        assert!(e.contains("not divisible"), "{e}");
    }

    #[test]
    fn pool_zero_stride_is_an_error() {
        let pool = Op::Pool {
            kind: PoolKind::Max,
            k: 2,
            stride: 0,
            pad: 0,
        };
        let e = shape_error(pool, Shape::new(1, 4, 4));
        assert!(e.contains("stride"), "{e}");
    }
}
