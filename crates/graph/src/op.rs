use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;

use crate::graph::hash_dims;

/// Nonlinear activation functions executed on the chip's vector function
/// unit (not on CIM arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit (CNNs).
    Relu,
    /// Gaussian error linear unit (BERT, OPT).
    Gelu,
    /// Sigmoid-weighted linear unit (LLaMA).
    Silu,
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activation::Relu => write!(f, "relu"),
            Activation::Gelu => write!(f, "gelu"),
            Activation::Silu => write!(f, "silu"),
        }
    }
}

/// The operator vocabulary of the IR.
///
/// The set covers everything the paper's six benchmark networks need:
/// convolutions and pooling for the CNNs; linear projections, batched
/// dynamic matmuls, softmax and normalization for the transformers;
/// embeddings and elementwise glue for both.
///
/// The `weight`-carrying operators ([`OpKind::Linear`], [`OpKind::Conv2d`])
/// have *static* weights that compute-mode CIM arrays can hold;
/// [`OpKind::BatchMatMul`] multiplies two *runtime-produced* tensors (the
/// attention `Q·Kᵀ` and `S·V` products), which is exactly the case where
/// the paper stores one operand in memory-mode arrays and switches them to
/// compute mode in place (§5.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Graph input with an explicit shape.
    Input {
        /// Shape of the input tensor.
        shape: Vec<usize>,
    },
    /// Fully-connected projection `y[..., out] = x[..., in] · W[in, out]`.
    Linear {
        /// Output feature dimension.
        out_features: usize,
    },
    /// 2-D convolution over NCHW input with square kernels.
    Conv2d {
        /// Number of output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride (same in both spatial dims).
        stride: usize,
        /// Zero padding (same on all sides).
        padding: usize,
        /// Channel groups (`1` = dense, `in_channels` = depthwise).
        groups: usize,
    },
    /// Batched matrix multiply of two dynamic tensors
    /// `[B, M, K] × [B, K, N] → [B, M, N]` (`transpose_rhs` multiplies by
    /// the rhs transposed, i.e. rhs is `[B, N, K]`).
    BatchMatMul {
        /// Whether the right operand is transposed (`Q·Kᵀ`).
        transpose_rhs: bool,
    },
    /// Softmax along the last axis.
    Softmax,
    /// Layer normalization along the last axis.
    LayerNorm,
    /// Elementwise addition (residual connections).
    Add,
    /// Elementwise multiplication (gated FFNs).
    Mul,
    /// Activation function.
    Act(Activation),
    /// 2-D max pooling.
    MaxPool2d {
        /// Square pooling window.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// 2-D average pooling.
    AvgPool2d {
        /// Square pooling window.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling `[N, C, H, W] → [N, C]`.
    GlobalAvgPool,
    /// Token-embedding lookup `[B, S] → [B, S, dim]` (memory-bound).
    Embedding {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding dimension.
        dim: usize,
    },
    /// Flattens all trailing dims into one: `[N, ...] → [N, prod]`.
    Flatten,
    /// Reshapes to an explicit shape with identical element count.
    Reshape {
        /// Target shape.
        shape: Vec<usize>,
    },
}

impl OpKind {
    /// Feeds the variant (a tag in declaration order) and every one of
    /// its parameters to `state`; part of [`crate::Graph::hash_fields`],
    /// and exhaustive for the same reason.
    pub fn hash_fields<H: Hasher>(&self, state: &mut H) {
        let mut tag = |t: u64| state.write_u64(t);
        match self {
            OpKind::Input { shape } => {
                tag(0);
                hash_dims(state, shape.iter().copied());
            }
            OpKind::Linear { out_features } => {
                tag(1);
                state.write_u64(*out_features as u64);
            }
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
            } => {
                tag(2);
                for p in [out_channels, kernel, stride, padding, groups] {
                    state.write_u64(*p as u64);
                }
            }
            OpKind::BatchMatMul { transpose_rhs } => {
                tag(3);
                state.write_u64(u64::from(*transpose_rhs));
            }
            OpKind::Softmax => tag(4),
            OpKind::LayerNorm => tag(5),
            OpKind::Add => tag(6),
            OpKind::Mul => tag(7),
            OpKind::Act(act) => {
                tag(8);
                state.write_u64(match act {
                    Activation::Relu => 0,
                    Activation::Gelu => 1,
                    Activation::Silu => 2,
                });
            }
            OpKind::MaxPool2d { kernel, stride } => {
                tag(9);
                state.write_u64(*kernel as u64);
                state.write_u64(*stride as u64);
            }
            OpKind::AvgPool2d { kernel, stride } => {
                tag(10);
                state.write_u64(*kernel as u64);
                state.write_u64(*stride as u64);
            }
            OpKind::GlobalAvgPool => tag(11),
            OpKind::Embedding { vocab, dim } => {
                tag(12);
                state.write_u64(*vocab as u64);
                state.write_u64(*dim as u64);
            }
            OpKind::Flatten => tag(13),
            OpKind::Reshape { shape } => {
                tag(14);
                hash_dims(state, shape.iter().copied());
            }
        }
    }

    /// Number of inputs the operator requires.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Input { .. } => 0,
            OpKind::Add | OpKind::Mul | OpKind::BatchMatMul { .. } => 2,
            _ => 1,
        }
    }

    /// Short mnemonic used in printouts and DOT output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Input { .. } => "input",
            OpKind::Linear { .. } => "linear",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::BatchMatMul { .. } => "matmul",
            OpKind::Softmax => "softmax",
            OpKind::LayerNorm => "layernorm",
            OpKind::Add => "add",
            OpKind::Mul => "mul",
            OpKind::Act(Activation::Relu) => "relu",
            OpKind::Act(Activation::Gelu) => "gelu",
            OpKind::Act(Activation::Silu) => "silu",
            OpKind::MaxPool2d { .. } => "maxpool",
            OpKind::AvgPool2d { .. } => "avgpool",
            OpKind::GlobalAvgPool => "gap",
            OpKind::Embedding { .. } => "embed",
            OpKind::Flatten => "flatten",
            OpKind::Reshape { .. } => "reshape",
        }
    }

    /// Whether the operator is CIM-supportable, i.e. reducible to MVM/MMM
    /// executed inside compute-mode arrays (§4.3.1: "CIM-supportable
    /// operators (e.g., MVM and MMM)").
    pub fn is_cim_supported(&self) -> bool {
        matches!(
            self,
            OpKind::Linear { .. } | OpKind::Conv2d { .. } | OpKind::BatchMatMul { .. }
        )
    }

    /// Whether the operator carries static, pre-trainable weights that can
    /// be written into compute-mode arrays ahead of execution.
    pub fn has_static_weights(&self) -> bool {
        matches!(
            self,
            OpKind::Linear { .. } | OpKind::Conv2d { .. } | OpKind::Embedding { .. }
        )
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Linear { out_features } => write!(f, "linear({out_features})"),
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
            } => write!(
                f,
                "conv2d({out_channels}, k{kernel}, s{stride}, p{padding}, g{groups})"
            ),
            OpKind::BatchMatMul { transpose_rhs } => {
                write!(f, "matmul({})", if *transpose_rhs { "A·Bᵀ" } else { "A·B" })
            }
            other => write!(f, "{}", other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_per_kind() {
        assert_eq!(OpKind::Input { shape: vec![1] }.arity(), 0);
        assert_eq!(OpKind::Add.arity(), 2);
        assert_eq!(
            OpKind::BatchMatMul {
                transpose_rhs: true
            }
            .arity(),
            2
        );
        assert_eq!(OpKind::Softmax.arity(), 1);
        assert_eq!(OpKind::Linear { out_features: 8 }.arity(), 1);
    }

    #[test]
    fn cim_supported_set() {
        assert!(OpKind::Linear { out_features: 4 }.is_cim_supported());
        assert!(OpKind::Conv2d {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1
        }
        .is_cim_supported());
        assert!(OpKind::BatchMatMul {
            transpose_rhs: false
        }
        .is_cim_supported());
        assert!(!OpKind::Softmax.is_cim_supported());
        assert!(!OpKind::Add.is_cim_supported());
        assert!(!OpKind::Embedding { vocab: 10, dim: 4 }.is_cim_supported());
    }

    #[test]
    fn static_weights_set() {
        assert!(OpKind::Linear { out_features: 4 }.has_static_weights());
        assert!(!OpKind::BatchMatMul {
            transpose_rhs: false
        }
        .has_static_weights());
    }

    #[test]
    fn display_is_informative() {
        let s = OpKind::Conv2d {
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        }
        .to_string();
        assert!(s.contains("64") && s.contains("k3"));
    }
}
