//! Reference tensor numerics for the CMSwitch reproduction.
//!
//! This crate plays the role PyTorch plays in the paper's evaluation: a
//! trusted, straightforward implementation of the DNN operators that the
//! functional simulator (`cmswitch-sim`) is checked against. Everything is
//! deliberately simple dense math — correctness over speed.
//!
//! The crate provides:
//!
//! * [`Shape`] — a small shape type with stride logic,
//! * [`Tensor`] — a dense row-major `f32` tensor,
//! * [`ops`] — reference operators (matmul, im2col convolution, softmax,
//!   layer norm, pooling, elementwise),
//! * [`quant`] — symmetric 8-bit quantization used by the paper's evaluation
//!   ("all models are quantized with 8-bit precision"),
//! * [`im2col`] — the convolution-to-MMM unrolling described in §2.1.2 of
//!   the paper, which is how CIM arrays execute convolutions.
//!
//! # Example
//!
//! ```
//! use cmswitch_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.])?;
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.data()[0], 4.0);
//! # Ok::<(), cmswitch_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod im2col;
pub mod ops;
pub mod quant;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
