//! DNN computation-graph IR for the CMSwitch reproduction.
//!
//! The paper's front-end converts networks to ONNX and lowers them to a
//! computation-graph expression (§4.1). This crate is that front-end
//! substitute: a typed, shape-inferred operator graph with
//!
//! * [`Graph`] / [`GraphBuilder`] — construction and validation,
//! * [`shape_infer`] — per-operator shape inference,
//! * [`analysis`] — FLOPs, data volumes and arithmetic intensity
//!   (the quantity driving Figs. 1, 5 and 6 of the paper),
//! * [`lower`] — lowering to the CIM-supportable operator list (MVM/MMM
//!   with im2col conv unrolling, §2.1.2) consumed by the compiler.
//!
//! # Example
//!
//! ```
//! use cmswitch_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new("tiny-mlp");
//! let x = b.input("x", vec![1, 64]);
//! let h = b.linear("fc1", x, 128)?;
//! let h = b.relu("act", h)?;
//! let _y = b.linear("fc2", h, 10)?;
//! let g = b.finish()?;
//! assert_eq!(g.nodes().len(), 4);
//! assert_eq!(g.topo_order().len(), 4);
//! # Ok::<(), cmswitch_graph::GraphError>(())
//! ```

#![warn(missing_docs)]

mod builder;
mod error;
mod graph;
mod node;
mod op;

pub mod analysis;
pub mod lower;
pub mod shape_infer;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use node::{Node, NodeId};
pub use op::{Activation, OpKind};
