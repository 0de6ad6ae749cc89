//! Benchmark network zoo for the CMSwitch reproduction.
//!
//! Builds the paper's evaluation networks (§5.1) as `cmswitch-graph`
//! graphs with parametric batch size and sequence length:
//!
//! * CNNs on 224×224 ImageNet-shaped inputs: [`vgg::vgg16`],
//!   [`resnet::resnet18`], [`resnet::resnet50`], [`mobilenet::mobilenet_v2`],
//! * encoder transformer: [`bert::bert`] (base/large),
//! * decoder transformers: [`llama::llama2_7b`], [`opt::opt_6_7b`],
//!   [`opt::opt_13b`], each with a *prefill* graph and per-step *decode*
//!   graphs with a growing KV cache ([`generative::GenerativeWorkload`]),
//! * [`registry`] — name-based lookup used by the experiment harness.
//!
//! Layer names follow the structured convention the analysis crate's
//! [`cmswitch_graph::analysis::OpClass`] classifier expects (`*.q_proj`,
//! `*.attn.*`, `*.ffn.*`).
//!
//! # Example
//!
//! ```
//! use cmswitch_models::registry;
//!
//! let g = registry::build("resnet18", 1, 0).unwrap();
//! assert!(g.len() > 20);
//! ```

#![warn(missing_docs)]

pub mod bert;
pub mod generative;
pub mod llama;
pub mod mlp;
pub mod mobilenet;
pub mod opt;
pub mod registry;
pub mod resnet;
pub mod transformer;
pub mod vgg;
