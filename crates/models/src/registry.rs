//! Name-based model lookup used by the experiment harness and examples.

use cmswitch_graph::{Graph, GraphError};

use crate::generative::{workload, GenerativeWorkload};
use crate::transformer::TransformerConfig;
use crate::{bert, llama, mobilenet, opt, resnet, vgg};

/// Names of all benchmark models (the paper's §5.1 benchmark set).
pub const ALL_MODELS: &[&str] = &[
    "bert-base",
    "bert-large",
    "llama2-7b",
    "opt-6.7b",
    "opt-13b",
    "mobilenetv2",
    "resnet18",
    "resnet50",
    "vgg16",
];

/// Returns the transformer configuration for `name`, or `None` for CNNs.
pub fn transformer_config(name: &str) -> Option<TransformerConfig> {
    match name {
        "bert-base" => Some(bert::base_config()),
        "bert-large" => Some(bert::large_config()),
        "llama2-7b" => Some(llama::llama2_7b()),
        "opt-6.7b" => Some(opt::opt_6_7b()),
        "opt-13b" => Some(opt::opt_13b()),
        _ => None,
    }
}

/// Whether the model is a decoder (generative) transformer.
pub fn is_generative(name: &str) -> bool {
    matches!(name, "llama2-7b" | "opt-6.7b" | "opt-13b")
}

/// Builds a single inference graph by model name.
///
/// For CNNs `seq` is ignored; for transformers it is the (input) sequence
/// length of one forward pass (the prefill pass for decoders).
///
/// # Errors
///
/// Returns [`GraphError::InvalidArgument`] for unknown names or invalid
/// parameters.
pub fn build(name: &str, batch: usize, seq: usize) -> Result<Graph, GraphError> {
    match name {
        "vgg16" => vgg::vgg16(batch),
        "vgg11" => vgg::vgg11(batch),
        "vgg19" => vgg::vgg19(batch),
        "resnet18" => resnet::resnet18(batch),
        "resnet34" => resnet::resnet34(batch),
        "resnet50" => resnet::resnet50(batch),
        "mobilenetv2" => mobilenet::mobilenet_v2(batch),
        _ => match transformer_config(name) {
            Some(cfg) => crate::transformer::stack(&cfg, batch, seq.max(1)),
            None => Err(GraphError::InvalidArgument(format!(
                "unknown model `{name}`; known: {ALL_MODELS:?}"
            ))),
        },
    }
}

/// Builds every registered model ([`ALL_MODELS`]) as a named graph — the
/// model-fleet input for batch compilation (`cmswitch-core`'s
/// `Session::compile_batch`). `batch`/`seq` are passed to [`build`] for each
/// model (decoders get their prefill graph).
///
/// # Errors
///
/// Propagates the first construction error (registered models only fail
/// on invalid `batch`/`seq`).
pub fn build_all(batch: usize, seq: usize) -> Result<Vec<(String, Graph)>, GraphError> {
    ALL_MODELS
        .iter()
        .map(|name| Ok((name.to_string(), build(name, batch, seq)?)))
        .collect()
}

/// Builds a generative workload (prefill + sampled decode steps) for a
/// decoder model.
///
/// # Errors
///
/// Returns [`GraphError::InvalidArgument`] for non-generative names.
pub fn build_generative(
    name: &str,
    batch: usize,
    in_len: usize,
    out_len: usize,
    n_samples: usize,
) -> Result<GenerativeWorkload, GraphError> {
    let cfg = transformer_config(name)
        .filter(|_| is_generative(name))
        .ok_or_else(|| {
            GraphError::InvalidArgument(format!("model `{name}` is not generative"))
        })?;
    workload(&cfg, batch, in_len, out_len, n_samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_registered_cnn_quickly() {
        for name in ["resnet18", "mobilenetv2", "vgg16"] {
            let g = build(name, 1, 0).unwrap();
            assert!(g.len() > 10, "{name} too small");
        }
    }

    #[test]
    fn build_all_covers_the_registry() {
        let fleet = build_all(1, 8).unwrap();
        assert_eq!(fleet.len(), ALL_MODELS.len());
        for ((name, graph), expected) in fleet.iter().zip(ALL_MODELS) {
            assert_eq!(name, expected);
            assert!(graph.len() > 5, "{name} suspiciously small");
        }
    }

    #[test]
    fn unknown_name_is_an_error() {
        assert!(build("alexnet", 1, 0).is_err());
        assert!(build_generative("bert-base", 1, 8, 8, 1).is_err());
    }

    #[test]
    fn transformer_configs_registered() {
        for name in ["bert-base", "bert-large", "llama2-7b", "opt-6.7b", "opt-13b"] {
            assert!(transformer_config(name).is_some(), "{name}");
        }
        assert!(transformer_config("vgg16").is_none());
    }

    #[test]
    fn generative_classification() {
        assert!(is_generative("opt-13b"));
        assert!(!is_generative("bert-large"));
        assert!(!is_generative("resnet18"));
    }
}
