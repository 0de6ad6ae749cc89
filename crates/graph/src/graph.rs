use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::hash::Hasher;

use crate::{GraphError, Node, NodeId};

/// An immutable, validated DNN computation graph.
///
/// Constructed through [`crate::GraphBuilder`]; by construction every
/// node's inputs precede it, shapes are inferred, and the graph is acyclic.
/// Deserialized graphs are re-validated with [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
}

impl Graph {
    pub(crate) fn from_parts(name: String, nodes: Vec<Node>) -> Self {
        Graph { name, nodes }
    }

    /// Builds a graph directly from nodes **without validation** —
    /// intended for deserializers and tests; call [`Graph::validate`]
    /// before using the result.
    pub fn from_nodes(name: impl Into<String>, nodes: Vec<Node>) -> Self {
        Graph {
            name: name.into(),
            nodes,
        }
    }

    /// The graph's name (model name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexed by `NodeId` value.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for out-of-range ids.
    pub fn node(&self, id: NodeId) -> Result<&Node, GraphError> {
        self.nodes.get(id.index()).ok_or(GraphError::UnknownNode(id))
    }

    /// Consumers of each node: `consumers[i]` lists nodes that read node
    /// `i`'s output.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut cons = vec![Vec::new(); self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                cons[input.index()].push(node.id);
            }
        }
        cons
    }

    /// A topological order of the nodes (Kahn's algorithm).
    ///
    /// Builder-produced graphs are already in insertion order, but this is
    /// recomputed so deserialized or manually-permuted graphs order
    /// correctly.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut indegree = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            indegree[node.id.index()] = node.inputs.len();
        }
        let consumers = self.consumers();
        let mut queue: VecDeque<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.inputs.is_empty())
            .map(|n| n.id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &c in &consumers[id.index()] {
                indegree[c.index()] -= 1;
                if indegree[c.index()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        order
    }

    /// Validates structural invariants: ids are dense, inputs exist with
    /// correct arity, and the graph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id.index() != i {
                return Err(GraphError::UnknownNode(node.id));
            }
            if node.inputs.len() != node.op.arity() {
                return Err(GraphError::ArityMismatch {
                    op: node.op.mnemonic().to_string(),
                    expected: node.op.arity(),
                    actual: node.inputs.len(),
                });
            }
            for &input in &node.inputs {
                if input.index() >= self.nodes.len() {
                    return Err(GraphError::UnknownNode(input));
                }
            }
        }
        if self.topo_order().len() != self.nodes.len() {
            return Err(GraphError::Cyclic);
        }
        Ok(())
    }

    /// The graph's output nodes (nodes nothing consumes).
    pub fn outputs(&self) -> Vec<NodeId> {
        let consumers = self.consumers();
        self.nodes
            .iter()
            .filter(|n| consumers[n.id.index()].is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// The graph's input nodes.
    pub fn inputs(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Feeds every field of the graph to `state`: its name, then per
    /// node its id, name, operator with all parameters, inputs and
    /// shape. Strings and lists are length-prefixed, so no two graphs
    /// feed the same sequence. The walk destructures [`Graph`], [`Node`]
    /// and [`crate::OpKind`] exhaustively: a new field or variant does not
    /// compile until it is hashed here — which is what keeps a content
    /// address (the artifact store's key) from serving one graph's plan
    /// for another.
    pub fn hash_fields<H: Hasher>(&self, state: &mut H) {
        let Graph { name, nodes } = self;
        hash_str(state, name);
        state.write_u64(nodes.len() as u64);
        for node in nodes {
            let Node {
                id,
                name,
                op,
                inputs,
                shape,
            } = node;
            state.write_u64(id.0 as u64);
            hash_str(state, name);
            op.hash_fields(state);
            hash_dims(state, inputs.iter().map(|i| i.0));
            hash_dims(state, shape.iter().copied());
        }
    }
}

/// A string as its byte length, then its bytes.
fn hash_str<H: Hasher>(state: &mut H, s: &str) {
    state.write_u64(s.len() as u64);
    state.write(s.as_bytes());
}

/// A list of sizes as its length, then each size widened to `u64`.
pub(crate) fn hash_dims<H: Hasher>(state: &mut H, dims: impl ExactSizeIterator<Item = usize>) {
    state.write_u64(dims.len() as u64);
    for d in dims {
        state.write_u64(d as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, OpKind};

    fn diamond() -> Graph {
        // x -> a -> (b, c) -> d(add)
        let mut b = GraphBuilder::new("diamond");
        let x = b.input("x", vec![1, 8]);
        let a = b.linear("a", x, 8).unwrap();
        let l = b.linear("b", a, 8).unwrap();
        let r = b.linear("c", a, 8).unwrap();
        let _d = b.add("d", l, r).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = diamond();
        let order = g.topo_order();
        assert_eq!(order.len(), g.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for node in g.nodes() {
            for input in &node.inputs {
                assert!(pos[input.index()] < pos[node.id.index()]);
            }
        }
    }

    #[test]
    fn inputs_and_outputs() {
        let g = diamond();
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.outputs()[0], NodeId(4));
    }

    #[test]
    fn consumers_are_tracked() {
        let g = diamond();
        let cons = g.consumers();
        // Node a (id 1) feeds b and c.
        assert_eq!(cons[1].len(), 2);
        // Output node feeds nothing.
        assert!(cons[4].is_empty());
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut g = diamond();
        // Manually create a cycle: make node 1 depend on node 4.
        g.nodes[1].inputs = vec![NodeId(4)];
        assert_eq!(g.validate(), Err(GraphError::Cyclic));
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut g = diamond();
        g.nodes[4].inputs.pop();
        assert!(matches!(
            g.validate(),
            Err(GraphError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn node_lookup() {
        let g = diamond();
        assert!(g.node(NodeId(0)).is_ok());
        assert!(matches!(
            g.node(NodeId(99)),
            Err(GraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn empty_graph_invalid() {
        let g = Graph::from_parts("empty".into(), Vec::new());
        assert_eq!(g.validate(), Err(GraphError::Empty));
        assert!(g.is_empty());
    }

    #[test]
    fn serde_roundtrip_shape() {
        // Ensure Graph's serde derives stay wired up (used by IR dumps).
        let g = diamond();
        let cloned = g.clone();
        assert_eq!(g, cloned);
        assert!(matches!(g.nodes()[4].op, OpKind::Add));
    }
}
