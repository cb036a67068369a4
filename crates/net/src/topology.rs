//! Rack-structured cluster topology.
//!
//! The fabric needs only the hop class between two nodes (same node, same
//! rack, cross rack) — a two-tier leaf/spine abstraction that matches how
//! the paper reasons about locality ("schedule the first CPU function on a
//! physical server that also contains a GPU", §4.1).

use crate::node::{NodeId, NodeSpec};

/// How far apart two endpoints are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopClass {
    /// Same machine: loopback / shared memory / `cudaMemcpy` distance.
    Local,
    /// Same rack: one ToR switch.
    SameRack,
    /// Different racks: leaf–spine–leaf.
    CrossRack,
}

/// An immutable cluster layout.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
}

impl Topology {
    /// Builds a topology from explicit node specs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub(crate) fn new(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "topology needs at least one node");
        Topology { nodes }
    }

    /// A uniform cluster: `racks` racks of `per_rack` compute nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcsi_net::Topology;
    ///
    /// let t = Topology::uniform(4, 8);
    /// assert_eq!(t.len(), 32);
    /// ```
    pub fn uniform(racks: u32, per_rack: u32) -> Self {
        let mut nodes = Vec::new();
        for r in 0..racks {
            for _ in 0..per_rack {
                nodes.push(NodeSpec::compute(r));
            }
        }
        Topology::new(nodes)
    }

    /// A mixed cluster: compute racks plus one GPU rack and one TPU rack,
    /// matching the heterogeneous pools of §4.2/§4.3.
    pub fn heterogeneous(compute_racks: u32, per_rack: u32) -> Self {
        let mut nodes = Vec::new();
        for r in 0..compute_racks {
            for _ in 0..per_rack {
                nodes.push(NodeSpec::compute(r));
            }
        }
        let gpu_rack = compute_racks;
        let tpu_rack = compute_racks + 1;
        for _ in 0..per_rack {
            nodes.push(NodeSpec::gpu(gpu_rack));
        }
        for _ in 0..per_rack {
            nodes.push(NodeSpec::tpu(tpu_rack));
        }
        Topology::new(nodes)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (construction rejects empty topologies).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The spec of a node.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn spec(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0 as usize]
    }

    /// Iterates `(NodeId, &NodeSpec)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeSpec)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId(i as u32), s))
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).collect()
    }

    /// Hop class between two nodes.
    pub fn hop_class(&self, a: NodeId, b: NodeId) -> HopClass {
        if a == b {
            HopClass::Local
        } else if self.spec(a).rack == self.spec(b).rack {
            HopClass::SameRack
        } else {
            HopClass::CrossRack
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout() {
        let t = Topology::uniform(3, 4);
        assert_eq!(t.len(), 12);
        assert_eq!(t.spec(NodeId(0)).rack, 0);
        assert_eq!(t.spec(NodeId(11)).rack, 2);
    }

    #[test]
    fn hop_classes() {
        let t = Topology::uniform(2, 2);
        assert_eq!(t.hop_class(NodeId(0), NodeId(0)), HopClass::Local);
        assert_eq!(t.hop_class(NodeId(0), NodeId(1)), HopClass::SameRack);
        assert_eq!(t.hop_class(NodeId(0), NodeId(2)), HopClass::CrossRack);
    }

    #[test]
    fn heterogeneous_pools() {
        let t = Topology::heterogeneous(2, 3);
        assert_eq!(t.len(), 2 * 3 + 3 + 3);
        let with = |has: fn(&NodeSpec) -> bool| -> Vec<&NodeSpec> {
            t.iter().map(|(_, s)| s).filter(|s| has(s)).collect()
        };
        let gpus = with(|s| s.capacity.gpu > 0);
        let tpus = with(|s| s.capacity.tpu > 0);
        assert_eq!(gpus.len(), 3);
        assert_eq!(tpus.len(), 3);
        // Accelerator racks are distinct racks.
        assert_ne!(gpus[0].rack, tpus[0].rack);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_rejected() {
        let _ = Topology::new(vec![]);
    }
}
