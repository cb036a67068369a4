//! Cluster-wide resource accounting.
//!
//! The scheduler's view of the machine: per-node allocated vs. installed
//! resources, with utilization snapshots for the efficiency experiments
//! (§4.2). Allocation is performed by the runtime when instances start
//! and released when they are reaped.

use std::cell::RefCell;
use std::rc::Rc;

use pcsi_net::node::Resources;
use pcsi_net::{NodeId, Topology};

/// Shared mutable cluster allocation state.
#[derive(Clone)]
pub struct ClusterState {
    inner: Rc<RefCell<Inner>>,
}

struct Inner {
    capacity: Vec<Resources>,
    allocated: Vec<Resources>,
    racks: Vec<u32>,
}

impl ClusterState {
    /// Initializes from a topology (zero allocation everywhere).
    pub fn new(topology: &Topology) -> Self {
        let capacity: Vec<Resources> = topology.iter().map(|(_, s)| s.capacity).collect();
        let racks: Vec<u32> = topology.iter().map(|(_, s)| s.rack).collect();
        let allocated = vec![Resources::default(); capacity.len()];
        ClusterState {
            inner: Rc::new(RefCell::new(Inner {
                capacity,
                allocated,
                racks,
            })),
        }
    }

    /// Number of nodes tracked.
    pub(crate) fn len(&self) -> usize {
        self.inner.borrow().capacity.len()
    }

    /// Currently allocated resources on a node.
    pub fn allocated(&self, node: NodeId) -> Resources {
        self.inner.borrow().allocated[node.0 as usize]
    }

    /// Free resources on a node.
    pub(crate) fn free(&self, node: NodeId) -> Resources {
        let inner = self.inner.borrow();
        let mut f = inner.capacity[node.0 as usize];
        let a = inner.allocated[node.0 as usize];
        // Free = capacity - allocated, dimension-wise.
        f.take(&a);
        f
    }

    /// The rack a node lives in.
    pub(crate) fn rack(&self, node: NodeId) -> u32 {
        self.inner.borrow().racks[node.0 as usize]
    }

    /// True if `demand` currently fits on `node`.
    pub(crate) fn fits(&self, node: NodeId, demand: &Resources) -> bool {
        self.free(node).fits(demand)
    }

    /// Reserves `demand` on `node`; `false` (and no change) if it does
    /// not fit.
    pub(crate) fn try_allocate(&self, node: NodeId, demand: &Resources) -> bool {
        let mut inner = self.inner.borrow_mut();
        let idx = node.0 as usize;
        let mut free = inner.capacity[idx];
        free.take(&inner.allocated[idx]);
        if !free.fits(demand) {
            return false;
        }
        inner.allocated[idx].give(demand);
        true
    }

    /// Releases `demand` on `node`.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than allocated (double-free bug).
    pub(crate) fn release(&self, node: NodeId, demand: &Resources) {
        let mut inner = self.inner.borrow_mut();
        inner.allocated[node.0 as usize].take(demand);
    }

    /// Utilization of one node in `[0, 1]` (max across dimensions).
    pub(crate) fn node_utilization(&self, node: NodeId) -> f64 {
        let inner = self.inner.borrow();
        inner.allocated[node.0 as usize].utilization_of(&inner.capacity[node.0 as usize])
    }

    /// Mean CPU-dimension utilization across the cluster (the headline
    /// efficiency number of §4.2).
    pub fn mean_cpu_utilization(&self) -> f64 {
        let inner = self.inner.borrow();
        let mut used = 0u64;
        let mut cap = 0u64;
        for (a, c) in inner.allocated.iter().zip(&inner.capacity) {
            used += u64::from(a.cpu);
            cap += u64::from(c.cpu);
        }
        if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        }
    }

    /// Nodes sorted by id (helper for policies).
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.len() as u32).map(NodeId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterState {
        ClusterState::new(&Topology::uniform(2, 2))
    }

    #[test]
    fn allocate_release_roundtrip() {
        let c = cluster();
        let d = Resources::cpu(8, 32);
        assert!(c.try_allocate(NodeId(0), &d));
        assert_eq!(c.allocated(NodeId(0)), d);
        assert_eq!(c.free(NodeId(0)), Resources::cpu(24, 96));
        c.release(NodeId(0), &d);
        assert!(c.allocated(NodeId(0)).is_zero());
    }

    #[test]
    fn overcommit_rejected_atomically() {
        let c = cluster();
        let big = Resources::cpu(30, 10);
        assert!(c.try_allocate(NodeId(1), &big));
        assert!(!c.try_allocate(NodeId(1), &Resources::cpu(4, 1)));
        // Failed attempt must not leak partial allocation.
        assert_eq!(c.allocated(NodeId(1)), big);
    }

    #[test]
    #[should_panic(expected = "over-allocation")]
    fn double_release_panics() {
        let c = cluster();
        c.release(NodeId(0), &Resources::cpu(1, 0));
    }

    #[test]
    fn utilization_accounting() {
        let c = cluster();
        assert_eq!(c.mean_cpu_utilization(), 0.0);
        c.try_allocate(NodeId(0), &Resources::cpu(32, 0));
        // One of four nodes fully busy on CPU: 25%.
        assert!((c.mean_cpu_utilization() - 0.25).abs() < 1e-12);
        assert!((c.node_utilization(NodeId(0)) - 1.0).abs() < 1e-12);
        assert_eq!(c.node_utilization(NodeId(1)), 0.0);
    }

    #[test]
    fn clones_share_state() {
        let c = cluster();
        let c2 = c.clone();
        c.try_allocate(NodeId(2), &Resources::cpu(1, 1));
        assert_eq!(c2.allocated(NodeId(2)), Resources::cpu(1, 1));
    }
}
