//! Nodes and their physical resources.
//!
//! PCSI functions are "narrow and resource homogeneous" (§3.1) so that
//! heterogeneous hardware — CPUs, GPUs, TPU-style accelerators — can be
//! pooled and specialized. The node model carries exactly the resource
//! vector the scheduler bin-packs against.

use std::fmt;

/// Index of a node within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A resource vector: capacities or demands per resource class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// CPU cores.
    pub cpu: u32,
    /// GPU devices.
    pub gpu: u32,
    /// TPU devices.
    pub tpu: u32,
    /// Memory in GiB.
    pub mem_gib: u32,
}

impl Resources {
    /// A CPU-and-memory-only vector.
    pub fn cpu(cores: u32, mem_gib: u32) -> Self {
        Resources {
            cpu: cores,
            mem_gib,
            ..Default::default()
        }
    }

    /// True if `demand` fits inside `self`.
    pub fn fits(&self, demand: &Resources) -> bool {
        self.cpu >= demand.cpu
            && self.gpu >= demand.gpu
            && self.tpu >= demand.tpu
            && self.mem_gib >= demand.mem_gib
    }

    /// Subtracts a demand.
    ///
    /// # Panics
    ///
    /// Panics if the demand does not fit (callers check with
    /// [`Resources::fits`] first; over-allocation is a scheduler bug).
    pub fn take(&mut self, demand: &Resources) {
        assert!(
            self.fits(demand),
            "resource over-allocation: {self:?} - {demand:?}"
        );
        self.cpu -= demand.cpu;
        self.gpu -= demand.gpu;
        self.tpu -= demand.tpu;
        self.mem_gib -= demand.mem_gib;
    }

    /// Returns a demand.
    pub fn give(&mut self, demand: &Resources) {
        self.cpu += demand.cpu;
        self.gpu += demand.gpu;
        self.tpu += demand.tpu;
        self.mem_gib += demand.mem_gib;
    }

    /// Fraction of `capacity` currently used by `self` (the max across
    /// dimensions present in the capacity), for utilization metrics.
    pub fn utilization_of(&self, capacity: &Resources) -> f64 {
        let mut max = 0.0f64;
        for (used, cap) in [
            (self.cpu, capacity.cpu),
            (self.gpu, capacity.gpu),
            (self.tpu, capacity.tpu),
            (self.mem_gib, capacity.mem_gib),
        ] {
            if cap > 0 {
                max = max.max(f64::from(used) / f64::from(cap));
            }
        }
        max
    }

    /// True if every dimension is zero.
    pub fn is_zero(&self) -> bool {
        *self == Resources::default()
    }
}

/// Static description of one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Which rack the node lives in.
    pub rack: u32,
    /// Installed resource capacities.
    pub capacity: Resources,
}

impl NodeSpec {
    /// A standard compute node: 32 cores, 128 GiB.
    pub(crate) fn compute(rack: u32) -> Self {
        NodeSpec {
            rack,
            capacity: Resources::cpu(32, 128),
        }
    }

    /// A GPU node: 16 cores, 4 GPUs, 256 GiB.
    pub(crate) fn gpu(rack: u32) -> Self {
        NodeSpec {
            rack,
            capacity: Resources {
                cpu: 16,
                gpu: 4,
                tpu: 0,
                mem_gib: 256,
            },
        }
    }

    /// A TPU-pod node: 8 cores, 4 TPUs, 128 GiB (§4.3's specialized
    /// hardware platform).
    pub(crate) fn tpu(rack: u32) -> Self {
        NodeSpec {
            rack,
            capacity: Resources {
                cpu: 8,
                gpu: 0,
                tpu: 4,
                mem_gib: 128,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_take_give_roundtrip() {
        let mut cap = Resources::cpu(8, 32);
        let d = Resources::cpu(3, 10);
        assert!(cap.fits(&d));
        cap.take(&d);
        assert_eq!(cap, Resources::cpu(5, 22));
        cap.give(&d);
        assert_eq!(cap, Resources::cpu(8, 32));
    }

    #[test]
    #[should_panic(expected = "over-allocation")]
    fn take_rejects_overcommit() {
        let mut cap = Resources::cpu(1, 1);
        cap.take(&Resources::cpu(2, 0));
    }

    #[test]
    fn gpu_demand_does_not_fit_cpu_node() {
        let node = NodeSpec::compute(0);
        let gpu_demand = Resources {
            gpu: 1,
            ..Default::default()
        };
        assert!(!node.capacity.fits(&gpu_demand));
        assert!(NodeSpec::gpu(0).capacity.fits(&gpu_demand));
    }

    #[test]
    fn utilization_is_max_across_dims() {
        let cap = Resources {
            cpu: 10,
            gpu: 2,
            tpu: 0,
            mem_gib: 100,
        };
        let used = Resources {
            cpu: 5,
            gpu: 2,
            tpu: 0,
            mem_gib: 10,
        };
        assert!((used.utilization_of(&cap) - 1.0).abs() < 1e-12);
        let light = Resources::cpu(1, 1);
        assert!((light.utilization_of(&cap) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_detection() {
        assert!(Resources::default().is_zero());
        assert!(!Resources::cpu(1, 0).is_zero());
    }
}
