//! Instance placement policies.
//!
//! §4.1–4.2 describe two stances the provider can take: place for *speed*
//! (co-locate pipeline stages, follow the data) or place for *efficiency*
//! ("scavenge underutilized resources from around the cluster"). Both are
//! policies over the same [`crate::ClusterState`]; experiments E4/E5
//! compare them against naive baselines.

use pcsi_net::node::Resources;
use pcsi_net::NodeId;

use crate::cluster::ClusterState;

/// How the scheduler picks a node for a new instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Lowest-id node that fits (the naive baseline).
    FirstFit,
    /// Least-utilized node that fits (classic load balancing; good p99,
    /// poor consolidation).
    LoadBalance,
    /// Most-utilized node that still fits (bin packing: consolidates load
    /// onto few nodes, harvesting stranded capacity — §4.2's scavenging).
    Scavenge,
    /// Prefer the co-location hint, then the hint's rack, then fall
    /// back to scavenging (§4.1's data-aware placement). Warm instances
    /// never get here: the runtime reserves one before it places.
    #[default]
    Locality,
}

/// A placement request.
#[derive(Debug, Clone, Default)]
pub struct PlacementRequest {
    /// Resources the instance will pin.
    pub demand: Resources,
    /// Node the caller would like to co-locate with (e.g. where the
    /// upstream stage or the input data lives).
    pub prefer_node: Option<NodeId>,
}

/// A placement decision together with its capacity class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placed {
    /// The chosen node.
    pub(crate) node: NodeId,
    /// True if the slot was scavenged from consolidated spare capacity
    /// rather than provisioned intentionally: the instance should be
    /// tagged preemptible so a provisioned placement that later finds no
    /// room can reclaim it (§4.2).
    pub(crate) scavenged: bool,
}

/// Picks a node under `policy`; `None` if nothing fits.
///
/// Deterministic: all ties break toward the lower node id.
pub fn place(
    cluster: &ClusterState,
    policy: PlacementPolicy,
    req: &PlacementRequest,
) -> Option<NodeId> {
    place_classed(cluster, policy, req).map(|p| p.node)
}

/// [`place`] plus the capacity class of the decision: scavenge-style
/// placements (the `Scavenge` policy, or `Locality` falling through to
/// its consolidating last step) are marked `scavenged` so the runtime can
/// tag the instance preemptible.
pub(crate) fn place_classed(
    cluster: &ClusterState,
    policy: PlacementPolicy,
    req: &PlacementRequest,
) -> Option<Placed> {
    let fits = |n: &NodeId| cluster.fits(*n, &req.demand);
    let candidates: Vec<NodeId> = cluster.nodes().into_iter().filter(fits).collect();
    if candidates.is_empty() {
        return None;
    }
    let provisioned = |node: Option<NodeId>| {
        node.map(|node| Placed {
            node,
            scavenged: false,
        })
    };
    match policy {
        PlacementPolicy::FirstFit => provisioned(candidates.first().copied()),
        PlacementPolicy::LoadBalance => provisioned(candidates.iter().copied().min_by(|a, b| {
            utilization_key(cluster, *a)
                .cmp(&utilization_key(cluster, *b))
                .then(a.cmp(b))
        })),
        PlacementPolicy::Scavenge => candidates
            .iter()
            .copied()
            .max_by(|a, b| {
                utilization_key(cluster, *a)
                    .cmp(&utilization_key(cluster, *b))
                    .then(b.cmp(a)) // Reversed so min id wins ties under max_by.
            })
            .map(|node| Placed {
                node,
                scavenged: true,
            }),
        PlacementPolicy::Locality => {
            // 1. The co-location hint itself.
            if let Some(hint) = req.prefer_node {
                if cluster.fits(hint, &req.demand) {
                    return provisioned(Some(hint));
                }
                // 2. Any node in the hint's rack.
                let rack = cluster.rack(hint);
                if let Some(n) = candidates
                    .iter()
                    .copied()
                    .filter(|&n| cluster.rack(n) == rack)
                    .min()
                {
                    return provisioned(Some(n));
                }
            }
            // 3. Consolidating fallback — a scavenged slot.
            place_classed(cluster, PlacementPolicy::Scavenge, req)
        }
    }
}

/// Integer utilization key (per-mille) so ordering is exact.
pub(crate) fn utilization_key(cluster: &ClusterState, n: NodeId) -> u32 {
    (cluster.node_utilization(n) * 1000.0).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_net::Topology;

    fn cluster() -> ClusterState {
        // 2 racks x 3 nodes of 32 cores.
        ClusterState::new(&Topology::uniform(2, 3))
    }

    fn req(cores: u32) -> PlacementRequest {
        PlacementRequest {
            demand: Resources::cpu(cores, 0),
            ..Default::default()
        }
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let c = cluster();
        assert_eq!(
            place(&c, PlacementPolicy::FirstFit, &req(4)),
            Some(NodeId(0))
        );
        // Fill node 0; first fit moves on.
        c.try_allocate(NodeId(0), &Resources::cpu(32, 0));
        assert_eq!(
            place(&c, PlacementPolicy::FirstFit, &req(4)),
            Some(NodeId(1))
        );
    }

    #[test]
    fn load_balance_picks_emptiest() {
        let c = cluster();
        c.try_allocate(NodeId(0), &Resources::cpu(16, 0));
        c.try_allocate(NodeId(1), &Resources::cpu(8, 0));
        assert_eq!(
            place(&c, PlacementPolicy::LoadBalance, &req(4)),
            Some(NodeId(2))
        );
    }

    #[test]
    fn scavenge_packs_onto_busiest_fitting_node() {
        let c = cluster();
        c.try_allocate(NodeId(0), &Resources::cpu(30, 0));
        c.try_allocate(NodeId(1), &Resources::cpu(16, 0));
        // 4 cores no longer fit node 0 (2 free) but fit node 1.
        assert_eq!(
            place(&c, PlacementPolicy::Scavenge, &req(4)),
            Some(NodeId(1))
        );
        // 2 cores pack into the busiest node 0.
        assert_eq!(
            place(&c, PlacementPolicy::Scavenge, &req(2)),
            Some(NodeId(0))
        );
    }

    #[test]
    fn locality_prefers_hint_then_rack() {
        let c = cluster();
        let mut r = req(4);
        r.prefer_node = Some(NodeId(1));
        assert_eq!(place(&c, PlacementPolicy::Locality, &r), Some(NodeId(1)));
        // Hint full: same rack (nodes 0..3 are rack 0).
        c.try_allocate(NodeId(1), &Resources::cpu(32, 0));
        let got = place(&c, PlacementPolicy::Locality, &r).unwrap();
        assert_eq!(c.rack(got), c.rack(NodeId(1)));
    }

    #[test]
    fn nothing_fits_returns_none() {
        let c = cluster();
        for n in c.nodes() {
            c.try_allocate(n, &Resources::cpu(32, 0));
        }
        assert_eq!(place(&c, PlacementPolicy::FirstFit, &req(1)), None);
        assert_eq!(place(&c, PlacementPolicy::Scavenge, &req(1)), None);
        assert_eq!(place(&c, PlacementPolicy::Locality, &req(1)), None);
    }

    #[test]
    fn scavenge_paths_are_classed_preemptible() {
        let c = cluster();
        // Direct scavenging is always a scavenged slot.
        let p = place_classed(&c, PlacementPolicy::Scavenge, &req(4)).unwrap();
        assert!(p.scavenged);
        // Provisioned policies never are.
        for policy in [PlacementPolicy::FirstFit, PlacementPolicy::LoadBalance] {
            assert!(!place_classed(&c, policy, &req(4)).unwrap().scavenged);
        }
        // Locality via the hint is provisioned ...
        let mut r = req(4);
        r.prefer_node = Some(NodeId(1));
        let p = place_classed(&c, PlacementPolicy::Locality, &r).unwrap();
        assert_eq!((p.node, p.scavenged), (NodeId(1), false));
        // ... but the consolidating fallback is scavenged.
        let p = place_classed(&c, PlacementPolicy::Locality, &req(4)).unwrap();
        assert!(p.scavenged);
    }

    #[test]
    fn gpu_demand_only_lands_on_gpu_nodes() {
        let topology = Topology::heterogeneous(2, 2);
        let c = ClusterState::new(&topology);
        let gpu_req = PlacementRequest {
            demand: Resources {
                cpu: 1,
                gpu: 1,
                tpu: 0,
                mem_gib: 4,
            },
            ..Default::default()
        };
        for policy in [
            PlacementPolicy::FirstFit,
            PlacementPolicy::LoadBalance,
            PlacementPolicy::Scavenge,
            PlacementPolicy::Locality,
        ] {
            let n = place(&c, policy, &gpu_req).unwrap();
            assert!(
                topology.spec(n).capacity.gpu > 0,
                "{policy:?} placed GPU work on {n}"
            );
        }
    }
}
