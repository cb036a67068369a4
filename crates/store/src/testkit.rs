#![cfg(test)]
//! The one deployment this crate's unit tests stand a store up on: a
//! fabric, a store over every node of it, and the steps the tests repeat
//! around the two.

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId};
use pcsi_net::{Fabric, LatencyModel, MessageFaults, NetworkGeneration, NodeId, Topology};
use pcsi_obs::Telemetry;
use pcsi_sim::Sim;

use crate::engine::{MediaTier, Mutation};
use crate::replica::{STORE_SERVICE, STORE_TRANSPORT};
use crate::store::{ReplicatedStore, StoreClient, StoreConfig};
use crate::version::Tag;
use crate::wire::{self, Request, Response};

/// Object `n` of the namespace the store's scenario tests write in.
pub(crate) fn oid(n: u64) -> ObjectId {
    ObjectId::from_parts(5, n)
}

/// A fabric on `topology` with 2021 datacenter latencies, fixed
/// (`LatencyModel::deterministic`) or drawn per message
/// (`LatencyModel::new`).
pub(crate) fn fabric(
    sim: &Sim,
    topology: Topology,
    latency: fn(NetworkGeneration) -> LatencyModel,
) -> Fabric {
    Fabric::new(sim.handle(), topology, latency(NetworkGeneration::Dc2021))
}

/// The configuration the tests share: 3 DRAM replicas, no anti-entropy
/// (tests drive rounds themselves), 64 KiB inline reads, no client cache,
/// default retries, every node in the ring.
pub(crate) fn config() -> StoreConfig {
    StoreConfig {
        n_replicas: 3,
        tier: MediaTier::Dram,
        anti_entropy: None,
        inline_read_max: 64 * 1024,
        cache_bytes: 0,
        ..StoreConfig::default()
    }
}

/// [`config`] with a 1 MiB client cache on every node.
pub(crate) fn cached() -> StoreConfig {
    StoreConfig {
        cache_bytes: 1 << 20,
        ..config()
    }
}

/// A store with one replica on every node of `fabric`.
pub(crate) fn launch(
    fabric: &Fabric,
    config: StoreConfig,
    telemetry: &Telemetry,
) -> ReplicatedStore {
    let nodes = fabric.topology().node_ids();
    ReplicatedStore::launch(fabric.clone(), nodes, config, telemetry)
}

/// The usual deployment: 3 racks × 3 nodes at fixed latencies, a store
/// on all nine, telemetry off.
pub(crate) fn deploy(sim: &Sim, config: StoreConfig) -> (Fabric, ReplicatedStore) {
    let fabric = fabric(sim, Topology::uniform(3, 3), LatencyModel::deterministic);
    let store = launch(&fabric, config, &Telemetry::default());
    (fabric, store)
}

/// The first node, in topology order, outside `id`'s replica set: a
/// client there pays a real fabric hop to every replica.
pub(crate) fn outsider(store: &ReplicatedStore, id: ObjectId) -> NodeId {
    let replicas = store.placement().replicas(id);
    let nodes = store.inner.fabric.topology().node_ids();
    let outside = nodes.into_iter().find(|n| !replicas.contains(n));
    outside.expect("a node outside the replica set")
}

/// A linearizable `put` of mutable `data`.
pub(crate) async fn linearizable_put(client: &StoreClient, id: ObjectId, data: Bytes) -> Tag {
    let put = client.put(id, data, Mutability::Mutable, Consistency::Linearizable);
    put.await.unwrap()
}

/// Loses every message on the link `a <-> b` until
/// `Fabric::clear_message_faults`.
pub(crate) fn drop_link(fabric: &Fabric, a: NodeId, b: NodeId) {
    let drop_all = MessageFaults {
        drop: 1.0,
        ..MessageFaults::NONE
    };
    fabric.set_link_faults(a, b, drop_all);
}

/// Coordinates one append on `target` over the raw wire, bypassing
/// the client recovery layer (fault-scenario choreography).
pub(crate) async fn raw_append(
    fabric: &Fabric,
    from: NodeId,
    target: NodeId,
    id: ObjectId,
    data: &'static [u8],
    req_id: u64,
) -> Response {
    let req = wire::encode_request(&Request::Coordinate {
        id,
        mutation: Mutation::Append {
            data: Bytes::from_static(data),
        },
        sync_replicas: 1,
        req_id,
        expires_ns: 0,
    });
    let raw = fabric
        .call(from, target, STORE_SERVICE, STORE_TRANSPORT, req)
        .await
        .expect("raw coordinate must reach the target");
    wire::decode_response(&raw).unwrap()
}

/// The bytes `node`'s replica holds for `id` (empty when it holds none).
pub(crate) fn replica_bytes(store: &ReplicatedStore, node: NodeId, id: ObjectId) -> Vec<u8> {
    store
        .replica_on(node)
        .unwrap()
        .with_engine(|e| e.read(id, 0, u64::MAX).map(|b| b.to_vec()))
        .unwrap_or_default()
}

/// `rounds` anti-entropy rounds, each one exchange on every replica.
pub(crate) async fn anti_entropy(store: &ReplicatedStore, rounds: usize) {
    for _ in 0..rounds {
        for r in store.replicas() {
            r.anti_entropy_once().await;
        }
    }
}

/// Runs anti-entropy rounds until every node of `nodes` holds `want` for
/// `id`, at most 64 of them: a pull targets a random storage node, not
/// necessarily a fellow replica, so agreement can take several.
pub(crate) async fn until_replicas_agree(
    store: &ReplicatedStore,
    nodes: &[NodeId],
    id: ObjectId,
    want: &[u8],
) {
    for _ in 0..64 {
        if nodes.iter().all(|&n| replica_bytes(store, n, id) == want) {
            break;
        }
        anti_entropy(store, 1).await;
    }
}
