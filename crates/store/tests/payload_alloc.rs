//! A stored payload costs one allocation of about its own size: every
//! replica of a write keeps a view of the one exactly-sized `Apply` frame,
//! and a cached read keeps a frame no larger than itself, not the pooled
//! buffer it was built in. A counting global allocator tracks live bytes
//! per thread (the simulation runs on the test's thread, so the harness's
//! own threads do not leak into the count).
//!
//! Before every frame a receiver may keep was exactly sized, with the
//! coordinator keeping a view of the client's `Coordinate` frame (a
//! recycled 4 KiB value buffer, doubled to 8 KiB) next to the peers'
//! shared `Apply` frame, the first test read 13,663 live bytes per 4 KiB
//! object (3.3 ×) and the second 32,834 bytes behind the 64 B entry.

use std::time::Duration;

use bytes::{Bytes, BytesMut};
use pcsi_core::{Consistency, Mutability, ObjectId};
use pcsi_net::{Fabric, LatencyModel, NetworkGeneration, NodeId, Topology};
use pcsi_obs::Telemetry;
use pcsi_sim::Sim;
use pcsi_store::{ReplicatedStore, StoreConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live;

/// Live bytes on this thread with the `bytes` buffer pool emptied first:
/// a pooled buffer is free memory the allocator still counts. A buffer
/// taken from the pool comes back unfrozen, so dropping it frees it; an
/// empty pool hands out a buffer that owns nothing.
fn retained() -> i64 {
    loop {
        let before = live();
        drop(BytesMut::with_capacity(0));
        if live() == before {
            return before;
        }
    }
}

fn store(sim: &Sim, cache_bytes: usize) -> (Fabric, ReplicatedStore) {
    let fabric = Fabric::new(
        sim.handle(),
        Topology::uniform(3, 3),
        LatencyModel::deterministic(NetworkGeneration::Dc2021),
    );
    let config = StoreConfig {
        anti_entropy: None,
        cache_bytes,
        ..StoreConfig::default()
    };
    let nodes = fabric.topology().node_ids();
    let store = ReplicatedStore::launch(fabric.clone(), nodes, config, &Telemetry::default());
    (fabric, store)
}

fn oid(n: u64) -> ObjectId {
    ObjectId::from_parts(5, n)
}

#[test]
fn a_replicated_object_retains_one_payload() {
    const OBJECTS: u64 = 256;
    const SIZE: usize = 4096;
    let mut sim = Sim::new(3);
    let (fabric, store) = store(&sim, 0);
    let per_object = sim.block_on(async move {
        let client = store.client(NodeId(0));
        let before = retained();
        for n in 0..OBJECTS {
            let data = Bytes::from(vec![n as u8; SIZE]);
            let put = client.put(oid(n), data, Mutability::Mutable, Consistency::Linearizable);
            put.await.unwrap();
        }
        // The replicas past the majority apply in the background.
        fabric.handle().sleep(Duration::from_secs(1)).await;
        (retained() - before) / OBJECTS as i64
    });
    assert!(
        per_object < (SIZE + SIZE / 2) as i64,
        "{per_object} live bytes per {SIZE}-byte object"
    );
}

#[test]
fn a_cached_read_retains_only_its_own_frame() {
    let mut sim = Sim::new(4);
    let (_fabric, store) = store(&sim, 1 << 20);
    let retained_by_entry = sim.block_on(async move {
        let client = store.client(NodeId(0));
        let (large, small) = (oid(1), oid(2));
        let objects = [
            (large, 32 * 1024, Mutability::Mutable),
            (small, 64, Mutability::Immutable),
        ];
        for (id, size, mutability) in objects {
            let data = Bytes::from(vec![1u8; size]);
            let put = client.put(id, data, mutability, Consistency::Linearizable);
            put.await.unwrap();
        }
        // Large reads held together, then dropped: the pool's newest
        // buffers are large ones, and the small read's frames draw them.
        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(client.read(large, 0, u64::MAX, Consistency::Eventual).await);
        }
        drop(held);
        let (_, bytes) = client
            .read(small, 0, 64, Consistency::Eventual)
            .await
            .unwrap();
        assert_eq!(bytes.len(), 64);
        drop(bytes);
        let hits = store.cache_stats().hits;
        client
            .read(small, 0, 64, Consistency::Eventual)
            .await
            .unwrap();
        assert_eq!(store.cache_stats().hits, hits + 1, "the read was cached");
        // What the entry retains is what dropping it frees.
        let with_entry = retained();
        store.invalidate_cached(small);
        with_entry - retained()
    });
    assert!(
        retained_by_entry < 256,
        "the cached 64 B entry retains {retained_by_entry} bytes"
    );
}
