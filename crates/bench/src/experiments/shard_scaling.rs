//! Horizontal scaling of the sharded store (the report's
//! `shard-scaling` artifact).
//!
//! One deterministic run, three measured windows on the virtual clock:
//!
//! 1. **before** — a closed-loop write-heavy workload saturates a
//!    3-node placement ring (every replica set lands on the same three
//!    NVMe gates, so aggregate throughput is pinned by their IO time),
//! 2. **during** — the workload keeps running while the other nine
//!    storage nodes join (pins stack, so each object migrates once, to
//!    its final owners) and a [`Pacer`]-throttled drain moves the data —
//!    the window whose p99 proves data movement stays background noise
//!    rather than a stall,
//! 3. **after** — the same workload on the full 12-node ring.
//!
//! Consistent hashing spreads the replica sets across all twelve IO
//! gates, so `after/before` approaches the 4× node ratio;
//! [`shape_holds`] asks for ≥ 3× and a bounded migration-window p99.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::{Consistency, Mutability, ObjectId};
use pcsi_net::{NodeId, Topology};
use pcsi_sim::util::Pacer;
use pcsi_sim::SimHandle;
use pcsi_store::{ReplicatedStore, StoreConfig};

/// Storage nodes in the initial placement ring.
pub const RING_BEFORE: usize = 3;
/// Storage nodes after every join has drained.
pub const RING_AFTER: usize = 12;

const WORKERS: usize = 64;
const VALUE_BYTES: usize = 4096;
const PHASE: Duration = Duration::from_millis(20);
const PACE: Duration = Duration::from_micros(150);
/// Virtual time the drain may take before the run panics.
const DRAIN_BUDGET: Duration = Duration::from_secs(10);

/// The scaling experiment's outcome (all time on the virtual clock).
#[derive(Debug, Clone)]
pub struct ShardScalingResult {
    /// Aggregate ops per virtual second on the small ring.
    pub tput_before: f64,
    /// Aggregate ops per virtual second on the full ring.
    pub tput_after: f64,
    /// p99 operation latency (ns) on the small ring.
    pub p99_before_ns: f64,
    /// p99 operation latency (ns) while shards migrated.
    pub p99_migration_ns: f64,
    /// p99 operation latency (ns) on the full ring.
    pub p99_after_ns: f64,
    /// Objects migrated across all nine joins.
    pub objects_moved: usize,
}

impl ShardScalingResult {
    /// Aggregate throughput gain from scaling the ring out.
    pub fn ratio(&self) -> f64 {
        if self.tput_before > 0.0 {
            self.tput_after / self.tput_before
        } else {
            0.0
        }
    }
}

/// One fixed-length measurement window.
struct Window {
    /// Ops per virtual second.
    tput: f64,
    p99_ns: f64,
}

/// Shared open/closed switchboard between the driver and the workers.
struct Bench {
    store: ReplicatedStore,
    /// Latencies (ns) of ops completed in the current window.
    window: RefCell<Vec<u64>>,
    /// Workers only record while this is set.
    recording: Cell<bool>,
    stop: Cell<bool>,
}

fn p99_ns(lat_ns: &mut [u64]) -> f64 {
    if lat_ns.is_empty() {
        return 0.0;
    }
    lat_ns.sort_unstable();
    let idx = (lat_ns.len() as f64 * 0.99) as usize;
    lat_ns[idx.min(lat_ns.len() - 1)] as f64
}

/// Runs the whole scale-out story and returns the measured windows.
pub fn run(seed: u64) -> ShardScalingResult {
    let topo = Topology::uniform(4, 3);
    let nodes = topo.node_ids();
    assert_eq!(nodes.len(), RING_AFTER);
    let builder = CloudBuilder::new()
        .topology(topo)
        .deterministic_network()
        .store(StoreConfig {
            anti_entropy: None,
            cache_bytes: 0,
            ring_nodes: Some(nodes[..RING_BEFORE].to_vec()),
            ..StoreConfig::default()
        });
    Lab::run(seed, builder, |lab| drive(lab.h, lab.cloud.store, nodes))
}

async fn drive(h: SimHandle, store: ReplicatedStore, nodes: Vec<NodeId>) -> ShardScalingResult {
    // One private object per worker: contention-free writes, so the
    // measured ceiling is the storage gates, not tag races.
    let mut objects = Vec::with_capacity(WORKERS);
    for w in 0..WORKERS {
        let id = ObjectId::from_parts(0x5CA1E, w as u64);
        store
            .client(nodes[w % nodes.len()])
            .put(
                id,
                Bytes::from(vec![0u8; VALUE_BYTES]),
                Mutability::Mutable,
                Consistency::Linearizable,
            )
            .await
            .expect("seed put on a healthy cluster");
        objects.push(id);
    }

    let bench = Rc::new(Bench {
        store: store.clone(),
        window: RefCell::new(Vec::new()),
        recording: Cell::new(false),
        stop: Cell::new(false),
    });

    // Closed-loop workers: as soon as one write completes, issue the
    // next. 3 writes per read keeps the load IO-gate-bound end to end.
    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let bench = bench.clone();
        let h2 = h.clone();
        let client = bench.store.client(nodes[w % nodes.len()]);
        let id = objects[w];
        let rng = h.rng().stream_indexed("shard-scaling-worker", w as u64);
        workers.push(h.spawn(async move {
            let mut i = 0u64;
            while !bench.stop.get() {
                let t0 = h2.now();
                let result = if i % 4 == 3 {
                    client
                        .read_all(id, Consistency::Linearizable)
                        .await
                        .map(|_| ())
                } else {
                    let fill = (i % 251) as u8;
                    client
                        .write_at(
                            id,
                            0,
                            Bytes::from(vec![fill; VALUE_BYTES]),
                            Consistency::Linearizable,
                        )
                        .await
                        .map(|_| ())
                };
                if result.is_ok() && bench.recording.get() {
                    let dt = h2.now().as_nanos() - t0.as_nanos();
                    bench.window.borrow_mut().push(dt);
                }
                i += 1;
                // A tiny jittered yield decorrelates the workers'
                // arrival phases without moving the throughput needle.
                h2.sleep(Duration::from_nanos(rng.gen_range(50..500))).await;
            }
        }));
    }

    let measure = |bench: Rc<Bench>, h: SimHandle| async move {
        bench.window.borrow_mut().clear();
        bench.recording.set(true);
        let t0 = h.now();
        h.sleep(PHASE).await;
        bench.recording.set(false);
        let secs = (h.now().as_nanos() - t0.as_nanos()) as f64 / 1e9;
        let mut lat = std::mem::take(&mut *bench.window.borrow_mut());
        Window {
            tput: lat.len() as f64 / secs,
            p99_ns: p99_ns(&mut lat),
        }
    };

    // Warm-up, then the three windows.
    h.sleep(Duration::from_millis(5)).await;
    let before = measure(bench.clone(), h.clone()).await;

    bench.window.borrow_mut().clear();
    bench.recording.set(true);
    let pacer = Pacer::new(h.clone(), PACE);
    // Admit all nine joins up front: pins stack (an object already
    // mid-move keeps its pinned owners, only the target retargets), so
    // one drain moves each object straight to its 12-node-ring owners
    // instead of cascading it through nine intermediate rings.
    for &joiner in &nodes[RING_BEFORE..] {
        store.begin_join(joiner);
    }
    let mut moved = 0usize;
    let since = h.now();
    while !store.placement().pending_moves().is_empty() {
        assert!(h.now() - since < DRAIN_BUDGET, "the drain stalled");
        match store.drain_moves(Some(&pacer)).await {
            Ok(n) => moved += n,
            // Retryable stall (never expected on a healthy fabric).
            Err(_) => h.sleep(Duration::from_millis(1)).await,
        }
    }
    bench.recording.set(false);
    let p99_migration_ns = p99_ns(&mut std::mem::take(&mut *bench.window.borrow_mut()));
    assert_eq!(store.placement().storage_nodes().len(), RING_AFTER);

    let after = measure(bench.clone(), h.clone()).await;

    bench.stop.set(true);
    for w in workers {
        w.await;
    }

    ShardScalingResult {
        tput_before: before.tput,
        tput_after: after.tput,
        p99_before_ns: before.p99_ns,
        p99_migration_ns,
        p99_after_ns: after.p99_ns,
        objects_moved: moved,
    }
}

/// The scale-out claim, asserted by tests and the report: shards did
/// move, growing the ring 3 → 12 nodes lifts aggregate throughput ≥ 3×,
/// and the migration window's p99 stays bounded — background data
/// movement, not a stall.
pub fn shape_holds(r: &ShardScalingResult) -> Result<(), String> {
    let checks = [
        ("shards migrated", r.objects_moved > 0),
        ("3 -> 12 nodes lifts throughput >= 3x", r.ratio() >= 3.0),
        ("migration p99 within 10 ms", r.p99_migration_ns <= 10e6),
        (
            "migration p99 within 25x the small ring's",
            r.p99_migration_ns <= 25.0 * r.p99_before_ns.max(1e3),
        ),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        Some((name, _)) => Err(format!("shape violated: {name} ({r:?})")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_out_triples_throughput_with_bounded_migration_p99() {
        shape_holds(&run(0x5CA1E)).unwrap();
    }

    /// Same seed, same virtual-clock numbers: the experiment is part of
    /// the deterministic suite.
    #[test]
    fn results_are_deterministic() {
        let a = run(11);
        let b = run(11);
        assert_eq!(a.tput_before.to_bits(), b.tput_before.to_bits());
        assert_eq!(a.tput_after.to_bits(), b.tput_after.to_bits());
        assert_eq!(a.p99_migration_ns.to_bits(), b.p99_migration_ns.to_bits());
        assert_eq!(a.objects_moved, b.objects_moved);
    }
}
