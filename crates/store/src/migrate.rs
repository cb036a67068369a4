//! Live rebalancing: topology changes pin the affected objects to their
//! old owners, and a drain migrates them — freeze, snapshot, sealed
//! install, flip — while reads and writes keep being served.

use std::future::Future;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError};
use pcsi_net::{Fabric, NodeId};
use pcsi_sim::util::{deadline, join_all, Pacer};

use crate::engine::StoredObject;
use crate::quorum::rpc;
use crate::store::ReplicatedStore;
use crate::version::Tag;
use crate::wire::{self, Request, Response};

impl ReplicatedStore {
    /// Every object id any replica engine currently stores (sorted,
    /// deduplicated) — the work list scanned at a topology change.
    pub(crate) fn all_object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = Vec::new();
        for r in &self.inner.replicas {
            ids.extend(r.with_engine(|e| e.ids()));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Admits `node` into the placement ring and pins every object whose
    /// replica set changes to its old owners; returns the pinned ids.
    /// Reads and writes keep routing to the old owners until
    /// [`ReplicatedStore::drain_moves`] migrates the data. `node` must be
    /// a storage node (a warm standby launched outside the initial ring,
    /// see [`crate::StoreConfig::ring_nodes`]).
    pub fn begin_join(&self, node: NodeId) -> Vec<ObjectId> {
        assert!(
            self.replica_on(node).is_some(),
            "cannot join {node:?}: no replica engine runs there"
        );
        let ids = self.all_object_ids();
        self.inner
            .placement
            .begin_join(self.inner.fabric.topology(), node, &ids)
    }

    /// Joins `node` and migrates every affected object before returning
    /// the number of objects moved.
    pub async fn join_node(&self, node: NodeId) -> Result<usize, PcsiError> {
        self.begin_join(node);
        self.drain_moves(None).await
    }

    /// Removes `node` from the placement ring, pinning every object whose
    /// replica set changes (the departing node keeps serving those until
    /// they move), and migrates every affected object off it before
    /// returning the number of objects moved. The node is safe to take
    /// down once this returns.
    pub async fn decommission_node(&self, node: NodeId) -> Result<usize, PcsiError> {
        let ids = self.all_object_ids();
        self.inner.placement.begin_leave(node, &ids);
        self.drain_moves(None).await
    }

    /// Migrates every pending move to completion, optionally paced (one
    /// object per [`Pacer`] tick) so background data movement spreads
    /// over time instead of saturating the fabric. Failed moves retry on
    /// the next round; a round that makes no progress at all backs off,
    /// and `MAX_STALLED_ROUNDS` fruitless rounds in a row surface a
    /// retryable error (e.g. a quorum of old owners stayed unreachable).
    /// Returns the number of objects moved by *this* call.
    pub async fn drain_moves(&self, pacer: Option<&Pacer>) -> Result<usize, PcsiError> {
        let handle = self.inner.fabric.handle().clone();
        let mut moved = 0usize;
        let mut stalled_rounds = 0u32;
        // The most recent failed move, kept so a stalled drain can say why.
        let mut last_err: Option<(ObjectId, PcsiError)> = None;
        loop {
            let pending = self.inner.placement.pending_moves();
            if pending.is_empty() {
                return Ok(moved);
            }
            let mut progressed = false;
            for id in pending {
                if let Some(p) = pacer {
                    p.tick().await;
                }
                match self.migrate_object(id).await {
                    Ok(true) => {
                        moved += 1;
                        progressed = true;
                    }
                    // Already moved (or claimed by a concurrent drain).
                    Ok(false) => {}
                    // Retryable: the next round tries again.
                    Err(e) => last_err = Some((id, e)),
                }
            }
            if progressed {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds >= MAX_STALLED_ROUNDS {
                    let cause = match &last_err {
                        Some((id, e)) => format!("last error, on {id:?}: {e}"),
                        None => "every pending move is claimed by another drain".to_owned(),
                    };
                    let stalled = format!(
                        "{} moves pending after {stalled_rounds} fruitless rounds; {cause}",
                        self.inner.placement.pending_moves().len(),
                    );
                    let err = PcsiError::Fault(format!("shard migration stalled: {stalled}"));
                    if let Some(j) = &self.inner.telemetry.journal {
                        j.append("store", "migration_stalled", stalled);
                    }
                    return Err(err);
                }
                handle.sleep(DRAIN_RETRY_DELAY).await;
            }
        }
    }

    /// Migrates one pinned object: freezes writes, snapshots a majority
    /// of the old owners, installs a sealed copy on a majority of the
    /// new owners, and flips routing. `Ok(false)` when the object is not
    /// (or no longer) pinned, or another drain already claimed it. On
    /// error the freeze lifts and the pin stays — writes resume on the
    /// old owners and the move retries later.
    pub(crate) async fn migrate_object(&self, id: ObjectId) -> Result<bool, PcsiError> {
        let Some(old) = self.inner.placement.freeze_move(id) else {
            return Ok(false);
        };
        let result = self.migrate_frozen(id, &old).await;
        match &result {
            Ok(()) => {
                self.inner.placement.complete_move(id);
                if let Some(j) = &self.inner.telemetry.journal {
                    j.append(
                        "store",
                        "migration",
                        format!("id={id:?} old_owners={}", old.len()),
                    );
                }
            }
            Err(_) => self.inner.placement.unfreeze(id),
        }
        result.map(|()| true)
    }

    /// The move itself, run with `id` frozen. The request records travel
    /// with the bytes, so a retried pre-move write finds its record on
    /// the new owners. The copy is *sealed* one sequence number above the
    /// newest tag any reachable old owner reported, writer `u32::MAX`:
    /// an uncommitted line a failed coordination left behind orders below
    /// it, a receiver holding a newer tag answers [`Response::Stale`] and
    /// the driver re-seals above that, and each old owner's snapshot
    /// promised the seal's lowest ballot. A delete newer than every live
    /// tag moves as a tombstone, so no stale holder can resurrect it.
    async fn migrate_frozen(&self, id: ObjectId, old: &[NodeId]) -> Result<(), PcsiError> {
        let majority = self.inner.placement.majority();
        // The object's first new owner pulls: the transfer is charged
        // from the network position of the node that will own the data.
        let from = self.inner.placement.ring_replicas(id)[0];
        // Snapshot every reachable old owner: a majority must answer,
        // and asking all of them lets the seal cover zombie tags on
        // reachable minorities too.
        let frame = wire::encode_request(&Request::Fetch { id });
        let fabric = &self.inner.fabric;
        let snapshots = old
            .iter()
            .map(|&n| timed_rpc(fabric, from, n, frame.clone()));
        let mut heard = 0usize;
        let mut best: Option<(StoredObject, Vec<(u64, Tag)>)> = None;
        // Newest tag seen anywhere reachable (zombies and tombstones
        // included) — the seal floor — and newest committed delete.
        let (mut max_seen, mut tombstone) = (Tag::ZERO, Tag::ZERO);
        for reply in join_all(snapshots).await {
            match reply {
                Ok(Response::Object { object, reqs }) => {
                    max_seen = max_seen.max(object.tag);
                    if best.as_ref().is_none_or(|(b, _)| object.tag > b.tag) {
                        best = Some((object, reqs));
                    }
                }
                // A tag without a state: a tombstone's (or none, at zero).
                Ok(Response::TagIs { tag }) => {
                    max_seen = max_seen.max(tag);
                    tombstone = tombstone.max(tag);
                }
                _ => continue,
            }
            heard += 1;
        }
        if heard < majority {
            return Err(PcsiError::QuorumUnavailable {
                needed: majority,
                got: heard,
            });
        }
        let best_tag = best.as_ref().map_or(Tag::ZERO, |(b, _)| b.tag);
        let deleted = tombstone > best_tag;
        if best.is_none() && !deleted {
            // Never written on any reachable old owner: nothing to move.
            return Ok(());
        }
        let nothing = StoredObject::new(Bytes::new(), Tag::ZERO, Mutability::Mutable);
        let (mut sealed, reqs) = best.unwrap_or((nothing, vec![]));
        if deleted {
            // A tombstone install ships no bytes.
            sealed.data = Bytes::new();
            sealed.stable_len = 0;
        }
        let mut seal_seq = max_seen.seq + 1;
        for _ in 0..MAX_SEAL_ROUNDS {
            let epoch = self.inner.placement.epoch();
            let targets = self.inner.placement.ring_replicas(id);
            sealed.tag = Tag {
                seq: seal_seq,
                writer: u32::MAX,
            };
            let frame = wire::encode_request(&Request::Migrate {
                epoch,
                id,
                object: sealed.clone(),
                reqs: reqs.clone(),
                tombstone: deleted,
            });
            let installs = join_all(
                targets
                    .iter()
                    .map(|&n| timed_rpc(fabric, from, n, frame.clone())),
            )
            .await;
            let mut acks = 0usize;
            let mut newer: Option<Tag> = None;
            let mut raced_epoch = false;
            for reply in installs {
                match reply {
                    Ok(Response::Applied) => acks += 1,
                    Ok(Response::Stale { newest }) => {
                        newer = Some(newer.map_or(newest, |z| z.max(newest)));
                    }
                    Ok(Response::WrongEpoch { .. }) => raced_epoch = true,
                    _ => {}
                }
            }
            if acks >= majority {
                return Ok(());
            }
            if raced_epoch {
                // A further topology change landed mid-install; the
                // retry recomputes its targets under the new epoch.
                return Err(PcsiError::Fault(format!(
                    "migration of {id:?} raced a topology change"
                )));
            }
            match newer {
                Some(t) if t.seq >= seal_seq => seal_seq = t.seq + 1,
                _ => {
                    return Err(PcsiError::QuorumUnavailable {
                        needed: majority,
                        got: acks,
                    });
                }
            }
        }
        Err(PcsiError::Fault(format!(
            "migration of {id:?} kept losing seal races"
        )))
    }
}

/// Per-RPC deadline for migration traffic (snapshot fetches and sealed
/// installs). Short: a failed move just retries on the next drain round.
const MIGRATE_RPC_TIMEOUT: Duration = Duration::from_millis(20);

/// One migration [`rpc`], given up on after [`MIGRATE_RPC_TIMEOUT`]. The
/// abandoned call keeps running detached and may still land, which the
/// seal's tag order makes harmless.
fn timed_rpc(
    fabric: &Fabric,
    from: NodeId,
    to: NodeId,
    frame: Bytes,
) -> impl Future<Output = Result<Response, PcsiError>> + 'static {
    let (handle, call) = (fabric.handle().clone(), rpc(fabric, from, to, frame, None));
    async move {
        let raced = deadline(&handle, MIGRATE_RPC_TIMEOUT, call).await;
        raced.unwrap_or(Err(PcsiError::Timeout))
    }
}

/// Seal-raise rounds per install attempt. Each round seals above the
/// newest tag any receiver reported, so two is enough for every
/// quiescent race; more only lose to a live writer, which means the
/// epoch raced anyway.
const MAX_SEAL_ROUNDS: u32 = 4;

/// Consecutive fruitless drain rounds tolerated before the drain reports
/// the migration stalled.
const MAX_STALLED_ROUNDS: u32 = 512;

/// Back-off between fruitless drain rounds.
const DRAIN_RETRY_DELAY: Duration = Duration::from_millis(2);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, oid, replica_bytes};
    use crate::StoreConfig;
    use pcsi_core::Consistency;
    use pcsi_net::{LatencyModel, Topology};
    use pcsi_obs::Telemetry;
    use pcsi_sim::Sim;

    /// 9 storage nodes with an 8-node initial ring: `NodeId(8)` runs a
    /// replica engine but holds no data until joined.
    fn standby() -> StoreConfig {
        StoreConfig {
            ring_nodes: Some((0..8).map(NodeId).collect()),
            ..testkit::config()
        }
    }

    #[test]
    fn join_migrates_data_and_flips_routing() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, standby());
        sim.block_on({
            let store = store.clone();
            async move {
                let spare = NodeId(8);
                assert!(!store.placement().is_member(spare));
                let c = store.client(NodeId(0));
                for n in 0..50u64 {
                    testkit::linearizable_put(&c, oid(n), Bytes::from(vec![n as u8; 64])).await;
                }
                let epoch_before = store.placement().epoch();
                let moved = store.join_node(spare).await.unwrap();
                assert!(moved >= 1, "a 50-object join moved nothing");
                assert!(store.placement().is_member(spare));
                assert_eq!(store.placement().epoch(), epoch_before + 1);
                assert!(store.placement().pending_moves().is_empty());
                // The joiner owns (and physically holds) part of the space.
                let owns = (0..50u64)
                    .filter(|&n| store.placement().replicas(oid(n)).contains(&spare))
                    .count();
                assert!(owns >= 1, "the joiner took over no replica sets");
                assert!(
                    store
                        .replica_on(spare)
                        .unwrap()
                        .with_engine(|e| !e.ids().is_empty()),
                    "no sealed snapshot landed on the joiner"
                );
                // Every object still reads back correctly — including the
                // migrated ones, served by their new owners.
                for n in 0..50u64 {
                    let (_, data) = c.read_all(oid(n), Consistency::Linearizable).await.unwrap();
                    assert_eq!(&data[..], &vec![n as u8; 64][..], "object {n} corrupted");
                }
            }
        });
    }

    #[test]
    fn a_stalled_drain_says_why_and_journals_it() {
        let mut sim = Sim::new(42);
        let telemetry = Telemetry {
            journal: Some(pcsi_obs::Journal::new(&sim.handle(), 64)),
            ..Telemetry::default()
        };
        let fabric = testkit::fabric(&sim, Topology::uniform(3, 3), LatencyModel::deterministic);
        let store = testkit::launch(&fabric, standby(), &telemetry);
        let stalled = sim.block_on({
            let store = store.clone();
            async move {
                let spare = NodeId(8);
                let c = store.client(NodeId(0));
                for n in 0..50u64 {
                    testkit::linearizable_put(&c, oid(n), Bytes::from(vec![n as u8; 64])).await;
                }
                // The joiner never gets to talk to the old owners, so the
                // objects it is to pull as first new owner cannot move.
                let others: Vec<NodeId> = (0..8).map(NodeId).collect();
                fabric.partition(&[spare], &others);
                store.join_node(spare).await
            }
        });
        let msg = stalled.expect_err("the drain must give up").to_string();
        assert!(msg.contains("shard migration stalled"), "{msg}");
        assert!(msg.contains("quorum unavailable: needed 2, got 0"), "{msg}");
        assert!(!store.placement().pending_moves().is_empty());
        // One record, on the failure path only, carrying the same cause.
        let journal = telemetry.journal.expect("built above").render();
        let records: Vec<&str> = journal
            .lines()
            .filter_map(|l| l.split_once(" layer=store kind=migration_stalled "))
            .map(|(_, detail)| detail)
            .collect();
        assert_eq!(records.len(), 1, "{journal}");
        assert!(msg.ends_with(records[0]), "{msg}");
    }

    #[test]
    fn decommission_moves_data_off_the_departing_node() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                for n in 0..50u64 {
                    testkit::linearizable_put(&c, oid(n), Bytes::from(vec![n as u8; 64])).await;
                }
                let leaving = NodeId(3);
                store.decommission_node(leaving).await.unwrap();
                assert!(!store.placement().is_member(leaving));
                assert!(store.placement().pending_moves().is_empty());
                for n in 0..50u64 {
                    assert!(
                        !store.placement().replicas(oid(n)).contains(&leaving),
                        "object {n} still routed at the decommissioned node"
                    );
                }
                // The node can now actually go away without data loss.
                fabric.set_node_down(leaving, true);
                for n in 0..50u64 {
                    let (_, data) = c.read_all(oid(n), Consistency::Linearizable).await.unwrap();
                    assert_eq!(&data[..], &vec![n as u8; 64][..], "object {n} lost");
                }
            }
        });
    }

    #[test]
    fn migration_preserves_a_partially_replicated_delete() {
        // A delete lands on a majority but one replica keeps stale live
        // bytes (its replication message was dropped). Migrating the
        // object off the tombstoned primary must move the *delete*, not
        // resurrect the stale survivor's data — and anti-entropy
        // afterwards must not bring it back either.
        let mut sim = Sim::new(42);
        let config = StoreConfig {
            retry: crate::RetryPolicy::none(),
            ..testkit::config()
        };
        let (fabric, store) = testkit::deploy(&sim, config);
        sim.block_on({
            let store = store.clone();
            async move {
                let id = oid(60);
                let replicas = store.placement().replicas(id);
                let c = store.client(testkit::outsider(&store, id));
                testkit::linearizable_put(&c, id, Bytes::from_static(b"doomed")).await;
                // Drop the delete's replication to the last replica: the
                // tombstone lands on a majority, the straggler keeps the
                // live bytes.
                testkit::drop_link(&fabric, replicas[0], replicas[2]);
                let err = c.delete(id).await.unwrap_err();
                assert!(err.is_retryable(), "delete should be ambiguous: {err:?}");
                fabric.clear_message_faults();
                assert_eq!(replica_bytes(&store, replicas[2], id), b"doomed");
                // Move the object off its (tombstoned) primary.
                store.decommission_node(replicas[0]).await.unwrap();
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(
                    matches!(r, Err(PcsiError::NotFound(_))),
                    "migration resurrected a deleted object: {r:?}"
                );
                // The stale survivor must not resurrect it later either.
                testkit::anti_entropy(&store, 8).await;
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(
                    matches!(r, Err(PcsiError::NotFound(_))),
                    "anti-entropy resurrected a deleted object: {r:?}"
                );
            }
        });
    }

    #[test]
    fn writes_issued_during_a_migration_land_exactly_once() {
        // Client appends race a join's drain loop: every acknowledged
        // append must appear exactly once in the final bytes, no matter
        // how the freeze windows interleave with the writes.
        let mut sim = Sim::new(7);
        let (fabric, store) = testkit::deploy(&sim, standby());
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(70);
                c.put(
                    id,
                    Bytes::new(),
                    Mutability::AppendOnly,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                for n in 0..20u64 {
                    let data = Bytes::from(vec![n as u8; 256]);
                    testkit::linearizable_put(&c, oid(100 + n), data).await;
                }
                // Background writer: one appender racing the drain.
                let writer = {
                    let store = store.clone();
                    let h = h.clone();
                    async move {
                        let c = store.client(NodeId(4));
                        let mut acked = Vec::new();
                        for i in 0..30u8 {
                            let payload = Bytes::from(vec![i]);
                            if c.append(id, payload.clone(), Consistency::Linearizable)
                                .await
                                .is_ok()
                            {
                                acked.push(i);
                            }
                            h.sleep(Duration::from_micros(200)).await;
                        }
                        acked
                    }
                };
                let writer_task = h.spawn(writer);
                let pacer = Pacer::new(h.clone(), Duration::from_micros(500));
                store.begin_join(NodeId(8));
                store.drain_moves(Some(&pacer)).await.unwrap();
                let acked = writer_task.await;
                // Quiesce: every replica of the final set converges.
                testkit::anti_entropy(&store, 8).await;
                let (_, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
                for &b in &acked {
                    let count = data.iter().filter(|&&x| x == b).count();
                    assert_eq!(
                        count, 1,
                        "acked append {b} appears {count} times in {data:?}"
                    );
                }
            }
        });
    }
}
