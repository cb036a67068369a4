//! Live rebalancing: topology changes pin the affected objects to their
//! old owners, and a drain migrates them — freeze, snapshot, sealed
//! install, flip — while reads and writes keep being served.

use std::future::Future;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError};
use pcsi_net::{Fabric, NodeId};
use pcsi_obs::JournalExt;
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
            ids.extend(
                r.with_engine(|e| e.inventory())
                    .into_iter()
                    .map(|(id, _)| id),
            );
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

    /// Removes `node` from the placement ring and pins every object whose
    /// replica set changes; returns the pinned ids. The departing node
    /// keeps serving its pinned objects until they migrate, so call
    /// [`ReplicatedStore::drain_moves`] before taking it down.
    pub(crate) fn begin_decommission(&self, node: NodeId) -> Vec<ObjectId> {
        let ids = self.all_object_ids();
        self.inner.placement.begin_leave(node, &ids)
    }

    /// Joins `node` and migrates every affected object before returning
    /// the number of objects moved.
    pub async fn join_node(&self, node: NodeId) -> Result<usize, PcsiError> {
        self.begin_join(node);
        self.drain_moves(None).await
    }

    /// Decommissions `node` and migrates every affected object off it
    /// before returning the number of objects moved. The node is safe to
    /// take down once this returns.
    pub async fn decommission_node(&self, node: NodeId) -> Result<usize, PcsiError> {
        self.begin_decommission(node);
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
                    self.inner.telemetry.journal.with(|j| {
                        j.append("store", "migration_stalled", stalled);
                    });
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
        // Claim before freezing (no await between): a second drain
        // unfreezing this object mid-snapshot would readmit writes the
        // first drain's snapshot cannot see.
        let Some(old) = self.inner.placement.move_old_set(id) else {
            return Ok(false);
        };
        if !self.inner.migrating.borrow_mut().insert(id) {
            return Ok(false);
        }
        self.inner.placement.freeze(id);
        let result = self.migrate_frozen(id, &old).await;
        match &result {
            Ok(()) => {
                self.inner.placement.complete_move(id);
                self.inner.telemetry.journal.with(|j| {
                    j.append(
                        "store",
                        "migration",
                        format!("id={id:?} old_owners={}", old.len()),
                    );
                });
            }
            Err(_) => self.inner.placement.unfreeze(id),
        }
        self.inner.migrating.borrow_mut().remove(&id);
        result.map(|()| true)
    }

    /// The move itself, run with `id` frozen.
    ///
    /// Exactly-once survives the move because the request ledger travels
    /// with the bytes: a client retrying a pre-move write replays against
    /// the new owners and is answered `AlreadyApplied` at its recorded
    /// tag instead of being applied twice.
    ///
    /// The installed copy is *sealed* one sequence number above the
    /// newest tag any reachable old owner reported (writer `u32::MAX`
    /// wins ties), so an uncommitted line a failed coordination left
    /// behind orders below the moved state and anti-entropy cannot
    /// resurrect lost-race bytes over it. A receiver holding an even
    /// newer tag answers [`Response::Stale`] and the driver re-seals
    /// above that.
    ///
    /// A committed delete survives the move the same way: an old owner
    /// whose tombstone tag exceeds every live tag turns the move into a
    /// tombstone install, so the delete cannot be undone by a stale
    /// minority holder feeding anti-entropy after the flip.
    async fn migrate_frozen(&self, id: ObjectId, old: &[NodeId]) -> Result<(), PcsiError> {
        let majority = self.inner.placement.majority();
        // The object's first new owner pulls: the transfer is charged
        // from the network position of the node that will own the data.
        let from = self.inner.placement.ring_replicas(id)[0];
        let tag_frame = wire::encode_request(&Request::TagOf { id });
        let fetch_frame = wire::encode_request(&Request::Fetch { id });
        // Snapshot every reachable old owner — a majority must answer,
        // and asking all of them lets the seal cover zombie tags on
        // reachable minorities too. TagOf runs *before* Fetch on each
        // node so a `reported > live` surplus can only mean a tombstone
        // (writes are frozen; anti-entropy can only raise the live tag).
        let fabric = &self.inner.fabric;
        let replies = join_all(old.iter().map(|&n| {
            let tag = timed_rpc(fabric, from, n, tag_frame.clone());
            let state = timed_rpc(fabric, from, n, fetch_frame.clone());
            async move { (tag.await, state.await) }
        }))
        .await;
        let mut heard = 0usize;
        let mut best: Option<(StoredObject, Vec<(u64, Tag)>)> = None;
        // Newest tag seen anywhere reachable (zombies and tombstones
        // included) — the seal floor.
        let mut max_seen = Tag::ZERO;
        // Newest committed-delete tag among the old owners.
        let mut tombstone = Tag::ZERO;
        for (tag, state) in replies {
            let reported = match tag {
                Ok(Response::TagIs { tag }) => tag,
                _ => continue,
            };
            let live = match state {
                Ok(Response::Object { object, reqs }) => {
                    let t = object.tag;
                    if best.as_ref().is_none_or(|(b, _)| t > b.tag) {
                        best = Some((object, reqs));
                    }
                    t
                }
                Ok(Response::Absent) => Tag::ZERO,
                _ => continue,
            };
            heard += 1;
            max_seen = max_seen.max(reported).max(live);
            if reported > live {
                tombstone = tombstone.max(reported);
            }
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
        let (snapshot, reqs) = best.unwrap_or_else(|| {
            (
                StoredObject {
                    data: Bytes::new(),
                    tag: Tag::ZERO,
                    mutability: Mutability::Mutable,
                    stable_len: 0,
                },
                Vec::new(),
            )
        });
        let mut seal_seq = max_seen.seq + 1;
        for _ in 0..MAX_SEAL_ROUNDS {
            let epoch = self.inner.placement.epoch();
            let targets = self.inner.placement.ring_replicas(id);
            let sealed = StoredObject {
                data: if deleted {
                    Bytes::new()
                } else {
                    snapshot.data.clone()
                },
                tag: Tag {
                    seq: seal_seq,
                    writer: u32::MAX,
                },
                mutability: snapshot.mutability,
                stable_len: if deleted { 0 } else { snapshot.stable_len },
            };
            let frame = wire::encode_request(&Request::Migrate {
                epoch,
                id,
                object: sealed,
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
    let (handle, call) = (fabric.handle().clone(), rpc(fabric, from, to, frame));
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
