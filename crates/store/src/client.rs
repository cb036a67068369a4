//! The client's read and write paths.
//!
//! A [`StoreClient`] maps the PCSI consistency menu onto the replication
//! machinery:
//!
//! | operation            | `Linearizable`                          | `Eventual`              |
//! |----------------------|-----------------------------------------|-------------------------|
//! | mutation             | primary + sync majority                 | primary only, async rest|
//! | read                 | one-RTT quorum read (newest of majority)| closest replica         |
//!
//! A mutation goes to the object's primary first and to the next replica
//! on failover. Linearizable reads fan out to every replica and take the
//! newest tag among the first majority of replies: one round trip, plus a
//! directed read for payloads above
//! [`crate::StoreConfig::inline_read_max`] and a write-back when the
//! replies disagree.

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId, PcsiError};
use pcsi_net::NodeId;
use pcsi_trace::{AttrValue, SpanHandle, TraceContext};

use crate::engine::{MediaTier, Mutation};
use crate::quorum::{self, rpc, Classified};
use crate::recovery::{Attempt, Recovery};
use crate::store::ReplicatedStore;
use crate::version::Tag;
use crate::wire::{self, Request, Response};

/// A read as served by a replica (or the cache): payload plus the
/// metadata that drives caching decisions.
pub(crate) struct Served {
    pub(crate) tag: Tag,
    pub(crate) mutability: Mutability,
    pub(crate) stable_len: u64,
    pub(crate) data: Bytes,
}

impl Served {
    /// The read a [`Response::Data`] carries; any other reply is handed back.
    fn from_data(resp: Response) -> Result<Served, Response> {
        match resp {
            Response::Data {
                tag,
                mutability,
                stable_len,
                data,
            } => Ok(Served {
                tag,
                mutability,
                stable_len,
                data,
            }),
            other => Err(other),
        }
    }
}

/// One reply in a one-RTT quorum read.
struct QuorumReply {
    node: NodeId,
    tag: Tag,
    /// `None` when the replica answered with a bare tag report (payload
    /// above the inline limit, or object absent).
    served: Option<Served>,
}

/// A store client bound to an origin node (the node whose network position
/// the operations are charged from).
#[derive(Clone)]
pub struct StoreClient {
    pub(crate) store: ReplicatedStore,
    pub(crate) origin: NodeId,
    /// Incoming trace context: operation spans become children of it.
    /// Without one (a bare client) each operation opens a root span.
    pub(crate) ctx: Option<TraceContext>,
}

impl StoreClient {
    /// Binds this client's operations to an incoming trace context, so
    /// store spans nest under the caller (e.g. a kernel op or a REST
    /// gateway request) instead of opening their own roots.
    pub fn traced(mut self, ctx: Option<TraceContext>) -> StoreClient {
        self.ctx = ctx;
        self
    }

    /// Opens the span for one client-facing store operation: a child of
    /// the bound context when one exists, else a fresh root (subject to
    /// sampling). Disabled (zero-cost) without a tracer.
    fn op_span(&self, name: &'static str) -> SpanHandle {
        pcsi_trace::child_or_root(&self.store.inner.telemetry.tracer, self.ctx, name)
    }

    /// Creates or replaces an object.
    pub async fn put(
        &self,
        id: ObjectId,
        data: Bytes,
        mutability: Mutability,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::PutFull { data, mutability }, consistency)
            .await
    }

    /// Overwrites a byte range.
    pub async fn write_at(
        &self,
        id: ObjectId,
        offset: u64,
        data: Bytes,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::WriteAt { offset, data }, consistency)
            .await
    }

    /// Appends bytes.
    pub async fn append(
        &self,
        id: ObjectId,
        data: Bytes,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::Append { data }, consistency)
            .await
    }

    /// Applies a mutability transition.
    pub async fn set_mutability(
        &self,
        id: ObjectId,
        to: Mutability,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::SetMutability { to }, consistency)
            .await
    }

    /// Deletes an object. Deletes are always replicated synchronously to
    /// the full replica set that is reachable (tombstones guard the rest).
    pub async fn delete(&self, id: ObjectId) -> Result<Tag, PcsiError> {
        let n = self.store.placement().replication_factor() as u32;
        let result = self.mutate_with_acks(id, Mutation::Delete, n).await;
        // Invalidate caches on success and on an *ambiguous* failure,
        // which may hide a tombstone that landed: only a definitive
        // rejection proves the delete had no effect.
        let ambiguous = matches!(&result, Err(e) if e.is_retryable());
        if result.is_ok() || ambiguous {
            self.store.invalidate_cached(id);
        }
        result
    }

    /// Writes through the object's replicas, the primary first.
    pub(crate) async fn mutate(
        &self,
        id: ObjectId,
        mutation: Mutation,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        let acks = match consistency {
            Consistency::Linearizable => self.store.placement().majority() as u32,
            Consistency::Eventual => 1,
        };
        self.mutate_with_acks(id, mutation, acks).await
    }

    async fn mutate_with_acks(
        &self,
        id: ObjectId,
        mutation: Mutation,
        sync_replicas: u32,
    ) -> Result<Tag, PcsiError> {
        let op = match &mutation {
            Mutation::PutFull { .. } => "put",
            Mutation::WriteAt { .. } => "write_at",
            Mutation::Append { .. } => "append",
            Mutation::SetMutability { .. } => "set_mutability",
            Mutation::Delete => "delete",
        };
        let req_id = self.store.inner.next_req_id.get() + 1;
        self.store.inner.next_req_id.set(req_id);
        let mut span = self.op_span("store.mutate");
        span.attr("op", op);
        span.attr_with("object", || AttrValue::Text(format!("{id:?}")));
        span.attr("acks", u64::from(sync_replicas));
        let result = self
            .coordinate(id, &mutation, sync_replicas, req_id, &span)
            .await;
        if result.is_err() {
            span.attr("error", "true");
        }
        span.finish();
        result
    }

    /// The recovery driver for this client's operation under `parent`.
    fn recovery<'a>(&'a self, parent: &'a SpanHandle) -> Recovery<'a> {
        let inner = &self.store.inner;
        Recovery {
            handle: inner.fabric.handle(),
            policy: &inner.config.retry,
            retries: &inner.retries,
            timeouts: &inner.timeouts,
            parent,
        }
    }

    /// Drives one coordination to completion: the failover steps walk
    /// the replica set in placement order (any replica may coordinate:
    /// a linearizable write is a ballot round, and the `req_id` recorded
    /// with the state keeps a retried request from applying twice).
    async fn coordinate(
        &self,
        id: ObjectId,
        mutation: &Mutation,
        sync_replicas: u32,
        req_id: u64,
        parent: &SpanHandle,
    ) -> Result<Tag, PcsiError> {
        let inner = &self.store.inner;
        let next_target = |step: usize| {
            // Re-resolve placement at every failover step: a topology
            // change (join/decommission) mid-operation must steer the
            // remaining attempts at the object's *current* owners, not
            // the set in force when the operation started.
            let target = *self.store.placement().replicas(id).get(step)?;
            if step > 0 {
                inner.failovers.incr();
                if let Some(j) = &inner.telemetry.journal {
                    j.append("store", "failover", format!("id={id:?} target={step}"));
                }
            }
            Some(target)
        };
        let attempt = |a: Attempt<'_, NodeId>| {
            a.span.attr("target", u64::from(a.target.0));
            if a.step > 0 {
                a.span.attr("failover", a.step as u64);
            }
            // The attempt's absolute expiry: the coordinator orders
            // nothing for an attempt this client has moved on from.
            let expires_ns = a
                .deadline
                .map_or(0, |d| (inner.fabric.handle().now() + d).as_nanos());
            let frame = wire::encode_request(&Request::Coordinate {
                id,
                mutation: mutation.clone(),
                sync_replicas,
                req_id,
                expires_ns,
            });
            let call = rpc(&inner.fabric, self.origin, *a.target, frame, a.span.ctx());
            async move {
                match call.await? {
                    Response::Coordinated { tag } => Ok(tag),
                    other => Err(PcsiError::Fault(format!("unexpected response {other:?}"))),
                }
            }
        };
        self.recovery(parent).run(next_target, attempt).await
    }

    /// Reads a byte range at the requested consistency level.
    ///
    /// Returns the served `(tag, data)`; the tag lets callers measure
    /// staleness (experiment E7).
    ///
    /// The read first consults the origin node's mutability-aware cache:
    /// immutable bytes and stable append-only prefixes are served locally
    /// at DRAM cost with zero fabric traffic, which is sound at *any*
    /// consistency level because such bytes can never change.
    pub async fn read(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        consistency: Consistency,
    ) -> Result<(Tag, Bytes), PcsiError> {
        let mut span = self.op_span("store.read");
        span.attr(
            "consistency",
            match consistency {
                Consistency::Linearizable => "linearizable",
                Consistency::Eventual => "eventual",
            },
        );
        span.attr_with("object", || AttrValue::Text(format!("{id:?}")));
        let result = self.read_inner(id, offset, len, consistency, &span).await;
        if result.is_err() {
            span.attr("error", "true");
        }
        span.finish();
        result
    }

    async fn read_inner(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        consistency: Consistency,
        parent: &SpanHandle,
    ) -> Result<(Tag, Bytes), PcsiError> {
        if let Some((tag, data)) = self.store.cache_get(self.origin, id, offset, len) {
            let mut cache_span = parent.span("store.cache");
            cache_span.attr("hit", "true");
            let t = MediaTier::Dram.io_time(data.len());
            self.store.inner.fabric.handle().sleep(t).await;
            cache_span.finish();
            return Ok((tag, data));
        }
        // Reads are idempotent, so an abandoned attempt needs no further
        // care; the steps only bound how long the read keeps trying (an
        // eventual read rotates its target per attempt by itself).
        let steps = self.store.placement().replication_factor();
        let served = self
            .recovery(parent)
            .run(
                |step| (step < steps).then_some(()),
                |a| {
                    a.span.attr("attempt", u64::from(a.attempt));
                    let (attempt, ctx) = (a.attempt as usize, a.span.ctx());
                    self.clone()
                        .read_attempt(id, offset, len, consistency, attempt, ctx)
                },
            )
            .await?;
        if offset == 0 {
            self.store.cache_admit(self.origin, id, &served);
        }
        Ok((served.tag, served.data))
    }

    /// One read attempt. Takes the client by value so the future owns it
    /// and the driver can race it on a task of its own.
    async fn read_attempt(
        self,
        id: ObjectId,
        offset: u64,
        len: u64,
        consistency: Consistency,
        attempt: usize,
        ctx: Option<TraceContext>,
    ) -> Result<Served, PcsiError> {
        match consistency {
            Consistency::Eventual => {
                let replicas = self.store.placement().replicas(id);
                let closest = self.store.placement().closest_replica(
                    self.store.inner.fabric.topology(),
                    id,
                    self.origin,
                );
                // First try the closest replica; on retry rotate through
                // the rest of the set (any replica serves eventual reads).
                let target = if attempt == 0 || !self.store.inner.config.retry.failover {
                    closest
                } else {
                    let base = replicas.iter().position(|&n| n == closest).unwrap_or(0);
                    replicas[(base + attempt) % replicas.len()]
                };
                self.read_from(target, id, offset, len, ctx).await
            }
            Consistency::Linearizable => self.read_one_rtt(id, offset, len, ctx).await,
        }
    }

    /// One-RTT linearizable read: the newest tag among the first majority
    /// of replies is at least the last acknowledged write's (any two
    /// majorities intersect). Replies above the inline limit degrade to a
    /// tag report and the newest replica is read directly. When the
    /// replies *disagree*, the newest value may sit on fewer than a
    /// majority, so the read first **writes it back** (ABD's second
    /// phase) lest a later read miss it.
    async fn read_one_rtt(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        ctx: Option<TraceContext>,
    ) -> Result<Served, PcsiError> {
        let need = self.store.placement().majority();
        let frame = wire::encode_request(&Request::ReadWithTag {
            id,
            offset,
            len,
            inline_limit: self.store.inner.config.inline_read_max,
        });
        let mut replies = self
            .gather(id, &[], (frame, ctx), need, |node, reply| {
                let (tag, served) = match reply.map(Served::from_data) {
                    Ok(Ok(served)) => (served.tag, Some(served)),
                    Ok(Err(Response::TagIs { tag })) => (tag, None),
                    _ => return Err(()),
                };
                Ok(QuorumReply { node, tag, served })
            })
            .await?;

        // Newest tag wins; on a tie the first reply that carried bytes.
        let key = |r: &QuorumReply| (r.tag, r.served.is_some());
        let best = (0..replies.len()).rev().max_by_key(|&i| key(&replies[i]));
        let best = best.expect("a quorum replied");
        let best_tag = replies[best].tag;
        if best_tag == Tag::ZERO {
            return Err(PcsiError::NotFound(id));
        }
        let holders = replies.iter().filter(|r| r.tag == best_tag);
        let known: Vec<NodeId> = holders.map(|r| r.node).collect();
        if known.len() < need {
            let source = (replies[best].node, best_tag);
            self.write_back(id, source, &known, need - known.len(), ctx)
                .await?;
        }
        let best_node = replies[best].node;
        match replies.swap_remove(best).served {
            Some(served) => Ok(served),
            // Payload above the inline limit (or a tombstone): read the
            // newest replica directly.
            None => self.read_from(best_node, id, offset, len, ctx).await,
        }
    }

    /// ABD write-back (doubles as read repair): fetches the state at
    /// `tag` from `source` and pushes it to every replica not already
    /// known to hold it, returning once `need_acks` pushes succeeded — at which
    /// point a majority holds the value and any later read quorum must
    /// observe it. A receiver takes the push only above its own tag and
    /// its promise, and one that holds a newer state does not count: it
    /// may be a line the value never reached. Stale or duplicate pushes
    /// are harmless; the remaining pushes finish detached.
    async fn write_back(
        &self,
        id: ObjectId,
        (source, tag): (NodeId, Tag),
        known: &[NodeId],
        need_acks: usize,
        ctx: Option<TraceContext>,
    ) -> Result<(), PcsiError> {
        let fetch = wire::encode_request(&Request::Fetch { id });
        let fabric = &self.store.inner.fabric;
        let (object, reqs) = match rpc(fabric, self.origin, source, fetch, ctx).await {
            // Only the state the read returns may be written back: one
            // the source moved past may have been lost with its round.
            Ok(Response::Object { object, reqs }) if object.tag == tag => (object, reqs),
            // The object vanished between the read and the fetch —
            // a racing delete; surface it as such.
            Ok(Response::TagIs { .. }) => return Err(PcsiError::NotFound(id)),
            _ => {
                return Err(PcsiError::QuorumUnavailable {
                    needed: need_acks,
                    got: 0,
                })
            }
        };
        // Encode the push once — it embeds the full object payload, so
        // re-encoding (and deep-cloning the object) per peer would cost
        // O(replicas × object size).
        let push = wire::encode_request(&Request::Push { id, object, reqs });
        self.gather(id, known, (push, ctx), need_acks, |_, reply| match reply {
            Ok(Response::Applied) => Ok(()),
            _ => Err(()),
        })
        .await?;
        Ok(())
    }

    /// One quorum round from this client: `frame`, traced by its context,
    /// goes to every replica of `id` outside `skip`, in placement order,
    /// and the first `need` replies `ack` accepts come back — or the
    /// quorum failure.
    async fn gather<A: 'static>(
        &self,
        id: ObjectId,
        skip: &[NodeId],
        frame: (Bytes, Option<TraceContext>),
        need: usize,
        ack: impl Fn(NodeId, Result<Response, PcsiError>) -> Result<A, ()> + 'static,
    ) -> Result<Vec<A>, PcsiError> {
        let targets = self
            .store
            .placement()
            .replicas(id)
            .into_iter()
            .filter(|n| !skip.contains(n));
        let fabric = &self.store.inner.fabric;
        quorum::gather(fabric, self.origin, targets, frame, need, move |n, r| {
            Classified::Now(ack(n, r))
        })
        .await
        .map_err(|short| PcsiError::QuorumUnavailable {
            needed: need,
            got: short.got,
        })
    }

    async fn read_from(
        &self,
        replica: NodeId,
        id: ObjectId,
        offset: u64,
        len: u64,
        ctx: Option<TraceContext>,
    ) -> Result<Served, PcsiError> {
        let frame = wire::encode_request(&Request::Read { id, offset, len });
        let fabric = &self.store.inner.fabric;
        Served::from_data(rpc(fabric, self.origin, replica, frame, ctx).await?)
            .map_err(|other| PcsiError::Fault(format!("unexpected response {other:?}")))
    }

    /// Fetches the whole object at the requested consistency.
    pub async fn read_all(
        &self,
        id: ObjectId,
        consistency: Consistency,
    ) -> Result<(Tag, Bytes), PcsiError> {
        self.read(id, 0, u64::MAX, consistency).await
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::testkit::{self, linearizable_put, oid};
    use crate::{RetryPolicy, StoreConfig};
    use pcsi_net::{LatencyModel, Topology};
    use pcsi_sim::Sim;

    #[test]
    fn put_then_linearizable_read_roundtrips() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::cached());
        let out = sim.block_on(async move {
            let c = store.client(NodeId(0));
            linearizable_put(&c, oid(1), Bytes::from_static(b"hello")).await;
            c.read_all(oid(1), Consistency::Linearizable).await.unwrap()
        });
        assert_eq!(&out.1[..], b"hello");
        assert_eq!(out.0.seq, 1);
    }

    #[test]
    fn linearizable_read_sees_latest_write_from_any_node() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::cached());
        sim.block_on(async move {
            let writer = store.client(NodeId(0));
            let reader = store.client(NodeId(8));
            for i in 0..10u8 {
                linearizable_put(&writer, oid(1), Bytes::from(vec![i])).await;
                let (_, data) = reader
                    .read_all(oid(1), Consistency::Linearizable)
                    .await
                    .unwrap();
                assert_eq!(data[0], i, "stale linearizable read at i = {i}");
            }
        });
    }

    #[test]
    fn eventual_write_is_faster_than_linearizable() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
        let h = fabric.handle().clone();
        let (lin, ev) = sim.block_on(async move {
            // Same object both times so the placement (and therefore the
            // client -> primary distance) is identical; client is not a
            // replica so both consistency levels pay the same first hop.
            let id = oid(1);
            let c = store.client(testkit::outsider(&store, id));
            let t0 = h.now();
            linearizable_put(&c, id, Bytes::from_static(b"a")).await;
            let lin = h.now() - t0;
            let t1 = h.now();
            c.put(
                id,
                Bytes::from_static(b"b"),
                Mutability::Mutable,
                Consistency::Eventual,
            )
            .await
            .unwrap();
            (lin, h.now() - t1)
        });
        assert!(
            lin.as_nanos() > ev.as_nanos() * 13 / 10,
            "linearizable {lin:?} vs eventual {ev:?}"
        );
    }

    #[test]
    fn eventual_read_can_be_stale_then_converges() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(7);
                for v in [&b"v1"[..], b"v2"] {
                    let data = Bytes::from_static(v);
                    let put = c.put(id, data, Mutability::Mutable, Consistency::Eventual);
                    put.await.unwrap();
                }
                // A reader sitting next to a secondary may see v1 or v2
                // immediately after the ack; after anti-entropy rounds it
                // must see v2 everywhere.
                testkit::anti_entropy(&store, 1).await;
                h.sleep(Duration::from_millis(5)).await;
                for node in [0u32, 3, 6, 8] {
                    let (tag, data) = store
                        .client(NodeId(node))
                        .read_all(id, Consistency::Eventual)
                        .await
                        .unwrap();
                    assert_eq!(&data[..], b"v2", "node {node} still stale");
                    assert_eq!(tag.seq, 2);
                }
            }
        });
    }

    #[test]
    fn linearizable_write_fails_without_majority() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
        let err = sim.block_on({
            let store = store.clone();
            async move {
                let id = oid(3);
                let replicas = store.placement().replicas(id);
                // Crash both secondaries: majority (2 of 3) unreachable.
                fabric.set_node_down(replicas[1], true);
                fabric.set_node_down(replicas[2], true);
                store
                    .client(NodeId(0))
                    .put(
                        id,
                        Bytes::from_static(b"x"),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap_err()
            }
        });
        assert!(
            matches!(err, PcsiError::QuorumUnavailable { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn eventual_write_survives_secondary_crashes() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
        let ok = sim.block_on({
            let store = store.clone();
            async move {
                let id = oid(4);
                let replicas = store.placement().replicas(id);
                let client_node = testkit::outsider(&store, id);
                fabric.set_node_down(replicas[1], true);
                fabric.set_node_down(replicas[2], true);
                store
                    .client(client_node)
                    .put(
                        id,
                        Bytes::from_static(b"x"),
                        Mutability::Mutable,
                        Consistency::Eventual,
                    )
                    .await
                    .is_ok()
            }
        });
        assert!(ok);
    }

    #[test]
    fn linearizable_read_tolerates_one_crash() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
        let data = sim.block_on({
            let store = store.clone();
            async move {
                let id = oid(5);
                let c = store.client(NodeId(0));
                linearizable_put(&c, id, Bytes::from_static(b"resilient")).await;
                let replicas = store.placement().replicas(id);
                fabric.set_node_down(replicas[0], true); // Even the primary.
                c.read_all(id, Consistency::Linearizable).await.unwrap().1
            }
        });
        assert_eq!(&data[..], b"resilient");
    }

    #[test]
    fn missing_object_reported_not_found() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::cached());
        let (lin, ev) = sim.block_on(async move {
            let c = store.client(NodeId(1));
            let lin = c.read_all(oid(99), Consistency::Linearizable).await;
            let ev = c.read_all(oid(99), Consistency::Eventual).await;
            (lin, ev)
        });
        assert!(matches!(lin, Err(PcsiError::NotFound(_))), "{lin:?}");
        assert!(matches!(ev, Err(PcsiError::NotFound(_))), "{ev:?}");
    }

    #[test]
    fn delete_propagates_and_tombstones() {
        let mut sim = Sim::new(42);
        let config = StoreConfig {
            anti_entropy: Some(Duration::from_millis(50)),
            ..testkit::cached()
        };
        let (_fabric, store) = testkit::deploy(&sim, config);
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(6);
                linearizable_put(&c, id, Bytes::from_static(b"temp")).await;
                c.delete(id).await.unwrap();
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(matches!(r, Err(PcsiError::NotFound(_))));
                // Anti-entropy must not resurrect it.
                testkit::anti_entropy(&store, 1).await;
                let r = c.read_all(id, Consistency::Eventual).await;
                assert!(matches!(r, Err(PcsiError::NotFound(_))));
            }
        });
    }

    #[test]
    fn append_only_workflow_through_store() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::cached());
        sim.block_on(async move {
            let c = store.client(NodeId(2));
            let id = oid(8);
            c.put(
                id,
                Bytes::from_static(b""),
                Mutability::AppendOnly,
                Consistency::Linearizable,
            )
            .await
            .unwrap();
            c.append(id, Bytes::from_static(b"one,"), Consistency::Linearizable)
                .await
                .unwrap();
            c.append(id, Bytes::from_static(b"two"), Consistency::Linearizable)
                .await
                .unwrap();
            let err = c
                .write_at(id, 0, Bytes::from_static(b"X"), Consistency::Linearizable)
                .await
                .unwrap_err();
            assert!(matches!(err, PcsiError::MutabilityViolation { .. }));
            let (_, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
            assert_eq!(&data[..], b"one,two");
            // Seal it and verify writes of any kind now fail.
            c.set_mutability(id, Mutability::Immutable, Consistency::Linearizable)
                .await
                .unwrap();
            let err = c
                .append(id, Bytes::from_static(b"!"), Consistency::Linearizable)
                .await
                .unwrap_err();
            assert!(matches!(err, PcsiError::MutabilityViolation { .. }));
        });
    }

    #[test]
    fn one_rtt_read_is_faster_than_two_phase() {
        // Same cluster and workload, with only the inline threshold
        // toggled: the one-RTT quorum read must beat tag-quorum-then-read.
        let lat = |inline_read_max: u64| {
            let mut sim = Sim::new(42);
            let config = StoreConfig {
                inline_read_max,
                ..testkit::config()
            };
            let (fabric, store) = testkit::deploy(&sim, config);
            let h = fabric.handle().clone();
            sim.block_on(async move {
                // Read from a node holding no replica: the two-phase
                // path's second hop is then a real cross-fabric RTT.
                let c = store.client(testkit::outsider(&store, oid(1)));
                linearizable_put(&c, oid(1), Bytes::from(vec![7u8; 1024])).await;
                let t0 = h.now();
                c.read_all(oid(1), Consistency::Linearizable).await.unwrap();
                h.now() - t0
            })
        };
        let one_rtt = lat(64 * 1024);
        let two_phase = lat(0);
        assert!(
            one_rtt.as_nanos() * 13 / 10 < two_phase.as_nanos(),
            "one-RTT {one_rtt:?} should clearly beat two-phase {two_phase:?}"
        );
    }

    #[test]
    fn large_objects_fall_back_to_directed_read() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::cached());
        sim.block_on(async move {
            let c = store.client(NodeId(0));
            // Larger than the 64 KiB inline limit.
            let big = vec![9u8; 100 * 1024];
            linearizable_put(&c, oid(2), Bytes::from(big.clone())).await;
            let (tag, data) = c.read_all(oid(2), Consistency::Linearizable).await.unwrap();
            assert_eq!(tag.seq, 1);
            assert_eq!(data.len(), big.len());
        });
    }

    /// A trace context crosses a hop in the fabric's call, not in the
    /// frame: a traced directed read moves exactly the context's
    /// `TraceContext::WIRE_LEN` bytes more than the same read untraced,
    /// and the replica's span is a child of the attempt that sent it.
    #[test]
    fn a_traced_read_pays_the_context_once_and_nests_under_its_attempt() {
        use pcsi_obs::Telemetry;
        use pcsi_trace::{Sampling, Tracer};

        let read = |sampling| {
            let mut sim = Sim::new(42);
            let fabric =
                testkit::fabric(&sim, Topology::uniform(3, 3), LatencyModel::deterministic);
            let tracer = Tracer::new(&sim.handle(), sampling, 256);
            let telemetry = Telemetry {
                tracer: Some(tracer.clone()),
                ..Telemetry::default()
            };
            let store = testkit::launch(&fabric, testkit::config(), &telemetry);
            let client = store.client(testkit::outsider(&store, oid(1)));
            let (f, h, t) = (fabric.clone(), fabric.handle().clone(), tracer.clone());
            let moved = sim.block_on(async move {
                linearizable_put(&client, oid(1), Bytes::from_static(b"traced")).await;
                // The write's straggling Apply is long done.
                h.sleep(Duration::from_millis(1)).await;
                t.sink().take();
                let before = f.bytes_moved();
                client
                    .read_all(oid(1), Consistency::Eventual)
                    .await
                    .unwrap();
                f.bytes_moved() - before
            });
            (moved, tracer.sink().take())
        };
        let (plain, none) = read(Sampling::Off);
        let (traced, spans) = read(Sampling::Always);
        assert!(none.is_empty());
        assert_eq!(traced - plain, TraceContext::WIRE_LEN as u64);
        let span = |name| spans.iter().find(|s| s.name == name).expect(name);
        let (attempt, served) = (span("store.attempt"), span("replica.read"));
        assert_eq!(
            (served.trace, served.parent),
            (attempt.trace, Some(attempt.id))
        );
    }

    #[test]
    fn delete_invalidates_cached_copies() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::cached());
        sim.block_on(async move {
            let c = store.client(NodeId(0));
            c.put(
                oid(4),
                Bytes::from_static(b"short lived"),
                Mutability::Immutable,
                Consistency::Linearizable,
            )
            .await
            .unwrap();
            c.read_all(oid(4), Consistency::Linearizable).await.unwrap();
            c.delete(oid(4)).await.unwrap();
            let r = c.read_all(oid(4), Consistency::Linearizable).await;
            assert!(matches!(r, Err(PcsiError::NotFound(_))), "{r:?}");
        });
    }

    #[test]
    fn quorum_read_repairs_stale_replica() {
        let mut sim = Sim::new(44);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached()); // No anti-entropy.
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(5);
                let replicas = store.placement().replicas(id);
                linearizable_put(&c, id, Bytes::from_static(b"v1")).await;
                h.sleep(Duration::from_millis(5)).await;
                // Isolate one secondary, write v2 past it, then heal.
                let lagging = replicas[2];
                let others: Vec<NodeId> = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .filter(|&n| n != lagging)
                    .collect();
                fabric.partition(&[lagging], &others);
                linearizable_put(&c, id, Bytes::from_static(b"v2")).await;
                fabric.heal_partitions();
                // Quorum reads observe the lagging replica's old tag and
                // push it the new state — no anti-entropy involved. Read
                // from a client co-located with the laggard so its (old)
                // reply is always part of the first majority.
                let reader = store.client(lagging);
                for _ in 0..5 {
                    let (tag, data) = reader
                        .read_all(id, Consistency::Linearizable)
                        .await
                        .unwrap();
                    assert_eq!(tag.seq, 2);
                    assert_eq!(&data[..], b"v2");
                    h.sleep(Duration::from_millis(2)).await;
                }
                let repaired: u64 = store.replicas().iter().map(|r| r.repaired_count()).sum();
                assert!(repaired > 0, "read repair should have fired");
                let local = store
                    .replica_on(lagging)
                    .unwrap()
                    .with_engine(|e| e.read(id, 0, 100).map(|b| b.to_vec()));
                assert_eq!(local.unwrap(), b"v2");
            }
        });
    }

    #[test]
    fn writes_fail_over_past_a_crashed_primary() {
        // The primary of the object is down, but a majority of replicas
        // is alive: the recovery layer must route the coordination to
        // the next replica in placement order instead of surfacing an
        // error to the client.
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
        sim.block_on({
            let store = store.clone();
            async move {
                let id = oid(30);
                let replicas = store.placement().replicas(id);
                let c = store.client(testkit::outsider(&store, id));
                linearizable_put(&c, id, Bytes::from_static(b"v1")).await;
                fabric.set_node_down(replicas[0], true);
                let tag = c
                    .write_at(id, 0, Bytes::from_static(b"v2"), Consistency::Linearizable)
                    .await
                    .expect("a live majority must absorb the write");
                assert_eq!(tag.writer, replicas[1].0, "ordered by the failover target");
                let stats = store.retry_stats();
                assert!(stats.failovers >= 1, "failover never fired: {stats:?}");
                assert!(
                    stats.retries >= 1,
                    "per-target retries never fired: {stats:?}"
                );
                let (read_tag, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
                assert_eq!(read_tag, tag);
                assert_eq!(&data[..], b"v2");
            }
        });
    }

    #[test]
    fn dropped_messages_time_out_and_fail_over() {
        // Every message on the client <-> primary link vanishes. With a
        // per-attempt deadline below the fabric's retransmit timeout,
        // each attempt against the primary surfaces as a client-side
        // timeout — the path that finally generates `PcsiError::Timeout`
        // — and the write still succeeds via failover.
        let mut sim = Sim::new(42);
        let config = StoreConfig {
            retry: RetryPolicy {
                attempt_timeout: Some(Duration::from_millis(1)),
                ..RetryPolicy::default()
            },
            ..testkit::config()
        };
        let (fabric, store) = testkit::deploy(&sim, config);
        sim.block_on({
            let store = store.clone();
            async move {
                let id = oid(31);
                let replicas = store.placement().replicas(id);
                let client_node = testkit::outsider(&store, id);
                testkit::drop_link(&fabric, client_node, replicas[0]);
                let c = store.client(client_node);
                let tag = c
                    .put(
                        id,
                        Bytes::from_static(b"survives"),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .expect("a dropped link to the primary must not fail the write");
                assert_eq!(tag.writer, replicas[1].0);
                let stats = store.retry_stats();
                assert!(stats.timeouts >= 1, "attempts never timed out: {stats:?}");
                assert!(stats.failovers >= 1, "failover never fired: {stats:?}");
                let (_, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
                assert_eq!(&data[..], b"survives");
            }
        });
    }

    #[test]
    fn ambiguous_delete_failure_invalidates_caches() {
        // A delete that errs ambiguously may still have landed a
        // tombstone server-side (here: the full-set ack fails because
        // one Apply is dropped, but a majority did apply). The cache
        // must be invalidated on that ambiguous failure too — otherwise
        // a cached "immutable" copy serves deleted bytes forever.
        let mut sim = Sim::new(42);
        let config = StoreConfig {
            // Single-shot so the ambiguous verdict surfaces directly.
            retry: RetryPolicy::none(),
            ..testkit::cached()
        };
        let (fabric, store) = testkit::deploy(&sim, config);
        sim.block_on({
            let store = store.clone();
            async move {
                let id = oid(32);
                let replicas = store.placement().replicas(id);
                let c = store.client(testkit::outsider(&store, id));
                c.put(
                    id,
                    Bytes::from_static(b"doomed"),
                    Mutability::Immutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                // Cache the immutable object on the client's node.
                c.read_all(id, Consistency::Linearizable).await.unwrap();
                // Lose the replication traffic to the last replica: the
                // tombstone lands on a majority, but the full-set delete
                // ack fails — an ambiguous outcome for the client.
                testkit::drop_link(&fabric, replicas[0], replicas[2]);
                let err = c.delete(id).await.unwrap_err();
                assert!(
                    err.is_retryable(),
                    "delete verdict must be ambiguous: {err:?}"
                );
                fabric.clear_message_faults();
                // The cached copy must be gone: the next read goes to the
                // quorum and observes the tombstone instead of serving
                // the deleted bytes from cache.
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(
                    matches!(r, Err(PcsiError::NotFound(_))),
                    "cache served a deleted object: {r:?}"
                );
            }
        });
    }

    #[test]
    fn partition_isolates_minority_and_heals() {
        let mut sim = Sim::new(43);
        let config = StoreConfig {
            anti_entropy: Some(Duration::from_millis(50)),
            ..testkit::cached()
        };
        let (fabric, store) = testkit::deploy(&sim, config);
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(9);
                let replicas = store.placement().replicas(id);
                linearizable_put(&c, id, Bytes::from_static(b"v1")).await;
                // Partition one secondary away from everyone.
                let isolated = replicas[2];
                let others: Vec<NodeId> = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .filter(|&n| n != isolated)
                    .collect();
                fabric.partition(&[isolated], &others);
                // Majority writes still succeed.
                linearizable_put(&c, id, Bytes::from_static(b"v2")).await;
                // Heal; anti-entropy catches the straggler up.
                fabric.heal_partitions();
                h.sleep(Duration::from_millis(400)).await;
                let local = store
                    .replica_on(isolated)
                    .unwrap()
                    .with_engine(|e| e.read(id, 0, 100).map(|b| b.to_vec()));
                assert_eq!(local.unwrap(), b"v2");
            }
        });
    }

    /// One-RTT linearizable reads under a partition: a lagging replica's
    /// stale tag must never win the read quorum, and once the partition
    /// heals, quorum reads that observe the laggard must read-repair it —
    /// with anti-entropy disabled, repair is the *only* way it can catch up.
    #[test]
    fn one_rtt_reads_stay_fresh_and_repair_stale_replicas() {
        for seed in [606u64, 707] {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            // Raw store, jittered fabric. Anti-entropy off and caching off
            // so every read exercises the one-RTT quorum protocol and any
            // convergence we see is attributable to read repair alone.
            let fabric = testkit::fabric(&sim, Topology::uniform(3, 3), LatencyModel::new);
            let config = StoreConfig {
                // Single-shot: this test pins down the raw one-RTT
                // read/repair protocol, not the recovery layer.
                retry: RetryPolicy::none(),
                ..testkit::config()
            };
            let store = testkit::launch(&fabric, config, &pcsi_obs::Telemetry::default());
            sim.block_on(async move {
                let id = ObjectId::from_parts(9, 1);
                let replicas = store.placement().replicas(id);
                let laggard = replicas[2];
                let writer = store.client(testkit::outsider(&store, id));

                let mut acked: Tag =
                    linearizable_put(&writer, id, Bytes::from(vec![0u8; 64])).await;
                let mut acked_val = 0u8;

                for round in 1..=40u32 {
                    // Cut the third replica off mid-run; majority writes keep
                    // succeeding while it silently goes stale.
                    if round == 10 {
                        let others: Vec<NodeId> = fabric
                            .topology()
                            .node_ids()
                            .into_iter()
                            .filter(|&n| n != laggard)
                            .collect();
                        fabric.partition(&[laggard], &others);
                    }
                    if round == 25 {
                        fabric.heal_partitions();
                    }

                    // Stop writing once the partition heals: post-heal writes
                    // would converge the laggard through ordinary replication,
                    // and we want read repair to be the only path back.
                    if round < 25 {
                        let value = (round % 251) as u8;
                        match writer
                            .write_at(
                                id,
                                0,
                                Bytes::from(vec![value; 64]),
                                Consistency::Linearizable,
                            )
                            .await
                        {
                            Ok(tag) => {
                                acked = tag;
                                acked_val = value;
                            }
                            Err(e) => assert!(
                                matches!(
                                    e,
                                    PcsiError::QuorumUnavailable { .. } | PcsiError::Fault(_)
                                ),
                                "seed {seed} round {round}: unexpected write error {e:?}"
                            ),
                        }
                    }

                    // Read from a client co-located with the laggard: its
                    // (possibly stale) local reply always lands in the first
                    // majority, which is exactly the case one-RTT reads must
                    // survive — and after healing, the case that triggers
                    // read repair.
                    match store
                        .client(laggard)
                        .read_all(id, Consistency::Linearizable)
                        .await
                    {
                        Ok((tag, data)) => {
                            assert!(
                                tag >= acked,
                                "seed {seed} round {round}: one-RTT read returned tag {tag:?} \
                                 older than last acked write {acked:?}"
                            );
                            assert_eq!(
                                data[0], acked_val,
                                "seed {seed} round {round}: stale payload"
                            );
                        }
                        Err(e) => assert!(
                            matches!(e, PcsiError::QuorumUnavailable { .. } | PcsiError::Fault(_)),
                            "seed {seed} round {round}: unexpected read error {e:?}"
                        ),
                    }
                    h.sleep(Duration::from_millis(2)).await;
                }

                // Quorum reads observed the laggard's stale tags after the
                // heal, so read repair must have pushed state to it.
                let repaired: u64 = store.replicas().iter().map(|r| r.repaired_count()).sum();
                assert!(repaired > 0, "seed {seed}: no read repair happened");
                h.sleep(Duration::from_millis(5)).await;
                let (tag, val) = store.replica_on(laggard).unwrap().with_engine(|e| {
                    let tag = e.get(id).map(|o| o.tag);
                    let val = e.read(id, 0, 1).map(|b| b[0]);
                    (tag, val)
                });
                assert_eq!(
                    tag,
                    Some(acked),
                    "seed {seed}: laggard tag did not converge"
                );
                assert_eq!(
                    val.ok(),
                    Some(acked_val),
                    "seed {seed}: laggard value did not converge"
                );
            });
        }
    }
}
