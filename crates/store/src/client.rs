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
//! Mutations always pass through the object's primary, which gives every
//! object a total mutation order regardless of consistency level (the
//! menu controls *acknowledgement* and *read* behaviour, not ordering).
//!
//! Linearizable reads fan the read itself to every replica and take the
//! newest tag among the first majority of replies — one fabric round
//! trip, correct because any write-majority intersects any read-majority.
//! Payloads above [`crate::StoreConfig::inline_read_max`] degrade to a tag
//! report plus a directed read (a second round trip). A quorum read
//! that observes divergent tags pushes the newest state to the stale
//! replicas in the background (read repair).

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId, PcsiError};
use pcsi_net::NodeId;
use pcsi_obs::JournalExt;
use pcsi_trace::{AttrValue, SpanHandle, TraceContext};

use crate::engine::{MediaTier, Mutation};
use crate::quorum::{self, rpc};
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
        // Invalidate caches on success — and on *ambiguous* failure: a
        // timeout or unreachable peer may hide a tombstone that was
        // applied server-side with the ack lost in flight, and a cache
        // still serving the deleted object's "immutable" bytes would
        // never learn otherwise. Only a definitive server-side rejection
        // proves the delete had no effect.
        let ambiguous = matches!(&result, Err(e) if e.is_retryable());
        if result.is_ok() || ambiguous {
            self.store.invalidate_cached(id);
        }
        result
    }

    /// Routes a mutation through the object's primary.
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
    /// the replica set in placement order (any replica may coordinate;
    /// `req_id` dedup and stale-tag rejection keep the order single).
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
                inner.telemetry.journal.with(|j| {
                    j.append("store", "failover", format!("id={id:?} target={step}"));
                });
            }
            Some(target)
        };
        let attempt = |a: Attempt<'_, NodeId>| {
            a.span.attr("target", u64::from(a.target.0));
            if a.step > 0 {
                a.span.attr("failover", a.step as u64);
            }
            // Stamp the attempt's absolute expiry into the request: the
            // coordinator refuses to order past it, so an abandoned
            // attempt can never mint a fresh tag after this client has
            // moved on (and possibly acknowledged the operation through
            // another coordinator).
            let expires_ns = a
                .deadline
                .map_or(0, |d| (inner.fabric.handle().now() + d).as_nanos());
            let frame = wire::encode_request_traced(
                &Request::Coordinate {
                    id,
                    mutation: mutation.clone(),
                    sync_replicas,
                    req_id,
                    expires_ns,
                },
                a.span.ctx(),
            );
            let call = rpc(&inner.fabric, self.origin, *a.target, frame);
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

    /// One-RTT linearizable read: fan the read itself to every replica
    /// and take the newest tag among the first majority of replies. Any
    /// write-majority intersects any read-majority, so the newest tag
    /// seen is at least the last acknowledged write's. Replies above the
    /// inline limit degrade to a tag report, after which the newest
    /// replica is read directly: two round trips.
    ///
    /// When the quorum replies *disagree*, the newest value is known to
    /// be at fewer than a majority — a concurrent write may still be in
    /// flight. Returning it immediately would let a later read miss it
    /// (the classic regular-but-not-atomic register anomaly), so the
    /// read first **writes back**: it pushes the newest state until a
    /// majority durably holds it (ABD's second phase). The agreeing
    /// fast path stays one round trip.
    async fn read_one_rtt(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        ctx: Option<TraceContext>,
    ) -> Result<Served, PcsiError> {
        let need = self.store.placement().majority();
        let frame = wire::encode_request_traced(
            &Request::ReadWithTag {
                id,
                offset,
                len,
                inline_limit: self.store.inner.config.inline_read_max,
            },
            ctx,
        );
        let mut replies = self
            .gather(id, &[], frame, need, |node, reply| {
                let (tag, served) = match reply.map(Served::from_data) {
                    Ok(Ok(served)) => (served.tag, Some(served)),
                    Ok(Err(Response::TagIs { tag })) => (tag, None),
                    _ => return Err(()),
                };
                Ok(QuorumReply { node, tag, served })
            })
            .await?;

        // Newest tag wins; on a tie prefer a reply that carried bytes.
        let mut best = 0usize;
        for i in 1..replies.len() {
            let (a, b) = (&replies[best], &replies[i]);
            if b.tag > a.tag || (b.tag == a.tag && b.served.is_some() && a.served.is_none()) {
                best = i;
            }
        }
        let best_tag = replies[best].tag;
        if best_tag == Tag::ZERO {
            return Err(PcsiError::NotFound(id));
        }
        let holders = replies.iter().filter(|r| r.tag == best_tag).count();
        if holders < need {
            let known: Vec<NodeId> = replies
                .iter()
                .filter(|r| r.tag == best_tag)
                .map(|r| r.node)
                .collect();
            self.write_back(id, replies[best].node, &known, need - holders, ctx)
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

    /// ABD write-back (doubles as read repair): fetches the newest state
    /// from `source` and pushes it to every replica not already known to
    /// hold it, returning once `need_acks` pushes succeeded — at which
    /// point a majority durably holds the value and any later read
    /// quorum must observe it. `sync_in` tag checks on the receivers
    /// make stale or duplicate pushes harmless; the remaining pushes
    /// finish detached.
    async fn write_back(
        &self,
        id: ObjectId,
        source: NodeId,
        known: &[NodeId],
        need_acks: usize,
        ctx: Option<TraceContext>,
    ) -> Result<(), PcsiError> {
        let fetch = wire::encode_request_traced(&Request::Fetch { id }, ctx);
        let fabric = &self.store.inner.fabric;
        let (object, reqs) = match rpc(fabric, self.origin, source, fetch).await {
            Ok(Response::Object { object, reqs }) => (object, reqs),
            // The object vanished between the read and the fetch —
            // a racing delete; surface it as such.
            Ok(Response::Absent) => return Err(PcsiError::NotFound(id)),
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
        let push = wire::encode_request_traced(&Request::Push { id, object, reqs }, ctx);
        self.gather(id, known, push, need_acks, |_, reply| match reply {
            Ok(Response::Applied) => Ok(()),
            _ => Err(()),
        })
        .await?;
        Ok(())
    }

    /// One quorum round from this client: `frame` goes to every replica
    /// of `id` outside `skip`, in placement order, and the first `need`
    /// replies `ack` accepts come back — or the quorum failure.
    async fn gather<A: 'static>(
        &self,
        id: ObjectId,
        skip: &[NodeId],
        frame: Bytes,
        need: usize,
        ack: impl Fn(NodeId, Result<Response, PcsiError>) -> Result<A, ()> + Clone + 'static,
    ) -> Result<Vec<A>, PcsiError> {
        let targets = self
            .store
            .placement()
            .replicas(id)
            .into_iter()
            .filter(|n| !skip.contains(n));
        let fabric = &self.store.inner.fabric;
        quorum::gather(fabric, self.origin, targets, frame, need, move |n, r| {
            std::future::ready(ack(n, r))
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
        let frame = wire::encode_request_traced(&Request::Read { id, offset, len }, ctx);
        let fabric = &self.store.inner.fabric;
        Served::from_data(rpc(fabric, self.origin, replica, frame).await?)
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
