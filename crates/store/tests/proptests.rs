//! Property-based tests for the storage substrate.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pcsi_core::{Mutability, ObjectId};
use pcsi_net::Topology;
use pcsi_store::engine::{MediaTier, Mutation, StorageEngine, StoredObject};
use pcsi_store::version::{Tag, VersionVector};
use pcsi_store::wire::{
    decode_request, decode_request_traced, decode_response, encode_request, encode_request_traced,
    encode_response, Request, Response, WireError,
};
use pcsi_store::Placement;
use pcsi_trace::{SpanId, TraceContext, TraceId};

fn oid(n: u64) -> ObjectId {
    ObjectId::from_parts(11, n % 16 + 1)
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (proptest::collection::vec(any::<u8>(), 0..64), any::<bool>()).prop_map(|(d, ao)| {
            Mutation::PutFull {
                data: Bytes::from(d),
                mutability: if ao {
                    Mutability::AppendOnly
                } else {
                    Mutability::Mutable
                },
            }
        }),
        (0u64..64, proptest::collection::vec(any::<u8>(), 1..32)).prop_map(|(offset, d)| {
            Mutation::WriteAt {
                offset,
                data: Bytes::from(d),
            }
        }),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(|d| Mutation::Append {
            data: Bytes::from(d)
        }),
        Just(Mutation::SetMutability {
            to: Mutability::Immutable
        }),
        Just(Mutation::Delete),
    ]
}

fn arb_id() -> impl Strategy<Value = ObjectId> {
    (any::<u64>(), any::<u64>()).prop_map(|(realm, serial)| ObjectId::from_parts(realm, serial))
}

fn arb_tag() -> impl Strategy<Value = Tag> {
    (any::<u64>(), any::<u32>()).prop_map(|(seq, writer)| Tag { seq, writer })
}

fn arb_mutability() -> impl Strategy<Value = Mutability> {
    prop_oneof![
        Just(Mutability::Mutable),
        Just(Mutability::FixedSize),
        Just(Mutability::AppendOnly),
        Just(Mutability::Immutable),
    ]
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from)
}

fn arb_wire_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (arb_bytes(), arb_mutability())
            .prop_map(|(data, mutability)| Mutation::PutFull { data, mutability }),
        (any::<u64>(), arb_bytes()).prop_map(|(offset, data)| Mutation::WriteAt { offset, data }),
        arb_bytes().prop_map(|data| Mutation::Append { data }),
        arb_mutability().prop_map(|to| Mutation::SetMutability { to }),
        Just(Mutation::Delete),
    ]
}

fn arb_reqs() -> impl Strategy<Value = Vec<(u64, Tag)>> {
    proptest::collection::vec((any::<u64>(), arb_tag()), 0..8)
}

fn arb_object() -> impl Strategy<Value = StoredObject> {
    (arb_bytes(), arb_tag(), arb_mutability(), any::<u64>()).prop_map(
        |(data, tag, mutability, stable_len)| StoredObject {
            data,
            tag,
            mutability,
            stable_len,
        },
    )
}

/// Every [`Request`] variant, including the previously untested
/// `ReadWithTag` and `Push`.
fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            arb_id(),
            arb_wire_mutation(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(id, mutation, sync_replicas, req_id, expires_ns)| {
                Request::Coordinate {
                    id,
                    mutation,
                    sync_replicas,
                    req_id,
                    expires_ns,
                }
            }),
        (arb_id(), arb_tag(), arb_wire_mutation(), any::<u64>()).prop_map(
            |(id, tag, mutation, req_id)| Request::Apply {
                id,
                tag,
                mutation,
                req_id,
            }
        ),
        (arb_id(), any::<u64>(), any::<u64>()).prop_map(|(id, offset, len)| Request::Read {
            id,
            offset,
            len
        }),
        arb_id().prop_map(|id| Request::TagOf { id }),
        arb_id().prop_map(|id| Request::Fetch { id }),
        Just(Request::Inventory),
        (arb_id(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(id, offset, len, inline_limit)| Request::ReadWithTag {
                id,
                offset,
                len,
                inline_limit,
            }
        ),
        (arb_id(), arb_object(), arb_reqs()).prop_map(|(id, object, reqs)| Request::Push {
            id,
            object,
            reqs
        }),
        (
            any::<u64>(),
            arb_id(),
            arb_object(),
            arb_reqs(),
            any::<bool>()
        )
            .prop_map(|(epoch, id, object, reqs, tombstone)| Request::Migrate {
                epoch,
                id,
                object,
                reqs,
                tombstone,
            }),
    ]
}

fn arb_trace_ctx() -> impl Strategy<Value = Option<TraceContext>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>()).prop_map(|(t, p)| Some(TraceContext {
            trace: TraceId(t),
            parent: SpanId(p),
        })),
    ]
}

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    prop_oneof![
        arb_id().prop_map(WireError::NotFound),
        (arb_id(), arb_mutability(), "[a-z]{0,12}")
            .prop_map(|(id, level, op)| { WireError::MutabilityViolation { id, level, op } }),
        (arb_mutability(), arb_mutability())
            .prop_map(|(from, to)| WireError::InvalidTransition { from, to }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(needed, got)| WireError::QuorumUnavailable { needed, got }),
        "[ -~]{0,24}".prop_map(WireError::Other),
    ]
}

/// Every [`Response`] variant.
fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_tag().prop_map(|tag| Response::Coordinated { tag }),
        Just(Response::Applied),
        (arb_tag(), arb_mutability(), any::<u64>(), arb_bytes()).prop_map(
            |(tag, mutability, stable_len, data)| Response::Data {
                tag,
                mutability,
                stable_len,
                data,
            }
        ),
        arb_tag().prop_map(|tag| Response::TagIs { tag }),
        (arb_object(), arb_reqs()).prop_map(|(object, reqs)| Response::Object { object, reqs }),
        Just(Response::Absent),
        proptest::collection::vec((arb_id(), arb_tag()), 0..12)
            .prop_map(|entries| Response::InventoryIs { entries }),
        arb_tag().prop_map(|newest| Response::Stale { newest }),
        arb_tag().prop_map(|tag| Response::AlreadyApplied { tag }),
        any::<u64>().prop_map(|current| Response::WrongEpoch { current }),
        arb_wire_error().prop_map(Response::Err),
    ]
}

/// Feeds `buf` to every store-wire decoder. Returning at all is the
/// no-panic half; the other half is that an accepted frame has no
/// trailing bytes: its re-encoding is exactly as long as the input.
fn decode_all_consuming_everything(buf: &Bytes) -> Result<(), TestCaseError> {
    if let Ok(req) = decode_request(buf) {
        prop_assert_eq!(encode_request(&req).len(), buf.len());
    }
    if let Ok((req, ctx)) = decode_request_traced(buf) {
        prop_assert_eq!(encode_request_traced(&req, ctx).len(), buf.len());
    }
    if let Ok(resp) = decode_response(buf) {
        prop_assert_eq!(encode_response(&resp).len(), buf.len());
    }
    Ok(())
}

/// Applies a scripted history to a fresh engine, tagging writes 1..n.
fn apply_history(ops: &[(u64, Mutation)]) -> StorageEngine {
    let mut e = StorageEngine::new(MediaTier::Dram);
    for (i, (obj, m)) in ops.iter().enumerate() {
        let _ = e.apply(
            oid(*obj),
            Tag {
                seq: (i + 1) as u64,
                writer: 0,
            },
            m,
        );
    }
    e
}

proptest! {
    /// Replaying the same mutation history yields byte-identical state —
    /// the property primary/secondary replication depends on.
    #[test]
    fn engine_is_deterministic(
        ops in proptest::collection::vec((0u64..16, arb_mutation()), 0..40)
    ) {
        let a = apply_history(&ops);
        let b = apply_history(&ops);
        prop_assert_eq!(a.inventory(), b.inventory());
        for id in a.ids() {
            prop_assert_eq!(a.get(id), b.get(id));
        }
        prop_assert_eq!(a.bytes_stored(), b.bytes_stored());
    }

    /// Duplicate delivery of any prefix of the history (at original tags)
    /// is a no-op — idempotence under retries.
    #[test]
    fn engine_is_idempotent_under_redelivery(
        ops in proptest::collection::vec((0u64..16, arb_mutation()), 1..30),
        cut in 0usize..30,
    ) {
        let reference = apply_history(&ops);
        // Apply history, then re-apply a prefix with the original tags.
        let mut e = apply_history(&ops);
        let cut = cut.min(ops.len());
        for (i, (obj, m)) in ops[..cut].iter().enumerate() {
            let _ = e.apply(
                oid(*obj),
                Tag { seq: (i + 1) as u64, writer: 0 },
                m,
            );
        }
        prop_assert_eq!(e.inventory(), reference.inventory());
        for id in reference.ids() {
            prop_assert_eq!(e.get(id), reference.get(id));
        }
    }

    /// `bytes_stored` accounting always equals the sum of object sizes.
    #[test]
    fn engine_accounting_is_exact(
        ops in proptest::collection::vec((0u64..16, arb_mutation()), 0..40)
    ) {
        let e = apply_history(&ops);
        let total: u64 = e
            .ids()
            .into_iter()
            .map(|id| e.get(id).map(|o| o.data.len() as u64).unwrap_or(0))
            .sum();
        prop_assert_eq!(e.bytes_stored(), total);
    }

    /// Version vectors: merge is commutative, idempotent, and dominates
    /// both inputs.
    #[test]
    fn version_vector_merge_laws(
        a in proptest::collection::vec((0u32..8, 1u64..100), 0..8),
        b in proptest::collection::vec((0u32..8, 1u64..100), 0..8),
    ) {
        let mk = |pairs: &[(u32, u64)]| {
            let mut v = VersionVector::new();
            for &(w, s) in pairs {
                v.observe(Tag { seq: s, writer: w });
            }
            v
        };
        let va = mk(&a);
        let vb = mk(&b);
        let mut ab = va.clone();
        ab.merge(&vb);
        let mut ba = vb.clone();
        ba.merge(&va);
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.dominates(&va));
        prop_assert!(ab.dominates(&vb));
        let mut again = ab.clone();
        again.merge(&vb);
        prop_assert_eq!(again, ab);
    }

    /// Tag ordering is total and next() is strictly increasing.
    #[test]
    fn tag_next_increases(seq in 0u64..u64::MAX - 1, w1 in any::<u32>(), w2 in any::<u32>()) {
        let t = Tag { seq, writer: w1 };
        prop_assert!(t.next(w2) > t);
    }

    /// Every request round-trips through the wire codec unchanged.
    #[test]
    fn wire_requests_roundtrip(req in arb_request()) {
        let wire = encode_request(&req);
        prop_assert_eq!(decode_request(&wire).unwrap(), req);
    }

    /// Every response round-trips through the wire codec unchanged.
    #[test]
    fn wire_responses_roundtrip(resp in arb_response()) {
        let wire = encode_response(&resp);
        prop_assert_eq!(decode_response(&wire).unwrap(), resp);
    }

    /// No strict prefix of an encoded request decodes — the codec
    /// detects truncation at every cut point, for every variant.
    #[test]
    fn wire_request_truncation_always_detected(req in arb_request()) {
        let wire = encode_request(&req);
        for cut in 0..wire.len() {
            prop_assert!(decode_request(&wire.slice(..cut)).is_err(), "cut {}", cut);
        }
    }

    /// The traced envelope round-trips any request with and without a
    /// context, and an untraced envelope is byte-identical to the plain
    /// codec — old frames and new frames are the same bytes.
    #[test]
    fn wire_traced_requests_roundtrip(req in arb_request(), ctx in arb_trace_ctx()) {
        let wire = encode_request_traced(&req, ctx);
        let (back, back_ctx) = decode_request_traced(&wire).unwrap();
        prop_assert_eq!(back, req.clone());
        prop_assert_eq!(back_ctx, ctx);
        if ctx.is_none() {
            prop_assert_eq!(wire, encode_request(&req));
        } else {
            // The context rides behind the plain body, so a decoder that
            // has never heard of tracing still reads the request itself.
            prop_assert_eq!(
                wire.len(),
                encode_request(&req).len() + 1 + TraceContext::WIRE_LEN
            );
        }
    }

    /// Truncating a traced frame is detected at every cut point except
    /// one: cutting exactly at the plain-body boundary yields a valid
    /// pre-tracing frame, which must decode as the request with no
    /// context — that is the compatibility guarantee, not a hole.
    #[test]
    fn wire_traced_truncation_always_detected(req in arb_request()) {
        let ctx = TraceContext { trace: TraceId(7), parent: SpanId(9) };
        let wire = encode_request_traced(&req, Some(ctx));
        let plain_len = encode_request(&req).len();
        for cut in 0..wire.len() {
            let decoded = decode_request_traced(&wire.slice(..cut));
            if cut == plain_len {
                let (back, none) = decoded.unwrap();
                prop_assert_eq!(back, req.clone());
                prop_assert_eq!(none, None);
            } else {
                prop_assert!(decoded.is_err(), "cut {} decoded", cut);
            }
        }
    }

    /// Trailing garbage after a valid response is rejected.
    #[test]
    fn wire_response_trailing_bytes_detected(resp in arb_response(), junk in any::<u8>()) {
        let mut wire = encode_response(&resp).to_vec();
        wire.push(junk);
        prop_assert!(decode_response(&Bytes::from(wire)).is_err());
    }

    /// Arbitrary bytes — what a confused or hostile peer can put on the
    /// store service — never panic any of the three decoders, and
    /// whatever does decode accounts for every input byte.
    #[test]
    fn wire_decoders_are_total_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_all_consuming_everything(&Bytes::from(raw))?;
    }

    /// One corrupted byte anywhere in a valid frame of any of the three
    /// kinds: every decoder still returns, and a frame that still
    /// decodes (as anything) is consumed whole.
    #[test]
    fn wire_decoders_survive_single_byte_corruption(
        req in arb_request(),
        ctx in arb_trace_ctx(),
        resp in arb_response(),
        at in any::<u64>(),
        to in any::<u8>(),
    ) {
        for wire in [
            encode_request(&req),
            encode_request_traced(&req, ctx),
            encode_response(&resp),
        ] {
            let mut bytes = wire.to_vec();
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = to;
            decode_all_consuming_everything(&Bytes::from(bytes))?;
        }
    }

    /// Placement: deterministic, correct cardinality, no duplicates, and
    /// rack-diverse when enough racks exist.
    #[test]
    fn placement_invariants(obj in any::<u64>(), racks in 3u32..6, per_rack in 2u32..4) {
        let topo = Topology::uniform(racks, per_rack);
        let p = Placement::new(&topo, topo.node_ids(), 3);
        let id = ObjectId::from_parts(3, obj);
        let set = p.replicas(id);
        prop_assert_eq!(set.len(), 3);
        prop_assert_eq!(set.clone(), p.replicas(id));
        let mut dedup = set.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), 3);
        let mut rs: Vec<u32> = set.iter().map(|&n| topo.spec(n).rack).collect();
        rs.sort_unstable();
        rs.dedup();
        prop_assert_eq!(rs.len(), 3, "replicas must span 3 racks");
    }

    /// Ring balance: with 64 vnodes per node the primary-replica load
    /// across nodes stays within a bounded max/min ratio — no node owns
    /// a disproportionate arc of the ring.
    #[test]
    fn ring_load_is_balanced(racks in 3u32..6, per_rack in 2u32..4, salt in any::<u64>()) {
        let topo = Topology::uniform(racks, per_rack);
        let nodes = topo.node_ids();
        let p = Placement::new(&topo, nodes.clone(), 3);
        let mut load = std::collections::BTreeMap::new();
        const OBJECTS: u64 = 2048;
        for i in 0..OBJECTS {
            let id = ObjectId::from_parts(salt, i);
            for n in p.replicas(id) {
                *load.entry(n).or_insert(0u64) += 1;
            }
        }
        prop_assert_eq!(load.len(), nodes.len(), "every node must own some keys");
        let max = *load.values().max().unwrap();
        let min = *load.values().min().unwrap();
        prop_assert!(
            max <= min * 3,
            "vnode load imbalance: max {} vs min {} over {} nodes",
            max, min, nodes.len()
        );
    }

    /// Minimal movement: joining one node relocates only the keys the
    /// new node takes over — every changed replica set gains the joined
    /// node, keeps a majority of its old members, and the total number
    /// of changed sets is near the consistent-hashing expectation of
    /// `replication · objects / (nodes + 1)`.
    #[test]
    fn ring_join_moves_the_minimum(racks in 3u32..6, per_rack in 2u32..4, salt in any::<u64>()) {
        let topo = Topology::uniform(racks, per_rack);
        let nodes = topo.node_ids();
        let (joiner, initial) = nodes.split_last().unwrap();
        let p = Placement::new(&topo, initial.to_vec(), 3);
        const OBJECTS: u64 = 512;
        let ids: Vec<ObjectId> =
            (0..OBJECTS).map(|i| ObjectId::from_parts(salt, i)).collect();
        let before: Vec<Vec<_>> = ids.iter().map(|&id| p.replicas(id)).collect();

        let pinned = p.begin_join(&topo, *joiner, &ids);
        for &id in &pinned {
            p.complete_move(id);
        }

        let mut changed = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            let after = p.replicas(id);
            if after == before[i] {
                continue;
            }
            changed += 1;
            prop_assert!(
                after.contains(joiner),
                "replica set changed without involving the joined node"
            );
            let kept = after.iter().filter(|n| before[i].contains(n)).count();
            prop_assert!(
                kept >= 2,
                "join displaced more than one replica: {:?} -> {:?}",
                &before[i], &after
            );
        }
        prop_assert_eq!(changed, pinned.len() as u64);
        // Expectation: 3·objects/(n+1) replica slots touch the joiner;
        // allow 2× for vnode-placement variance.
        let bound = 2 * 3 * OBJECTS / (initial.len() as u64 + 1) + 8;
        prop_assert!(
            changed <= bound,
            "join relocated {} of {} keys (bound {})",
            changed, OBJECTS, bound
        );
    }

    /// Minimal movement, leave direction: removing a node changes only
    /// the replica sets that contained it.
    #[test]
    fn ring_leave_touches_only_the_leavers_keys(
        racks in 4u32..6, per_rack in 2u32..4, salt in any::<u64>()
    ) {
        let topo = Topology::uniform(racks, per_rack);
        let nodes = topo.node_ids();
        let p = Placement::new(&topo, nodes.clone(), 3);
        const OBJECTS: u64 = 512;
        let ids: Vec<ObjectId> =
            (0..OBJECTS).map(|i| ObjectId::from_parts(salt, i)).collect();
        let before: Vec<Vec<_>> = ids.iter().map(|&id| p.replicas(id)).collect();
        let leaver = nodes[nodes.len() / 2];

        let pinned = p.begin_leave(leaver, &ids);
        for &id in &pinned {
            p.complete_move(id);
        }

        for (i, &id) in ids.iter().enumerate() {
            let after = p.replicas(id);
            prop_assert!(!after.contains(&leaver), "leaver still owns {:?}", id);
            if !before[i].contains(&leaver) {
                prop_assert_eq!(
                    &after, &before[i],
                    "a set without the leaver moved anyway"
                );
            }
        }
    }

    /// Lookup determinism across rebuilds: two placements built from the
    /// same membership — even via different join orders — agree on every
    /// replica set.
    #[test]
    fn ring_lookup_is_deterministic_across_rebuilds(
        racks in 3u32..6, per_rack in 2u32..4, obj in any::<u64>(), salt in any::<u64>()
    ) {
        let topo = Topology::uniform(racks, per_rack);
        let nodes = topo.node_ids();
        let id = ObjectId::from_parts(salt, obj);

        let a = Placement::new(&topo, nodes.clone(), 3);
        let b = Placement::new(&topo, nodes.clone(), 3);
        prop_assert_eq!(a.replicas(id), b.replicas(id));

        // Build the same membership by joining the last node late; once
        // its moves complete, lookups are indistinguishable from a ring
        // born with that membership.
        let (last, initial) = nodes.split_last().unwrap();
        let c = Placement::new(&topo, initial.to_vec(), 3);
        let all: Vec<ObjectId> = (0..256).map(|i| ObjectId::from_parts(salt, i)).collect();
        for pin in c.begin_join(&topo, *last, &all) {
            c.complete_move(pin);
        }
        for &probe in &all {
            prop_assert_eq!(c.replicas(probe), a.replicas(probe));
        }
    }
}
