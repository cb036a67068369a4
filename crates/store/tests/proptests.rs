//! Property-based tests for the storage substrate.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pcsi_core::{Mutability, ObjectId, PcsiError};
use pcsi_net::Topology;
use pcsi_store::engine::{MediaTier, Mutation, StorageEngine, StoredObject};
use pcsi_store::version::Tag;
use pcsi_store::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use pcsi_store::Placement;

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
        (
            (arb_id(), arb_tag(), arb_tag()),
            any::<bool>(),
            arb_wire_mutation(),
            any::<u64>()
        )
            .prop_map(|((id, tag, base), round, mutation, req_id)| {
                Request::Apply {
                    id,
                    tag,
                    base,
                    round,
                    mutation,
                    req_id,
                }
            }),
        (arb_id(), arb_tag(), arb_tag()).prop_map(|(id, ballot, have)| Request::Prepare {
            id,
            ballot,
            have
        }),
        (arb_id(), any::<u64>(), any::<u64>()).prop_map(|(id, offset, len)| Request::Read {
            id,
            offset,
            len
        }),
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

/// The six [`PcsiError`] variants a replica sends, each of which crosses
/// the wire as itself.
fn arb_wire_error() -> impl Strategy<Value = PcsiError> {
    let op = prop_oneof![
        Just("write"),
        Just("append"),
        Just("resize"),
        Just("mutate")
    ];
    prop_oneof![
        arb_id().prop_map(PcsiError::NotFound),
        (arb_id(), arb_mutability(), op)
            .prop_map(|(id, level, op)| PcsiError::MutabilityViolation { id, level, op }),
        (arb_mutability(), arb_mutability())
            .prop_map(|(from, to)| PcsiError::InvalidMutabilityTransition { from, to }),
        (any::<u32>(), any::<u32>()).prop_map(|(needed, got)| PcsiError::QuorumUnavailable {
            needed: needed as usize,
            got: got as usize,
        }),
        "[ -~]{0,24}".prop_map(PcsiError::Fault),
        "[ -~]{0,24}".prop_map(PcsiError::BadPayload),
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
        proptest::collection::vec((arb_id(), arb_tag()), 0..12)
            .prop_map(|entries| Response::InventoryIs { entries }),
        arb_tag().prop_map(|newest| Response::Stale { newest }),
        any::<u64>().prop_map(|current| Response::WrongEpoch { current }),
        arb_wire_error().prop_map(Response::Err),
    ]
}

/// The length of the operation text in an error reply's violation: the
/// `u32` behind the op and code bytes, the 16-byte id and the level.
/// Text outside the decoder's table comes back as `"mutate"`, the error
/// codec's one lossy field, so a re-encoding differs from the input by
/// exactly the difference of the two texts' lengths.
fn op_len(buf: &[u8]) -> usize {
    u32::from_le_bytes(buf[19..23].try_into().expect("4 bytes")) as usize
}

/// Feeds `buf` to every store-wire decoder. Returning at all is the
/// no-panic half; the other half is that an accepted frame has no
/// trailing bytes: its re-encoding is exactly as long as the input.
fn decode_all_consuming_everything(buf: &Bytes) -> Result<(), TestCaseError> {
    if let Ok(req) = decode_request(buf) {
        prop_assert_eq!(encode_request(&req).len(), buf.len());
    }
    if let Ok(resp) = decode_response(buf) {
        let mut len = encode_response(&resp).len();
        if let Response::Err(PcsiError::MutabilityViolation { op: "mutate", .. }) = resp {
            len = len - "mutate".len() + op_len(buf);
        }
        prop_assert_eq!(len, buf.len());
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

/// An engine's inventory in id order (the engine lists it unsorted).
fn sorted(mut inventory: Vec<(ObjectId, Tag)>) -> Vec<(ObjectId, Tag)> {
    inventory.sort_unstable();
    inventory
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
        prop_assert_eq!(sorted(a.inventory()), sorted(b.inventory()));
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
        prop_assert_eq!(sorted(e.inventory()), sorted(reference.inventory()));
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

    /// Trailing garbage after a valid response is rejected.
    #[test]
    fn wire_response_trailing_bytes_detected(resp in arb_response(), junk in any::<u8>()) {
        let mut wire = encode_response(&resp).to_vec();
        wire.push(junk);
        prop_assert!(decode_response(&Bytes::from(wire)).is_err());
    }

    /// Arbitrary bytes — what a confused or hostile peer can put on the
    /// store service — never panic either decoder, and
    /// whatever does decode accounts for every input byte.
    #[test]
    fn wire_decoders_are_total_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_all_consuming_everything(&Bytes::from(raw))?;
    }

    /// One corrupted byte anywhere in a valid frame of either kind:
    /// both decoders still return, and a frame that still decodes (as
    /// anything) is consumed whole.
    #[test]
    fn wire_decoders_survive_single_byte_corruption(
        req in arb_request(),
        resp in arb_response(),
        at in any::<u64>(),
        to in any::<u8>(),
    ) {
        for wire in [encode_request(&req), encode_response(&resp)] {
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
