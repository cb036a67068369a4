//! Cross-crate integration: the PCSI object lifecycle through the kernel.
//!
//! Exercises `pcsi-core`'s `CloudInterface` contract against the full
//! stack (kernel → replicated store → fabric → virtual time).

use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, Mutability, ObjectKind, PcsiError, Rights};
use pcsi_net::NodeId;
use pcsi_sim::Sim;

fn with_cloud<T: 'static>(
    seed: u64,
    f: impl FnOnce(pcsi_cloud::Cloud) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>
        + 'static,
) -> T {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    sim.block_on(async move {
        let cloud = CloudBuilder::new().deterministic_network().build(&h);
        f(cloud).await
    })
}

#[test]
fn regular_object_full_lifecycle() {
    with_cloud(1, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let r = c
                .create(CreateOptions::regular().with_initial(&b"hello"[..]))
                .await
                .unwrap();

            assert_eq!(&c.read(&r, 0, 100).await.unwrap()[..], b"hello");
            c.write(&r, 5, Bytes::from_static(b", world"))
                .await
                .unwrap();
            assert_eq!(&c.read(&r, 0, 100).await.unwrap()[..], b"hello, world");
            let at = c.append(&r, Bytes::from_static(b"!")).await.unwrap();
            assert_eq!(at, 12);

            let meta = c.stat(&r).await.unwrap();
            assert_eq!(meta.kind, ObjectKind::Regular);
            assert_eq!(meta.size, 13);
            assert!(meta.version >= 2);

            c.delete(&r).await.unwrap();
            assert!(matches!(
                c.read(&r, 0, 1).await,
                Err(PcsiError::NotFound(_))
            ));
        })
    });
}

#[test]
fn rights_are_enforced_per_operation() {
    with_cloud(2, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let full = c
                .create(CreateOptions::regular().with_initial(&b"data"[..]))
                .await
                .unwrap();
            let read_only = full.attenuate(Rights::READ).unwrap();

            assert!(c.read(&read_only, 0, 4).await.is_ok());
            for err in [
                c.write(&read_only, 0, Bytes::from_static(b"x")).await.err(),
                c.append(&read_only, Bytes::from_static(b"x")).await.err(),
                c.set_mutability(&read_only, Mutability::Immutable)
                    .await
                    .err(),
                c.delete(&read_only).await.err(),
            ] {
                assert!(
                    matches!(err, Some(PcsiError::AccessDenied { .. })),
                    "expected AccessDenied, got {err:?}"
                );
            }
        })
    });
}

#[test]
fn figure1_seal_workflow_through_kernel() {
    with_cloud(3, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(1), "tenant-a");
            let r = c
                .create(
                    CreateOptions::regular()
                        .with_mutability(Mutability::Mutable)
                        .with_initial(&b"v1"[..]),
                )
                .await
                .unwrap();

            // MUTABLE -> APPEND_ONLY: appends fine, writes rejected.
            c.set_mutability(&r, Mutability::AppendOnly).await.unwrap();
            c.append(&r, Bytes::from_static(b"+log")).await.unwrap();
            assert!(matches!(
                c.write(&r, 0, Bytes::from_static(b"X")).await,
                Err(PcsiError::MutabilityViolation { .. })
            ));

            // APPEND_ONLY -> IMMUTABLE: everything frozen.
            c.set_mutability(&r, Mutability::Immutable).await.unwrap();
            assert!(c.append(&r, Bytes::from_static(b"!")).await.is_err());

            // Backward transition rejected per Figure 1.
            assert!(matches!(
                c.set_mutability(&r, Mutability::Mutable).await,
                Err(PcsiError::InvalidMutabilityTransition { .. })
            ));
            // Reads still served.
            assert_eq!(&c.read(&r, 0, 100).await.unwrap()[..], b"v1+log");
        })
    });
}

#[test]
fn fixed_size_objects_update_in_place_but_never_grow() {
    with_cloud(13, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let r = c
                .create(
                    CreateOptions::regular()
                        .with_mutability(Mutability::FixedSize)
                        // Linearizable so the read-back below is
                        // guaranteed to see the in-place write.
                        .with_consistency(Consistency::Linearizable)
                        .with_initial(&b"0123456789"[..]),
                )
                .await
                .unwrap();
            // In-place overwrite within bounds is fine.
            c.write(&r, 2, Bytes::from_static(b"AB")).await.unwrap();
            assert_eq!(&c.read(&r, 0, 100).await.unwrap()[..], b"01AB456789");
            // Growing is a resize violation; appending is not allowed.
            assert!(matches!(
                c.write(&r, 8, Bytes::from_static(b"XYZ")).await,
                Err(PcsiError::MutabilityViolation { .. })
            ));
            assert!(matches!(
                c.append(&r, Bytes::from_static(b"!")).await,
                Err(PcsiError::MutabilityViolation { .. })
            ));
            // Figure 1: FIXED_SIZE may seal to IMMUTABLE but not relax.
            assert!(matches!(
                c.set_mutability(&r, Mutability::AppendOnly).await,
                Err(PcsiError::InvalidMutabilityTransition { .. })
            ));
            c.set_mutability(&r, Mutability::Immutable).await.unwrap();
            assert!(c.write(&r, 0, Bytes::from_static(b"z")).await.is_err());
        })
    });
}

#[test]
fn immutable_objects_get_cached_reads() {
    with_cloud(4, |cloud| {
        Box::pin(async move {
            let h = cloud.fabric.handle().clone();
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let r = c
                .create(CreateOptions::immutable(vec![7u8; 512 * 1024]))
                .await
                .unwrap();
            let t0 = h.now();
            c.read(&r, 0, u64::MAX).await.unwrap();
            let first = h.now() - t0;
            let t1 = h.now();
            c.read(&r, 0, u64::MAX).await.unwrap();
            let second = h.now() - t1;
            // Second read served from the node-local cache.
            assert!(
                second < first / 5,
                "cached read {second:?} vs remote {first:?}"
            );
        })
    });
}

#[test]
fn mutable_objects_are_never_stale_through_cache() {
    with_cloud(5, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let r = c
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Linearizable)
                        .with_initial(&b"one"[..]),
                )
                .await
                .unwrap();
            c.read(&r, 0, 100).await.unwrap();
            c.write(&r, 0, Bytes::from_static(b"two")).await.unwrap();
            // Must not serve the old bytes from any cache.
            assert_eq!(&c.read(&r, 0, 100).await.unwrap()[..], b"two");
        })
    });
}

#[test]
fn fifo_connects_producers_and_consumers() {
    with_cloud(6, |cloud| {
        Box::pin(async move {
            let h = cloud.fabric.handle().clone();
            let producer = cloud.kernel.client(NodeId(0), "tenant-a");
            let consumer = cloud.kernel.client(NodeId(5), "tenant-a");
            let fifo = producer.create(CreateOptions::fifo()).await.unwrap();

            let fifo2 = fifo.clone();
            let join = h.spawn(async move {
                let mut got = Vec::new();
                for _ in 0..3 {
                    got.push(consumer.pop(&fifo2).await.unwrap());
                }
                got
            });
            for i in 0..3u8 {
                producer.append(&fifo, Bytes::from(vec![i])).await.unwrap();
            }
            let got = join.await;
            assert_eq!(
                got,
                vec![
                    Bytes::from(vec![0u8]),
                    Bytes::from(vec![1u8]),
                    Bytes::from(vec![2u8])
                ]
            );
            // Reading a FIFO as bytes is a kind error.
            assert!(matches!(
                producer.read(&fifo, 0, 1).await,
                Err(PcsiError::WrongKind { .. })
            ));
        })
    });
}

#[test]
fn bounded_fifo_appends_hit_retryable_backpressure() {
    // Regression: the kernel used to create every FIFO unbounded,
    // ignoring capacity — a stalled consumer grew the queue without
    // limit. Appends past the bound must now fail with a retryable
    // Overloaded, and draining must re-admit the producer.
    with_cloud(14, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let fifo = c
                .create(CreateOptions::fifo().with_fifo_capacity(2))
                .await
                .unwrap();
            c.append(&fifo, Bytes::from_static(b"a")).await.unwrap();
            c.append(&fifo, Bytes::from_static(b"b")).await.unwrap();
            let err = c.append(&fifo, Bytes::from_static(b"c")).await.unwrap_err();
            assert!(
                matches!(err, PcsiError::Overloaded(_)),
                "expected Overloaded, got {err:?}"
            );
            // Draining one slot re-admits the producer — the error is
            // retryable, not fatal.
            assert_eq!(&c.pop(&fifo).await.unwrap()[..], b"a");
            c.append(&fifo, Bytes::from_static(b"c")).await.unwrap();
            assert_eq!(&c.pop(&fifo).await.unwrap()[..], b"b");
            assert_eq!(&c.pop(&fifo).await.unwrap()[..], b"c");
        })
    });
}

#[test]
fn per_object_fifo_capacity_overrides_the_default_bound() {
    with_cloud(15, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let narrow = c
                .create(CreateOptions::fifo().with_fifo_capacity(1))
                .await
                .unwrap();
            c.append(&narrow, Bytes::from_static(b"only"))
                .await
                .unwrap();
            assert!(matches!(
                c.append(&narrow, Bytes::from_static(b"over")).await,
                Err(PcsiError::Overloaded(_))
            ));
            // An unannotated create is still bounded, at the kernel's
            // default of 1024 — not unbounded, and not its neighbour's 1.
            let wide = c.create(CreateOptions::fifo()).await.unwrap();
            for i in 0..1024u32 {
                c.append(&wide, Bytes::from(i.to_le_bytes().to_vec()))
                    .await
                    .unwrap();
            }
            assert!(matches!(
                c.append(&wide, Bytes::from_static(b"over")).await,
                Err(PcsiError::Overloaded(_))
            ));
        })
    });
}

#[test]
fn subscribed_fifo_streams_appends_to_a_remote_consumer() {
    with_cloud(16, |cloud| {
        Box::pin(async move {
            let producer = cloud.kernel.client(NodeId(0), "tenant-a");
            let consumer = cloud.kernel.client(NodeId(5), "tenant-a");
            let fifo = producer.create(CreateOptions::fifo()).await.unwrap();
            let tail = fifo.attenuate(Rights::READ).unwrap();
            let sub = consumer.subscribe(&tail, 8).await.unwrap();

            // Appends now fan out to the subscriber instead of queueing
            // for poppers.
            for i in 0..4u8 {
                producer.append(&fifo, Bytes::from(vec![i])).await.unwrap();
            }
            for want in 0..4u64 {
                let ev = sub.next().await.unwrap();
                assert_eq!(ev.seq, want);
                assert_eq!(ev.payload, Bytes::from(vec![want as u8]));
                assert!(ev.latency > Duration::ZERO, "pushes must cost time");
            }
            sub.cancel();

            // Subscribing needs READ; a write-only capability is refused.
            let append_only = fifo.attenuate(Rights::APPEND).unwrap();
            assert!(matches!(
                consumer.subscribe(&append_only, 8).await,
                Err(PcsiError::AccessDenied { .. })
            ));
            // And non-stream kinds are rejected.
            let file = producer
                .create(CreateOptions::regular().with_initial(&b"x"[..]))
                .await
                .unwrap();
            assert!(matches!(
                consumer.subscribe(&file, 8).await,
                Err(PcsiError::WrongKind { .. })
            ));
        })
    });
}

#[test]
fn deleting_a_subscribed_fifo_closes_the_stream() {
    with_cloud(17, |cloud| {
        Box::pin(async move {
            let h = cloud.fabric.handle().clone();
            let producer = cloud.kernel.client(NodeId(0), "tenant-a");
            let consumer = cloud.kernel.client(NodeId(4), "tenant-a");
            let fifo = producer.create(CreateOptions::fifo()).await.unwrap();
            let sub = consumer.subscribe(&fifo, 4).await.unwrap();

            producer
                .append(&fifo, Bytes::from_static(b"last"))
                .await
                .unwrap();
            producer.delete(&fifo).await.unwrap();

            // The in-flight event drains, then the stream ends cleanly.
            let ev = sub.next().await.unwrap();
            assert_eq!(&ev.payload[..], b"last");
            assert!(sub.next().await.is_none());
            assert!(sub.is_closed());
            h.sleep(Duration::from_millis(2)).await;
            assert!(!cloud.kernel.publisher().has_subscribers(fifo.id()));
        })
    });
}

#[test]
fn device_objects_route_to_system_services() {
    with_cloud(7, |cloud| {
        Box::pin(async move {
            cloud.kernel.register_device(
                "echo-upper",
                std::rc::Rc::new(|input: Bytes| {
                    Ok(Bytes::from(
                        String::from_utf8_lossy(&input).to_uppercase().into_bytes(),
                    ))
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let dev = c
                .create(CreateOptions {
                    kind: ObjectKind::Device("echo-upper".into()),
                    mutability: Mutability::Immutable,
                    consistency: Consistency::Eventual,
                    initial: Bytes::new(),
                    fifo_capacity: None,
                })
                .await
                .unwrap();
            // Write dispatches to the handler.
            c.write(&dev, 0, Bytes::from_static(b"abc")).await.unwrap();
            // Unregistered classes are rejected at create time.
            let err = c
                .create(CreateOptions {
                    kind: ObjectKind::Device("ghost".into()),
                    mutability: Mutability::Immutable,
                    consistency: Consistency::Eventual,
                    initial: Bytes::new(),
                    fifo_capacity: None,
                })
                .await
                .unwrap_err();
            assert!(matches!(err, PcsiError::NameNotFound(_)));
        })
    });
}

#[test]
fn revocation_kills_outstanding_references() {
    with_cloud(8, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let r = c
                .create(CreateOptions::regular().with_initial(&b"secret"[..]))
                .await
                .unwrap();
            let leaked = r.attenuate(Rights::READ).unwrap();
            assert!(c.read(&leaked, 0, 6).await.is_ok());

            let fresh = cloud.kernel.revoke(r.id()).unwrap();
            // Old references (any rights) now fail closed.
            assert!(matches!(
                c.read(&leaked, 0, 6).await,
                Err(PcsiError::InvalidReference(_))
            ));
            assert!(matches!(
                c.read(&r, 0, 6).await,
                Err(PcsiError::InvalidReference(_))
            ));
            // The re-minted reference works.
            assert_eq!(&c.read(&fresh, 0, 6).await.unwrap()[..], b"secret");
        })
    });
}

#[test]
fn gc_reclaims_unreachable_objects() {
    with_cloud(9, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let root = c.create(CreateOptions::directory()).await.unwrap();
            let kept = c
                .create(CreateOptions::regular().with_initial(&b"kept"[..]))
                .await
                .unwrap();
            let orphan = c
                .create(CreateOptions::regular().with_initial(&b"orphan"[..]))
                .await
                .unwrap();
            c.link(&root, "kept", &kept).await.unwrap();

            assert_eq!(cloud.kernel.live_objects(), 3);
            let collected = cloud.kernel.run_gc(std::slice::from_ref(&root));
            assert_eq!(collected, 1);
            assert_eq!(cloud.kernel.live_objects(), 2);

            assert!(matches!(
                c.read(&orphan, 0, 1).await,
                Err(PcsiError::NotFound(_))
            ));
            // The linked object survives and is reachable via the name.
            let via_name = c.lookup(&root, "kept").await.unwrap();
            assert_eq!(&c.read(&via_name, 0, 10).await.unwrap()[..], b"kept");
        })
    });
}

#[test]
fn eventual_objects_tolerate_replica_failures_on_write() {
    with_cloud(10, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let r = c
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Eventual)
                        .with_initial(&b"v"[..]),
                )
                .await
                .unwrap();
            // Crash two replicas of this object (keep the primary).
            let replicas = cloud.store.placement().replicas(r.id());
            cloud.fabric.set_node_down(replicas[1], true);
            cloud.fabric.set_node_down(replicas[2], true);
            // Eventual writes still ack; linearizable ones do not.
            assert!(c.write(&r, 0, Bytes::from_static(b"w")).await.is_ok());

            let lin = c
                .create(CreateOptions::regular().with_consistency(Consistency::Linearizable))
                .await;
            // The new object may or may not share the downed replicas, so
            // probe the one we know about instead.
            drop(lin);
            cloud.fabric.set_node_down(replicas[1], false);
            cloud.fabric.set_node_down(replicas[2], false);
        })
    });
}

#[test]
fn wrong_kind_operations_rejected() {
    with_cloud(11, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let dir = c.create(CreateOptions::directory()).await.unwrap();
            let file = c
                .create(CreateOptions::regular().with_initial(&b"f"[..]))
                .await
                .unwrap();
            // pop() on a regular object.
            assert!(matches!(
                c.pop(&file).await,
                Err(PcsiError::WrongKind { .. })
            ));
            // link through a non-directory.
            assert!(matches!(
                c.link(&file, "x", &dir).await,
                Err(PcsiError::WrongKind { .. })
            ));
            // Directories refuse initial contents.
            assert!(matches!(
                c.create(CreateOptions::directory().with_initial(&b"junk"[..]))
                    .await,
                Err(PcsiError::BadPayload(_))
            ));
        })
    });
}

#[test]
fn far_clients_pay_more_latency_than_near_ones() {
    with_cloud(12, |cloud| {
        Box::pin(async move {
            let h = cloud.fabric.handle().clone();
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let r = c
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Eventual)
                        .with_initial(vec![1u8; 4096]),
                )
                .await
                .unwrap();
            // Read from a node that hosts a replica vs one that does not.
            let replicas = cloud.store.placement().replicas(r.id());
            let near = replicas[0];
            let far = cloud
                .fabric
                .topology()
                .node_ids()
                .into_iter()
                .find(|n| {
                    !replicas.contains(n)
                        && cloud.fabric.topology().hop_class(*n, near)
                            == pcsi_net::topology::HopClass::CrossRack
                })
                .expect("some cross-rack non-replica node");

            let cn = cloud.kernel.client(near, "tenant-a");
            let t0 = h.now();
            cn.read(&r, 0, u64::MAX).await.unwrap();
            let near_t = h.now() - t0;

            let cf = cloud.kernel.client(far, "tenant-a");
            let t1 = h.now();
            cf.read(&r, 0, u64::MAX).await.unwrap();
            let far_t = h.now() - t1;

            assert!(
                far_t > near_t + Duration::from_micros(50),
                "far {far_t:?} near {near_t:?}"
            );
        })
    });
}

/// The thirteen operations that take a reference (`create` mints one).
#[derive(Clone, Copy, Debug)]
enum MatrixOp {
    Read,
    Write,
    Append,
    Pop,
    Stat,
    SetMutability,
    Delete,
    Link,
    Unlink,
    Lookup,
    List,
    Invoke,
    Subscribe,
}

/// What one cell of the matrix came to: `Ok`, or the error's variant
/// (a kind refusal with both of its texts).
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok,
    AccessDenied,
    InvalidReference,
    NotFound,
    WrongKind {
        expected: &'static str,
        actual: &'static str,
    },
    Other(String),
}

fn outcome<T>(result: Result<T, PcsiError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(PcsiError::AccessDenied { .. }) => Outcome::AccessDenied,
        Err(PcsiError::InvalidReference(_)) => Outcome::InvalidReference,
        Err(PcsiError::NotFound(_)) => Outcome::NotFound,
        Err(PcsiError::WrongKind {
            expected, actual, ..
        }) => Outcome::WrongKind { expected, actual },
        Err(other) => Outcome::Other(other.to_string()),
    }
}

const QUEUES: &[&str] = &["fifo", "socket"];
const DIRECTORY: &[&str] = &["directory"];
const KINDS: [&str; 6] = [
    "regular",
    "function",
    "directory",
    "fifo",
    "socket",
    "device",
];

/// The specification the kernel is held to: per op, the right it needs,
/// the kinds it serves (`None`: all six) and what its refusal says it
/// wanted. Written from `CloudInterface`'s documentation and the error
/// texts, not from the kernel's own table.
const MATRIX: [(MatrixOp, Rights, Option<&[&str]>, &str); 13] = [
    (
        MatrixOp::Read,
        Rights::READ,
        Some(&["regular", "function", "directory", "device"]),
        "byte object (use pop for FIFOs)",
    ),
    (
        MatrixOp::Write,
        Rights::WRITE,
        Some(&["regular", "function", "socket", "device"]),
        "writable object",
    ),
    (
        MatrixOp::Append,
        Rights::APPEND,
        Some(&["regular", "function", "fifo", "socket"]),
        "appendable object",
    ),
    (MatrixOp::Pop, Rights::READ, Some(QUEUES), "fifo or socket"),
    (MatrixOp::Stat, Rights::READ, None, ""),
    (MatrixOp::SetMutability, Rights::MANAGE, None, ""),
    (MatrixOp::Delete, Rights::MANAGE, None, ""),
    (MatrixOp::Link, Rights::WRITE, Some(DIRECTORY), "directory"),
    (
        MatrixOp::Unlink,
        Rights::WRITE,
        Some(DIRECTORY),
        "directory",
    ),
    (MatrixOp::Lookup, Rights::READ, Some(DIRECTORY), "directory"),
    (MatrixOp::List, Rights::READ, Some(DIRECTORY), "directory"),
    (
        MatrixOp::Invoke,
        Rights::INVOKE,
        Some(&["function"]),
        "function",
    ),
    (
        MatrixOp::Subscribe,
        Rights::READ,
        Some(QUEUES),
        "fifo or socket",
    ),
];

/// How the caller's reference stands when the op is issued.
#[derive(Clone, Copy, Debug)]
enum Standing {
    /// Every right held.
    Held,
    /// Every right but the one the op needs.
    Attenuated,
    /// Minted before a `revoke`.
    Revoked,
    /// The object is gone.
    Deleted,
}

#[test]
fn every_op_on_every_kind_admits_or_refuses_as_the_table_says() {
    with_cloud(18, |cloud| {
        Box::pin(async move {
            cloud
                .kernel
                .register_device("null", std::rc::Rc::new(|_input: Bytes| Ok(Bytes::new())));
            cloud.kernel.register_body(
                "noop",
                std::rc::Rc::new(|_ctx| Box::pin(async { Ok(Bytes::new()) })),
            );
            let image = pcsi_faas::function::FunctionImage::simple(
                "noop",
                pcsi_faas::function::WorkModel::fixed(Duration::from_micros(10)),
                1,
            )
            .encode();
            let c = cloud.kernel.client(NodeId(0), "tenant-a");
            let target = c.create(CreateOptions::regular()).await.unwrap();

            let mut cells = 0;
            for (op, right, serves, expected) in MATRIX {
                for kind in KINDS {
                    for standing in [
                        Standing::Held,
                        Standing::Attenuated,
                        Standing::Revoked,
                        Standing::Deleted,
                    ] {
                        // A fresh object per cell, ready for the op to
                        // succeed: a queue holds a message, a directory
                        // the name `n`.
                        let opts = match kind {
                            "regular" => CreateOptions::regular().with_initial(&b"data"[..]),
                            "function" => CreateOptions::function(image.clone()),
                            "directory" => CreateOptions::directory(),
                            "fifo" => CreateOptions::fifo(),
                            "socket" => CreateOptions {
                                kind: ObjectKind::Socket,
                                ..CreateOptions::fifo()
                            },
                            _ => CreateOptions {
                                kind: ObjectKind::Device("null".into()),
                                ..CreateOptions::immutable(Bytes::new())
                            },
                        };
                        let full = c.create(opts).await.unwrap();
                        if QUEUES.contains(&kind) {
                            c.append(&full, Bytes::from_static(b"m")).await.unwrap();
                        }
                        if kind == "directory" && !matches!(op, MatrixOp::Link) {
                            c.link(&full, "n", &target).await.unwrap();
                        }
                        let r = match standing {
                            Standing::Held => full,
                            Standing::Attenuated => full
                                .attenuate(Rights::from_bits(Rights::ALL.bits() & !right.bits()))
                                .unwrap(),
                            Standing::Revoked => {
                                cloud.kernel.revoke(full.id()).unwrap();
                                full
                            }
                            Standing::Deleted => {
                                c.delete(&full).await.unwrap();
                                full
                            }
                        };

                        let got = match op {
                            MatrixOp::Read => outcome(c.read(&r, 0, 16).await),
                            MatrixOp::Write => {
                                outcome(c.write(&r, 0, Bytes::from_static(b"w")).await)
                            }
                            MatrixOp::Append => {
                                outcome(c.append(&r, Bytes::from_static(b"a")).await)
                            }
                            MatrixOp::Pop => outcome(c.pop(&r).await),
                            MatrixOp::Stat => outcome(c.stat(&r).await),
                            MatrixOp::SetMutability => {
                                outcome(c.set_mutability(&r, Mutability::Immutable).await)
                            }
                            MatrixOp::Delete => outcome(c.delete(&r).await),
                            MatrixOp::Link => outcome(c.link(&r, "n", &target).await),
                            MatrixOp::Unlink => outcome(c.unlink(&r, "n").await),
                            MatrixOp::Lookup => outcome(c.lookup(&r, "n").await),
                            MatrixOp::List => outcome(c.list(&r).await),
                            MatrixOp::Invoke => outcome(
                                c.invoke(&r, pcsi_core::api::InvokeRequest::default()).await,
                            ),
                            MatrixOp::Subscribe => {
                                let sub = c.subscribe(&r, 4).await;
                                if let Ok(sub) = &sub {
                                    sub.cancel();
                                }
                                outcome(sub)
                            }
                        };
                        // Admission runs found → generation → right →
                        // kind, so a reference that does not stand is
                        // refused the same way whatever it names.
                        let want = match standing {
                            Standing::Deleted => Outcome::NotFound,
                            Standing::Revoked => Outcome::InvalidReference,
                            Standing::Attenuated => Outcome::AccessDenied,
                            Standing::Held if serves.is_none_or(|s| s.contains(&kind)) => {
                                Outcome::Ok
                            }
                            Standing::Held => Outcome::WrongKind {
                                expected,
                                actual: kind,
                            },
                        };
                        assert_eq!(got, want, "{op:?} on a {kind}, reference {standing:?}");
                        cells += 1;
                    }
                }
            }
            assert_eq!(cells, 13 * 6 * 4);

            // `link` admits a second reference: the target must stand and
            // carry GRANT, whatever it names.
            let dir = c.create(CreateOptions::directory()).await.unwrap();
            let no_grant = target
                .attenuate(Rights::from_bits(
                    Rights::ALL.bits() & !Rights::GRANT.bits(),
                ))
                .unwrap();
            assert_eq!(
                outcome(c.link(&dir, "a", &no_grant).await),
                Outcome::AccessDenied
            );
            let gone = c.create(CreateOptions::fifo()).await.unwrap();
            c.delete(&gone).await.unwrap();
            assert_eq!(outcome(c.link(&dir, "b", &gone).await), Outcome::NotFound);
            cloud.kernel.revoke(target.id()).unwrap();
            assert_eq!(
                outcome(c.link(&dir, "c", &target).await),
                Outcome::InvalidReference
            );
        })
    });
}

/// A socket: a FIFO in everything but its kind.
fn a_socket() -> CreateOptions {
    CreateOptions {
        kind: ObjectKind::Socket,
        ..CreateOptions::fifo()
    }
}

#[test]
fn a_socket_write_is_an_append_that_returns_nothing() {
    // Regression: `write` on a socket pushed straight into the queue —
    // no fabric hop from the caller to the queue's home, no `size` /
    // `version` bump — so a cross-node write took zero virtual time and
    // `stat` went on reading an empty socket.
    with_cloud(19, |cloud| {
        Box::pin(async move {
            let h = cloud.fabric.handle().clone();
            let owner = cloud.kernel.client(NodeId(0), "tenant-a");
            let socket = owner.create(a_socket()).await.unwrap();
            let home = cloud.store.placement().primary(socket.id());
            let far = cloud
                .fabric
                .topology()
                .node_ids()
                .into_iter()
                .find(|n| *n != home)
                .unwrap();
            let writer = cloud.kernel.client(far, "tenant-a");

            let before = owner.stat(&socket).await.unwrap();
            let t0 = h.now();
            writer
                .write(&socket, 0, Bytes::from_static(b"GET /"))
                .await
                .unwrap();
            assert!(
                h.now() - t0 > Duration::ZERO,
                "the bytes crossed the fabric"
            );
            let after = owner.stat(&socket).await.unwrap();
            assert_eq!((before.size, after.size), (0, 1));
            assert_eq!(after.version, before.version + 1);

            // Exactly what `append` does to its twin.
            let twin = owner.create(a_socket()).await.unwrap();
            owner
                .append(&twin, Bytes::from_static(b"GET /"))
                .await
                .unwrap();
            let appended = owner.stat(&twin).await.unwrap();
            assert_eq!(
                (appended.size, appended.version),
                (after.size, after.version)
            );
            assert_eq!(&owner.pop(&socket).await.unwrap()[..], b"GET /");
            assert_eq!(owner.stat(&socket).await.unwrap().size, 0);
        })
    });
}
