//! End-to-end tests for the streaming layer over a bare fabric (no
//! kernel): credit flow control, ordering, backpressure, fault
//! tolerance, and crash semantics.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{ObjectId, PcsiError};
use pcsi_net::{Fabric, LatencyModel, MessageFaults, NetworkGeneration, NodeId, Topology};
use pcsi_sim::Sim;
use pcsi_stream::{Publisher, Subscription, PROBE_INTERVAL};

fn setup(seed: u64) -> (Sim, Fabric, Publisher) {
    let sim = Sim::new(seed);
    let fabric = Fabric::new(
        sim.handle(),
        Topology::uniform(2, 2),
        LatencyModel::deterministic(NetworkGeneration::Dc2021),
    );
    let publisher = Publisher::deploy(fabric.clone(), None);
    (sim, fabric, publisher)
}

const HOME: NodeId = NodeId(0);
const CONSUMER: NodeId = NodeId(3);

fn obj() -> ObjectId {
    ObjectId::from_parts(9, 1)
}

async fn open(fabric: &Fabric, publisher: &Publisher, window: u32) -> Subscription {
    let sub = publisher.alloc_sub(CONSUMER);
    Subscription::open(fabric.clone(), sub, CONSUMER, obj(), HOME, window, None)
        .await
        .expect("subscribe")
}

#[test]
fn events_arrive_in_order_with_positive_latency() {
    let (mut sim, fabric, publisher) = setup(1);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let sub = open(&fabric, &publisher, 8).await;
            let h = fabric.handle().clone();
            for i in 0..4u32 {
                publisher
                    .publish(obj(), Bytes::from(format!("event-{i}")), h.now().as_nanos())
                    .expect("publish");
            }
            for want in 0..4u64 {
                let ev = sub.next().await.expect("event");
                assert_eq!(ev.seq, want);
                assert_eq!(ev.payload, Bytes::from(format!("event-{want}")));
                assert!(ev.latency > Duration::ZERO, "pushes must cost time");
            }
            assert!(sub.peak_buffered() <= 8);
            sub.cancel();
        }
    });
}

#[test]
fn producer_gets_backpressure_when_consumer_stalls() {
    let (mut sim, fabric, publisher) = setup(2);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let window = 2u32;
            let sub = open(&fabric, &publisher, window).await;
            let h = fabric.handle().clone();

            // Never consume: credits exhaust, then owner buffers fill.
            let mut accepted = 0u32;
            let mut overloaded = false;
            for _ in 0..16 {
                match publisher.publish(obj(), Bytes::from_static(b"x"), h.now().as_nanos()) {
                    Ok(_) => accepted += 1,
                    Err(PcsiError::Overloaded(msg)) => {
                        assert!(msg.contains("backpressure"), "{msg}");
                        overloaded = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
                // Let the pump drain what credits allow.
                h.sleep(Duration::from_millis(1)).await;
            }
            assert!(overloaded, "producer must hit backpressure");
            // In flight at the stall: ≤ window delivered (credits) plus
            // ≤ window owner-buffered.
            assert!(accepted <= 2 * window, "accepted {accepted}");
            assert!(sub.peak_buffered() <= window as usize);

            // Consuming replenishes credits and drains the backlog in
            // order, with nothing lost before the overload error.
            for want in 0..u64::from(accepted) {
                let ev = sub.next().await.expect("drain");
                assert_eq!(ev.seq, want);
            }
            // And the producer is admitted again.
            assert!(publisher
                .publish(obj(), Bytes::from_static(b"y"), h.now().as_nanos())
                .is_ok());
            sub.cancel();
        }
    });
}

#[test]
fn fan_out_delivers_every_event_to_every_subscriber() {
    let (mut sim, fabric, publisher) = setup(3);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let a = open(&fabric, &publisher, 8).await;
            let b = open(&fabric, &publisher, 4).await;
            assert_eq!(publisher.subscriber_count(obj()), 2);
            let h = fabric.handle().clone();
            for i in 0..6u32 {
                publisher
                    .publish(obj(), Bytes::from(format!("e{i}")), h.now().as_nanos())
                    .expect("publish");
                h.sleep(Duration::from_micros(500)).await;
            }
            for sub in [&a, &b] {
                for want in 0..6u64 {
                    let ev = sub.next().await.expect("event");
                    assert_eq!(ev.seq, want);
                }
            }
            a.cancel();
            b.cancel();
            h.sleep(Duration::from_millis(2)).await;
            assert_eq!(publisher.subscriber_count(obj()), 0);
            assert_eq!(publisher.buffered_frames(), 0);
        }
    });
}

#[test]
fn drops_and_duplicates_never_lose_or_repeat_frames() {
    let (mut sim, fabric, publisher) = setup(4);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let sub = open(&fabric, &publisher, 16).await;
            fabric.set_message_faults(MessageFaults {
                drop: 0.10,
                duplicate: 0.10,
                delay_spike: 0.0,
                spike: Duration::ZERO,
            });
            let h = fabric.handle().clone();
            let total = 40u64;

            // Consume concurrently with production — a stalled consumer
            // would deadlock the producer once 2×window is in flight.
            let consumer = h.spawn({
                let sub = Rc::new(sub);
                async move {
                    let mut seqs = Vec::new();
                    for _ in 0..total {
                        let ev = sub.next().await.expect("event survives faults");
                        seqs.push(ev.seq);
                    }
                    (seqs, sub.peak_buffered())
                }
            });
            for i in 0..total {
                loop {
                    match publisher.publish(obj(), Bytes::from(format!("m{i}")), h.now().as_nanos())
                    {
                        Ok(_) => break,
                        Err(PcsiError::Overloaded(_)) => h.sleep(Duration::from_millis(1)).await,
                        Err(e) => panic!("publish: {e}"),
                    }
                }
                h.sleep(Duration::from_micros(200)).await;
            }
            let (seqs, peak) = consumer.await;
            assert_eq!(
                seqs,
                (0..total).collect::<Vec<_>>(),
                "exactly-once, in order"
            );
            assert!(peak <= 16);
            fabric.clear_message_faults();
        }
    });
}

#[test]
fn killed_subscriber_releases_owner_state() {
    let (mut sim, fabric, publisher) = setup(5);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let sub = open(&fabric, &publisher, 4).await;
            let h = fabric.handle().clone();
            publisher
                .publish(obj(), Bytes::from_static(b"one"), h.now().as_nanos())
                .expect("publish");
            h.sleep(Duration::from_millis(1)).await;

            // The subscriber process dies without telling anyone.
            sub.kill();
            publisher
                .publish(obj(), Bytes::from_static(b"two"), h.now().as_nanos())
                .expect("publish");
            h.sleep(Duration::from_millis(5)).await;

            // The owner discovered the dead endpoint and dropped the
            // subscription: credits and buffers released.
            assert_eq!(publisher.subscriber_count(obj()), 0);
            assert_eq!(publisher.buffered_frames(), 0);
            assert!(!publisher.has_subscribers(obj()));
        }
    });
}

#[test]
fn stalled_dead_subscriber_is_probed_and_reaped() {
    let (mut sim, fabric, publisher) = setup(8);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let window = 2u32;
            let sub = open(&fabric, &publisher, window).await;
            let h = fabric.handle().clone();

            // Exhaust the window and fill the owner buffer: the sub is
            // now credit-stalled, so no push will ever reach it again.
            let mut queued = 0u32;
            while publisher
                .publish(obj(), Bytes::from_static(b"x"), h.now().as_nanos())
                .is_ok()
            {
                queued += 1;
                h.sleep(Duration::from_micros(100)).await;
            }
            assert!(queued >= window, "window plus owner buffer filled");

            // The subscriber dies silently. Without liveness probing the
            // owner would wait forever for a grant that cannot come and
            // the producer would stay backpressured forever.
            sub.kill();
            let stalled_ns = h.now().as_nanos();
            loop {
                match publisher.publish(obj(), Bytes::from_static(b"y"), h.now().as_nanos()) {
                    Ok(_) => break,
                    Err(PcsiError::Overloaded(_)) => h.sleep(Duration::from_micros(200)).await,
                    Err(e) => panic!("publish: {e}"),
                }
            }
            // The probe retransmission discovered the death and reaped
            // the subscription within a few probe intervals.
            let waited = Duration::from_nanos(h.now().as_nanos() - stalled_ns);
            assert!(waited <= 5 * PROBE_INTERVAL, "reap took {waited:?}");
            assert_eq!(publisher.subscriber_count(obj()), 0);
            assert_eq!(publisher.buffered_frames(), 0);
        }
    });
}

#[test]
fn close_object_ends_streams_after_draining() {
    let (mut sim, fabric, publisher) = setup(6);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let sub = open(&fabric, &publisher, 8).await;
            let h = fabric.handle().clone();
            for i in 0..3u32 {
                publisher
                    .publish(obj(), Bytes::from(format!("tail-{i}")), h.now().as_nanos())
                    .expect("publish");
            }
            publisher.close_object(obj());
            // All three events arrive before the close takes effect.
            for want in 0..3u64 {
                let ev = sub.next().await.expect("drain before close");
                assert_eq!(ev.seq, want);
            }
            assert!(sub.next().await.is_none(), "closed after drain");
            assert!(sub.is_closed());
            assert_eq!(
                sub.close_reason(),
                Some(pcsi_stream::CloseReason::ObjectClosed)
            );
            assert_eq!(publisher.subscriber_count(obj()), 0);
        }
    });
}

#[test]
fn subscribing_twice_with_same_id_is_rejected() {
    let (mut sim, fabric, publisher) = setup(7);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let id = publisher.alloc_sub(CONSUMER);
            let first =
                Subscription::open(fabric.clone(), id, CONSUMER, obj(), HOME, 4, None).await;
            assert!(first.is_ok());
            let second =
                Subscription::open(fabric.clone(), id, NodeId(2), obj(), HOME, 4, None).await;
            assert!(second.is_err(), "duplicate sub id must be refused");
        }
    });
}
