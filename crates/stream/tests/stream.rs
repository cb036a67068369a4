//! End-to-end tests for the streaming layer over a bare fabric (no
//! kernel): credit flow control, ordering, backpressure, fault
//! tolerance, crash semantics, and the owner's checks on raw control
//! frames. The producer numbers its events itself, as the kernel numbers
//! a FIFO's messages.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{ObjectId, PcsiError};
use pcsi_net::{
    Fabric, LatencyModel, MessageFaults, NetworkGeneration, NodeId, Topology, Transport,
};
use pcsi_sim::Sim;
use pcsi_stream::frame::{decode_stream_reply, encode_stream_frame, StreamFrame, StreamReply};
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

async fn open(publisher: &Publisher, window: u32) -> Subscription {
    publisher
        .subscribe(CONSUMER, obj(), HOME, window)
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
            let sub = open(&publisher, 8).await;
            let h = fabric.handle().clone();
            for i in 0..4u64 {
                let event = Bytes::from(format!("event-{i}"));
                publisher
                    .publish(obj(), i, event, h.now().as_nanos())
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
            let sub = open(&publisher, window).await;
            let h = fabric.handle().clone();

            // Never consume: credits exhaust, then owner buffers fill.
            let mut accepted = 0u64;
            let mut overloaded = false;
            for _ in 0..16 {
                let x = Bytes::from_static(b"x");
                match publisher.publish(obj(), accepted, x, h.now().as_nanos()) {
                    Ok(()) => accepted += 1,
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
            assert!(accepted <= 2 * u64::from(window), "accepted {accepted}");
            assert!(sub.peak_buffered() <= window as usize);

            // Consuming replenishes credits and drains the backlog in
            // order, with nothing lost before the overload error.
            for want in 0..accepted {
                let ev = sub.next().await.expect("drain");
                assert_eq!(ev.seq, want);
            }
            // And the producer is admitted again.
            let y = Bytes::from_static(b"y");
            assert!(publisher
                .publish(obj(), accepted, y, h.now().as_nanos())
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
            let a = open(&publisher, 8).await;
            let b = open(&publisher, 4).await;
            assert_eq!(publisher.subscriber_count(obj()), 2);
            let h = fabric.handle().clone();
            for i in 0..6u64 {
                let event = Bytes::from(format!("e{i}"));
                publisher
                    .publish(obj(), i, event, h.now().as_nanos())
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
            let sub = open(&publisher, 16).await;
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
                    let event = Bytes::from(format!("m{i}"));
                    match publisher.publish(obj(), i, event, h.now().as_nanos()) {
                        Ok(()) => break,
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
            let sub = open(&publisher, 4).await;
            let h = fabric.handle().clone();
            let one = Bytes::from_static(b"one");
            publisher
                .publish(obj(), 0, one, h.now().as_nanos())
                .expect("publish");
            h.sleep(Duration::from_millis(1)).await;

            // The subscriber process dies without telling anyone.
            sub.kill();
            let two = Bytes::from_static(b"two");
            publisher
                .publish(obj(), 1, two, h.now().as_nanos())
                .expect("publish");
            h.sleep(Duration::from_millis(5)).await;

            // The owner discovered the dead endpoint and dropped the
            // subscription: credits and buffers released.
            assert_eq!(publisher.subscriber_count(obj()), 0);
            assert_eq!(publisher.buffered_frames(), 0);
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
            let sub = open(&publisher, window).await;
            let h = fabric.handle().clone();

            // Exhaust the window and fill the owner buffer: the sub is
            // now credit-stalled, so no push will ever reach it again.
            let mut queued = 0u64;
            let x = Bytes::from_static(b"x");
            while publisher
                .publish(obj(), queued, x.clone(), h.now().as_nanos())
                .is_ok()
            {
                queued += 1;
                h.sleep(Duration::from_micros(100)).await;
            }
            assert!(
                queued >= u64::from(window),
                "window plus owner buffer filled"
            );

            // The subscriber dies silently. Without liveness probing the
            // owner would wait forever for a grant that cannot come and
            // the producer would stay backpressured forever.
            sub.kill();
            let stalled_ns = h.now().as_nanos();
            loop {
                let y = Bytes::from_static(b"y");
                match publisher.publish(obj(), queued, y, h.now().as_nanos()) {
                    Ok(()) => break,
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

/// Microseconds after the call at which the fabric counted a dropped
/// message, sampled every microsecond for `horizon`.
async fn drop_instants(fabric: &Fabric, horizon: Duration) -> Vec<u64> {
    let h = fabric.handle().clone();
    let t0 = h.now();
    let mut seen = fabric.messages_dropped();
    let mut at = Vec::new();
    while h.now() - t0 < horizon {
        h.sleep(Duration::from_micros(1)).await;
        let now = fabric.messages_dropped();
        let us = (h.now() - t0).as_micros() as u64;
        at.extend((seen..now).map(|_| us));
        seen = now;
    }
    at
}

/// Every frame a lost fabric swallows is retransmitted 16 times, 200 µs
/// after each 2 ms retransmission timeout (plus the sender's endpoint
/// overhead, which the microsecond sampling shows as slow drift).
const RETRY_SCHEDULE_US: [u64; 17] = [
    1, 2201, 4401, 6601, 8802, 11002, 13202, 15403, 17603, 19803, 22003, 24204, 26404, 28604,
    30805, 33005, 35205,
];

fn lose_everything(fabric: &Fabric) {
    fabric.set_message_faults(MessageFaults {
        drop: 1.0,
        duplicate: 0.0,
        delay_spike: 0.0,
        spike: Duration::ZERO,
    });
}

#[test]
fn a_lost_push_is_retried_on_schedule_then_its_subscription_is_reaped() {
    let (mut sim, fabric, publisher) = setup(9);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let _sub = open(&publisher, 4).await;
            lose_everything(&fabric);
            let h = fabric.handle().clone();
            let lost = Bytes::from_static(b"lost");
            publisher
                .publish(obj(), 0, lost, h.now().as_nanos())
                .expect("publish");
            let at = drop_instants(&fabric, Duration::from_millis(50)).await;
            assert_eq!(at, RETRY_SCHEDULE_US);
            assert_eq!(publisher.subscriber_count(obj()), 0);
            assert_eq!(publisher.buffered_frames(), 0);
        }
    });
}

#[test]
fn a_lost_grant_is_retried_on_schedule() {
    let (mut sim, fabric, publisher) = setup(10);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            // A window of 2 grants after every consumed event.
            let sub = open(&publisher, 2).await;
            let h = fabric.handle().clone();
            let one = Bytes::from_static(b"one");
            publisher
                .publish(obj(), 0, one, h.now().as_nanos())
                .expect("publish");
            h.sleep(Duration::from_millis(1)).await;
            lose_everything(&fabric);
            sub.next().await.expect("buffered event");
            let at = drop_instants(&fabric, Duration::from_millis(50)).await;
            assert_eq!(at, RETRY_SCHEDULE_US);
            assert_eq!(publisher.subscriber_count(obj()), 1);
        }
    });
}

#[test]
fn a_lost_close_is_retried_on_schedule() {
    let (mut sim, fabric, publisher) = setup(11);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let sub = open(&publisher, 4).await;
            lose_everything(&fabric);
            sub.cancel();
            let at = drop_instants(&fabric, Duration::from_millis(50)).await;
            assert_eq!(at, RETRY_SCHEDULE_US);
            // The owner never heard: a close is best-effort.
            assert_eq!(publisher.subscriber_count(obj()), 1);
        }
    });
}

#[test]
fn a_killed_stalled_subscriber_is_reaped_at_the_pinned_instant() {
    let (mut sim, fabric, publisher) = setup(12);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let sub = open(&publisher, 2).await;
            let h = fabric.handle().clone();
            let mut seq = 0;
            let x = Bytes::from_static(b"x");
            while publisher
                .publish(obj(), seq, x.clone(), h.now().as_nanos())
                .is_ok()
            {
                seq += 1;
                h.sleep(Duration::from_micros(100)).await;
            }
            sub.kill();
            while publisher.subscriber_count(obj()) > 0 {
                h.sleep(Duration::from_micros(1)).await;
            }
            assert_eq!(h.now().as_nanos(), 2_705_209);
        }
    });
}

/// The longest one retried call can take: the last retransmit's instant
/// above plus one more retransmission interval, which covers that
/// attempt's 2 ms timeout and the endpoint overhead.
const RETRIED_CALL_BUDGET: Duration = Duration::from_micros(RETRY_SCHEDULE_US[16] + 2_200);

/// A consumer takes a whole window and grants nothing, so the pump runs
/// dry with every credit spent and exits unstalled. The stall starts at
/// the next `publish`, not in the pump, and must start the probe all the
/// same: nothing else ever reaps a subscriber that died meanwhile.
#[test]
fn a_stall_entered_at_publish_is_probed_and_reaped() {
    let (mut sim, fabric, publisher) = setup(13);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let window = 3u32;
            let sub = open(&publisher, window).await;
            let h = fabric.handle().clone();
            let x = Bytes::from_static(b"x");
            for seq in 0..u64::from(window) {
                publisher
                    .publish(obj(), seq, x.clone(), h.now().as_nanos())
                    .expect("publish");
            }
            h.sleep(Duration::from_millis(1)).await;
            assert_eq!(sub.peak_buffered(), window as usize, "window delivered");

            sub.kill();
            publisher
                .publish(obj(), u64::from(window), x, h.now().as_nanos())
                .expect("publish");
            h.sleep(PROBE_INTERVAL + RETRIED_CALL_BUDGET).await;
            assert_eq!(publisher.subscriber_count(obj()), 0);
            assert_eq!(publisher.buffered_frames(), 0);
        }
    });
}

/// A subscribe whose every reply is lost must not leave the owner
/// holding a subscription nobody consumes: it would take the FIFO's
/// next append, which then reaches neither a subscriber nor `pop`.
#[test]
fn a_subscribe_that_fails_under_drops_leaves_no_ghost() {
    let mut ghosts = Vec::new();
    for seed in 0..64 {
        let (mut sim, fabric, publisher) = setup(seed);
        let ghost = sim.block_on({
            let fabric = fabric.clone();
            let publisher = publisher.clone();
            async move {
                fabric.set_message_faults(MessageFaults {
                    drop: 0.5,
                    duplicate: 0.0,
                    delay_spike: 0.0,
                    spike: Duration::ZERO,
                });
                let opened = publisher.subscribe(CONSUMER, obj(), HOME, 4).await;
                fabric.clear_message_faults();
                fabric.handle().sleep(Duration::from_millis(5)).await;
                publisher.subscriber_count(obj()) != usize::from(opened.is_ok())
            }
        });
        if ghost {
            ghosts.push(seed);
        }
    }
    assert_eq!(ghosts, Vec::<u64>::new(), "seeds that left a ghost");
}

/// Sends `frame` raw from `from` to the owner's control service.
async fn control(fabric: &Fabric, from: NodeId, frame: StreamFrame) -> StreamReply {
    let wire = encode_stream_frame(&frame);
    let reply = fabric
        .call(from, HOME, "pcsi-stream", Transport::Rdma, wire)
        .await
        .expect("a fault-free fabric delivers");
    decode_stream_reply(&reply).expect("the owner's reply decodes")
}

fn subscribe(sub: u64, id: ObjectId, window: u32) -> StreamFrame {
    StreamFrame::Subscribe { id, sub, window }
}

#[test]
fn the_owner_refuses_a_subscribe_with_window_zero() {
    let (mut sim, fabric, publisher) = setup(13);
    sim.block_on(async move {
        let reply = control(&fabric, CONSUMER, subscribe(42, obj(), 0)).await;
        assert!(
            matches!(reply, StreamReply::Err(PcsiError::Fault(ref e)) if e.contains("window")),
            "{reply:?}"
        );
        assert_eq!(publisher.subscriber_count(obj()), 0);
    });
}

#[test]
fn the_owner_refuses_a_sub_id_held_for_another_consumer_or_object() {
    let (mut sim, fabric, publisher) = setup(7);
    sim.block_on(async move {
        let held = control(&fabric, CONSUMER, subscribe(42, obj(), 4)).await;
        assert_eq!(held, StreamReply::Ok);
        let other_node = control(&fabric, NodeId(2), subscribe(42, obj(), 4)).await;
        let other_object = ObjectId::from_parts(9, 2);
        let other_obj = control(&fabric, CONSUMER, subscribe(42, other_object, 4)).await;
        for refused in [other_node, other_obj] {
            assert!(
                matches!(refused, StreamReply::Err(PcsiError::Fault(ref e)) if e.contains("already exists"))
            );
        }
        assert_eq!(publisher.subscriber_count(obj()), 1);
        assert_eq!(publisher.subscriber_count(other_object), 0);
    });
}

#[test]
fn the_owner_accepts_a_repeated_subscribe_from_its_consumer_once() {
    let (mut sim, fabric, publisher) = setup(14);
    sim.block_on(async move {
        for _ in 0..2 {
            let reply = control(&fabric, CONSUMER, subscribe(42, obj(), 4)).await;
            assert_eq!(reply, StreamReply::Ok);
        }
        assert_eq!(publisher.subscriber_count(obj()), 1);
    });
}

/// Regression: a grant reporting more frames than were ever sent made
/// the owner's credit count underflow (a panic in debug builds).
#[test]
fn the_owner_survives_a_grant_past_what_it_sent() {
    let (mut sim, fabric, publisher) = setup(15);
    sim.block_on(async move {
        assert_eq!(
            control(&fabric, CONSUMER, subscribe(42, obj(), 4)).await,
            StreamReply::Ok
        );
        let grant = StreamFrame::Grant {
            sub: 42,
            consumed: u64::MAX,
        };
        assert_eq!(control(&fabric, CONSUMER, grant).await, StreamReply::Ok);
        let x = Bytes::from_static(b"x");
        let ts = fabric.handle().now().as_nanos();
        publisher.publish(obj(), 0, x, ts).expect("publish");
        // No push endpoint is bound for the raw subscription: the push
        // fails and the owner reaps it.
        fabric.handle().sleep(Duration::from_millis(1)).await;
        assert_eq!(publisher.subscriber_count(obj()), 0);
    });
}

#[test]
fn close_object_ends_streams_after_draining() {
    let (mut sim, fabric, publisher) = setup(6);
    sim.block_on({
        let fabric = fabric.clone();
        let publisher = publisher.clone();
        async move {
            let sub = open(&publisher, 8).await;
            let h = fabric.handle().clone();
            for i in 0..3u64 {
                let event = Bytes::from(format!("tail-{i}"));
                publisher
                    .publish(obj(), i, event, h.now().as_nanos())
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
