//! Seeded chaos for the streaming layer: cross-node FIFO subscriptions
//! under message drops and silent subscriber death.
//!
//! [`run_stream_scenario`] builds a full [`CloudBuilder`] deployment,
//! creates a FIFO, opens several kernel subscriptions with small seeded
//! credit windows on seeded consumer nodes, then lets a producer append
//! a fixed event count while fabric-wide message drops are live and one
//! subscriber is killed mid-stream without telling anyone. The checks
//! pin the streaming contract from the crate docs:
//!
//! * **exactly-once, in order, within the credit window** — every
//!   surviving subscriber consumes seq `0..events` with no gap, loss,
//!   duplication, or reorder, despite dropped pushes (retransmitted),
//!   dropped replies (consumer-side seq dedup), and dropped grants
//!   (cumulative, so retransmits are idempotent);
//! * **bounded memory** — each subscriber's receive buffer high-water
//!   mark stays ≤ its window, and the owner ends the run with zero
//!   buffered frames and zero live subscriptions;
//! * **crash semantics** — the killed subscriber saw a clean prefix of
//!   the stream, and the owner reaped its state (via the credit-stall
//!   liveness probe) instead of backpressuring the producer forever.
//!
//! Everything derives from the one seed; a failing seed reproduces
//! byte-identically through [`Report::render`].

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, PcsiError, Rights};
use pcsi_net::{MessageFaults, NodeId};
use pcsi_stream::{CloseReason, Subscription};

use crate::report::{net_line, Faults, Report};

/// Concurrent subscriptions on the one FIFO.
const SUBSCRIBERS: usize = 3;
/// Events the producer appends.
const EVENTS: u64 = 48;
/// Fabric-wide message drop probability while the stream runs.
const DROP: f64 = 0.05;
/// Virtual time one append may spend retrying before the run reports a
/// stall and the producer stops: a livelock ends in a report, not a
/// hang.
const APPEND_BUDGET: Duration = Duration::from_secs(2);

/// Runs one seeded streaming scenario end to end: the seed controls
/// every random choice (consumer nodes, windows, pacing), and one
/// subscriber is killed silently halfway through. The body reports the
/// producer (`published N stalls M`: appends that landed, and times it
/// hit `Overloaded` — credit backpressure, or a dead subscriber not yet
/// reaped) and one `sub …` line per subscription: consumer node, credit
/// window (also the buffer bound the run asserts), events consumed,
/// receive-buffer high-water mark, duplicates the seq dedup discarded,
/// whether the schedule killed it, and its terminal close reason.
pub fn run_stream_scenario(seed: u64) -> Report {
    let builder = CloudBuilder::new().metrics(true);
    Lab::run(seed, builder, move |lab| drive_stream(lab, seed))
}

async fn drive_stream(lab: Lab, seed: u64) -> Report {
    let (cloud, h) = (&lab.cloud, &lab.h);
    let fabric = cloud.fabric.clone();
    let nodes = fabric.topology().node_ids();
    let faults = Faults::new(h, &fabric);
    let mut violations: Vec<String> = Vec::new();

    // The streamed FIFO, owned by a producer on the first node; the
    // subscribers tail it through a read-only capability.
    let producer = cloud.kernel.client(nodes[0], "stream-chaos");
    let fifo = producer
        .create(CreateOptions::fifo())
        .await
        .expect("fifo creation on a healthy fabric");
    let tail = fifo.attenuate(Rights::READ).expect("attenuate to READ");

    // Subscribers on seeded nodes with small seeded windows — small so
    // credit exhaustion (and hence backpressure and stall probing) is
    // actually exercised, not just theoretically possible.
    let rng = h.rng().stream("stream-chaos");
    let mut subs: Vec<(NodeId, Rc<Subscription>)> = Vec::new();
    for _ in 0..SUBSCRIBERS {
        let node = nodes[rng.gen_range(1..nodes.len() as u64) as usize];
        let window = [2u32, 4, 8][rng.gen_range(0..3) as usize];
        let client = cloud.kernel.client(node, "stream-chaos");
        let sub = client
            .subscribe(&tail, window)
            .await
            .expect("subscribe on a healthy fabric");
        subs.push((node, Rc::new(sub)));
    }

    // Consumers drain until close, at seeded per-event think time (so
    // windows of different sizes stall at different moments).
    let consumers: Vec<_> = subs
        .iter()
        .enumerate()
        .map(|(i, (_, sub))| {
            let sub = Rc::clone(sub);
            let h2 = h.clone();
            h.spawn(async move {
                let think = h2.rng().stream_indexed("stream-chaos-consumer", i as u64);
                let mut seqs = Vec::new();
                while let Some(ev) = sub.next().await {
                    seqs.push(ev.seq);
                    h2.sleep(Duration::from_micros(think.gen_range(20..200)))
                        .await;
                }
                seqs
            })
        })
        .collect();

    // Faults go live only after the subscriptions exist: the schedule
    // targets the stream, not its setup.
    faults.messages(MessageFaults {
        drop: DROP,
        duplicate: 0.0,
        delay_spike: 0.10,
        spike: Duration::from_micros(300),
    });

    // The producer appends through the kernel with Overloaded-retry;
    // halfway through, one subscriber dies silently.
    let killed_idx = SUBSCRIBERS - 1;
    let pace = h.rng().stream("stream-chaos-producer");
    let mut published = 0u64;
    let mut stalls = 0u64;
    'events: for i in 0..EVENTS {
        if i == EVENTS / 2 {
            let (node, sub) = &subs[killed_idx];
            sub.kill();
            faults.note(format_args!("kill subscriber {killed_idx} on {node}"));
        }
        let payload = Bytes::from(format!("event {i} from seed {seed}"));
        let since = h.now();
        loop {
            let backoff = match producer.append(&fifo, payload.clone()).await {
                // Only an append that landed was given a seq.
                Ok(_) => {
                    published += 1;
                    break;
                }
                // Credit backpressure, or a dead subscriber the owner
                // has not probed out yet: wait and retry.
                Err(PcsiError::Overloaded(_)) => {
                    stalls += 1;
                    pace.gen_range(100..400)
                }
                // The FIFO transfer to the object's home rode the faulty
                // fabric: transient, nothing was published.
                Err(PcsiError::Fault(_)) => pace.gen_range(100..400),
                Err(e) => {
                    violations.push(format!("append {i} failed terminally: {e}"));
                    break;
                }
            };
            if h.now() - since >= APPEND_BUDGET {
                violations.push(format!(
                    "append {i} stalled: no success in {APPEND_BUDGET:?} of retries"
                ));
                break 'events;
            }
            h.sleep(Duration::from_micros(backoff)).await;
        }
        h.sleep(Duration::from_micros(pace.gen_range(50..250)))
            .await;
    }

    // Heal, then close the stream: deleting the FIFO queues a close
    // frame behind the in-flight pushes, so survivors drain everything
    // before they see the end.
    faults.heal_all();
    producer
        .delete(&fifo)
        .await
        .expect("delete on healed fabric");

    let mut body = format!("published {published} stalls {stalls}\n");
    for (i, consumer) in consumers.into_iter().enumerate() {
        let seqs = consumer.await;
        let (node, sub) = &subs[i];
        let killed = i == killed_idx;
        let want: Vec<u64> = (0..published).collect();
        if killed {
            // A dead subscriber saw a clean prefix: in order, no gap,
            // no duplicate, ending wherever death caught it.
            if seqs != want[..seqs.len().min(want.len())] {
                violations.push(format!(
                    "sub {i} (killed): delivered seqs are not a clean prefix: {seqs:?}"
                ));
            }
        } else if seqs != want {
            violations.push(format!(
                "sub {i}: expected exactly-once in-order 0..{published}, got {} events{}",
                seqs.len(),
                first_divergence(&seqs, &want)
                    .map(|d| format!(" (first divergence at {d})"))
                    .unwrap_or_default(),
            ));
        }
        if sub.peak_buffered() > sub.window() as usize {
            violations.push(format!(
                "sub {i}: buffer high-water {} exceeds window {}",
                sub.peak_buffered(),
                sub.window()
            ));
        }
        if !sub.is_closed() {
            violations.push(format!("sub {i}: still open after object delete"));
        }
        let close = match sub.close_reason() {
            Some(CloseReason::Cancelled) => "cancelled",
            Some(CloseReason::ObjectClosed) => "object-closed",
            Some(CloseReason::SubscriberLost) => "subscriber-lost",
            None => "open",
        };
        body.push_str(&format!(
            "sub {i} node={node} window={} delivered={} peak={} dups={} killed={killed} close={close}\n",
            sub.window(),
            sub.consumed(),
            sub.peak_buffered(),
            sub.duplicates(),
        ));
    }

    // The owner must end fully drained: no live subscriptions on the
    // deleted object and no frames buffered anywhere — the other half
    // of the bounded-memory claim.
    let publisher = cloud.kernel.publisher();
    if publisher.subscriber_count(fifo.id()) > 0 {
        violations.push("owner still has subscribers after delete".to_owned());
    }
    if publisher.buffered_frames() != 0 {
        violations.push(format!(
            "owner still buffers {} frames after delete",
            publisher.buffered_frames()
        ));
    }

    body.push_str(&net_line(&fabric));
    Report {
        title: format!("stream scenario seed={seed}"),
        seed,
        faults: faults.log(),
        body,
        violations,
        // Includes the `stream.*` counters and the per-frame latency
        // histogram.
        tail: cloud
            .metrics
            .as_ref()
            .map(pcsi_metrics::Metrics::render)
            .unwrap_or_default(),
    }
}

/// Index of the first position where `got` and `want` differ.
fn first_divergence(got: &[u64], want: &[u64]) -> Option<usize> {
    got.iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .or((got.len() != want.len()).then(|| got.len().min(want.len())))
}
