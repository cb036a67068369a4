//! E10 — pricing the streaming layer: PCSI push subscriptions vs an SSE
//! baseline, across network generations.
//!
//! The streaming analogue of [`super::crossover`]: for each Table-1
//! network generation, one producer publishes timestamped events to a
//! FIFO with kernel subscriptions (credit-based push) and to an SSE hub
//! (signed REST POST in, chunk-framed HTTP out), with 1 subscriber and
//! with a [`FAN_OUT`]-wide subscriber set. The per-event latency is the
//! producer-stamp-to-consumer delta in virtual time, measured
//! identically on both paths, so the gap is pure interface overhead.
//! The paper's argument carries over from request/response: the SSE
//! path is pinned to its protocol CPU floor (signing, HTTP parse, hub
//! forwarding), while the PCSI path rides the hardware down to the
//! microsecond network.
//!
//! Every measurement opens, tails, publishes to and closes its streams
//! through one seam, [`Feed`] and [`Tail`], so the transports differ only
//! inside it. Two scenario measurements ride along:
//!
//! * [`metrics_delta`] — the "metrics as a streamed file" scenario: a
//!   producer tails the deployment's metrics registry and publishes
//!   line-diffs ([`pcsi_metrics::delta`]) through a FIFO subscription; a
//!   consumer on another node reconstructs each snapshot byte-exactly
//!   with [`pcsi_metrics::apply_delta`]. The measured quantity is wire
//!   bytes per update, delta vs whole-snapshot.
//! * [`token_serving`] — the model-serving scenario: a server computes
//!   tokens at a fixed cadence and streams each one out; time-to-first
//!   token and full-stream time are compared across the two transports
//!   with identical compute, so only the delivery path differs.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::sse::{SseHub, SsePublisher, SseSubscriber};
use pcsi_cloud::{CloudBuilder, Kernel, KernelClient, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, PcsiError, Reference, Rights};
use pcsi_metrics::Histogram;
use pcsi_net::{NetworkGeneration, NodeId};
use pcsi_sim::SimHandle;

/// Subscriber count for the fan-out measurement.
const FAN_OUT: usize = 8;

/// Per-event delivery latency at one network generation, both
/// transports, 1 subscriber and [`FAN_OUT`] subscribers.
#[derive(Debug, Clone)]
pub struct StreamPoint {
    /// Network generation.
    pub generation: NetworkGeneration,
    /// The generation's cross-rack RTT (ns).
    pub rtt_ns: f64,
    /// Mean producer-to-consumer latency (ns), PCSI push, 1 subscriber.
    pub pcsi_event_ns: f64,
    /// Mean producer-to-consumer latency (ns), SSE, 1 subscriber.
    pub sse_event_ns: f64,
    /// Mean latency (ns) across [`FAN_OUT`] PCSI subscribers.
    pub pcsi_fanout_ns: f64,
    /// Mean latency (ns) across [`FAN_OUT`] SSE subscribers.
    pub sse_fanout_ns: f64,
}

impl StreamPoint {
    /// SSE per-event latency as a multiple of PCSI's — the streaming
    /// interface tax at this generation.
    pub fn sse_tax(&self) -> f64 {
        self.sse_event_ns / self.pcsi_event_ns
    }
}

/// Measures both transports at every generation.
fn run(seed: u64, events: u32) -> Vec<StreamPoint> {
    let mut out = Vec::new();
    for generation in NetworkGeneration::ALL {
        let builder = CloudBuilder::new()
            .network(generation)
            .deterministic_network();
        let point = Lab::run(seed, builder, move |lab| async move {
            // Pace publishes a few RTTs apart so each event's latency is
            // delivery time, not queueing behind its predecessors.
            let pace = generation.rtt().max(Duration::from_micros(20)) * 4;
            let mean = |transport, subscribers, name| {
                mean_latency(&lab, transport, subscribers, events, pace, name)
            };
            let pcsi_event_ns = mean(Transport::Pcsi, 1, "e10-p1").await;
            let pcsi_fanout_ns = mean(Transport::Pcsi, FAN_OUT, "e10-pn").await;
            let sse_event_ns = mean(Transport::Sse, 1, "e10-s1").await;
            let sse_fanout_ns = mean(Transport::Sse, FAN_OUT, "e10-sn").await;
            StreamPoint {
                generation,
                rtt_ns: generation.rtt().as_nanos() as f64,
                pcsi_event_ns,
                sse_event_ns,
                pcsi_fanout_ns,
                sse_fanout_ns,
            }
        });
        out.push(point);
    }
    out
}

/// The producer's virtual-time stamp an event carries in-band, so both
/// transports are measured by the same clock at the same two points.
fn unstamp(payload: &[u8]) -> u64 {
    let text = std::str::from_utf8(payload).expect("a stamped event is text");
    let stamp = text.split(' ').next().unwrap_or_default();
    stamp
        .parse()
        .expect("payload carries the producer timestamp")
}

/// The two transports E10 prices.
#[derive(Clone, Copy)]
enum Transport {
    /// A kernel FIFO, pushed to credit-based subscriptions.
    Pcsi,
    /// A stream on an SSE hub: signed REST POST in, chunked HTTP out.
    Sse,
}

/// The producer's end of one stream: every E10 measurement opens, tails,
/// publishes to and closes its streams through it.
struct Feed {
    h: SimHandle,
    /// The PCSI kernel account, or the SSE stream's name.
    name: String,
    /// Where the stream lives: the FIFO's placement primary, the hub's node.
    home: NodeId,
    via: Via,
}

enum Via {
    /// The kernel, the producer's client and the FIFO.
    Fifo(Kernel, KernelClient, Reference),
    /// The hub and the producer's publisher.
    Sse(SseHub, SsePublisher),
}

/// A consumer's end of a [`Feed`].
enum Tail {
    Pcsi(pcsi_stream::Subscription),
    Sse(SseSubscriber),
}

impl Feed {
    /// Opens stream `name`, produced from the first node: a fresh FIFO (a
    /// fresh placement draw) under kernel account `name`, or stream `name`
    /// on an SSE hub on a node that rotates with `round` to mirror it.
    async fn open(lab: &Lab, transport: Transport, round: usize, name: &str) -> Feed {
        let nodes = lab.cloud.fabric.topology().node_ids();
        let (home, via) = match transport {
            Transport::Pcsi => {
                let producer = lab.cloud.kernel.client(nodes[0], name);
                let fifo = producer.create(CreateOptions::fifo()).await.expect("fifo");
                let home = lab.cloud.store.placement().primary(fifo.id());
                (home, Via::Fifo(lab.cloud.kernel.clone(), producer, fifo))
            }
            Transport::Sse => {
                let home = nodes[1 + (round % (nodes.len() - 1))];
                let hub = lab.sse(home);
                let out = SsePublisher::new(&hub, nodes[0], Lab::credential());
                (home, Via::Sse(hub, out))
            }
        };
        let (h, name) = (lab.h.clone(), name.to_owned());
        Feed { h, name, home, via }
    }

    /// A consumer on `node`: a READ-only subscription with `window`
    /// credits, or an SSE connection (SSE has no flow control).
    async fn tail(&self, node: NodeId, window: u32) -> Tail {
        match &self.via {
            Via::Fifo(kernel, _, fifo) => {
                let read = fifo.attenuate(Rights::READ).expect("attenuate to READ");
                let client = kernel.client(node, &self.name);
                Tail::Pcsi(client.subscribe(&read, window).await.expect("subscribe"))
            }
            Via::Sse(hub, _) => {
                let sub = SseSubscriber::connect(hub, node, Lab::credential(), &self.name);
                Tail::Sse(sub.await.expect("sse connect"))
            }
        }
    }

    /// Publishes one event. An append retries on backpressure and transient
    /// faults for up to 2 s of virtual time (the bench injects no faults).
    async fn publish(&self, payload: Bytes) {
        let (h, since, budget) = (&self.h, self.h.now(), Duration::from_secs(2));
        match &self.via {
            Via::Fifo(_, producer, fifo) => {
                while let Err(e) = producer.append(fifo, payload.clone()).await {
                    let retryable = matches!(e, PcsiError::Overloaded(_) | PcsiError::Fault(_));
                    assert!(retryable, "append failed terminally: {e}");
                    assert!(h.now() - since < budget, "an append stalled");
                    h.sleep(Duration::from_micros(50)).await;
                }
            }
            Via::Sse(_, out) => {
                out.publish(&self.name, &payload).await.expect("publish");
            }
        }
    }

    /// Ends the stream: deleting the FIFO closes every subscription. An
    /// SSE stream has no end; its tails disconnect.
    async fn close(self) {
        if let Via::Fifo(_, producer, fifo) = self.via {
            producer.delete(&fifo).await.expect("delete");
        }
    }
}

impl Tail {
    /// The next event's payload; the stream must still be open.
    async fn next(&self) -> Bytes {
        match self {
            Tail::Pcsi(sub) => sub.next().await.expect("stream open").payload,
            Tail::Sse(sub) => sub.next().await.expect("stream open").data,
        }
    }

    /// Ends the consumer under its transport's protocol: a subscription
    /// drains to the FIFO's close, an SSE connection disconnects.
    async fn finish(self) {
        match self {
            Tail::Pcsi(sub) => while sub.next().await.is_some() {},
            Tail::Sse(sub) => sub.disconnect().await,
        }
    }
}

/// Rounds per mean: each opens a fresh feed and rotates the consumer set,
/// so rack geometry is sampled instead of drawn once.
const ROUNDS: usize = 4;

/// Mean per-event latency over [`ROUNDS`] × `events` publishes to
/// `subscribers` tails on distinct consumer nodes.
async fn mean_latency(
    lab: &Lab,
    transport: Transport,
    subscribers: usize,
    events: u32,
    pace: Duration,
    name: &str,
) -> f64 {
    let h = &lab.h;
    let nodes = lab.cloud.fabric.topology().node_ids();
    let hist = Rc::new(Histogram::new());
    for round in 0..ROUNDS {
        let feed = Feed::open(lab, transport, round, &format!("{name}-{round}")).await;
        // Consumers keep off the producer and the feed's home, so every
        // delivery crosses the fabric.
        let mut pool = nodes[1..].to_vec();
        pool.retain(|&n| n != feed.home);
        let mut consumers = Vec::new();
        for i in 0..subscribers {
            let tail = feed.tail(pool[(i + round) % pool.len()], 32).await;
            let (hist, h2) = (Rc::clone(&hist), h.clone());
            consumers.push(h.spawn(async move {
                for _ in 0..events {
                    let t0 = unstamp(&tail.next().await);
                    hist.record_duration(Duration::from_nanos(h2.now().as_nanos() - t0));
                }
                tail.finish().await;
            }));
        }
        for i in 0..events {
            let stamped = format!("{} event-{i}", h.now().as_nanos());
            feed.publish(Bytes::from(stamped)).await;
            h.sleep(pace).await;
        }
        feed.close().await;
        for c in consumers {
            c.await;
        }
    }
    hist.mean() as f64
}

/// Outcome of the metrics-delta streaming scenario.
#[derive(Debug, Clone)]
pub struct MetricsDeltaResult {
    /// Mean wire bytes per published delta frame.
    pub mean_delta_bytes: f64,
    /// Mean bytes of the full snapshot at each tick — what naive
    /// whole-file streaming would have shipped.
    pub mean_full_bytes: f64,
    /// True when the consumer's reconstruction matched the producer's
    /// final published snapshot byte-for-byte.
    pub reconstructed: bool,
}

impl MetricsDeltaResult {
    /// Whole-snapshot bytes over delta bytes — the wire saving.
    pub fn compression(&self) -> f64 {
        self.mean_full_bytes / self.mean_delta_bytes.max(1.0)
    }
}

/// Streams the deployment's own metrics registry as line-diffs through
/// a FIFO subscription; the consumer reconstructs every snapshot.
fn metrics_delta(seed: u64, ticks: u32) -> MetricsDeltaResult {
    let builder = CloudBuilder::new().deterministic_network().metrics(true);
    Lab::run(seed, builder, move |lab| async move {
        let (cloud, h) = (&lab.cloud, &lab.h);
        let metrics = cloud.metrics.clone().expect("metrics enabled");
        let nodes = cloud.fabric.topology().node_ids();
        let feed = Feed::open(&lab, Transport::Pcsi, 0, "e10-metrics").await;
        let tail = feed.tail(nodes[3], 32).await;
        let consumer = h.spawn(async move {
            // The consumer holds only the reconstructed text, never the
            // registry: metrics-as-a-streamed-file.
            let mut state = String::new();
            for _ in 0..ticks {
                let frame = String::from_utf8(tail.next().await.to_vec());
                state = pcsi_metrics::apply_delta(&state, &frame.expect("delta frames are text"));
            }
            tail.finish().await;
            state
        });

        // A background workload moves counters between ticks, so each
        // delta carries real value churn (including the stream.* series
        // this very publication drives).
        let workload = cloud.kernel.client(nodes[2], "e10-load");
        let obj = workload
            .create(CreateOptions::regular().with_initial(vec![7u8; 256]))
            .await
            .expect("workload object");

        let mut prev = String::new();
        let mut delta_bytes = 0u64;
        let mut full_bytes = 0u64;
        for _ in 0..ticks {
            for _ in 0..4 {
                workload.read(&obj, 0, 256).await.expect("workload read");
            }
            let cur = metrics.render();
            let frame = pcsi_metrics::delta(&prev, &cur);
            delta_bytes += frame.len() as u64;
            full_bytes += cur.len() as u64;
            feed.publish(Bytes::from(frame)).await;
            prev = cur;
            h.sleep(Duration::from_millis(1)).await;
        }
        feed.close().await;
        let reconstructed = consumer.await == prev;
        MetricsDeltaResult {
            mean_delta_bytes: delta_bytes as f64 / f64::from(ticks.max(1)),
            mean_full_bytes: full_bytes as f64 / f64::from(ticks.max(1)),
            reconstructed,
        }
    })
}

/// Outcome of the token-streaming model-serving scenario.
#[derive(Debug, Clone)]
pub struct TokenServingResult {
    /// Tokens streamed per request.
    pub tokens: u32,
    /// Time to first token (ns), PCSI subscription.
    pub pcsi_ttft_ns: f64,
    /// Time to first token (ns), SSE.
    pub sse_ttft_ns: f64,
    /// Request start to last token consumed (ns), PCSI subscription.
    pub pcsi_total_ns: f64,
    /// Request start to last token consumed (ns), SSE.
    pub sse_total_ns: f64,
}

/// Streams one model response token-by-token over both transports on
/// the 2021 network. Token compute cadence is identical (1 ms/token),
/// so TTFT and total-time differences are pure delivery overhead.
fn token_serving(seed: u64, tokens: u32) -> TokenServingResult {
    let builder = CloudBuilder::new()
        .network(NetworkGeneration::Dc2021)
        .deterministic_network();
    Lab::run(seed, builder, move |lab| async move {
        let (pcsi_ttft_ns, pcsi_total_ns) = serve(&lab, Transport::Pcsi, "e10-model", tokens).await;
        let (sse_ttft_ns, sse_total_ns) = serve(&lab, Transport::Sse, "model", tokens).await;
        TokenServingResult {
            tokens,
            pcsi_ttft_ns,
            sse_ttft_ns,
            pcsi_total_ns,
            sse_total_ns,
        }
    })
}

/// Streams `tokens` tokens, one per millisecond of compute, to a client
/// off the stream's home, so tokens cross the fabric. Returns the time to
/// the first and to the last token (ns), each stamped on receipt.
async fn serve(lab: &Lab, transport: Transport, name: &str, tokens: u32) -> (f64, f64) {
    let h = &lab.h;
    let nodes = lab.cloud.fabric.topology().node_ids();
    let feed = Feed::open(lab, transport, 0, name).await;
    // The client is node 4, or node 5 when the stream lives on node 4.
    let client = nodes[4 + usize::from(feed.home == nodes[4])];
    let tail = feed.tail(client, 64).await;
    let t_start = h.now();
    let h2 = h.clone();
    let producer = h.spawn(async move {
        for i in 0..tokens {
            h2.sleep(Duration::from_millis(1)).await;
            feed.publish(Bytes::from(format!("tok{i}"))).await;
        }
        feed.close().await;
    });
    let elapsed_ns = || (h.now() - t_start).as_nanos() as f64;
    tail.next().await;
    let ttft_ns = elapsed_ns();
    for _ in 1..tokens {
        tail.next().await;
    }
    let total_ns = elapsed_ns();
    producer.await;
    tail.finish().await;
    (ttft_ns, total_ns)
}

/// The full E10 bundle the report prints.
#[derive(Debug, Clone)]
pub struct StreamingResult {
    /// Per-generation latency points.
    pub points: Vec<StreamPoint>,
    /// Metrics-delta streaming scenario.
    pub delta: MetricsDeltaResult,
    /// Token-streaming model-serving scenario.
    pub tokens: TokenServingResult,
}

impl StreamingResult {
    /// The point for one generation.
    fn point(&self, generation: NetworkGeneration) -> &StreamPoint {
        self.points
            .iter()
            .find(|p| p.generation == generation)
            .expect("run() covers every generation")
    }
}

/// Runs every streaming measurement at the report's default sizes.
pub fn run_all(seed: u64) -> StreamingResult {
    StreamingResult {
        points: run(seed, 24),
        delta: metrics_delta(seed, 20),
        tokens: token_serving(seed, 32),
    }
}

/// The streaming claims, machine-checkable.
pub fn shape_holds(r: &StreamingResult) -> Result<(), String> {
    // The headline: on the fast network, PCSI push beats SSE per event.
    let fast = r.point(NetworkGeneration::FastEmerging);
    if fast.pcsi_event_ns >= fast.sse_event_ns {
        return Err(format!(
            "PCSI should beat SSE per-event on the fast network: {:.0}ns vs {:.0}ns",
            fast.pcsi_event_ns, fast.sse_event_ns
        ));
    }
    // And by a wide margin — the SSE floor is protocol CPU, orders above
    // a microsecond fabric.
    if fast.sse_tax() < 5.0 {
        return Err(format!(
            "fast-network SSE tax should be >=5x (got {:.1}x)",
            fast.sse_tax()
        ));
    }
    // The x8 fan-out's mean lies within [0.5x, 10x] of the 1-subscriber
    // mean: the lower bound here, the upper in a test. Neither says that
    // fan-out costs more; the control that must fail is ROADMAP 6(c)'s.
    for p in &r.points {
        if p.pcsi_fanout_ns < 0.5 * p.pcsi_event_ns {
            return Err(format!(
                "{}: fan-out mean below half the 1-sub mean is implausible",
                p.generation.label()
            ));
        }
    }
    // The delta stream must reconstruct and must beat whole snapshots.
    if !r.delta.reconstructed {
        return Err("metrics-delta consumer failed to reconstruct the snapshot".into());
    }
    if r.delta.compression() < 2.0 {
        return Err(format!(
            "metrics deltas should be >=2x smaller than snapshots (got {:.1}x)",
            r.delta.compression()
        ));
    }
    // Token streaming: TTFT is roughly one token compute plus delivery;
    // PCSI's delivery edge shows up as TTFT no worse than SSE's.
    if r.tokens.pcsi_ttft_ns > r.tokens.sse_ttft_ns {
        return Err(format!(
            "PCSI TTFT should not exceed SSE TTFT: {:.0}ns vs {:.0}ns",
            r.tokens.pcsi_ttft_ns, r.tokens.sse_ttft_ns
        ));
    }
    if r.tokens.pcsi_total_ns > r.tokens.sse_total_ns {
        return Err(format!(
            "PCSI total stream time should not exceed SSE's: {:.0}ns vs {:.0}ns",
            r.tokens.pcsi_total_ns, r.tokens.sse_total_ns
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn streaming_shape() {
        let r = StreamingResult {
            points: run(DEFAULT_SEED, 12),
            delta: metrics_delta(DEFAULT_SEED, 10),
            tokens: token_serving(DEFAULT_SEED, 16),
        };
        shape_holds(&r).unwrap();
    }

    #[test]
    fn fanout_scales_with_subscribers_not_collapse() {
        let points = run(DEFAULT_SEED, 8);
        for p in &points {
            // The upper bound of the [0.5x, 10x] band `shape_holds`
            // checks the lower bound of: the x8 mean per-event latency
            // stays within an order of magnitude of the 1-subscriber one.
            assert!(
                p.pcsi_fanout_ns < 10.0 * p.pcsi_event_ns,
                "{}: fan-out {:.0}ns vs single {:.0}ns",
                p.generation.label(),
                p.pcsi_fanout_ns,
                p.pcsi_event_ns
            );
        }
    }

    #[test]
    fn delta_stream_reconstructs_and_compresses() {
        let d = metrics_delta(DEFAULT_SEED, 8);
        assert!(d.reconstructed);
        assert!(d.compression() > 1.0, "compression {:.2}", d.compression());
    }
}
