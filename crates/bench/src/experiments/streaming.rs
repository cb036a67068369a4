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
//! Two scenario measurements ride along:
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
use pcsi_cloud::sse::{SsePublisher, SseSubscriber};
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, PcsiError, Rights};
use pcsi_metrics::Histogram;
use pcsi_net::NetworkGeneration;
use pcsi_sim::SimHandle;

/// Subscriber count for the fan-out measurement.
pub const FAN_OUT: usize = 8;

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
pub fn run(seed: u64, events: u32) -> Vec<StreamPoint> {
    let mut out = Vec::new();
    for generation in NetworkGeneration::ALL {
        let builder = CloudBuilder::new()
            .network(generation)
            .deterministic_network();
        let point = Lab::run(seed, builder, move |lab| async move {
            // Pace publishes a few RTTs apart so each event's latency is
            // delivery time, not queueing behind its predecessors.
            let pace = generation.rtt().max(Duration::from_micros(20)) * 4;
            let pcsi_event_ns = pcsi_mean(&lab, 1, events, pace, "e10-p1").await;
            let pcsi_fanout_ns = pcsi_mean(&lab, FAN_OUT, events, pace, "e10-pn").await;
            let sse_event_ns = sse_mean(&lab, 1, events, pace, "e10-s1").await;
            let sse_fanout_ns = sse_mean(&lab, FAN_OUT, events, pace, "e10-sn").await;
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

/// Events carry the producer's virtual-time stamp in-band so both
/// transports are measured by the same clock at the same two points.
fn stamp(h: &SimHandle, i: u32) -> String {
    format!("{} event-{i}", h.now().as_nanos())
}

fn unstamp(payload: &[u8]) -> u64 {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("payload carries the producer timestamp")
}

/// Rounds each transport measurement averages over: every round gets a
/// fresh FIFO (a fresh placement draw) / SSE stream and a rotated
/// consumer set, so rack geometry is sampled instead of drawn once.
const ROUNDS: usize = 4;

/// Mean per-event latency over [`ROUNDS`] × `events` publishes to
/// `subscribers` kernel subscriptions on distinct consumer nodes.
async fn pcsi_mean(lab: &Lab, subscribers: usize, events: u32, pace: Duration, tag: &str) -> f64 {
    let (cloud, h) = (&lab.cloud, &lab.h);
    let nodes = cloud.fabric.topology().node_ids();
    let producer = cloud.kernel.client(nodes[0], tag);
    let hist = Rc::new(Histogram::new());
    for round in 0..ROUNDS {
        let fifo = producer
            .create(CreateOptions::fifo())
            .await
            .expect("fifo creation");
        let tail = fifo.attenuate(Rights::READ).expect("attenuate to READ");
        // Consumers never share a node with the producer or the FIFO's
        // home (placement primary) — every delivery crosses the fabric,
        // matching the SSE side where consumers never sit on the hub.
        let home = cloud.store.placement().primary(fifo.id());
        let pool: Vec<_> = nodes
            .iter()
            .copied()
            .filter(|n| *n != home && *n != nodes[0])
            .collect();
        let mut consumers = Vec::new();
        for i in 0..subscribers {
            let node = pool[(i + round) % pool.len()];
            let client = cloud.kernel.client(node, tag);
            let sub = client.subscribe(&tail, 32).await.expect("subscribe");
            let hist = Rc::clone(&hist);
            let h2 = h.clone();
            consumers.push(h.spawn(async move {
                while let Some(ev) = sub.next().await {
                    let t0 = unstamp(&ev.payload);
                    hist.record_duration(Duration::from_nanos(h2.now().as_nanos() - t0));
                }
            }));
        }
        for i in 0..events {
            let payload = Bytes::from(stamp(h, i));
            append_retrying(h, &producer, &fifo, payload).await;
            h.sleep(pace).await;
        }
        producer.delete(&fifo).await.expect("delete");
        for c in consumers {
            c.await;
        }
    }
    hist.mean() as f64
}

/// Appends with retry on backpressure/transient transfer faults — the
/// same loop a real producer runs (the bench fabric injects no faults,
/// so in practice this never spins).
async fn append_retrying(
    h: &SimHandle,
    producer: &pcsi_cloud::KernelClient,
    fifo: &pcsi_core::Reference,
    payload: Bytes,
) {
    loop {
        match producer.append(fifo, payload.clone()).await {
            Ok(_) => return,
            Err(PcsiError::Overloaded(_) | PcsiError::Fault(_)) => {
                h.sleep(Duration::from_micros(50)).await;
            }
            Err(e) => panic!("append failed terminally: {e}"),
        }
    }
}

/// Mean per-event latency over [`ROUNDS`] × `events` publishes to
/// `subscribers` SSE connections on distinct consumer nodes. The hub
/// rotates across nodes round-by-round, mirroring the placement draws
/// the FIFO side samples.
async fn sse_mean(lab: &Lab, subscribers: usize, events: u32, pace: Duration, stream: &str) -> f64 {
    let h = &lab.h;
    let nodes = lab.cloud.fabric.topology().node_ids();
    let hist = Rc::new(Histogram::new());
    for round in 0..ROUNDS {
        let hub_node = nodes[1 + (round % (nodes.len() - 1))];
        let hub = lab.sse(hub_node);
        // Mirror the PCSI side: consumers never sit on the hub or the
        // producer, so every delivery crosses the fabric.
        let pool: Vec<_> = nodes
            .iter()
            .copied()
            .filter(|n| *n != hub_node && *n != nodes[0])
            .collect();
        let stream = format!("{stream}-{round}");
        let mut consumers = Vec::new();
        for i in 0..subscribers {
            let node = pool[(i + round) % pool.len()];
            let sub = SseSubscriber::connect(&hub, node, Lab::credential(), &stream)
                .await
                .expect("sse connect");
            let hist = Rc::clone(&hist);
            let h2 = h.clone();
            consumers.push(h.spawn(async move {
                for _ in 0..events {
                    let ev = sub.next().await.expect("stream open until disconnect");
                    let t0 = unstamp(&ev.data);
                    hist.record_duration(Duration::from_nanos(h2.now().as_nanos() - t0));
                }
                sub.disconnect().await;
            }));
        }
        let publisher = SsePublisher::new(&hub, nodes[0], Lab::credential());
        for i in 0..events {
            let payload = stamp(h, i);
            publisher
                .publish(&stream, payload.as_bytes())
                .await
                .expect("sse publish");
            h.sleep(pace).await;
        }
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
pub fn metrics_delta(seed: u64, ticks: u32) -> MetricsDeltaResult {
    let builder = CloudBuilder::new().deterministic_network().metrics(true);
    Lab::run(seed, builder, move |lab| async move {
        let (cloud, h) = (&lab.cloud, &lab.h);
        let metrics = cloud.metrics.clone().expect("metrics enabled");
        let nodes = cloud.fabric.topology().node_ids();

        let producer = cloud.kernel.client(nodes[0], "e10-metrics");
        let fifo = producer
            .create(CreateOptions::fifo())
            .await
            .expect("fifo creation");
        let tail = fifo.attenuate(Rights::READ).expect("attenuate to READ");
        let consumer_client = cloud.kernel.client(nodes[3], "e10-metrics");
        let sub = consumer_client
            .subscribe(&tail, 32)
            .await
            .expect("subscribe");
        let consumer = h.spawn(async move {
            // The consumer holds only the reconstructed text, never the
            // registry: metrics-as-a-streamed-file.
            let mut state = String::new();
            while let Some(ev) = sub.next().await {
                let frame = std::str::from_utf8(&ev.payload)
                    .expect("delta frames are text")
                    .to_owned();
                state = pcsi_metrics::apply_delta(&state, &frame);
            }
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
            append_retrying(h, &producer, &fifo, Bytes::from(frame)).await;
            prev = cur;
            h.sleep(Duration::from_millis(1)).await;
        }
        producer.delete(&fifo).await.expect("delete");
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
pub fn token_serving(seed: u64, tokens: u32) -> TokenServingResult {
    const TOKEN_COMPUTE: Duration = Duration::from_millis(1);
    let builder = CloudBuilder::new()
        .network(NetworkGeneration::Dc2021)
        .deterministic_network();
    Lab::run(seed, builder, move |lab| async move {
        let (cloud, h) = (&lab.cloud, &lab.h);
        let nodes = cloud.fabric.topology().node_ids();

        // PCSI: the server streams tokens into a FIFO the client tails.
        let server = cloud.kernel.client(nodes[0], "e10-model");
        let fifo = server
            .create(CreateOptions::fifo())
            .await
            .expect("fifo creation");
        let tail = fifo.attenuate(Rights::READ).expect("attenuate to READ");
        // Keep the client off the FIFO's home so tokens cross the
        // fabric, as they do on the SSE side.
        let home = cloud.store.placement().primary(fifo.id());
        let client_node = if home == nodes[4] { nodes[5] } else { nodes[4] };
        let client = cloud.kernel.client(client_node, "e10-model");
        let sub = client.subscribe(&tail, 64).await.expect("subscribe");
        let t_start = h.now();
        let h2 = h.clone();
        let producer = h.spawn(async move {
            for i in 0..tokens {
                h2.sleep(TOKEN_COMPUTE).await;
                append_retrying(&h2, &server, &fifo, Bytes::from(format!("tok{i}"))).await;
            }
            server.delete(&fifo).await.expect("delete");
        });
        let mut pcsi_ttft_ns = 0.0;
        while let Some(ev) = sub.next().await {
            if ev.seq == 0 {
                pcsi_ttft_ns = (h.now().as_nanos() - t_start.as_nanos()) as f64;
            }
        }
        let pcsi_total_ns = (h.now().as_nanos() - t_start.as_nanos()) as f64;
        producer.await;

        // SSE: same compute cadence, delivery via the hub.
        let hub = lab.sse(nodes[1]);
        let sub = SseSubscriber::connect(&hub, nodes[4], Lab::credential(), "model")
            .await
            .expect("sse connect");
        let publisher = SsePublisher::new(&hub, nodes[0], Lab::credential());
        let t_start = h.now();
        let h2 = h.clone();
        let producer = h.spawn(async move {
            for i in 0..tokens {
                h2.sleep(TOKEN_COMPUTE).await;
                publisher
                    .publish("model", format!("tok{i}").as_bytes())
                    .await
                    .expect("sse publish");
            }
        });
        let mut sse_ttft_ns = 0.0;
        for i in 0..tokens {
            let _ev = sub.next().await.expect("stream open");
            if i == 0 {
                sse_ttft_ns = (h.now().as_nanos() - t_start.as_nanos()) as f64;
            }
        }
        let sse_total_ns = (h.now().as_nanos() - t_start.as_nanos()) as f64;
        producer.await;
        sub.disconnect().await;

        TokenServingResult {
            tokens,
            pcsi_ttft_ns,
            sse_ttft_ns,
            pcsi_total_ns,
            sse_total_ns,
        }
    })
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
    pub fn point(&self, generation: NetworkGeneration) -> &StreamPoint {
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
    // Fan-out costs more than a single subscriber on both paths, but
    // stays the same order of magnitude (no 8x collapse).
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
            // Eight encode-once pushes cost more than one, but the mean
            // per-event latency stays within an order of magnitude.
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
