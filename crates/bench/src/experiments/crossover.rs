//! E9 — §2.1's motivation: "web service overheads will certainly become
//! prohibitive on future fast networks."
//!
//! For each Table-1 network generation, measure a 1 KB fetch through the
//! signed-REST interface and through PCSI-native, and split the latency
//! into the hardware floor (network RTTs at that generation) versus
//! interface overhead. As the fabric speeds up 1000×, the REST path
//! barely improves — protocol CPU dominates — while the PCSI path tracks
//! the hardware. That divergence is the paper's opening argument.

use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency};
use pcsi_net::{NetworkGeneration, NodeId};
use pcsi_trace::Sampling;

use super::stages::{self, StageBreakdown};

/// One generation × interface measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Network generation.
    pub generation: NetworkGeneration,
    /// Interface label.
    pub interface: &'static str,
    /// Mean 1 KB fetch latency (ns).
    pub mean_ns: f64,
    /// The generation's cross-rack RTT (ns), the hardware floor unit.
    pub rtt_ns: f64,
}

impl Point {
    /// Latency as a multiple of the generation's RTT: ~small constant for
    /// an interface that tracks the hardware, exploding for one that
    /// does not.
    pub fn rtt_multiple(&self) -> f64 {
        self.mean_ns / self.rtt_ns
    }
}

/// Runs both interfaces at every generation.
pub fn run(seed: u64, ops: u32) -> Vec<Point> {
    let mut out = Vec::new();
    for generation in NetworkGeneration::ALL {
        let builder = CloudBuilder::new()
            .network(generation)
            .deterministic_network();
        let (pcsi_ns, rest_ns) = Lab::run(seed, builder, move |lab| async move {
            let payload = vec![9u8; 1024];

            let kc = lab.cloud.kernel.client(NodeId(0), "e9");
            let obj = kc
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Eventual)
                        .with_initial(payload.clone()),
                )
                .await
                .unwrap();
            let pcsi = lab.time(ops, |_| kc.read(&obj, 0, 1024)).await;

            let rc = lab.rest().client(NodeId(0), Lab::credential());
            rc.kv_put("t", "k", &payload).await.unwrap();
            let rest = lab.time(ops, |_| rc.kv_get("t", "k")).await;
            (pcsi.mean() as f64, rest.mean() as f64)
        });
        let rtt_ns = generation.rtt().as_nanos() as f64;
        out.push(Point {
            generation,
            interface: "PCSI-native",
            mean_ns: pcsi_ns,
            rtt_ns,
        });
        out.push(Point {
            generation,
            interface: "signed REST",
            mean_ns: rest_ns,
            rtt_ns,
        });
    }
    out
}

/// One generation × interface trace-derived stage split.
#[derive(Debug, Clone)]
pub struct BreakdownPoint {
    /// Network generation.
    pub generation: NetworkGeneration,
    /// Interface label.
    pub interface: &'static str,
    /// Per-stage self-time totals of one warm 1 KB GET.
    pub stages: StageBreakdown,
}

/// Traces one warm 1 KB GET per interface at every generation and
/// splits its latency into protocol / network / storage self time.
///
/// This is the span-level version of [`run`]'s aggregate claim: the
/// protocol share of a signed-REST fetch is a minority when the wire is
/// slow (1 ms RTT) and dominates when the wire is fast (1 µs RTT).
pub fn breakdowns(seed: u64) -> Vec<BreakdownPoint> {
    let mut out = Vec::new();
    for generation in NetworkGeneration::ALL {
        let builder = CloudBuilder::new()
            .network(generation)
            .deterministic_network()
            .tracing(Sampling::Always);
        let (rest_stages, pcsi_stages) = Lab::run(seed, builder, |lab| async move {
            let tracer = lab.cloud.tracer.clone().expect("tracing enabled");
            let payload = vec![9u8; 1024];

            let kc = lab.cloud.kernel.client(NodeId(0), "e9");
            let obj = kc
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Eventual)
                        .with_initial(payload.clone()),
                )
                .await
                .unwrap();
            // One warm-up read, then the measured one.
            kc.read(&obj, 0, 1024).await.unwrap();
            kc.read(&obj, 0, 1024).await.unwrap();

            let rc = lab.rest().client(NodeId(0), Lab::credential());
            rc.kv_put("t", "k", &payload).await.unwrap();
            rc.kv_get("t", "k").await.unwrap();
            rc.kv_get("t", "k").await.unwrap();

            let spans = tracer.sink().snapshot();
            let rest_trace = stages::last_root(&spans, "rest.request").expect("a traced REST GET");
            let pcsi_trace =
                stages::last_root(&spans, "kernel.read").expect("a traced kernel read");
            (
                StageBreakdown::of(&spans, rest_trace),
                StageBreakdown::of(&spans, pcsi_trace),
            )
        });
        out.push(BreakdownPoint {
            generation,
            interface: "signed REST",
            stages: rest_stages,
        });
        out.push(BreakdownPoint {
            generation,
            interface: "PCSI-native",
            stages: pcsi_stages,
        });
    }
    out
}

/// The trace-level crossover, machine-checkable: REST's protocol share
/// is a minority at 1 ms RTT and dominant at 1 µs RTT.
pub fn breakdown_shape_holds(points: &[BreakdownPoint]) -> Result<(), String> {
    let share = |generation: NetworkGeneration| -> f64 {
        points
            .iter()
            .find(|p| p.generation == generation && p.interface == "signed REST")
            .map(|p| p.stages.share(stages::PROTOCOL))
            .unwrap_or(f64::NAN)
    };
    let slow = share(NetworkGeneration::Dc2005);
    if slow.is_nan() || slow >= 0.5 {
        return Err(format!(
            "protocol share should be a minority on the 2005 network (got {slow:.2})"
        ));
    }
    let fast = share(NetworkGeneration::FastEmerging);
    if fast.is_nan() || fast <= 0.5 {
        return Err(format!(
            "protocol share should dominate on the fast network (got {fast:.2})"
        ));
    }
    Ok(())
}

/// The killer-microseconds shape, machine-checkable.
pub fn shape_holds(points: &[Point]) -> Result<(), String> {
    let get = |generation: NetworkGeneration, iface: &str| -> f64 {
        points
            .iter()
            .find(|p| p.generation == generation && p.interface == iface)
            .map(|p| p.mean_ns)
            .unwrap_or(f64::NAN)
    };
    let speedup = |iface: &str| -> f64 {
        get(NetworkGeneration::Dc2005, iface) / get(NetworkGeneration::FastEmerging, iface)
    };
    // PCSI rides the hardware improvement; REST mostly does not.
    let pcsi_gain = speedup("PCSI-native");
    let rest_gain = speedup("signed REST");
    if pcsi_gain < 2.0 * rest_gain {
        return Err(format!(
            "PCSI should gain far more from fast networks: {pcsi_gain:.1}x vs {rest_gain:.1}x"
        ));
    }
    // On the fast network the gap is an order of magnitude or more.
    let fast_ratio = get(NetworkGeneration::FastEmerging, "signed REST")
        / get(NetworkGeneration::FastEmerging, "PCSI-native");
    if fast_ratio < 10.0 {
        return Err(format!(
            "on the fast network REST should be >=10x PCSI (got {fast_ratio:.1}x)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn killer_microseconds_shape() {
        let points = run(DEFAULT_SEED, 50);
        shape_holds(&points).unwrap();
    }

    #[test]
    fn trace_breakdown_crossover() {
        let points = breakdowns(DEFAULT_SEED);
        breakdown_shape_holds(&points).unwrap();
        // The attribution is near-complete: unclassified self time is a
        // sliver of each REST request.
        for p in points.iter().filter(|p| p.interface == "signed REST") {
            assert!(
                p.stages.share(stages::OTHER) < 0.2,
                "{:?} unattributed share too large: {:?}",
                p.generation,
                p.stages
            );
        }
    }

    #[test]
    fn rtt_multiples_ordered_sanely() {
        let points = run(DEFAULT_SEED, 20);
        for p in &points {
            // Eventual reads go to the *closest* replica, so the mean can
            // sit well below one cross-rack RTT; it cannot be free.
            assert!(p.rtt_multiple() > 0.05, "{p:?}");
        }
    }
}
