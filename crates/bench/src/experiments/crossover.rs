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
use pcsi_net::NetworkGeneration;
use pcsi_trace::Sampling;

use super::stages::{self, StageBreakdown};
use super::sweep::{self, Iface, FETCH};

/// The interfaces in the order E9 sets them up, with their labels.
const IFACES: [(Iface, &str); 2] = [(Iface::Pcsi, "PCSI-native"), (Iface::Rest, "signed REST")];

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
        let timed = Lab::run(seed, builder, move |lab| async move {
            let order = IFACES.map(|(iface, _)| iface);
            sweep::sweep(&lab, FETCH, ops, &order).await.timed
        });
        for ((_, interface), t) in IFACES.into_iter().zip(timed) {
            out.push(Point {
                generation,
                interface,
                mean_ns: t.hist.mean() as f64,
                rtt_ns: generation.rtt().as_nanos() as f64,
            });
        }
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
        let traced = Lab::run(seed, builder, |lab| async move {
            let mut traced = Vec::new();
            for (iface, _) in IFACES {
                traced.push(sweep::traced_fetch(&lab, iface).await);
            }
            traced
        });
        // Reported REST first.
        for ((_, interface), stages) in IFACES.into_iter().zip(traced).rev() {
            out.push(BreakdownPoint {
                generation,
                interface,
                stages,
            });
        }
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
