//! Reading the program's own telemetry from outside: the rendered
//! metrics snapshot and the `pcsi-trace` span sink.

use std::collections::{BTreeMap, HashMap, HashSet};

use pcsi_trace::Span;

use crate::spans::self_times;

/// Layers virtual time is attributed to, by span-name prefix.
pub const VT_LAYERS: [&str; 7] = [
    "net",
    "store.client",
    "store.replica",
    "kernel",
    "rest",
    "faas",
    "other",
];

/// Maps a `pcsi-trace` span name to its layer.
///
/// `store.attempt` and `*.transport` count as `net`: their self time is
/// the RPC's wire time, the far side's work being in child spans.
pub fn layer_of(span_name: &str) -> &'static str {
    match span_name {
        "store.attempt" | "rest.transport" | "nfs.transport" => "net",
        n if n.starts_with("store.") => "store.client",
        n if n.starts_with("replica.") => "store.replica",
        n if n.starts_with("kernel.") => "kernel",
        n if n.starts_with("rest.") => "rest",
        n if n.starts_with("faas.") => "faas",
        _ => "other",
    }
}

/// Sums span self time (virtual ns) by layer over the whole traces in
/// `spans`, the sink's contents in finishing order.
///
/// A trace is whole when its root is present and started no earlier
/// than the oldest retained span finished: the sink evicts in finishing
/// order, so every span of such a trace is still there. Traces cut by
/// eviction, and spans whose parent had not finished when the sink was
/// drained, are left out rather than mis-attributed.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let cut = spans
        .iter()
        .min_by_key(|s| s.seq)
        .map_or(0, |s| s.end.as_nanos());
    let whole: HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.start.as_nanos() >= cut)
        .map(|s| s.trace.0)
        .collect();
    let kept: Vec<&Span> = spans
        .iter()
        .filter(|s| whole.contains(&s.trace.0))
        .collect();
    let index: HashMap<(u64, u64), usize> = kept
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.trace.0, s.id.0), i))
        .collect();
    let shaped: Vec<(u64, u64, Option<usize>)> = kept
        .iter()
        .map(|s| {
            let parent = s.parent.and_then(|p| index.get(&(s.trace.0, p.0)).copied());
            (s.start.as_nanos(), s.end.as_nanos(), parent)
        })
        .collect();
    let mut out: BTreeMap<&'static str, u64> = VT_LAYERS.iter().map(|&l| (l, 0)).collect();
    for ((span, shape), self_ns) in kept.iter().zip(&shaped).zip(self_times(&shaped)) {
        // A non-root span whose parent is missing hangs off an op that
        // was still open at the drain; its time belongs to no whole op.
        if span.parent.is_some() && shape.2.is_none() {
            continue;
        }
        *out.entry(layer_of(span.name)).or_default() += self_ns;
    }
    out
}

/// Parses a rendered `pcsi-metrics` snapshot: counters summed over
/// their labels by family name, and the count-weighted median of the
/// per-replica `replica.quorum_acks` p50 (0 when absent).
pub fn registry_sums(rendered: &str) -> (BTreeMap<String, u64>, f64) {
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut acks: Vec<(u64, u64)> = Vec::new(); // (p50, count)
    for line in rendered.lines() {
        let mut words = line.split(' ');
        let (Some(kind), Some(series)) = (words.next(), words.next()) else {
            continue;
        };
        let family = series.split('{').next().unwrap_or(series);
        match kind {
            "counter" => {
                if let Some(v) = words.next().and_then(|v| v.parse::<u64>().ok()) {
                    *sums.entry(family.to_owned()).or_default() += v;
                }
            }
            "histogram" if family == "replica.quorum_acks" => {
                let field = |key: &str| {
                    line.split(' ')
                        .find_map(|w| w.strip_prefix(key))
                        .and_then(|v| v.parse::<u64>().ok())
                };
                if let (Some(count), Some(p50)) = (field("count="), field("p50=")) {
                    acks.push((p50, count));
                }
            }
            _ => {}
        }
    }
    acks.sort_unstable();
    let total: u64 = acks.iter().map(|&(_, c)| c).sum();
    let mut seen = 0u64;
    let mut median = 0.0;
    for (p50, count) in acks {
        seen += count;
        if seen * 2 >= total {
            median = p50 as f64;
            break;
        }
    }
    (sums, median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_by_prefix() {
        assert_eq!(layer_of("store.attempt"), "net");
        assert_eq!(layer_of("store.read"), "store.client");
        assert_eq!(layer_of("replica.coordinate"), "store.replica");
        assert_eq!(layer_of("kernel.lookup"), "kernel");
        assert_eq!(layer_of("rest.auth"), "rest");
        assert_eq!(layer_of("rest.transport"), "net");
        assert_eq!(layer_of("faas.cold_start"), "faas");
        assert_eq!(layer_of("nfs.op"), "other");
        for name in ["store.attempt", "store.read", "x"] {
            assert!(VT_LAYERS.contains(&layer_of(name)));
        }
    }

    #[test]
    fn registry_sums_over_labels() {
        let text = "# pcsi-metrics snapshot\n\
            counter replica.applied{node=\"0\"} 5\n\
            counter replica.applied{node=\"1\"} 7\n\
            counter fabric.dropped 3\n\
            gauge faas.in_flight 2\n\
            histogram replica.quorum_acks{node=\"0\"} count=10 mean=2 min=2 p50=2 p95=2 p99=2 p999=2 max=2\n\
            histogram replica.quorum_acks{node=\"1\"} count=30 mean=3 min=3 p50=3 p95=3 p99=3 p999=3 max=3\n";
        let (sums, acks) = registry_sums(text);
        assert_eq!(sums["replica.applied"], 12);
        assert_eq!(sums["fabric.dropped"], 3);
        assert!(!sums.contains_key("faas.in_flight"));
        assert_eq!(acks, 3.0);
        assert_eq!(registry_sums("").1, 0.0);
    }
}
