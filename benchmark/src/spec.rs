//! The metric tables: every name the benchmark prints, with its unit,
//! clock, direction and regression bound. `BENCHMARK.json`, the result
//! files, the printed tables and `compare` all follow these tables; a
//! test holds `BENCHMARK.json` to them.

use pcsi_proto::Value;

/// The four workloads and, in one line each, why they were chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "kv_mixed",
        "open loop, 4,000 ops/s over the PCSI kernel on 16,384 keys (4x every 4,096-entry cap), read/write/lookup mix: \
         sim, net, store.* and kernel work; proto, faas, stream, telemetry idle",
    ),
    (
        "rest_kv",
        "closed loop, 4 serial clients through the signed-REST gateway on 1,024 keys that fit every cap: \
         proto signing, HTTP and JSON dominate, the kernel is bypassed; the paper's REST baseline",
    ),
    (
        "faas_diurnal",
        "open loop, three-tenant diurnal FaaS mix over five 60 s days with the predictive autoscaler: \
         work sits in faas and sim's timer wheel; store.wire and proto nearly idle",
    ),
    (
        "macro_day",
        "whole stack, telemetry on: 32 closed-loop KV clients through a 3-to-5 node ring join, a 2% drop window, \
         a stream fan-out and invocations; the only one where stream, migration, retries and obs work",
    ),
];

/// How long one driver run measures, seconds (`--seconds`).
pub const RUN_SECONDS: i64 = 24;

/// What `BENCHMARK.json` must hold: exactly the driver's six keys, the
/// names, units, directions and bounds taken from the tables here.
pub fn benchmark_json() -> Value {
    let text = |s: &str| Value::from(s);
    let command = [
        "cargo",
        "run",
        "--offline",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Value::object([
        ("command", Value::array(command.map(text))),
        ("paths", Value::array([text("benchmark")])),
        ("run_seconds", Value::I64(RUN_SECONDS)),
        (
            "workloads",
            Value::array(
                WORKLOADS
                    .map(|(name, why)| Value::object([("name", text(name)), ("why", text(why))])),
            ),
        ),
        (
            "end_to_end",
            Value::array(END_TO_END.map(|m| {
                Value::object([
                    ("name", text(m.name)),
                    ("unit", text(m.unit)),
                    ("better", text(m.better.as_str())),
                    ("bound", Value::F64(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Value::array(PER_LAYER.map(|m| {
                Value::object([
                    ("name", text(m.name)),
                    ("unit", text(m.unit)),
                    ("better", text(m.better.as_str())),
                ])
            })),
        ),
    ])
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `host, calibrated`, `host`, `virtual` or `count`.
    pub clock: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before `compare` says "worse".
    pub bound: f64,
}

/// The nine end-to-end metrics, the same on every workload.
///
/// Units tell the clocks apart: `sim_us` and `sim_s` are virtual time
/// (exact for a seed), `us`, `s` and `MiB` are the host's. The two
/// fractions are stated as what succeeded, not what failed, because a
/// bound is a share of the baseline and the failing share is 0 on a
/// healthy run: `slo_met_frac` = 1 − `slo_miss_frac`, `ok_frac` =
/// 1 − `failed_frac`.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "host_us_per_op",
        unit: "us",
        clock: "host, calibrated",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_peak_rss_mib",
        unit: "MiB",
        clock: "host",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: "host",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "sim_us",
        clock: "virtual",
        better: Better::Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "sim_us",
        clock: "virtual",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "ops/sim_s",
        clock: "virtual",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "slo_met_frac",
        unit: "fraction",
        clock: "virtual",
        better: Better::Higher,
        bound: 0.002,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "fraction",
        clock: "virtual",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "sim_events_per_op",
        unit: "count",
        clock: "count",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// How a per-layer metric is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count or a virtual-clock figure: repeats exactly for a seed.
    Exact,
    /// Host time of isolated calls into the layer's public functions,
    /// calibrated like `host_us_per_op`.
    Probe,
    /// Layer count × probe unit cost ÷ the window's host time.
    HostShare,
    /// Other host-clock figures.
    Host,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Probe => "probe",
            Kind::HostShare => "host share",
            Kind::Host => "host",
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        kind,
        better,
    }
}

/// Which way `metric` is better, from either table.
pub fn better_of(metric: &str) -> Option<Better> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.better));
    let mut all = end_to_end.chain(PER_LAYER.iter().map(|m| (m.name, m.better)));
    all.find(|&(name, _)| name == metric)
        .map(|(_, better)| better)
}

use Better::{Higher, Lower};
use Kind::{Exact, Host, HostShare, Probe};

/// The per-layer metrics of the traced run, grouped by layer (crate or
/// module name). A metric whose layer a workload does not touch reads 0
/// there; so does a p99 of a class with fewer than 1,000 samples.
pub const PER_LAYER: [PerLayer; 81] = [
    // sim
    layer("sim.polls_per_op", "count", Exact, Lower),
    layer("sim.probe_ns_per_poll", "ns", Probe, Lower),
    layer("sim.host_share", "fraction", HostShare, Lower),
    layer("sim.kv_poll_share", "fraction", Exact, Lower),
    layer("sim.faas_poll_share", "fraction", Exact, Lower),
    layer("sim.stream_poll_share", "fraction", Exact, Lower),
    // net
    layer("net.msgs_per_op", "count", Exact, Lower),
    layer("net.bytes_per_op", "B", Exact, Lower),
    layer("net.probe_ns_per_msg", "ns", Probe, Lower),
    layer("net.host_share", "fraction", HostShare, Lower),
    layer("net.vt_share", "fraction", Exact, Lower),
    layer("net.dropped_frac", "fraction", Exact, Lower),
    // store.wire
    layer("store.wire.probe_ns_per_frame", "ns", Probe, Lower),
    layer("store.wire.host_share", "fraction", HostShare, Lower),
    layer("bytes.pool_hit_frac", "fraction", Exact, Higher),
    // store.client
    layer("store.client.cache_hit_frac", "fraction", Exact, Higher),
    layer("store.client.retries_per_kop", "count", Exact, Lower),
    layer("store.client.failovers_per_kop", "count", Exact, Lower),
    layer("store.client.timeouts_per_kop", "count", Exact, Lower),
    layer("store.client.vt_share", "fraction", Exact, Lower),
    // store.replica
    layer("store.replica.coordinated_per_op", "count", Exact, Lower),
    layer("store.replica.applied_per_op", "count", Exact, Lower),
    layer("store.replica.fetched_per_kop", "count", Exact, Lower),
    layer("store.replica.quorum_acks_p50", "count", Exact, Lower),
    layer("store.replica.vt_share", "fraction", Exact, Lower),
    // store.engine / store.placement
    layer("store.engine.probe_ns_per_apply", "ns", Probe, Lower),
    layer("store.placement.probe_ns_per_lookup", "ns", Probe, Lower),
    // store.migrate
    layer("store.migrate.objects_moved", "count", Exact, Lower),
    layer("store.migrate.window_p99_us", "sim_us", Exact, Lower),
    // cloud.kernel
    layer("kernel.read_p50_us", "sim_us", Exact, Lower),
    layer("kernel.read_p99_us", "sim_us", Exact, Lower),
    layer("kernel.write_p50_us", "sim_us", Exact, Lower),
    layer("kernel.write_p99_us", "sim_us", Exact, Lower),
    layer("kernel.lookup_p50_us", "sim_us", Exact, Lower),
    layer("kernel.lookup_p99_us", "sim_us", Exact, Lower),
    layer("kernel.errors_per_kop", "count", Exact, Lower),
    layer("kernel.vt_share", "fraction", Exact, Lower),
    // cloud.rest + proto
    layer("rest.get_p99_us", "sim_us", Exact, Lower),
    layer("rest.put_p99_us", "sim_us", Exact, Lower),
    layer("rest.vt_protocol_share", "fraction", Exact, Lower),
    layer("proto.sign_ns_per_req", "ns", Probe, Lower),
    layer("proto.http_ns_per_req", "ns", Probe, Lower),
    layer("proto.json_ns_per_kib", "ns", Probe, Lower),
    layer("proto.binary_ns_per_kib", "ns", Probe, Lower),
    layer("proto.host_share", "fraction", HostShare, Lower),
    // faas
    layer("faas.cold_start_frac", "fraction", Exact, Lower),
    layer("faas.invoke_p50_us", "sim_us", Exact, Lower),
    layer("faas.invoke_p99_us", "sim_us", Exact, Lower),
    layer("faas.prewarms_per_kop", "count", Exact, Lower),
    layer("faas.preemptions_per_kop", "count", Exact, Lower),
    layer("faas.rebalances_per_kop", "count", Exact, Lower),
    layer("faas.rejections_per_kop", "count", Exact, Lower),
    layer("faas.mean_cpu_util", "fraction", Exact, Higher),
    layer("faas.probe_ns_per_invoke", "ns", Probe, Lower),
    layer("faas.host_share", "fraction", HostShare, Lower),
    layer("faas.vt_share", "fraction", Exact, Lower),
    // stream
    layer("stream.deliver_p50_us", "sim_us", Exact, Lower),
    layer("stream.deliver_p99_us", "sim_us", Exact, Lower),
    layer("stream.frames_per_delivery", "fraction", Exact, Higher),
    layer("stream.credit_stalls_per_kev", "count", Exact, Lower),
    layer("stream.overloaded_frac", "fraction", Exact, Lower),
    layer("stream.probe_ns_per_delivery", "ns", Probe, Lower),
    layer("stream.host_share", "fraction", HostShare, Lower),
    // metrics / trace / obs
    layer("telemetry.host_overhead_frac", "fraction", Host, Lower),
    layer("metrics.series", "count", Exact, Lower),
    layer("metrics.dropped_series", "count", Exact, Lower),
    layer("metrics.render_us", "us", Host, Lower),
    layer("trace.spans_per_op", "count", Exact, Lower),
    layer("trace.dropped_frac", "fraction", Exact, Lower),
    layer("obs.tick_us", "us", Host, Lower),
    layer("obs.journal_events_per_kop", "count", Exact, Lower),
    layer("obs.journal_dropped_frac", "fraction", Exact, Lower),
    layer("obs.alert_transitions", "count", Exact, Lower),
    // allocator
    layer("alloc.count_per_op", "count", Exact, Lower),
    layer("alloc.bytes_per_op", "B", Exact, Lower),
    layer("alloc.peak_live_mib", "MiB", Exact, Lower),
    // harness
    layer("bench.calib_ms", "ms", Host, Lower),
    layer("bench.pass_iqr_frac", "fraction", Host, Lower),
    layer("bench.host_us_per_op_raw", "us", Host, Lower),
    layer("unattributed.host_share", "fraction", HostShare, Lower),
    layer("other.vt_share", "fraction", Exact, Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(names.iter().all(|n| well_formed(n)));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        // The contract asks for a set-up time metric with the largest bound.
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // Host shares and virtual-time shares each have their remainder.
        assert!(PER_LAYER
            .iter()
            .any(|m| m.name == "unattributed.host_share"));
        assert!(PER_LAYER.iter().any(|m| m.name == "other.vt_share"));
        assert!(WORKLOADS
            .iter()
            .all(|(n, why)| well_formed(n) && why.len() <= 200 && !why.contains('\n')));
        assert_eq!(WORKLOADS.map(|(n, _)| n), crate::workloads::NAMES);
    }

    /// The committed file is `pcsi-benchmark spec`'s output, reformatted
    /// at most: a metric renamed in one place and not the other fails here.
    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = pcsi_proto::json::decode(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json());
    }
}
