//! Turning passes into named metrics, and metrics into text and JSON.
//!
//! All JSON goes through `pcsi_proto::json` — the repo's own codec, so
//! the benchmark adds no second JSON writer.

use std::collections::BTreeMap;

use pcsi_proto::{json, Value};

use crate::calib::NOMINAL_S;
use crate::spec::{better_of, Better, Kind, END_TO_END, PER_LAYER};
use crate::stats::{iqr_frac, median, P99_MIN_SAMPLES};
use crate::summary::{hex, ClassStat, Fields, ProbeReport, ProbeStat, Summary};
use crate::vt::VT_LAYERS;

/// One named value of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// The clock (end-to-end) or the way it was obtained (per-layer).
    pub clock: String,
    /// Samples behind the value: passes for host figures, ops for
    /// virtual ones, 1 for a plain count.
    pub samples: u64,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Timed passes (untraced ones, in a traced run).
    pub passes: u64,
    /// Host seconds from the first timed pass to the last.
    pub measured_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The digest every pass of the run reproduced.
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Figures that explain the metrics but are not metrics themselves.
    pub notes: BTreeMap<String, f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host-time samples of the timed passes of one telemetry level.
#[derive(Debug, Clone, Default)]
pub struct HostSamples {
    /// Calibrated window seconds per op, one per pass.
    pub cost_s_per_op: Vec<f64>,
    /// Raw window seconds per op, one per pass.
    pub raw_s_per_op: Vec<f64>,
    /// Every calibration kernel time of those passes' processes, seconds.
    pub calib_s: Vec<f64>,
}

/// The nine end-to-end metrics from one (untraced) pass and the run's
/// host samples. `Err` when the primary class is too small for a p99.
pub fn end_to_end(
    pass: &Summary,
    host: &HostSamples,
    (setup_s, setups): (f64, u64),
    peak_rss_mib: f64,
) -> Result<Vec<Metric>, String> {
    let primary = &pass.classes[0];
    let (attempted, failed) = pass.attempted_failed();
    if primary.samples < P99_MIN_SAMPLES as u64 {
        return Err(format!(
            "primary class {:?} has {} samples; a p99 needs {P99_MIN_SAMPLES}",
            primary.name, primary.samples
        ));
    }
    let passes = host.cost_s_per_op.len() as u64;
    let values: [(f64, u64); 9] = [
        (median(&host.cost_s_per_op) * 1e6, passes),
        (peak_rss_mib, setups),
        (setup_s, setups),
        (primary.p50_ns as f64 / 1e3, primary.samples),
        (primary.p99_ns as f64 / 1e3, primary.samples),
        (
            ratio((attempted - failed) as f64, pass.sim_window_s),
            attempted,
        ),
        (
            1.0 - ratio(
                (primary.failed + primary.late) as f64,
                primary.attempted as f64,
            ),
            primary.attempted,
        ),
        (1.0 - ratio(failed as f64, attempted as f64), attempted),
        (
            ratio(pass.count("polls") + pass.count("msgs"), pass.ops as f64),
            pass.ops,
        ),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (value, samples))| Metric {
            name: spec.name.into(),
            value,
            unit: spec.unit.into(),
            clock: spec.clock.into(),
            samples,
        })
        .collect())
}

/// What a traced run has gathered for [`per_layer`].
pub struct LayerInputs<'a> {
    /// One untraced pass: the counts readable without telemetry.
    pub untraced: &'a Summary,
    /// One traced pass: the registry-only series, spans and allocations.
    pub traced: &'a Summary,
    pub host_untraced: &'a HostSamples,
    pub host_traced: &'a HostSamples,
    pub probes: &'a ProbeReport,
}

/// Calibrated nanoseconds per unit of `layer`'s probe, net of the polls
/// and messages it caused when `net_of` prices those.
fn probe_ns(probes: &[ProbeStat], layer: &str, net_of: Option<(f64, f64)>) -> f64 {
    let Some(probe) = probes.iter().find(|p| p.name == layer) else {
        return 0.0;
    };
    let (per_poll, per_msg) = net_of.unwrap_or((0.0, 0.0));
    let own = probe.ns - probe.polls as f64 * per_poll - probe.msgs as f64 * per_msg;
    own.max(0.0) / probe.units as f64
}

/// Every per-layer metric, in table order.
pub fn per_layer(inputs: &LayerInputs) -> Vec<Metric> {
    let (u, t) = (inputs.untraced, inputs.traced);
    let telemetry = t.traced.as_ref().expect("a traced pass carries telemetry");
    let probes = inputs.probes.probes.as_slice();
    let n = |counter: &str| u.count(counter);
    let ops = u.ops as f64;
    let kops = ops / 1e3;
    let traced_ops = t.ops as f64;
    let cost_u = median(&inputs.host_untraced.cost_s_per_op);
    let cost_t = median(&inputs.host_traced.cost_s_per_op);
    let window_ns = cost_u * ops * 1e9;
    let calib_median_s = median(&inputs.host_untraced.calib_s);

    let p50 = |name: &str| u.class(name).map_or(0.0, |k| k.p50_ns as f64 / 1e3);
    let tail = |name: &str| u.class(name).map_or(0.0, |k| k.p99_ns as f64 / 1e3);
    let seen = |s: &Summary, name: &str| s.class(name).map_or(0, |k| k.seen) as f64;
    let extra = |name: &str| u.extra.get(name).copied().unwrap_or(0.0);
    let told = |name: &str| telemetry.get(name).copied().unwrap_or(0.0);
    // Host microseconds of a call timed once in the traced pass, calibrated.
    let calibrated_us = |name: &str| told(name) * 1e6 * NOMINAL_S / calib_median_s;

    let per_poll = probe_ns(probes, "sim", None);
    let per_msg = probe_ns(probes, "net", Some((per_poll, 0.0)));
    let net_of = Some((per_poll, per_msg));
    let per_frame = probe_ns(probes, "store.wire", None);
    let per_invoke = probe_ns(probes, "faas", net_of);
    let per_delivery = probe_ns(probes, "stream", net_of);
    let (sign, http, json_kib) = (
        probe_ns(probes, "proto.sign", None),
        probe_ns(probes, "proto.http", None),
        probe_ns(probes, "proto.json", None),
    );
    // Every REST op signs and verifies once, frames and parses one
    // request/response pair, and marshals one 1 KiB item.
    let rest_ops = seen(u, "get") + seen(u, "put");
    let share = |units: f64, ns_per_unit: f64| ratio(units * ns_per_unit, window_ns);
    let shares = [
        share(n("polls"), per_poll),
        share(n("msgs"), per_msg),
        // Every fabric message taken as one frame, encoded and decoded
        // once: an upper estimate where HTTP or transfer frames mix in.
        share(n("msgs"), per_frame),
        share(rest_ops, sign + http + json_kib),
        share(n("invocations"), per_invoke),
        share(seen(u, "deliver"), per_delivery),
    ];
    let [sim_share, net_share, wire_share, proto_share, faas_share, stream_share] = shares;

    let vt_total: f64 = VT_LAYERS.iter().map(|l| told(&format!("vt.{l}"))).sum();
    let vt = |layer: &str| {
        debug_assert!(VT_LAYERS.contains(&layer));
        ratio(told(&format!("vt.{layer}")), vt_total)
    };
    let ablation_total: f64 = inputs.probes.ablation_polls.values().sum();
    let ablation = |source: &str| {
        ratio(
            inputs
                .probes
                .ablation_polls
                .get(source)
                .copied()
                .unwrap_or(0.0),
            ablation_total,
        )
    };
    let kernel_calls: Vec<&ClassStat> = ["read", "write", "lookup", "invoke"]
        .iter()
        .filter_map(|n| u.class(n))
        .collect();
    let kernel_errors = ratio(
        kernel_calls.iter().map(|k| k.failed).sum::<u64>() as f64,
        kernel_calls.iter().map(|k| k.attempted).sum::<u64>() as f64 / 1e3,
    );
    let invocations_k = n("invocations") / 1e3;

    let value = |name: &str| -> f64 {
        match name {
            "sim.polls_per_op" => ratio(n("polls"), ops),
            "sim.probe_ns_per_poll" => per_poll,
            "sim.host_share" => sim_share,
            "sim.kv_poll_share" => ablation("kv"),
            "sim.faas_poll_share" => ablation("faas"),
            "sim.stream_poll_share" => ablation("stream"),
            "net.msgs_per_op" => ratio(n("msgs"), ops),
            "net.bytes_per_op" => ratio(n("bytes"), ops),
            "net.probe_ns_per_msg" => per_msg,
            "net.host_share" => net_share,
            "net.vt_share" => vt("net"),
            "net.dropped_frac" => ratio(n("dropped"), n("msgs")),
            "store.wire.probe_ns_per_frame" => per_frame,
            "store.wire.host_share" => wire_share,
            "bytes.pool_hit_frac" => ratio(n("pool_hits"), n("pool_hits") + n("pool_misses")),
            "store.client.cache_hit_frac" => {
                ratio(n("cache_hits"), n("cache_hits") + n("cache_misses"))
            }
            "store.client.retries_per_kop" => ratio(n("retries"), kops),
            "store.client.failovers_per_kop" => ratio(n("failovers"), kops),
            "store.client.timeouts_per_kop" => ratio(n("timeouts"), kops),
            "store.client.vt_share" => vt("store.client"),
            "store.replica.coordinated_per_op" => ratio(n("coordinated"), ops),
            "store.replica.applied_per_op" => ratio(told("registry.replica.applied"), traced_ops),
            "store.replica.fetched_per_kop" => ratio(n("fetched"), kops),
            "store.replica.quorum_acks_p50" => told("quorum_acks_p50"),
            "store.replica.vt_share" => vt("store.replica"),
            "store.engine.probe_ns_per_apply" => probe_ns(probes, "store.engine", None),
            "store.placement.probe_ns_per_lookup" => probe_ns(probes, "store.placement", None),
            "store.migrate.objects_moved" => extra("store.migrate.objects_moved"),
            "store.migrate.window_p99_us" => tail("kv_drain"),
            "kernel.read_p50_us" => p50("read"),
            "kernel.read_p99_us" => tail("read"),
            "kernel.write_p50_us" => p50("write"),
            "kernel.write_p99_us" => tail("write"),
            "kernel.lookup_p50_us" => p50("lookup"),
            "kernel.lookup_p99_us" => tail("lookup"),
            "kernel.errors_per_kop" => kernel_errors,
            "kernel.vt_share" => vt("kernel"),
            "rest.get_p99_us" => tail("get"),
            "rest.put_p99_us" => tail("put"),
            "rest.vt_protocol_share" => vt("rest"),
            "proto.sign_ns_per_req" => sign,
            "proto.http_ns_per_req" => http,
            "proto.json_ns_per_kib" => json_kib,
            "proto.binary_ns_per_kib" => probe_ns(probes, "proto.binary", None),
            "proto.host_share" => proto_share,
            "faas.cold_start_frac" => ratio(n("cold_starts"), n("invocations")),
            "faas.invoke_p50_us" => p50("invoke"),
            "faas.invoke_p99_us" => tail("invoke"),
            "faas.prewarms_per_kop" => ratio(n("prewarms"), invocations_k),
            "faas.preemptions_per_kop" => ratio(n("preemptions"), invocations_k),
            "faas.rebalances_per_kop" => ratio(n("rebalances"), invocations_k),
            "faas.rejections_per_kop" => ratio(n("rejections"), invocations_k),
            "faas.mean_cpu_util" => extra("faas.mean_cpu_util"),
            "faas.probe_ns_per_invoke" => per_invoke,
            "faas.host_share" => faas_share,
            "faas.vt_share" => vt("faas"),
            "stream.deliver_p50_us" => p50("deliver"),
            "stream.deliver_p99_us" => tail("deliver"),
            "stream.frames_per_delivery" => {
                ratio(seen(t, "deliver"), told("registry.stream.frames"))
            }
            "stream.credit_stalls_per_kev" => ratio(
                told("registry.stream.credit_stalls"),
                seen(t, "publish") / 1e3,
            ),
            "stream.overloaded_frac" => extra("stream.overloaded_frac"),
            "stream.probe_ns_per_delivery" => per_delivery,
            "stream.host_share" => stream_share,
            "telemetry.host_overhead_frac" => cost_t / cost_u - 1.0,
            "metrics.series" => told("series"),
            "metrics.dropped_series" => told("registry.metrics.dropped_series"),
            "metrics.render_us" => calibrated_us("render_host_s"),
            "trace.spans_per_op" => ratio(told("spans"), traced_ops),
            "trace.dropped_frac" => ratio(told("spans_dropped"), told("spans")),
            "obs.tick_us" => calibrated_us("obs_tick_host_s"),
            "obs.journal_events_per_kop" => ratio(told("journal_appended"), traced_ops / 1e3),
            "obs.journal_dropped_frac" => ratio(told("journal_dropped"), told("journal_appended")),
            "obs.alert_transitions" => told("alert_transitions"),
            "alloc.count_per_op" => ratio(told("alloc_count"), traced_ops),
            "alloc.bytes_per_op" => ratio(told("alloc_bytes"), traced_ops),
            "alloc.peak_live_mib" => told("alloc_peak_live") / (1 << 20) as f64,
            "bench.calib_ms" => calib_median_s * 1e3,
            "bench.pass_iqr_frac" => iqr_frac(&inputs.host_untraced.cost_s_per_op),
            "bench.host_us_per_op_raw" => {
                inputs
                    .host_untraced
                    .raw_s_per_op
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
                    * 1e6
            }
            "unattributed.host_share" => 1.0 - shares.iter().sum::<f64>(),
            "other.vt_share" => vt("other"),
            other => unreachable!("per-layer metric {other} has no formula"),
        }
    };

    let host_passes = inputs.host_untraced.cost_s_per_op.len() as u64;
    PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name.into(),
            value: value(spec.name),
            unit: spec.unit.into(),
            clock: spec.kind.as_str().into(),
            samples: if spec.kind == Kind::Exact {
                1
            } else {
                host_passes
            },
        })
        .collect()
}

impl Metric {
    fn to_value(&self) -> Value {
        Value::object([
            ("value", Value::F64(self.value)),
            ("unit", Value::from(self.unit.as_str())),
            ("clock", Value::from(self.clock.as_str())),
            ("samples", Value::I64(self.samples as i64)),
        ])
    }
}

impl RunResult {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The full result as a JSON value. `u64`s that may not fit JSON's
    /// signed integers (seed, digest) travel as strings.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("workload", Value::from(self.workload.as_str())),
            ("seed", Value::from(self.seed.to_string())),
            ("traced", Value::Bool(self.traced)),
            ("passes", Value::I64(self.passes as i64)),
            ("measured_s", Value::F64(self.measured_s)),
            ("attempted", Value::I64(self.attempted as i64)),
            ("failed", Value::I64(self.failed as i64)),
            ("digest", hex(self.digest)),
            (
                "metrics",
                Value::object(self.metrics.iter().map(|m| (m.name.clone(), m.to_value()))),
            ),
            (
                "notes",
                Value::object(self.notes.iter().map(|(k, v)| (k.clone(), Value::F64(*v)))),
            ),
        ])
    }

    /// Parses what [`RunResult::to_value`] wrote. Metrics come back in
    /// name order (JSON objects are unordered).
    pub fn from_value(v: &Value) -> Result<RunResult, String> {
        let f = Fields(v);
        let metrics = f
            .get("metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?;
        let metric = |(name, m): (&String, &Value)| {
            let m = Fields(m);
            Ok::<_, String>(Metric {
                name: name.clone(),
                value: m.real("value")?,
                unit: m.text("unit")?.to_owned(),
                clock: m.text("clock")?.to_owned(),
                samples: m.int("samples")?,
            })
        };
        Ok(RunResult {
            workload: f.text("workload")?.to_owned(),
            seed: f.text("seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            traced: f.flag("traced")?,
            passes: f.int("passes")?,
            measured_s: f.real("measured_s")?,
            attempted: f.int("attempted")?,
            failed: f.int("failed")?,
            digest: f.hex("digest")?,
            metrics: metrics.iter().map(metric).collect::<Result<_, _>>()?,
            notes: f.bag("notes")?,
        })
    }

    /// Prints every metric by name with unit, clock and sample count.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  {}  {} timed passes over {:.1} s  digest {:016x}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.passes,
            self.measured_s,
            self.digest
        );
        println!(
            "  {:<38} {:>16}  {:<10} {:<17} {:>8}  better",
            "metric", "value", "unit", "clock", "samples"
        );
        for m in &self.metrics {
            println!(
                "  {:<38} {:>16.6}  {:<10} {:<17} {:>8}  {}",
                m.name,
                m.value,
                m.unit,
                m.clock,
                m.samples,
                better_of(&m.name).map_or("", Better::as_str)
            );
        }
        for (k, v) in &self.notes {
            println!("  note {k} = {v}");
        }
        println!(
            "  output checks: PASS  (attempted {}, failed {})",
            self.attempted, self.failed
        );
    }
}

/// A run's last line of standard output: exactly the keys the driver
/// reads, each metric as `{"value", "unit"}`.
pub fn contract_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    json::encode(&Value::object([
        // A run whose outputs are wrong exits without a result line.
        ("correct", Value::Bool(true)),
        ("attempted", Value::I64(attempted as i64)),
        ("failed", Value::I64(failed as i64)),
        (
            "metrics",
            Value::object(metrics.map(|(name, m)| {
                let entry = [
                    ("value", Value::F64(m.value)),
                    ("unit", Value::from(m.unit.as_str())),
                ];
                (name, Value::object(entry))
            })),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "kv_mixed".into(),
            seed: u64::MAX - 3,
            traced: false,
            passes: 12,
            measured_s: 23.75,
            attempted: 16_042,
            failed: 0,
            digest: 0xfeed_f00d_dead_beef,
            metrics: vec![
                Metric {
                    name: "host_us_per_op".into(),
                    value: 41.250_312_5,
                    unit: "us".into(),
                    clock: "host, calibrated".into(),
                    samples: 12,
                },
                Metric {
                    name: "ok_frac".into(),
                    value: 1.0,
                    unit: "fraction".into(),
                    clock: "virtual".into(),
                    samples: 16_042,
                },
            ],
            notes: BTreeMap::from([("rest.stale_gets".to_owned(), 0.0)]),
        }
    }

    #[test]
    fn result_round_trips_through_the_proto_json_codec() {
        let r = sample();
        let text = json::encode(&r.to_value());
        let back = RunResult::from_value(&json::decode(&text).expect("own JSON parses"))
            .expect("own result parses");
        assert_eq!(back, r);
        assert_eq!(back.metric("host_us_per_op"), Some(41.250_312_5));
        assert_eq!(back.metric("nope"), None);
    }

    #[test]
    fn contract_line_has_exactly_the_drivers_keys() {
        let r = sample();
        let line = contract_line(
            r.attempted,
            r.failed,
            r.metrics.iter().map(|m| (m.name.clone(), m)),
        );
        assert!(!line.contains('\n'));
        let v = json::decode(&line).expect("line parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_i64), Some(16_042));
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("ok_frac"))
            .expect("metric");
        let keys: Vec<&str> = m
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["unit", "value"]);
        // A float that happens to be whole stays a JSON float.
        assert!(line.contains("\"value\":1.0"));
    }

    #[test]
    fn from_value_rejects_malformed_results() {
        assert!(RunResult::from_value(&Value::Null).is_err());
        let mut v = sample().to_value();
        if let Value::Object(m) = &mut v {
            m.insert("seed".into(), Value::from("not a number"));
        }
        assert!(RunResult::from_value(&v).is_err());
    }
}
