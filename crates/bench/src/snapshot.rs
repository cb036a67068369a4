//! Per-PR performance snapshots (`BENCH_<pr>.json`).
//!
//! The report binary's `bench` artifact runs the deterministic
//! virtual-time experiments in [`Results`] and writes one JSON snapshot
//! per PR, so the repository carries a trajectory of the numbers the
//! simulator itself produces (the same on any machine), beside the
//! paper's Table 1. Host cost is not measured here: that is the job of
//! the repo benchmark under `benchmark/`.
//!
//! One table, [`METRICS`], declares every number a snapshot holds below
//! its Table 1 block: where it sits in the document, its unit, which way
//! is better, whether [`crate::trend`] tracks it, the first PR whose
//! snapshot carries it, and how to read it off a [`Results`]. [`render`],
//! [`validate`], the trend extraction and the report section all walk
//! that table, on the `pcsi_proto::json` codec.

use std::collections::BTreeMap;

use pcsi_net::NetworkGeneration::{Dc2005, Dc2021, FastEmerging};
use pcsi_proto::{json, Value};

use crate::experiments::efficiency::{self, DiurnalResult};
use crate::experiments::shard_scaling::{self, ShardScalingResult};
use crate::experiments::streaming::{self, StreamingResult};
use crate::experiments::table1;

use self::Better::{Higher, Lower, Neither};

/// Schema identifier embedded in (and required of) every snapshot.
pub const SCHEMA: &str = "pcsi-bench-snapshot/v1";

/// The Table 1 block: one number (ns) per [`table1::Row`], keyed by the
/// row's own label. Its measured rows are the capture machine's, so
/// nothing in it is tracked.
const TABLE1: &str = "table1_ns";

/// Everything a snapshot is rendered from.
#[derive(Debug, Clone)]
pub struct Results {
    /// Table 1 (E1).
    pub table1: Vec<table1::Row>,
    /// Ring scale-out under live load.
    pub shard: ShardScalingResult,
    /// Diurnal run, `(reactive, predictive)` autoscaling.
    pub autoscale: (DiurnalResult, DiurnalResult),
    /// PCSI push vs SSE (E10).
    pub streaming: StreamingResult,
}

impl Results {
    /// Runs every snapshot experiment at its committed size.
    pub fn run(seed: u64) -> Self {
        Results {
            table1: table1::run(seed),
            shard: shard_scaling::run(seed),
            autoscale: efficiency::run_diurnal_pair(seed, std::time::Duration::from_secs(180)),
            streaming: streaming::run_all(seed),
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, ratios).
    Higher,
    /// Smaller is better (latencies, cold starts).
    Lower,
    /// An echoed setting or a count with no good direction.
    Neither,
}

impl Better {
    /// The word the report section prints.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
            Better::Neither => "-",
        }
    }
}

/// One number of the snapshot, at `snapshot.<block>.<key>`.
pub struct Metric {
    /// Object under `snapshot`.
    pub block: &'static str,
    /// Member of that object.
    pub key: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way is an improvement.
    pub better: Better,
    /// Whether [`crate::trend`] shows and gates it. Only virtual-time
    /// values may be: the same code yields the same number anywhere.
    pub tracked: bool,
    /// First PR whose committed snapshot carries it; older snapshots may
    /// lack it, every other snapshot must have it.
    pub since: u64,
    get: fn(&Results) -> f64,
}

impl Metric {
    /// `<block>.<key>`, the name trend columns and messages use.
    pub fn path(&self) -> String {
        format!("{}.{}", self.block, self.key)
    }

    /// The value `r` gives this metric.
    pub fn value(&self, r: &Results) -> f64 {
        (self.get)(r)
    }

    fn node<'a>(&self, doc: &'a Value) -> Option<&'a Value> {
        doc.get("snapshot")?.get(self.block)?.get(self.key)
    }

    /// The value a parsed snapshot holds for this metric.
    pub fn read(&self, doc: &Value) -> Option<f64> {
        self.node(doc)?.as_f64()
    }
}

const fn m(
    block: &'static str,
    key: &'static str,
    unit: &'static str,
    better: Better,
    tracked: bool,
    since: u64,
    get: fn(&Results) -> f64,
) -> Metric {
    Metric {
        block,
        key,
        unit,
        better,
        tracked,
        since,
        get,
    }
}

/// Reactive over predictive cold-start rate.
fn cold_start_ratio(r: &Results) -> f64 {
    r.autoscale.0.cold_start_rate() / r.autoscale.1.cold_start_rate().max(1e-12)
}

/// The metric table, in report order.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    // block           key                           unit         better   tracked since value
    m("shard_scaling", "nodes_before",               "count",     Neither, false, 7, |r| r.shard.nodes_before as f64),
    m("shard_scaling", "nodes_after",                "count",     Neither, false, 7, |r| r.shard.nodes_after as f64),
    m("shard_scaling", "tput_before",                "ops/sim_s", Higher,  false, 7, |r| r.shard.tput_before),
    m("shard_scaling", "tput_after",                 "ops/sim_s", Higher,  false, 7, |r| r.shard.tput_after),
    m("shard_scaling", "ratio",                      "x",         Higher,  true,  7, |r| r.shard.ratio()),
    m("shard_scaling", "p99_before_us",              "sim_us",    Lower,   false, 7, |r| r.shard.p99_before_us),
    m("shard_scaling", "p99_migration_us",           "sim_us",    Lower,   false, 7, |r| r.shard.p99_migration_us),
    m("shard_scaling", "p99_after_us",               "sim_us",    Lower,   false, 7, |r| r.shard.p99_after_us),
    m("shard_scaling", "objects_moved",              "count",     Neither, false, 7, |r| r.shard.objects_moved as f64),
    m("autoscale",     "reactive_cold_start_rate",   "fraction",  Lower,   false, 8, |r| r.autoscale.0.cold_start_rate()),
    m("autoscale",     "predictive_cold_start_rate", "fraction",  Lower,   false, 8, |r| r.autoscale.1.cold_start_rate()),
    m("autoscale",     "cold_start_ratio",           "x",         Higher,  true,  8, cold_start_ratio),
    m("autoscale",     "reactive_mean_cpu_util",     "fraction",  Higher,  false, 8, |r| r.autoscale.0.mean_cpu_util),
    m("autoscale",     "predictive_mean_cpu_util",   "fraction",  Higher,  false, 8, |r| r.autoscale.1.mean_cpu_util),
    m("autoscale",     "reactive_slo_attainment",    "fraction",  Higher,  false, 8, |r| r.autoscale.0.slo_attainment),
    m("autoscale",     "predictive_slo_attainment",  "fraction",  Higher,  false, 8, |r| r.autoscale.1.slo_attainment),
    m("autoscale",     "prewarms",                   "count",     Neither, false, 8, |r| r.autoscale.1.prewarms as f64),
    m("autoscale",     "preemptions",                "count",     Neither, false, 8, |r| r.autoscale.1.preemptions as f64),
    m("autoscale",     "rebalances",                 "count",     Neither, false, 8, |r| r.autoscale.1.rebalances as f64),
    m("streaming",     "fan_out",                    "count",     Neither, false, 9, |_| streaming::FAN_OUT as f64),
    m("streaming",     "dc2005_rtt_ns",              "sim_ns",    Neither, false, 9, |r| r.streaming.point(Dc2005).rtt_ns),
    m("streaming",     "dc2005_pcsi_event_ns",       "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2005).pcsi_event_ns),
    m("streaming",     "dc2005_sse_event_ns",        "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2005).sse_event_ns),
    m("streaming",     "dc2005_pcsi_fanout_ns",      "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2005).pcsi_fanout_ns),
    m("streaming",     "dc2005_sse_fanout_ns",       "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2005).sse_fanout_ns),
    m("streaming",     "dc2021_rtt_ns",              "sim_ns",    Neither, false, 9, |r| r.streaming.point(Dc2021).rtt_ns),
    m("streaming",     "dc2021_pcsi_event_ns",       "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2021).pcsi_event_ns),
    m("streaming",     "dc2021_sse_event_ns",        "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2021).sse_event_ns),
    m("streaming",     "dc2021_pcsi_fanout_ns",      "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2021).pcsi_fanout_ns),
    m("streaming",     "dc2021_sse_fanout_ns",       "sim_ns",    Lower,   false, 9, |r| r.streaming.point(Dc2021).sse_fanout_ns),
    m("streaming",     "fast_rtt_ns",                "sim_ns",    Neither, false, 9, |r| r.streaming.point(FastEmerging).rtt_ns),
    m("streaming",     "fast_pcsi_event_ns",         "sim_ns",    Lower,   true,  9, |r| r.streaming.point(FastEmerging).pcsi_event_ns),
    m("streaming",     "fast_sse_event_ns",          "sim_ns",    Lower,   false, 9, |r| r.streaming.point(FastEmerging).sse_event_ns),
    m("streaming",     "fast_pcsi_fanout_ns",        "sim_ns",    Lower,   false, 9, |r| r.streaming.point(FastEmerging).pcsi_fanout_ns),
    m("streaming",     "fast_sse_fanout_ns",         "sim_ns",    Lower,   false, 9, |r| r.streaming.point(FastEmerging).sse_fanout_ns),
    m("streaming",     "metrics_delta_bytes",        "B",         Lower,   false, 9, |r| r.streaming.delta.mean_delta_bytes),
    m("streaming",     "metrics_full_bytes",         "B",         Neither, false, 9, |r| r.streaming.delta.mean_full_bytes),
    m("streaming",     "delta_compression",          "x",         Higher,  false, 9, |r| r.streaming.delta.compression()),
    m("streaming",     "ttft_pcsi_ns",               "sim_ns",    Lower,   true,  9, |r| r.streaming.tokens.pcsi_ttft_ns),
    m("streaming",     "ttft_sse_ns",                "sim_ns",    Lower,   false, 9, |r| r.streaming.tokens.sse_ttft_ns),
    m("streaming",     "total_pcsi_ns",              "sim_ns",    Lower,   false, 9, |r| r.streaming.tokens.pcsi_total_ns),
    m("streaming",     "total_sse_ns",               "sim_ns",    Lower,   false, 9, |r| r.streaming.tokens.sse_total_ns),
];

/// Renders `r` as a schema-conformant snapshot document.
pub fn render(r: &Results, pr: &str, seed: u64) -> String {
    let table1 = r.table1.iter().map(|row| (row.label.as_str(), row.ours_ns));
    document(table1, |metric| metric.value(r), pr, seed)
}

/// The document holding `table1`'s `(label, ns)` rows and `value` of
/// every [`METRICS`] row.
fn document<'a>(
    table1: impl Iterator<Item = (&'a str, f64)>,
    value: impl Fn(&Metric) -> f64,
    pr: &str,
    seed: u64,
) -> String {
    let mut blocks: BTreeMap<&str, BTreeMap<String, Value>> = BTreeMap::new();
    for (label, ns) in table1 {
        let block = blocks.entry(TABLE1).or_default();
        block.insert(label.to_owned(), Value::F64(ns));
    }
    for metric in METRICS {
        let block = blocks.entry(metric.block).or_default();
        block.insert(metric.key.to_owned(), Value::F64(value(metric)));
    }
    let doc = Value::object([
        ("schema", Value::from(SCHEMA)),
        ("pr", Value::from(pr)),
        ("seed", Value::I64(seed as i64)),
        (
            "snapshot",
            Value::object(blocks.into_iter().map(|(k, v)| (k, Value::Object(v)))),
        ),
    ]);
    let mut text = json::encode(&doc);
    text.push('\n');
    text
}

/// Where `r` departs from the snapshot document `pinned`, one line per
/// number. Every [`METRICS`] row and every Table 1 row the simulator or
/// the model produced is the same `f64` on any machine, so it is held to
/// exact equality; `measured (host)` rows are the capture machine's and
/// are not compared.
pub fn drift(r: &Results, pinned: &Value) -> Vec<String> {
    let table1 = r
        .table1
        .iter()
        .filter(|row| row.source != "measured (host)")
        .map(|row| {
            let block = pinned.get("snapshot").and_then(|s| s.get(TABLE1));
            let there = block.and_then(|b| b.get(&row.label)?.as_f64());
            (format!("{TABLE1}[{:?}]", row.label), row.ours_ns, there)
        });
    let metrics = METRICS
        .iter()
        .map(|metric| (metric.path(), metric.value(r), metric.read(pinned)));
    table1
        .chain(metrics)
        .filter(|(_, here, there)| Some(*here) != *there)
        .map(|(path, here, there)| match there {
            Some(there) => format!("{path}: {here} here, {there} pinned"),
            None => format!("{path}: {here} here, absent from the pin"),
        })
        .collect()
}

/// Checks that `text` is a valid snapshot under the current [`SCHEMA`]
/// and returns the parsed document.
///
/// Every requirement names the offending path, so a drifted producer
/// fails with a message saying which piece is missing. Members the
/// table does not name (earlier generations' wall-clock fields) are
/// ignored.
pub fn validate(text: &str) -> Result<Value, String> {
    let doc = json::decode(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing string field: schema")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    let pr = doc
        .get("pr")
        .and_then(Value::as_str)
        .ok_or("missing string field: pr")?;
    doc.get("seed")
        .and_then(Value::as_f64)
        .ok_or("missing number field: seed")?;
    let snap = doc
        .get("snapshot")
        .ok_or("missing object field: snapshot")?;
    match snap.get(TABLE1).and_then(Value::as_object) {
        Some(rows) if !rows.is_empty() => {
            for (label, v) in rows {
                v.as_f64()
                    .ok_or(format!("snapshot.{TABLE1}[{label:?}] must be a number"))?;
            }
        }
        _ => return Err(format!("snapshot.{TABLE1} must be a non-empty object")),
    }
    // An ad-hoc snapshot (`dev`, `ci`) was written by this tree and is
    // held to the whole table.
    let pr_num = pr.parse::<u64>().unwrap_or(u64::MAX);
    for metric in METRICS {
        match metric.node(&doc) {
            Some(v) if v.as_f64().is_some() => {}
            None if pr_num < metric.since => {}
            _ => return Err(format!("missing number field: snapshot.{}", metric.path())),
        }
    }
    // The streaming headline is enforced on the artifact itself: PCSI
    // push beats SSE per event on the fast network.
    let fast = |key| snap.get("streaming").and_then(|s| s.get(key)?.as_f64());
    if let (Some(p), Some(s)) = (fast("fast_pcsi_event_ns"), fast("fast_sse_event_ns")) {
        if p >= s {
            return Err(format!(
                "streaming claim violated: fast-network PCSI per-event \
                 ({p:.0}ns) must beat SSE ({s:.0}ns)"
            ));
        }
    }
    Ok(doc)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A small hand-made [`Results`]; tests edit the fields they probe.
    pub(crate) fn fixture() -> Results {
        use crate::experiments::efficiency::ScalePolicy;
        use crate::experiments::streaming::{MetricsDeltaResult, StreamPoint, TokenServingResult};
        let reactive = DiurnalResult {
            policy: ScalePolicy::Reactive,
            completed: 20_000,
            cold_starts: 160,
            slo_attainment: 0.994,
            mean_cpu_util: 0.18,
            prewarms: 0,
            preemptions: 0,
            rebalances: 0,
        };
        let predictive = DiurnalResult {
            policy: ScalePolicy::Predictive,
            cold_starts: 20,
            slo_attainment: 0.999,
            mean_cpu_util: 0.35,
            prewarms: 700,
            preemptions: 2,
            rebalances: 500,
            ..reactive.clone()
        };
        let point = |generation: pcsi_net::NetworkGeneration, pcsi: f64, sse: f64| StreamPoint {
            generation,
            rtt_ns: generation.rtt().as_nanos() as f64,
            pcsi_event_ns: pcsi,
            sse_event_ns: sse,
            pcsi_fanout_ns: pcsi * 1.4,
            sse_fanout_ns: sse * 1.4,
        };
        Results {
            table1: vec![
                table1::Row {
                    label: "Socket overhead".into(),
                    paper_ns: Some(5_000.0),
                    ours_ns: 5_000.0,
                    source: "modeled",
                },
                table1::Row {
                    label: "sched_yield(2) on this machine".into(),
                    paper_ns: None,
                    ours_ns: 164.926,
                    source: "measured (host)",
                },
            ],
            shard: ShardScalingResult {
                nodes_before: 3,
                nodes_after: 12,
                tput_before: 45_000.0,
                tput_after: 160_000.0,
                p99_before_us: 1_500.0,
                p99_migration_us: 4_000.0,
                p99_after_us: 400.0,
                objects_moved: 64,
            },
            autoscale: (reactive, predictive),
            streaming: StreamingResult {
                points: vec![
                    point(Dc2005, 600_000.0, 1_400_000.0),
                    point(Dc2021, 130_000.0, 520_000.0),
                    point(FastEmerging, 2_000.0, 310_000.0),
                ],
                delta: MetricsDeltaResult {
                    mean_delta_bytes: 400.0,
                    mean_full_bytes: 4_000.0,
                    reconstructed: true,
                },
                tokens: TokenServingResult {
                    tokens: 32,
                    pcsi_ttft_ns: 1_200_000.0,
                    sse_ttft_ns: 1_700_000.0,
                    pcsi_total_ns: 33_000_000.0,
                    sse_total_ns: 49_000_000.0,
                },
            },
        }
    }

    /// The committed `BENCH_<pr>.json`, byte for byte.
    pub(crate) fn committed(pr: u64) -> String {
        let path = format!("{}/../../BENCH_{pr}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn table_paths_are_unique_and_tracked_rows_have_a_direction() {
        let mut paths: Vec<String> = METRICS.iter().map(Metric::path).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), METRICS.len());
        for metric in METRICS.iter().filter(|m| m.tracked) {
            assert_ne!(metric.better, Neither, "{}", metric.path());
        }
    }

    #[test]
    fn rendered_snapshot_validates_and_reads_back() {
        let r = fixture();
        let doc = validate(&render(&r, "12", 7)).unwrap();
        assert_eq!(doc.get("pr").and_then(Value::as_str), Some("12"));
        assert_eq!(doc.get("seed").and_then(Value::as_i64), Some(7));
        for metric in METRICS {
            assert_eq!(
                metric.read(&doc),
                Some(metric.value(&r)),
                "{}",
                metric.path()
            );
        }
        let read = |block, key| {
            let metric = METRICS.iter().find(|m| (m.block, m.key) == (block, key));
            metric.unwrap().read(&doc).unwrap()
        };
        assert_eq!(read("shard_scaling", "ratio"), 160.0 / 45.0);
        assert_eq!(read("autoscale", "cold_start_ratio"), 8.0);
        assert_eq!(read("streaming", "fan_out"), 8.0);
        assert_eq!(read("streaming", "delta_compression"), 10.0);
    }

    #[test]
    fn drift_holds_simulated_rows_to_the_exact_f64_and_exempts_host_rows() {
        let pinned = fixture();
        let doc = json::decode(&render(&pinned, "12", 7)).unwrap();
        assert_eq!(drift(&pinned, &doc), Vec::<String>::new());

        // The host-measured row may move; a modeled row and a metric by
        // one ulp may not, and each is named.
        let mut r = pinned.clone();
        r.table1[1].ours_ns *= 2.0;
        assert_eq!(drift(&r, &doc), Vec::<String>::new());
        r.table1[0].ours_ns = f64::from_bits(5_000.0_f64.to_bits() + 1);
        r.shard.p99_after_us = f64::from_bits(400.0_f64.to_bits() - 1);
        let moved = drift(&r, &doc);
        assert_eq!(moved.len(), 2, "{moved:?}");
        assert!(moved[0].starts_with("table1_ns[\"Socket overhead\"]: 5000.000000000001 here"));
        assert!(moved[1].starts_with("shard_scaling.p99_after_us: 399.99999999999994 here"));

        // A pin that predates a row does not vouch for it.
        let old = json::decode(&render(&pinned, "8", 7).replace("\"fan_out\":", "\"fan_out_x\":"));
        let moved = drift(&pinned, &old.unwrap());
        assert_eq!(moved, ["streaming.fan_out: 8 here, absent from the pin"]);
    }

    #[test]
    fn bench_check_rejects_missing_mistyped_and_foreign_documents() {
        let text = render(&fixture(), "dev", 7);
        for metric in METRICS {
            let member = format!("\"{}\":", metric.key);
            assert_eq!(text.matches(&member).count(), 1, "{member}");
            // Renamed away: the path is missing.
            let missing = text.replace(&member, &format!("\"{}_x\":", metric.key));
            assert!(
                validate(&missing).unwrap_err().contains(&metric.path()),
                "{}",
                metric.path()
            );
            // Still there, but a string.
            let mistyped = text.replace(&member, &format!("{member}\"n/a\",\"{}_x\":", metric.key));
            assert!(
                validate(&mistyped).unwrap_err().contains(&metric.path()),
                "{}",
                metric.path()
            );
        }
        let foreign = text.replace(SCHEMA, "pcsi-bench-snapshot/v0");
        assert!(validate(&foreign).unwrap_err().contains("schema"));
        let no_table1 = text.replace(TABLE1, "table1");
        assert!(validate(&no_table1).unwrap_err().contains(TABLE1));
        assert!(validate("not json").is_err());
    }

    #[test]
    fn a_numbered_snapshot_may_lack_only_what_postdates_it() {
        // PR 8 predates the streaming block (since 9), not autoscale.
        let doc = json::decode(&render(&fixture(), "8", 7)).unwrap();
        let without = |block: &str| {
            let mut doc = doc.clone();
            let Value::Object(top) = &mut doc else {
                unreachable!()
            };
            let Some(Value::Object(snap)) = top.get_mut("snapshot") else {
                unreachable!()
            };
            snap.remove(block).unwrap();
            json::encode(&doc)
        };
        validate(&without("streaming")).unwrap();
        assert!(validate(&without("autoscale"))
            .unwrap_err()
            .contains("snapshot.autoscale."));
    }

    #[test]
    fn streaming_claim_is_enforced_on_the_artifact() {
        // SSE winning on the fast network is rejected even though the
        // document is structurally well-formed.
        let mut r = fixture();
        r.streaming.points[2].pcsi_event_ns = 500_000.0;
        let err = validate(&render(&r, "9", 7)).unwrap_err();
        assert!(err.contains("streaming claim"), "{err}");
    }

    #[test]
    fn committed_snapshots_still_pass_bench_check() {
        for pr in 6..=10 {
            let doc = validate(&committed(pr)).unwrap_or_else(|e| panic!("BENCH_{pr}: {e}"));
            for metric in METRICS {
                assert_eq!(
                    metric.read(&doc).is_some(),
                    pr >= metric.since,
                    "BENCH_{pr} {}",
                    metric.path()
                );
            }
        }
    }

    proptest! {
        /// Every table path, and every Table 1 label however it must be
        /// escaped, reads back the exact `f64` that was rendered.
        #[test]
        fn every_path_reads_back_the_exact_f64(
            values in proptest::collection::vec(
                any::<f64>().prop_filter("finite", |v| v.is_finite()),
                METRICS.len() + 2..METRICS.len() + 3,
            ),
            label in proptest::collection::vec(any::<char>(), 0..12),
        ) {
            let label: String = label.into_iter().chain("\"\\\t\u{1}é🦀".chars()).collect();
            let table1 = [
                ("sched_yield(2) on this machine", values[METRICS.len()]),
                (label.as_str(), values[METRICS.len() + 1]),
            ];
            let drawn: BTreeMap<String, f64> =
                METRICS.iter().map(Metric::path).zip(values.iter().copied()).collect();
            let text = document(table1.into_iter(), |metric| drawn[&metric.path()], "dev", 7);
            let doc = json::decode(&text).unwrap();
            for (metric, v) in METRICS.iter().zip(&values) {
                prop_assert_eq!(metric.read(&doc).map(f64::to_bits), Some(v.to_bits()));
            }
            let block = doc.get("snapshot").unwrap().get(TABLE1).unwrap();
            for (label, v) in table1 {
                let got = block.get(label).and_then(Value::as_f64);
                prop_assert_eq!(got.map(f64::to_bits), Some(v.to_bits()));
            }
        }
    }
}
