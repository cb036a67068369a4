//! What crosses the process boundary.
//!
//! Every sample is taken in a process of its own (see `run.rs`), so what
//! a pass measured travels from the sample process to the run process
//! as JSON: a [`Summary`] of the pass, wrapped in a [`Sample`] with the
//! host-time figures, or a [`ProbeReport`]. Numbers travel in flat
//! name → value bags; `u64` counts are exact in an `f64` below 2^53.

use std::collections::BTreeMap;

use pcsi_proto::Value;

use crate::spans::Span;
use crate::stats::{p99, percentile};
use crate::workloads::{Class, Role};

/// A flat bag of named numbers.
pub type Bag = BTreeMap<String, f64>;

/// One op class of a pass, reduced to what the metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStat {
    pub name: String,
    pub role: Role,
    pub attempted: u64,
    pub failed: u64,
    /// Ops recorded since the window opened, warm-up included.
    pub seen: u64,
    /// Successful timed ops, i.e. latency samples.
    pub samples: u64,
    /// Of those, the ones slower than the workload's latency limit.
    pub late: u64,
    pub p50_ns: u64,
    /// 0 when the class has fewer than 1,000 samples.
    pub p99_ns: u64,
}

impl ClassStat {
    /// Reduces `class` (latencies sorted) against latency limit `limit_ns`.
    pub fn of(class: &Class, limit_ns: u64) -> ClassStat {
        ClassStat {
            name: class.name.to_owned(),
            role: class.role,
            attempted: class.attempted,
            failed: class.failed,
            seen: class.seen,
            samples: class.lat_ns.len() as u64,
            late: class.lat_ns.iter().filter(|&&l| l > limit_ns).count() as u64,
            p50_ns: percentile(&class.lat_ns, 0.5).unwrap_or(0),
            p99_ns: p99(&class.lat_ns).unwrap_or(0),
        }
    }
}

/// What one pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Hash of everything that must repeat for a seed.
    pub digest: u64,
    /// Driver-issued ops completed inside the host window.
    pub ops: u64,
    /// Virtual length of the statistics window, seconds.
    pub sim_window_s: f64,
    /// Op classes; index 0 is the primary class.
    pub classes: Vec<ClassStat>,
    /// Layer counters across the host window (`polls`, `msgs`, ...).
    pub counts: Bag,
    /// Workload-specific layer values, already in their final unit.
    pub extra: Bag,
    /// Present in traced passes: what the program's own telemetry and
    /// the counting allocator yielded (`registry.<family>`, `vt.<layer>`,
    /// `spans`, `alloc_count`, ...).
    pub traced: Option<Bag>,
}

impl Summary {
    /// The class called `name`.
    pub fn class(&self, name: &str) -> Option<&ClassStat> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Attempts and failures over every driver-issued class.
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.classes
            .iter()
            .filter(|c| c.role != Role::Part)
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }

    /// Counter `name` across the window.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// What one sample process reports: one warm pass and a few timed ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The passes' common summary (they are asserted identical).
    pub summary: Summary,
    /// Host seconds from process start to the first timed pass.
    pub setup_s: f64,
    /// Calibrated and raw window seconds per op, one per timed pass.
    pub cost_s_per_op: Vec<f64>,
    pub raw_s_per_op: Vec<f64>,
    /// Every calibration kernel time, seconds.
    pub calib_s: Vec<f64>,
    /// `VmHWM` of the process at its end.
    pub peak_rss_mib: f64,
    /// The process's own host-time spans (traced runs).
    pub spans: Vec<Span>,
}

/// One probe's calibrated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStat {
    pub name: String,
    /// Calibrated nanoseconds of the probed loop, best repetition.
    pub ns: f64,
    pub units: u64,
    pub polls: u64,
    pub msgs: u64,
}

/// What the probe process reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    pub probes: Vec<ProbeStat>,
    /// Executor polls of each single-source ablation pass.
    pub ablation_polls: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

// ---- JSON -------------------------------------------------------------

fn int(n: u64) -> Value {
    Value::I64(n as i64)
}

fn bag(b: &Bag) -> Value {
    Value::object(b.iter().map(|(k, v)| (k.clone(), Value::F64(*v))))
}

fn reals(v: &[f64]) -> Value {
    Value::array(v.iter().map(|x| Value::F64(*x)))
}

/// Field access with errors that name the field.
pub struct Fields<'a>(pub &'a Value);

impl<'a> Fields<'a> {
    pub fn get(&self, key: &str) -> Result<&'a Value, String> {
        self.0.get(key).ok_or_else(|| format!("no field {key:?}"))
    }

    pub fn int(&self, key: &str) -> Result<u64, String> {
        let n = self
            .get(key)?
            .as_i64()
            .ok_or_else(|| format!("{key:?} is not an integer"))?;
        u64::try_from(n).map_err(|_| format!("{key:?} is negative"))
    }

    pub fn real(&self, key: &str) -> Result<f64, String> {
        self.get(key)?
            .as_f64()
            .ok_or_else(|| format!("{key:?} is not a number"))
    }

    pub fn text(&self, key: &str) -> Result<&'a str, String> {
        self.get(key)?
            .as_str()
            .ok_or_else(|| format!("{key:?} is not a string"))
    }

    pub fn flag(&self, key: &str) -> Result<bool, String> {
        self.get(key)?
            .as_bool()
            .ok_or_else(|| format!("{key:?} is not a boolean"))
    }

    pub fn list(&self, key: &str) -> Result<&'a [Value], String> {
        self.get(key)?
            .as_array()
            .ok_or_else(|| format!("{key:?} is not a list"))
    }

    pub fn reals(&self, key: &str) -> Result<Vec<f64>, String> {
        let item = |v: &Value| {
            v.as_f64()
                .ok_or_else(|| format!("{key:?} holds a non-number"))
        };
        self.list(key)?.iter().map(item).collect()
    }

    pub fn bag(&self, key: &str) -> Result<Bag, String> {
        let object = self
            .get(key)?
            .as_object()
            .ok_or_else(|| format!("{key:?} is not an object"))?;
        let entry = |(k, v): (&String, &Value)| match v.as_f64() {
            Some(x) => Ok((k.clone(), x)),
            None => Err(format!("{key:?}.{k:?} is not a number")),
        };
        object.iter().map(entry).collect()
    }

    /// A `u64` written as 16 hex digits (may not fit JSON's integers).
    pub fn hex(&self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.text(key)?, 16).map_err(|e| format!("{key:?}: {e}"))
    }
}

pub fn hex(n: u64) -> Value {
    Value::from(format!("{n:016x}"))
}

fn role_str(role: Role) -> &'static str {
    match role {
        Role::Primary => "primary",
        Role::Op => "op",
        Role::Part => "part",
    }
}

impl ClassStat {
    fn to_value(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name.as_str())),
            ("role", Value::from(role_str(self.role))),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            ("seen", int(self.seen)),
            ("samples", int(self.samples)),
            ("late", int(self.late)),
            ("p50_ns", int(self.p50_ns)),
            ("p99_ns", int(self.p99_ns)),
        ])
    }

    fn from_value(v: &Value) -> Result<ClassStat, String> {
        let f = Fields(v);
        Ok(ClassStat {
            name: f.text("name")?.to_owned(),
            role: match f.text("role")? {
                "primary" => Role::Primary,
                "op" => Role::Op,
                "part" => Role::Part,
                other => return Err(format!("unknown role {other:?}")),
            },
            attempted: f.int("attempted")?,
            failed: f.int("failed")?,
            seen: f.int("seen")?,
            samples: f.int("samples")?,
            late: f.int("late")?,
            p50_ns: f.int("p50_ns")?,
            p99_ns: f.int("p99_ns")?,
        })
    }
}

impl Summary {
    pub fn to_value(&self) -> Value {
        Value::object([
            ("digest", hex(self.digest)),
            ("ops", int(self.ops)),
            ("sim_window_s", Value::F64(self.sim_window_s)),
            (
                "classes",
                Value::array(self.classes.iter().map(ClassStat::to_value)),
            ),
            ("counts", bag(&self.counts)),
            ("extra", bag(&self.extra)),
            ("traced", self.traced.as_ref().map_or(Value::Null, bag)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Summary, String> {
        let f = Fields(v);
        Ok(Summary {
            digest: f.hex("digest")?,
            ops: f.int("ops")?,
            sim_window_s: f.real("sim_window_s")?,
            classes: f
                .list("classes")?
                .iter()
                .map(ClassStat::from_value)
                .collect::<Result<_, _>>()?,
            counts: f.bag("counts")?,
            extra: f.bag("extra")?,
            traced: match f.get("traced")? {
                Value::Null => None,
                _ => Some(f.bag("traced")?),
            },
        })
    }
}

pub fn span_to_value(s: &Span) -> Value {
    Value::object([
        ("id", int(u64::from(s.id))),
        (
            "parent",
            s.parent.map_or(Value::Null, |p| int(u64::from(p))),
        ),
        ("pass", int(u64::from(s.pass))),
        ("name", Value::from(s.name.as_str())),
        ("start_ns", int(s.start_ns)),
        ("end_ns", int(s.end_ns)),
    ])
}

fn span_from_value(v: &Value) -> Result<Span, String> {
    let f = Fields(v);
    let small = |key: &str| {
        f.int(key)
            .and_then(|n| u32::try_from(n).map_err(|e| format!("{key:?}: {e}")))
    };
    Ok(Span {
        id: small("id")?,
        parent: match f.get("parent")? {
            Value::Null => None,
            _ => Some(small("parent")?),
        },
        pass: small("pass")?,
        name: f.text("name")?.to_owned(),
        start_ns: f.int("start_ns")?,
        end_ns: f.int("end_ns")?,
    })
}

fn spans_to_value(spans: &[Span]) -> Value {
    Value::array(spans.iter().map(span_to_value))
}

fn spans_from(f: &Fields) -> Result<Vec<Span>, String> {
    f.list("spans")?.iter().map(span_from_value).collect()
}

impl Sample {
    pub fn to_value(&self) -> Value {
        Value::object([
            ("summary", self.summary.to_value()),
            ("setup_s", Value::F64(self.setup_s)),
            ("cost_s_per_op", reals(&self.cost_s_per_op)),
            ("raw_s_per_op", reals(&self.raw_s_per_op)),
            ("calib_s", reals(&self.calib_s)),
            ("peak_rss_mib", Value::F64(self.peak_rss_mib)),
            ("spans", spans_to_value(&self.spans)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Sample, String> {
        let f = Fields(v);
        Ok(Sample {
            summary: Summary::from_value(f.get("summary")?)?,
            setup_s: f.real("setup_s")?,
            cost_s_per_op: f.reals("cost_s_per_op")?,
            raw_s_per_op: f.reals("raw_s_per_op")?,
            calib_s: f.reals("calib_s")?,
            peak_rss_mib: f.real("peak_rss_mib")?,
            spans: spans_from(&f)?,
        })
    }
}

impl ProbeReport {
    pub fn to_value(&self) -> Value {
        let probe = |p: &ProbeStat| {
            Value::object([
                ("name", Value::from(p.name.as_str())),
                ("ns", Value::F64(p.ns)),
                ("units", int(p.units)),
                ("polls", int(p.polls)),
                ("msgs", int(p.msgs)),
            ])
        };
        Value::object([
            ("probes", Value::array(self.probes.iter().map(probe))),
            ("ablation_polls", bag(&self.ablation_polls)),
            ("spans", spans_to_value(&self.spans)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<ProbeReport, String> {
        let f = Fields(v);
        let probe = |v: &Value| {
            let p = Fields(v);
            Ok::<_, String>(ProbeStat {
                name: p.text("name")?.to_owned(),
                ns: p.real("ns")?,
                units: p.int("units")?,
                polls: p.int("polls")?,
                msgs: p.int("msgs")?,
            })
        };
        Ok(ProbeReport {
            probes: f
                .list("probes")?
                .iter()
                .map(probe)
                .collect::<Result<_, _>>()?,
            ablation_polls: f.bag("ablation_polls")?,
            spans: spans_from(&f)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_proto::json;

    pub fn summary() -> Summary {
        Summary {
            digest: 0xfeed_f00d_dead_beef,
            ops: 20_055,
            sim_window_s: 3.999_272_171,
            classes: vec![
                ClassStat {
                    name: "op".into(),
                    role: Role::Primary,
                    attempted: 16_037,
                    failed: 0,
                    seen: 20_055,
                    samples: 16_037,
                    late: 2,
                    p50_ns: 215_780,
                    p99_ns: 666_189,
                },
                ClassStat {
                    name: "lookup".into(),
                    role: Role::Part,
                    attempted: 900,
                    failed: 1,
                    seen: 1_100,
                    samples: 899,
                    late: 0,
                    p50_ns: 438_000,
                    p99_ns: 0,
                },
            ],
            counts: Bag::from([
                ("polls".to_owned(), 719_674.0),
                ("msgs".to_owned(), 116_354.0),
            ]),
            extra: Bag::from([("rest.stale_gets".to_owned(), 0.0)]),
            traced: Some(Bag::from([
                ("vt.net".to_owned(), 1.5e9),
                ("spans".to_owned(), 145_000.0),
            ])),
        }
    }

    #[test]
    fn sample_round_trips_through_the_proto_json_codec() {
        let span = Span {
            id: 4,
            parent: Some(3),
            pass: 1,
            name: "window".into(),
            start_ns: 10,
            end_ns: 9_000_000_000,
        };
        let sample = Sample {
            summary: summary(),
            setup_s: 2.125,
            cost_s_per_op: vec![4.1e-5, 4.3e-5],
            raw_s_per_op: vec![5.0e-5, 5.2e-5],
            calib_s: vec![0.09, 0.088, 0.091],
            peak_rss_mib: 171.5,
            spans: vec![
                span.clone(),
                Span {
                    parent: None,
                    ..span.clone()
                },
            ],
        };
        let text = json::encode(&sample.to_value());
        let back = Sample::from_value(&json::decode(&text).expect("own JSON parses"))
            .expect("own sample parses");
        assert_eq!(back, sample);
        assert_eq!(back.summary.class("lookup").map(|c| c.failed), Some(1));
        assert_eq!(back.summary.attempted_failed(), (16_037, 0));
        assert_eq!(back.summary.count("polls"), 719_674.0);
        assert_eq!(back.summary.count("absent"), 0.0);

        let untraced = Summary {
            traced: None,
            ..summary()
        };
        let text = json::encode(&untraced.to_value());
        assert_eq!(
            Summary::from_value(&json::decode(&text).expect("parses")).expect("parses"),
            untraced
        );
    }

    #[test]
    fn probe_report_round_trips_and_malformed_input_is_refused() {
        let report = ProbeReport {
            probes: vec![ProbeStat {
                name: "net".into(),
                ns: 8.25e6,
                units: 20_000,
                polls: 60_001,
                msgs: 20_000,
            }],
            ablation_polls: BTreeMap::from([("kv".to_owned(), 700_000.0)]),
            spans: Vec::new(),
        };
        let text = json::encode(&report.to_value());
        assert_eq!(
            ProbeReport::from_value(&json::decode(&text).expect("parses")).expect("parses"),
            report
        );
        assert!(Sample::from_value(&Value::Null).is_err());
        assert!(
            Summary::from_value(&json::decode(r#"{"digest":"xyz"}"#).expect("parses")).is_err()
        );
    }

    #[test]
    fn class_stats_apply_the_limit_and_the_p99_rule() {
        let class = Class {
            name: "op",
            role: Role::Primary,
            lat_ns: (1..=1_000).collect(),
            attempted: 1_003,
            failed: 3,
            seen: 1_200,
        };
        let stat = ClassStat::of(&class, 900);
        assert_eq!(
            (stat.samples, stat.late, stat.p50_ns, stat.p99_ns),
            (1_000, 100, 500, 990)
        );
        let small = Class {
            lat_ns: (1..=999).collect(),
            ..class
        };
        assert_eq!(ClassStat::of(&small, 900).p99_ns, 0);
    }
}
