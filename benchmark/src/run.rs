//! One run of one workload: the run process spawns sample processes
//! (see `sample.rs`) until its time is up, asserts they all replayed
//! the identical schedule, and reduces their samples to metrics. A
//! traced run also spawns the probe process, alternates untraced and
//! traced sample processes, and writes the span file.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use pcsi_proto::{json, Value};

use crate::calib::NOMINAL_S;
use crate::report::{end_to_end, per_layer, HostSamples, LayerInputs, Metric, RunResult};
use crate::spans::{self_times, Span};
use crate::stats::{iqr_frac, median};
use crate::summary::{span_to_value, ProbeReport, Sample};

/// How long the timed phase lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// As many sample processes as fit in this many host seconds.
    Seconds(f64),
    /// Exactly this many timed passes (of each telemetry level).
    Passes(usize),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub length: Length,
    pub traced: bool,
}

/// Timed passes per sample process. Two: each process pays a warm pass
/// first, and by the third timed pass the process has aged measurably.
const TIMED_PER_SAMPLE: usize = 2;

/// The timed phase's clock and stop rule.
struct Budget {
    begun: Instant,
    length: Length,
    /// Fewest rounds a time-bounded run makes, however slow the host.
    min_rounds: usize,
}

impl Budget {
    /// Timed passes the next round's sample processes should make, after
    /// `rounds` rounds and `timed` timed passes; `None` to stop.
    fn next(&self, rounds: usize, timed: usize) -> Option<usize> {
        match self.length {
            Length::Passes(n) => (timed < n).then(|| TIMED_PER_SAMPLE.min(n - timed)),
            Length::Seconds(s) => {
                let spent = self.begun.elapsed().as_secs_f64();
                // Stop where one more round of average length would overrun.
                let fits = rounds < self.min_rounds || spent + spent / rounds as f64 <= s;
                fits.then_some(TIMED_PER_SAMPLE)
            }
        }
    }
}

/// Every span of the run's child processes on one clock.
struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_pass: u32,
}

impl SpanLog {
    /// Files a child's spans: times shifted to the run's clock, ids and
    /// pass ids made unique across children.
    fn absorb(&mut self, spawned: Instant, child: Vec<Span>) {
        let shift = spawned.duration_since(self.epoch).as_nanos() as u64;
        let id_base = self.spans.len() as u32;
        let pass_base = self.next_pass;
        for s in child {
            self.next_pass = self.next_pass.max(pass_base + s.pass + 1);
            self.spans.push(Span {
                id: id_base + s.id,
                parent: s.parent.map(|p| id_base + p),
                pass: pass_base + s.pass,
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                name: s.name,
            });
        }
    }
}

/// Runs this binary with `args`, waits for it, and parses the JSON
/// document it printed.
fn child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&exe)
        .args(args)
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{} {} failed ({}): {}",
            exe.display(),
            args.join(" "),
            out.status,
            stderr.trim()
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    json::decode(text.trim()).map_err(|e| format!("child output: {e}"))
}

/// Runs `opts.workload` and returns its result; `started` is the run
/// process's first instant.
pub fn run(opts: &Options, started: Instant, out_dir: &Path) -> Result<RunResult, String> {
    let common = [
        "--workload".to_owned(),
        opts.workload.clone(),
        "--seed".to_owned(),
        opts.seed.to_string(),
    ];
    let mut log = SpanLog {
        epoch: started,
        spans: Vec::new(),
        next_pass: 0,
    };
    let sample = |traced: bool, timed: usize, log: &mut SpanLog| -> Result<Sample, String> {
        let mut args = vec!["sample".to_owned()];
        args.extend_from_slice(&common);
        args.extend(["--passes".to_owned(), timed.to_string()]);
        if traced {
            args.push("--traced".to_owned());
        }
        let spawned = Instant::now();
        let mut sample = Sample::from_value(&child(&args)?)?;
        log.absorb(spawned, std::mem::take(&mut sample.spans));
        Ok(sample)
    };

    let lead_s = started.elapsed().as_secs_f64();
    let budget = Budget {
        begun: Instant::now(),
        length: opts.length,
        // A traced round is two sample processes, after the probes.
        min_rounds: if opts.traced { 1 } else { 2 },
    };
    let probes = if opts.traced {
        let mut args = vec!["probe".to_owned()];
        args.extend_from_slice(&common);
        let spawned = Instant::now();
        let mut report = ProbeReport::from_value(&child(&args)?)?;
        log.absorb(spawned, std::mem::take(&mut report.spans));
        Some(report)
    } else {
        None
    };

    let (mut untraced, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let (mut rounds, mut timed) = (0, 0);
    while let Some(n) = budget.next(rounds, timed) {
        untraced.push(sample(false, n, &mut log)?);
        if opts.traced {
            traced.push(sample(true, n, &mut log)?);
        }
        rounds += 1;
        timed += n;
    }
    let measured_s = budget.begun.elapsed().as_secs_f64();

    let agree = |samples: &[Sample]| match samples
        .iter()
        .find(|s| s.summary.digest != samples[0].summary.digest)
    {
        Some(odd) => Err(format!(
            "a sample's digest {:016x} differs from the first sample's {:016x}: \
             two processes did not replay the same schedule",
            odd.summary.digest, samples[0].summary.digest
        )),
        None => Ok(()),
    };
    agree(&untraced)?;
    agree(&traced)?;
    let host = |samples: &[Sample]| HostSamples {
        cost_s_per_op: samples
            .iter()
            .flat_map(|s| s.cost_s_per_op.iter().copied())
            .collect(),
        raw_s_per_op: samples
            .iter()
            .flat_map(|s| s.raw_s_per_op.iter().copied())
            .collect(),
        calib_s: samples
            .iter()
            .flat_map(|s| s.calib_s.iter().copied())
            .collect(),
    };
    let host_untraced = host(&untraced);
    let first = &untraced[0].summary;

    let (attempted, failed) = first.attempted_failed();
    let mut notes = first.extra.clone();
    let raw_us: Vec<f64> = host_untraced.raw_s_per_op.iter().map(|s| s * 1e6).collect();
    for (name, value) in [
        ("bench.calib_ms", median(&host_untraced.calib_s) * 1e3),
        ("bench.calib_nominal_ms", NOMINAL_S * 1e3),
        (
            "bench.host_us_per_op_raw_min",
            raw_us.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("bench.host_us_per_op_raw_median", median(&raw_us)),
        (
            "bench.pass_iqr_frac",
            iqr_frac(&host_untraced.cost_s_per_op),
        ),
        ("bench.ops_per_pass", first.ops as f64),
        ("bench.sim_window_s", first.sim_window_s),
        ("bench.sample_processes", untraced.len() as f64),
    ] {
        notes.insert(name.to_owned(), value);
    }

    let metrics = match &probes {
        None => {
            // Set-up as a user of one sample process sees it, the median
            // over this run's processes, plus the run process's own lead.
            let setups: Vec<f64> = untraced.iter().map(|s| s.setup_s).collect();
            let peak_rss = untraced.iter().map(|s| s.peak_rss_mib).fold(0.0, f64::max);
            end_to_end(
                first,
                &host_untraced,
                (lead_s + median(&setups), setups.len() as u64),
                peak_rss,
            )?
        }
        Some(probes) => {
            let metrics = per_layer(&LayerInputs {
                untraced: first,
                traced: &traced[0].summary,
                host_untraced: &host_untraced,
                host_traced: &host(&traced),
                probes,
            });
            write_trace(out_dir, opts, &log.spans, &traced[0], &metrics)?;
            metrics
        }
    };
    Ok(RunResult {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.traced,
        passes: timed as u64,
        measured_s,
        attempted,
        failed,
        digest: first.digest,
        metrics,
        notes,
    })
}

/// Writes `<workload>.trace.json`: the benchmark's own host-time spans
/// with their self times, the per-layer table, and one traced pass's
/// virtual self time by layer.
fn write_trace(
    out_dir: &Path,
    opts: &Options,
    spans: &[Span],
    traced: &Sample,
    metrics: &[Metric],
) -> Result<(), String> {
    let at: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let shaped: Vec<(u64, u64, Option<usize>)> = spans
        .iter()
        .map(|s| (s.start_ns, s.end_ns, s.parent.map(|p| at[&p])))
        .collect();
    let span_values = spans.iter().zip(self_times(&shaped)).map(|(s, self_ns)| {
        let mut value = span_to_value(s);
        if let Value::Object(fields) = &mut value {
            fields.insert("self_ns".to_owned(), Value::I64(self_ns as i64));
        }
        value
    });
    let telemetry = traced
        .summary
        .traced
        .as_ref()
        .expect("a traced sample carries telemetry");
    let vt = telemetry
        .iter()
        .filter_map(|(k, v)| Some((k.strip_prefix("vt.")?.to_owned(), Value::I64(*v as i64))));
    let doc = Value::object([
        ("workload", Value::from(opts.workload.as_str())),
        ("seed", Value::from(opts.seed.to_string())),
        ("spans", Value::array(span_values)),
        (
            "per_layer",
            Value::object(metrics.iter().map(|m| {
                let entry = [
                    ("value", Value::F64(m.value)),
                    ("unit", Value::from(m.unit.as_str())),
                    ("kind", Value::from(m.clock.as_str())),
                ];
                (m.name.clone(), Value::object(entry))
            })),
        ),
        ("vt_self_ns", Value::object(vt)),
    ]);
    let path = out_dir.join(format!("{}.trace.json", opts.workload));
    std::fs::write(&path, json::encode(&doc)).map_err(|e| format!("{}: {e}", path.display()))
}
