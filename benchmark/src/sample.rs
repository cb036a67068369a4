//! The sample process: one fresh process per sample.
//!
//! A pass cannot be repeated indefinitely inside one process: `Sim`
//! keeps its task table alive through the handles its own background
//! tasks hold, so every pass's whole cloud stays allocated after the
//! pass (8 – 80 MiB per pass here), and passes get slower as the process
//! ages (+50 % over 50 passes of `macro_day`). A sample process
//! therefore runs one untimed warm pass — allocator, page tables and
//! branch predictors have then seen the whole schedule once — and a few
//! timed passes, each bracketed by the calibration kernel, and exits.
//! Every sample of a run starts from the same process state.

use std::time::{Duration, Instant};

use crate::calib::{calibrated_s, Calibrator};
use crate::probes;
use crate::spans::SpanRec;
use crate::summary::{ProbeReport, ProbeStat, Sample};
use crate::workloads::{self, Pass, Telemetry, Workload};

/// Repetitions of the probe group; each probe reports its best.
const PROBE_REPS: usize = 3;

fn plan(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    workloads::plan(workload, seed).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (known: {:?})",
            workloads::NAMES
        )
    })
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calibration kernel with its warm-up done and its times kept.
struct Calibration<'a> {
    kernel: Calibrator,
    rec: &'a SpanRec,
    times_s: Vec<f64>,
}

impl<'a> Calibration<'a> {
    fn new(rec: &'a SpanRec) -> Self {
        let kernel = Calibrator::new();
        // The first run faults the chase table in.
        kernel.run();
        Calibration {
            kernel,
            rec,
            times_s: Vec::new(),
        }
    }

    fn run(&mut self) -> Duration {
        let d = self.rec.span("calibrate", || self.kernel.run());
        self.times_s.push(d.as_secs_f64());
        d
    }
}

fn checked(pass: Pass) -> Result<Pass, String> {
    match pass.errors.first() {
        Some(first) => Err(format!("output check failed: {first}")),
        None => Ok(pass),
    }
}

/// One warm pass, then `timed` timed passes; `started` is the process's
/// first instant, from which set-up time counts.
pub fn sample(
    workload: &str,
    seed: u64,
    telemetry: Telemetry,
    timed: usize,
    started: Instant,
) -> Result<Sample, String> {
    let rec = SpanRec::new(telemetry == Telemetry::Traced);
    let mut calib = Calibration::new(&rec);
    let plan = plan(workload, seed)?;
    let warm = checked(plan.pass(telemetry, &rec))?;
    let mut bracket = calib.run();
    let setup_s = started.elapsed().as_secs_f64();

    let (mut cost_s_per_op, mut raw_s_per_op) = (Vec::new(), Vec::new());
    for i in 0..timed {
        rec.set_pass(i as u32 + 1);
        let pass = checked(plan.pass(telemetry, &rec))?;
        let after = calib.run();
        if pass.summary.digest != warm.summary.digest {
            return Err(format!(
                "pass digest {:016x} differs from the first pass's {:016x}: \
                 the schedule did not replay identically",
                pass.summary.digest, warm.summary.digest
            ));
        }
        let ops = pass.summary.ops as f64;
        cost_s_per_op.push(calibrated_s(pass.window_host, bracket, after) / ops);
        raw_s_per_op.push(pass.window_host.as_secs_f64() / ops);
        bracket = after;
    }
    Ok(Sample {
        summary: warm.summary,
        setup_s,
        cost_s_per_op,
        raw_s_per_op,
        calib_s: calib.times_s,
        peak_rss_mib: peak_rss_mib(),
        spans: rec.finished(),
    })
}

/// The layer probes, `PROBE_REPS` groups between calibrations (each
/// probe reports the best calibrated total of its repetitions), then
/// one untraced pass of each single-source ablation of the workload.
pub fn probe(workload: &str, seed: u64) -> Result<ProbeReport, String> {
    let rec = SpanRec::new(true);
    let mut calib = Calibration::new(&rec);
    let mut best: Vec<ProbeStat> = Vec::new();
    let mut before = calib.run();
    for _ in 0..PROBE_REPS {
        let group = probes::run_all(&rec);
        let after = calib.run();
        for (i, p) in group.into_iter().enumerate() {
            let stat = ProbeStat {
                name: p.name.to_owned(),
                ns: calibrated_s(p.host, before, after) * 1e9,
                units: p.units,
                polls: p.polls,
                msgs: p.msgs,
            };
            match best.get_mut(i) {
                Some(slot) if slot.ns <= stat.ns => {}
                Some(slot) => *slot = stat,
                None => best.push(stat),
            }
        }
        before = after;
    }
    let mut ablation_polls = std::collections::BTreeMap::new();
    for (i, (source, ablation)) in plan(workload, seed)?.ablations().into_iter().enumerate() {
        rec.set_pass(i as u32 + 1);
        let pass = checked(rec.span("ablation", || ablation.pass(Telemetry::Default, &rec)))?;
        ablation_polls.insert(source.to_owned(), pass.summary.count("polls"));
    }
    Ok(ProbeReport {
        probes: best,
        ablation_polls,
        spans: rec.finished(),
    })
}
