//! `compare <a.json> <b.json>`: the benchmark's own bounds applied to
//! two sets of runs.
//!
//! A file holds `{"runs": [...]}` — what `run --append` accumulates and
//! what `run --workload all` leaves in `out/all.json` — or one bare
//! run. For each workload × end-to-end metric the two sets' medians are
//! compared against the metric's bound; where either set's own spread
//! (interquartile range over its median) is wider than the bound, the
//! verdict is "unresolved", never "same" (`setup_s` excepted, as in the
//! driver's own acceptance rule).

use std::collections::BTreeMap;

use pcsi_proto::{json, Value};

use crate::report::RunResult;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{iqr_frac, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The one metric judged on medians alone, as the driver does: the
/// start-up of a one-second process is raw host time and spreads by
/// 10 – 25 % here, which its bound (the ceiling, 25 %) cannot outgrow.
const SPREAD_EXEMPT: &str = "setup_s";

/// Judges `b` against baseline `a` for one metric.
pub fn judge(spec: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let too_wide = |v: &[f64]| spec.name != SPREAD_EXEMPT && iqr_frac(v) > spec.bound;
    if too_wide(a) || too_wide(b) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // How much worse `b` is, as a share of the baseline.
    let worse_by = match spec.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Parses a result file's text into its runs.
pub fn parse_runs(text: &str) -> Result<Vec<RunResult>, String> {
    let v = json::decode(text).map_err(|e| e.to_string())?;
    match v.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().map(RunResult::from_value).collect(),
        None => Ok(vec![RunResult::from_value(&v)?]),
    }
}

type Samples = BTreeMap<(String, &'static str), Vec<f64>>;

fn samples(runs: &[RunResult]) -> Samples {
    let mut out = Samples::new();
    // End-to-end metrics are never read from a traced run.
    for run in runs.iter().filter(|r| !r.traced) {
        for spec in &END_TO_END {
            if let Some(v) = run.metric(spec.name) {
                out.entry((run.workload.clone(), spec.name))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// Prints one row per workload × metric; returns every verdict.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Vec<Verdict> {
    let (sa, sb) = (samples(a), samples(b));
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr", "bound"
    );
    let mut verdicts = Vec::new();
    for ((workload, metric), va) in &sa {
        let Some(vb) = sb.get(&(workload.clone(), *metric)) else {
            println!("{workload:<13} {metric:<18} missing from the second file");
            verdicts.push(Verdict::Unresolved);
            continue;
        };
        let spec = END_TO_END
            .iter()
            .find(|s| s.name == *metric)
            .expect("metric from the table");
        let verdict = judge(spec, va, vb);
        let (ma, mb) = (median(va), median(vb));
        println!(
            "{workload:<13} {metric:<18} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>6.1}%  {}",
            (mb - ma) / ma.abs() * 100.0,
            iqr_frac(va) * 100.0,
            iqr_frac(vb) * 100.0,
            spec.bound * 100.0,
            verdict.as_str()
        );
        verdicts.push(verdict);
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            clock: "host",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let host = spec(Better::Lower, 0.10);
        assert_eq!(judge(&host, &[100.0], &[105.0]), Verdict::Same);
        assert_eq!(judge(&host, &[100.0], &[111.0]), Verdict::Worse);
        assert_eq!(judge(&host, &[100.0], &[89.0]), Verdict::Better);
        let tput = spec(Better::Higher, 0.02);
        assert_eq!(judge(&tput, &[4000.0], &[3900.0]), Verdict::Worse);
        assert_eq!(judge(&tput, &[4000.0], &[4100.0]), Verdict::Better);
        assert_eq!(judge(&tput, &[4000.0], &[3990.0]), Verdict::Same);
        let ok = spec(Better::Higher, 0.001);
        assert_eq!(judge(&ok, &[1.0], &[1.0]), Verdict::Same);
        assert_eq!(judge(&ok, &[1.0], &[0.998]), Verdict::Worse);
        // The verdict rests on medians, not on single runs.
        assert_eq!(
            judge(&host, &[100.0, 100.0, 300.0], &[101.0, 99.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&host, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let host = spec(Better::Lower, 0.10);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let quiet = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(&host, &noisy, &quiet), Verdict::Unresolved);
        assert_eq!(judge(&host, &quiet, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&host, &quiet, &quiet), Verdict::Same);
        // Set-up time alone is judged on its medians whatever its spread.
        let setup = EndToEnd {
            name: SPREAD_EXEMPT,
            ..host
        };
        assert_eq!(judge(&setup, &noisy, &quiet), Verdict::Same);
        assert_eq!(
            judge(&setup, &quiet, &[130.0, 131.0, 129.0]),
            Verdict::Worse
        );
    }
}
