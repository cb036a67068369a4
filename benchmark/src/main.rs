//! The repo benchmark.
//!
//! ```text
//! pcsi-benchmark run --workload <name|all> [--seed N] [--seconds S | --passes P]
//!                    [--traced | --trace <0|1>] [--append <file.json>]
//! pcsi-benchmark compare <a.json> <b.json>
//! pcsi-benchmark spec
//! ```
//!
//! `run` measures one workload (or, with `all`, each of the four in
//! turn), checks its outputs, prints every metric by name and ends with
//! one JSON line; every sample it takes runs in a child process of its
//! own (`sample` and `probe` are those children's entry points).
//! `compare` applies the benchmark's bounds to two result files. See
//! `README.md`.

mod alloc;
mod calib;
mod compare;
mod probes;
mod report;
mod run;
mod sample;
mod spans;
mod spec;
mod stats;
mod summary;
mod vt;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pcsi_proto::{json, Value};

use crate::compare::Verdict;
use crate::report::RunResult;
use crate::run::{Length, Options};
use crate::workloads::Telemetry;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed of `BENCH_10.json`.
const DEFAULT_SEED: u64 = 1_380_275_028;
/// The run length `BENCHMARK.json` asks the driver for.
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

const USAGE: &str = "usage:
  pcsi-benchmark run --workload <kv_mixed|rest_kv|faas_diurnal|macro_day|all>
                     [--seed N] [--seconds S | --passes P] [--traced | --trace <0|1>]
                     [--append <file.json>]
  pcsi-benchmark compare <a.json> <b.json>
  pcsi-benchmark spec            (prints what BENCHMARK.json must hold)";

struct RunArgs {
    options: Options,
    append: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut length = Length::Seconds(DEFAULT_SECONDS);
    let mut traced = false;
    let mut append = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                length = Length::Seconds(s);
            }
            "--passes" => {
                let p: usize = value()?.parse().map_err(|e| format!("--passes: {e}"))?;
                if !(1..=10_000).contains(&p) {
                    return Err("--passes must be in 1..=10000".into());
                }
                length = Length::Passes(p);
            }
            "--traced" => traced = true,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--append" => append = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            length,
            traced,
        },
        append,
    })
}

/// `benchmark/out` from the repo root, `out` from inside `benchmark/`.
fn out_dir() -> Result<PathBuf, String> {
    let dir = if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn result_path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    dir.join(format!(
        "{workload}{}.json",
        if traced { ".layers" } else { "" }
    ))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    std::fs::write(path, json::encode(value)).map_err(|e| format!("{}: {e}", path.display()))
}

fn runs_value(runs: &[RunResult]) -> Value {
    Value::object([("runs", Value::array(runs.iter().map(RunResult::to_value)))])
}

/// Adds `runs` to the `{"runs": [...]}` file at `path`, creating it.
fn append_runs(path: &Path, runs: &[RunResult]) -> Result<(), String> {
    let mut all = match std::fs::read_to_string(path) {
        Ok(text) => compare::parse_runs(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    all.extend_from_slice(runs);
    write_json(path, &runs_value(&all))
}

/// Runs each named workload in turn and prints its table; the last
/// line of output is the driver's JSON line (metric names prefixed with
/// the workload when there are several).
fn run_workloads(args: &RunArgs, started: Instant) -> Result<(), String> {
    let dir = out_dir()?;
    let all = args.options.workload == "all";
    let names: Vec<&str> = if all {
        workloads::NAMES.to_vec()
    } else {
        vec![&args.options.workload]
    };
    let mut results = Vec::new();
    for name in names {
        let options = Options {
            workload: name.to_owned(),
            ..args.options.clone()
        };
        // Each workload's set-up counts from its own beginning.
        let began = if results.is_empty() {
            started
        } else {
            Instant::now()
        };
        let result = run::run(&options, began, &dir)?;
        result.print();
        write_json(&result_path(&dir, name, result.traced), &result.to_value())?;
        results.push(result);
    }
    if all {
        write_json(
            &result_path(&dir, "all", args.options.traced),
            &runs_value(&results),
        )?;
    }
    if let Some(path) = &args.append {
        append_runs(path, &results)?;
    }
    let prefix = |r: &RunResult| {
        if all {
            format!("{}.", r.workload)
        } else {
            String::new()
        }
    };
    let metrics = results
        .iter()
        .flat_map(|r| r.metrics.iter().map(move |m| (prefix(r) + &m.name, m)));
    println!(
        "{}",
        report::contract_line(
            results.iter().map(|r| r.attempted).sum(),
            results.iter().map(|r| r.failed).sum(),
            metrics,
        )
    );
    Ok(())
}

/// The `sample` and `probe` subcommands: what the run process spawns,
/// with `run`'s own flags (`--passes` = timed passes of this process).
/// They print one JSON document and nothing else.
fn child_process(cmd: &str, args: &RunArgs, started: Instant) -> Result<(), String> {
    let Options {
        workload,
        seed,
        length,
        traced,
    } = &args.options;
    let document = match (cmd, length) {
        ("sample", Length::Passes(timed)) => {
            let telemetry = if *traced {
                Telemetry::Traced
            } else {
                Telemetry::Default
            };
            sample::sample(workload, *seed, telemetry, *timed, started)?.to_value()
        }
        ("sample", Length::Seconds(_)) => return Err("sample takes --passes".into()),
        _ => sample::probe(workload, *seed)?.to_value(),
    };
    println!("{}", json::encode(&document));
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{p}: {e}"))
    };
    let verdicts = compare::compare(&read(a)?, &read(b)?);
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    println!(
        "{} same, {} better, {} worse, {} unresolved",
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest)
            .and_then(|parsed| run_workloads(&parsed, started))
            .map(|()| true),
        Some((cmd, rest)) if cmd == "sample" || cmd == "probe" => parse_run(rest)
            .and_then(|parsed| child_process(cmd, &parsed, started))
            .map(|()| true),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            compare_files(&rest[0], &rest[1])
        }
        Some((cmd, [])) if cmd == "spec" => {
            println!("{}", json::encode(&spec::benchmark_json()));
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pcsi-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
