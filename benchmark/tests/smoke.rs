//! End-to-end smoke: every workload runs two timed passes untraced and
//! traced, passes its output checks, and prints every workload and
//! metric name `BENCHMARK.json` lists.

use std::path::PathBuf;
use std::process::Command;

use pcsi_proto::{json, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::decode(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    let list = doc
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"));
    let name = |entry: &Value| {
        entry
            .get("name")
            .and_then(Value::as_str)
            .expect("entry has a name")
            .to_owned()
    };
    list.iter().map(name).collect()
}

/// Runs the benchmark binary from a scratch directory of this test's
/// own (it writes `out/` under its working directory) and returns its
/// standard output.
fn run(scratch: &str, args: &[&str]) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(scratch);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_pcsi-benchmark"))
        .current_dir(&dir)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

/// The run's closing JSON line.
fn last_line(stdout: &str) -> Value {
    json::decode(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn smoke(workload: &str) {
    let doc = benchmark_json();
    assert!(names(&doc, "workloads").iter().any(|w| w == workload));
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(
            workload,
            &[
                "run",
                "--workload",
                workload,
                "--passes",
                "2",
                "--trace",
                trace,
            ],
        );
        assert!(
            stdout.contains(&format!("workload {workload} ")),
            "{workload} not named"
        );
        let line = last_line(&stdout);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(
            line.get("attempted")
                .and_then(Value::as_i64)
                .expect("attempted")
                >= 1
        );
        assert_eq!(line.get("failed").and_then(Value::as_i64), Some(0));
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let listed = names(&doc, key);
        for name in &listed {
            assert!(
                metrics.contains_key(name),
                "{workload} --trace {trace}: {name} missing from the JSON line"
            );
            assert!(
                stdout.contains(&format!("  {name} ")),
                "{workload} --trace {trace}: {name} not printed"
            );
        }
        assert_eq!(
            metrics.len(),
            listed.len(),
            "{workload} --trace {trace}: metrics beyond {key}"
        );
        if trace == "0" {
            for (name, m) in metrics {
                let v = m.get("value").and_then(Value::as_f64).expect("value");
                assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
            }
        } else {
            // Host shares and their remainder account for the whole window.
            let share = |n: &str| {
                metrics[n]
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("share")
            };
            let total: f64 = metrics
                .keys()
                .filter(|k| k.ends_with(".host_share"))
                .map(|k| share(k))
                .sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{workload}: host shares sum to {total}"
            );
            let vt: f64 = metrics
                .keys()
                .filter(|k| k.ends_with("vt_share") || k.ends_with("vt_protocol_share"))
                .map(|k| share(k))
                .sum();
            assert!(
                (vt - 1.0).abs() < 1e-9,
                "{workload}: virtual-time shares sum to {vt}"
            );
            let trace_file = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(workload)
                .join(format!("out/{workload}.trace.json"));
            let spans = json::decode(&std::fs::read_to_string(trace_file).expect("span file"))
                .expect("span file parses");
            assert!(spans
                .get("spans")
                .and_then(Value::as_array)
                .is_some_and(|s| !s.is_empty()));
        }
    }
}

#[test]
fn kv_mixed_smoke() {
    smoke("kv_mixed");
}

#[test]
fn rest_kv_smoke() {
    smoke("rest_kv");
}

#[test]
fn faas_diurnal_smoke() {
    smoke("faas_diurnal");
}

#[test]
fn macro_day_smoke() {
    smoke("macro_day");
}

/// The six virtual and count metrics repeat exactly across two
/// processes with one seed, and move with the seed.
#[test]
fn virtual_metrics_repeat_for_a_seed_and_move_with_it() {
    const EXACT: [&str; 6] = [
        "op_p50_us",
        "op_p99_us",
        "sim_ops_per_s",
        "slo_met_frac",
        "ok_frac",
        "sim_events_per_op",
    ];
    let exact = |seed: &str| {
        let stdout = run(
            "repeat",
            &[
                "run",
                "--workload",
                "rest_kv",
                "--passes",
                "1",
                "--seed",
                seed,
            ],
        );
        let line = last_line(&stdout);
        let metric = |n: &str| {
            line.get("metrics")
                .and_then(|m| m.get(n))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        EXACT.map(|n| metric(n).expect("metric").to_bits())
    };
    let (a, b, c) = (exact("7"), exact("7"), exact("8"));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn compare_flags_a_regression() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let run_with = |host_us: f64| {
        format!(
            r#"{{"workload":"kv_mixed","seed":"1","traced":false,"passes":3,"measured_s":1.0,
                "attempted":10,"failed":0,"digest":"00000000000000ab","notes":{{}},
                "metrics":{{"host_us_per_op":{{"value":{host_us:?},"unit":"us","clock":"host, calibrated","samples":3}}}}}}"#
        )
    };
    std::fs::write(dir.join("a.json"), run_with(40.0)).expect("write");
    std::fs::write(
        dir.join("same.json"),
        format!(r#"{{"runs":[{}]}}"#, run_with(41.0)),
    )
    .expect("write");
    std::fs::write(dir.join("worse.json"), run_with(60.0)).expect("write");
    let compare = |b: &str| {
        Command::new(env!("CARGO_BIN_EXE_pcsi-benchmark"))
            .current_dir(&dir)
            .args(["compare", "a.json", b])
            .output()
            .expect("benchmark binary runs")
    };
    let same = compare("same.json");
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("same"));
    let worse = compare("worse.json");
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("worse"));
    assert_eq!(compare("missing.json").status.code(), Some(2));
}
