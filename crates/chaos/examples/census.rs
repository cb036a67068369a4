//! The chaos census: every register plan (the deliberately broken
//! `StaleReads` aside) and the stream scenario over 4,096 seeds from
//! `0xA11_0000_0000`, and the obs scenario over 256, one block per
//! plan. A block lists each failing seed with its op count and first
//! violation line, the client-error total, and one hash over every
//! rendered report, so an empty diff of `crates/chaos/CENSUS.txt`
//! proves that no schedule moved.
//!
//! ```text
//! cargo run --release -q -p pcsi-chaos --example census > crates/chaos/CENSUS.txt
//! ```

use pcsi_chaos::{run_obs_scenario, run_scenario, run_stream_scenario};
use pcsi_chaos::{FaultPlan, Report, ScenarioConfig};

const BASE: u64 = 0xA11_0000_0000;
const SEEDS: u64 = 4096;
const OBS_SEEDS: u64 = 256;

fn main() {
    println!("# chaos census: seeds from {BASE:#x}, {SEEDS} per plan ({OBS_SEEDS} for obs)");
    let plans = [
        FaultPlan::None,
        FaultPlan::CrashRestart,
        FaultPlan::PartitionHeal,
        FaultPlan::MessageFaults,
        FaultPlan::Mixed,
        FaultPlan::Drops,
        FaultPlan::Rebalance,
    ];
    for plan in plans {
        let cfg = ScenarioConfig {
            plan,
            ..ScenarioConfig::default()
        };
        census(&format!("{plan:?}"), SEEDS, |seed| run_scenario(seed, &cfg));
    }
    census("streaming", SEEDS, run_stream_scenario);
    census("obs", OBS_SEEDS, run_obs_scenario);
}

/// Runs `n` seeds of one family and prints its block.
fn census(name: &str, n: u64, run: impl Fn(u64) -> Report) {
    let (mut failing, mut errors, mut prints) = (Vec::new(), 0, String::new());
    for seed in BASE..BASE + n {
        let report = run(seed);
        if report.body.contains("client-errors=") {
            errors += report.count("client-errors");
        }
        prints.push_str(&format!("{:016x}\n", report.fingerprint()));
        if !report.ok() {
            let ops = if report.body.starts_with("ops ") {
                report.count("ops").to_string()
            } else {
                "-".to_owned()
            };
            let first = report.violations[0].lines().next().unwrap_or_default();
            failing.push(format!("  {seed} ops={ops} {first}"));
        }
    }
    let hash = pcsi_metrics::fingerprint(&prints);
    println!(
        "{name}: failing={} client-errors={errors} hash={hash:016x}",
        failing.len()
    );
    for line in failing {
        println!("{line}");
    }
}
