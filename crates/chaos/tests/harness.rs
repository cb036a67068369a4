//! Acceptance tests for the chaos harness.
//!
//! The linearizability checker must work both ways: accept every
//! history the (correct) store produces under seeded fault schedules,
//! and reject a deliberately injected freshness bug — with the failing
//! seed printed and byte-identically reproducible.

use pcsi_chaos::{
    run_scenario, run_stream_scenario, sweep_seeds, FaultPlan, ScenarioConfig, StreamScenarioConfig,
};
use pcsi_trace::Sampling;

#[test]
fn healthy_store_sweep_passes_all_checks() {
    // Mixed crash/partition/message-fault schedules over the sweep
    // (32 seeds by default; CHAOS_SEEDS widens it in CI). The store is
    // correct, so every history must linearize and every register must
    // converge.
    let seeds = sweep_seeds(0x5EED_0000, 32);
    for &seed in &seeds {
        let report = run_scenario(seed, &ScenarioConfig::default());
        assert!(
            report.ok(),
            "seed {seed} violated the contract:\n{}",
            report.render()
        );
    }
}

#[test]
fn every_fault_plan_passes_individually() {
    for plan in [
        FaultPlan::None,
        FaultPlan::CrashRestart,
        FaultPlan::PartitionHeal,
        FaultPlan::MessageFaults,
        FaultPlan::Drops,
        FaultPlan::Rebalance,
    ] {
        for seed in 7000..7003u64 {
            let report = run_scenario(
                seed,
                &ScenarioConfig {
                    plan,
                    ..ScenarioConfig::default()
                },
            );
            assert!(
                report.ok(),
                "plan {plan:?} seed {seed} violated the contract:\n{}",
                report.render()
            );
        }
    }
}

#[test]
fn drop_faults_are_fully_masked_by_client_recovery() {
    // 5% fabric-wide message drops for the whole run plus a repeatedly
    // crashing primary — yet a majority is always live, so the client
    // fault-recovery layer (deadlines, retries, failover) must mask
    // every fault: zero client-visible operation failures and fully
    // linearizable histories across the sweep (16 seeds by default;
    // CHAOS_SEEDS widens it in CI). Workers run wherever the seed puts
    // them, the crashing primary included; the one failure the scenario
    // does not count is an operation whose own client node was down at
    // some point of it (seed 3557359728). The recovery machinery must
    // also actually have fired — nonzero retries, failovers and timeouts
    // — otherwise the sweep is quietly testing a healthy network.
    let cfg = ScenarioConfig {
        plan: FaultPlan::Drops,
        ..ScenarioConfig::default()
    };
    let (mut retries, mut failovers, mut timeouts, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    for &seed in &sweep_seeds(0xD409_0000, 16) {
        let report = run_scenario(seed, &cfg);
        assert!(
            report.ok(),
            "seed {seed} violated the contract:\n{}",
            report.render()
        );
        assert_eq!(
            report.count("client-errors"),
            0,
            "seed {seed}: client-visible operation failures despite a live majority:\n{}",
            report.render()
        );
        retries += report.count("retries");
        failovers += report.count("failovers");
        timeouts += report.count("timeouts");
        dropped += report.count("dropped");
    }
    assert!(dropped > 0, "the drop schedule never dropped a message");
    assert!(
        retries > 0 && failovers > 0 && timeouts > 0,
        "recovery layer never exercised: retries={retries} failovers={failovers} timeouts={timeouts}"
    );
}

/// OPEN BUG, pinned — ROADMAP item 1(a)'s first half. The linearizable
/// menu item is not linearizable under `Drops` at these four seeds: no
/// client sees an error, yet the checker rejects one object's history (a
/// write is read back, a later write completes, later reads return the
/// earlier value again). Nobody has root-caused it. Until item 1 does,
/// this is the most schedule-sensitive pin the tree has: a change that
/// claims to move no message, timer or RNG draw must leave all four
/// verdicts, op counts included, exactly here. Item 1's fix turns this
/// assertion round (`report.ok()`, and the seeds join the sweep above).
#[test]
fn open_bug_item_1_drops_histories_that_do_not_linearize() {
    let cfg = ScenarioConfig {
        plan: FaultPlan::Drops,
        ..ScenarioConfig::default()
    };
    for (seed, ops) in [
        (3557361263u64, 27),
        (3557361289, 31),
        (3557361790, 29),
        (3557361805, 24),
    ] {
        let report = run_scenario(seed, &cfg);
        assert!(!report.ok(), "seed {seed} linearizes now: item 1 is fixed?");
        assert_eq!(report.count("client-errors"), 0, "seed {seed}");
        let verdict = format!("history of {ops} ops is not linearizable");
        assert!(
            report.violations.len() == 1 && report.violations[0].contains(&verdict),
            "seed {seed}: expected one violation saying {verdict:?}:\n{}",
            report.render()
        );
    }
}

#[test]
fn rebalance_sweep_survives_kills_and_drops_during_migration() {
    // Live rebalancing under fire: the spare node joins mid-run, shards
    // migrate across the epoch flip while 5% of all messages drop and
    // storage nodes crash and restart *during* the moves. Every history
    // must still linearize (no lost or duplicated appends, no stale
    // reads) and every register must converge on the post-join ring.
    // Unlike `Drops`, a handful of client-visible *retryable* failures
    // are legitimate here — a frozen object whose move is stalled by a
    // crashed old owner can outlast the 50 ms op deadline — but they
    // must stay rare (the bound below), and they must never corrupt
    // the history. 16 seeds by default; the CI `rebalance` job widens
    // it to 128 via CHAOS_SEEDS.
    let cfg = ScenarioConfig {
        plan: FaultPlan::Rebalance,
        ..ScenarioConfig::default()
    };
    let (mut crashes_mid_move, mut dropped) = (0u64, 0u64);
    let (mut errors, mut ops) = (0u64, 0u64);
    for &seed in &sweep_seeds(0x9EBA_0000, 16) {
        let report = run_scenario(seed, &cfg);
        assert!(
            report.ok(),
            "seed {seed} violated the contract:\n{}",
            report.render()
        );
        errors += report.count("client-errors");
        ops += report.count("ops");
        // The schedule must actually have interleaved: join begun, at
        // least one crash after it, and the drain completed.
        let join_at = report
            .faults
            .iter()
            .position(|f| f.contains("join "))
            .unwrap_or_else(|| panic!("seed {seed}: no join event"));
        assert!(
            report.faults.iter().any(|f| f.contains("drain-complete")),
            "seed {seed}: migration never completed:\n{}",
            report.render()
        );
        crashes_mid_move += report.faults[join_at..]
            .iter()
            .filter(|f| f.contains("crash "))
            .count() as u64;
        dropped += report.count("dropped");
    }
    assert!(
        dropped > 0,
        "the rebalance schedule never dropped a message"
    );
    assert!(
        crashes_mid_move > 0,
        "no node was ever killed during a migration window"
    );
    assert!(
        errors * 100 <= ops,
        "migration windows leaked too many client errors: {errors} of {ops} ops"
    );
}

#[test]
fn checker_rejects_injected_stale_reads_and_the_seed_reproduces() {
    // The saboteur reads a linearizable register through the eventual
    // (closest-replica) path from a partitioned-away replica — a
    // read-quorum freshness bypass the checker must catch.
    let cfg = ScenarioConfig {
        plan: FaultPlan::PartitionHeal,
        workers: 3,
        ops_per_worker: 20,
        lin_objects: 1,
        ev_objects: 0,
        inject_stale_reads: true,
        ..ScenarioConfig::default()
    };
    let mut failing = None;
    for seed in 0xBAD_0000..0xBAD_0010u64 {
        let report = run_scenario(seed, &cfg);
        if !report.ok() {
            failing = Some((seed, report));
            break;
        }
    }
    let (seed, first) = failing.expect("no seed surfaced the injected stale read");
    println!("failing seed {seed} (reproduce with run_scenario({seed}, ..))");
    assert!(
        first
            .violations
            .iter()
            .any(|v| v.contains("not linearizable")),
        "expected a linearizability violation:\n{}",
        first.render()
    );

    // Byte-identical reproduction: same seed, same config, same report.
    let again = run_scenario(seed, &cfg);
    assert_eq!(
        first.render(),
        again.render(),
        "failing seed must reproduce byte-identically"
    );
    assert_eq!(first.fingerprint(), again.fingerprint());
}

#[test]
fn violation_reports_carry_a_span_tree_when_traced() {
    // Same injected freshness bug, but with tracing on: the report of
    // the violating run must include the rendered span tree of an
    // operation on the violating object — the timeline a human debugs
    // from.
    let cfg = ScenarioConfig {
        plan: FaultPlan::PartitionHeal,
        workers: 3,
        ops_per_worker: 20,
        lin_objects: 1,
        ev_objects: 0,
        inject_stale_reads: true,
        sampling: Sampling::Always,
    };
    let mut failing = None;
    for seed in 0xBAD_0000..0xBAD_0010u64 {
        let report = run_scenario(seed, &cfg);
        if !report.ok() {
            failing = Some(report);
            break;
        }
    }
    let report = failing.expect("no seed surfaced the injected stale read");
    // The tail is the span tree, then the metrics snapshot.
    let (trace, _metrics) = report
        .tail
        .split_once("# pcsi-metrics snapshot")
        .expect("every scenario report ends in the metrics snapshot");
    assert!(
        trace.starts_with("trace of an operation"),
        "traced violation must carry a span tree:\n{trace}"
    );
    assert!(
        trace.contains("store.") || trace.contains("kernel."),
        "span tree should show the op's protocol stages:\n{trace}"
    );
}

#[test]
fn tracing_does_not_perturb_fault_schedules() {
    // Always-on tracing draws its span ids from a dedicated RNG stream,
    // so the seeded fault schedule — each event's kind, target and
    // spacing — is unchanged from the untraced run's. Two honest
    // differences remain, both because traced frames carry real extra
    // wire bytes (16-byte context + presence flag): setup finishes a
    // few ns later, shifting every event by one constant offset, and
    // the workload's stop time moves, so the driver may fit a different
    // number of events before its final heal-all. After rebasing to the
    // first event, one schedule must be a prefix of the other, and the
    // traced run must stay violation-free. CI runs this across the
    // sweep (CHAOS_SEEDS widens it).
    let schedule = |faults: &[String]| -> Vec<(u64, String)> {
        let parse = |l: &str| -> (u64, String) {
            let (t, what) = l
                .strip_prefix("t=")
                .and_then(|r| r.split_once("ns "))
                .expect("fault lines are `t=<ns>ns <what>`");
            (t.parse().expect("timestamp"), what.to_owned())
        };
        let events: Vec<_> = faults
            .iter()
            .filter(|l| !l.ends_with("heal-all"))
            .map(|l| parse(l))
            .collect();
        let base = events.first().map_or(0, |(t, _)| *t);
        events.into_iter().map(|(t, w)| (t - base, w)).collect()
    };
    for &seed in &sweep_seeds(0x7AC3_0000, 8) {
        let off = run_scenario(seed, &ScenarioConfig::default());
        let on = run_scenario(
            seed,
            &ScenarioConfig {
                sampling: Sampling::Always,
                ..ScenarioConfig::default()
            },
        );
        let (a, b) = (schedule(&off.faults), schedule(&on.faults));
        let n = a.len().min(b.len());
        assert_eq!(
            a[..n],
            b[..n],
            "seed {seed}: tracing changed the fault schedule"
        );
        assert_eq!(
            off.count("ops"),
            on.count("ops"),
            "seed {seed}: tracing changed the number of completed ops"
        );
        assert!(
            on.ok(),
            "seed {seed} violated the contract with tracing on:\n{}",
            on.render()
        );
    }
}

#[test]
fn reports_fingerprint_identically_per_seed_and_diverge_across_seeds() {
    let cfg = ScenarioConfig::default();
    let a = run_scenario(31337, &cfg);
    let b = run_scenario(31337, &cfg);
    assert_eq!(a.render(), b.render());
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run_scenario(31338, &cfg);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds should produce different histories"
    );
}

#[test]
fn mixed_plan_actually_exercises_message_faults() {
    // Over a handful of seeds the mixed schedule must have injected
    // at least one drop/duplicate/delay somewhere — otherwise the
    // sweep is quietly testing a healthy network.
    let (mut dropped, mut duplicated, mut delayed) = (0u64, 0u64, 0u64);
    for seed in 4000..4006u64 {
        let report = run_scenario(seed, &ScenarioConfig::default());
        dropped += report.count("dropped");
        duplicated += report.count("duplicated");
        delayed += report.count("delayed");
    }
    assert!(
        dropped > 0 && duplicated > 0 && delayed > 0,
        "message faults never fired: {dropped}/{duplicated}/{delayed}"
    );
}

#[test]
fn streaming_sweep_survives_drops_and_subscriber_kill() {
    // Fabric-wide drops plus one subscriber killed silently mid-stream
    // (16 seeds by default; CHAOS_SEEDS widens it in CI). Survivors
    // must see every event exactly once and in order, every buffer
    // must stay within its credit window, and the owner must end fully
    // drained. The schedule must also provably have fired: messages
    // dropped, credit backpressure hit, and retransmit dedup exercised
    // somewhere across the sweep.
    let cfg = StreamScenarioConfig::default();
    let (mut dropped, mut stalls, mut dups) = (0u64, 0u64, 0u64);
    for &seed in &sweep_seeds(0x57F0_0000, 16) {
        let report = run_stream_scenario(seed, &cfg);
        assert!(
            report.ok(),
            "seed {seed} violated the streaming contract:\n{}",
            report.render()
        );
        let killed: Vec<_> = report
            .body
            .lines()
            .filter(|l| l.contains(" killed=true "))
            .collect();
        assert_eq!(killed.len(), 1, "seed {seed}: kill never happened");
        assert!(
            killed[0].ends_with(" close=subscriber-lost"),
            "seed {seed}: killed subscriber closed otherwise: {}",
            killed[0]
        );
        dropped += report.count("dropped");
        stalls += report.count("stalls");
        dups += report.count("dups");
    }
    assert!(dropped > 0, "the drop schedule never dropped a message");
    assert!(stalls > 0, "credit backpressure never fired");
    assert!(
        dups > 0,
        "no retransmit was ever deduped — drops missed the push path"
    );
}

#[test]
fn streaming_scenario_reproduces_byte_identically() {
    let cfg = StreamScenarioConfig::default();
    let a = run_stream_scenario(0x57F0_1234, &cfg);
    let b = run_stream_scenario(0x57F0_1234, &cfg);
    assert_eq!(a.render(), b.render());
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run_stream_scenario(0x57F0_1235, &cfg);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds should produce different streams"
    );
}
