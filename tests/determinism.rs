//! Cross-crate integration: full-stack determinism.
//!
//! Every experiment in this repository must be exactly reproducible: the
//! same seed drives the same schedule, the same RNG draws, the same
//! placements, the same byte-level results. This test runs a busy
//! mixed workload twice per seed and compares fingerprints.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::workload::{boxed, drive_open_loop, RateShape};
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Consistency};
use pcsi_faas::function::{FunctionImage, WorkModel};
use pcsi_net::NodeId;
use pcsi_sim::Sim;

/// The universe fingerprint: final virtual time, fabric messages, poll
/// count, fabric bytes, issued requests, tail latency,
/// billing/cache/retry digest. Messages and polls are separate fields
/// so a drift shows which of the two moved.
type Fingerprint = (u64, u64, u64, u64, u64, u64, String);

/// Runs a mixed workload and returns a fingerprint of everything
/// observable: final virtual time, poll count, fabric traffic, latency
/// stats, billing.
fn run(seed: u64) -> Fingerprint {
    run_with(seed, None, false).0
}

/// The default deployment assembled through the layer constructors
/// `CloudBuilder::build` calls, with a tracer in the telemetry whatever
/// its sampling (the builder makes none for `Sampling::Off`).
fn deploy_traced(
    h: &pcsi_sim::SimHandle,
    sampling: pcsi_trace::Sampling,
    metrics: bool,
) -> pcsi_cloud::Cloud {
    use pcsi_net::{Fabric, LatencyModel, NetworkGeneration, Topology};

    let telemetry = pcsi_obs::Telemetry {
        metrics: metrics.then(pcsi_metrics::Metrics::new),
        tracer: Some(pcsi_trace::Tracer::new(h, sampling, 16384)),
        journal: None,
    };
    let fabric = Fabric::new(
        h.clone(),
        Topology::heterogeneous(2, 4),
        LatencyModel::new(NetworkGeneration::Dc2021),
    );
    if let Some(m) = &telemetry.metrics {
        fabric.set_metrics(m);
    }
    let store = pcsi_store::ReplicatedStore::launch(
        fabric.clone(),
        fabric.topology().node_ids(),
        pcsi_store::StoreConfig::default(),
        &telemetry,
    );
    let runtime = pcsi_faas::runtime::Runtime::new(
        h.clone(),
        pcsi_faas::cluster::ClusterState::new(fabric.topology()),
        pcsi_faas::runtime::RuntimeConfig::default(),
        &telemetry,
    );
    let billing = pcsi_cloud::billing::Billing::new();
    let kernel = pcsi_cloud::kernel::Kernel::new(
        fabric.clone(),
        store.clone(),
        runtime.clone(),
        billing.clone(),
        pcsi_faas::registry::Goal::Balanced,
        &telemetry,
    );
    pcsi_cloud::Cloud {
        fabric,
        store,
        runtime,
        billing,
        kernel,
        tracer: telemetry.tracer,
        metrics: telemetry.metrics,
        obs: None,
        alerts: None,
    }
}

/// Like [`run`], but optionally deploys with an explicit tracer (see
/// [`deploy_traced`]) and also returns how many trace ids the tracer
/// drew, plus — with `metrics` on — the rendered end-of-run metrics
/// snapshot.
fn run_with(
    seed: u64,
    sampling: Option<pcsi_trace::Sampling>,
    metrics: bool,
) -> (Fingerprint, u64, Option<String>) {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let (fingerprint, id_draws, snapshot) = sim.block_on(async move {
        let cloud = match sampling {
            None => CloudBuilder::new().metrics(metrics).build(&h),
            Some(s) => deploy_traced(&h, s, metrics),
        };
        let tracer = cloud.tracer.clone();
        cloud.kernel.register_body(
            "mix",
            Rc::new(|ctx| {
                Box::pin(async move {
                    // Touch explicit state and compute a little.
                    if let Some(input) = ctx.inputs.first() {
                        let data = ctx.data.read(input, 0, 64).await?;
                        ctx.compute(Duration::from_micros(u64::from(data[0]) * 10 + 50))
                            .await;
                    }
                    Ok(Bytes::from_static(b"done"))
                })
            }),
        );
        let c = cloud.kernel.client(NodeId(0), "det");
        let image = FunctionImage::simple("mix", WorkModel::fixed(Duration::from_micros(100)), 1);
        let f = c
            .create(CreateOptions::function(image.encode()))
            .await
            .unwrap();
        let blob = c
            .create(CreateOptions::regular().with_initial(vec![3u8; 256]))
            .await
            .unwrap();
        // Exercise the new read paths: one-RTT quorum reads on a
        // linearizable object and cache-served reads on an immutable one.
        let lin = c
            .create(
                CreateOptions::regular()
                    .with_consistency(Consistency::Linearizable)
                    .with_initial(vec![9u8; 512]),
            )
            .await
            .unwrap();
        let im = c
            .create(CreateOptions::immutable(vec![7u8; 128]))
            .await
            .unwrap();

        let rng = h.rng().stream("driver");
        let stats = drive_open_loop(
            &h,
            &rng,
            RateShape::OnOff {
                burst_rps: 400.0,
                idle_rps: 20.0,
                period: Duration::from_millis(500),
            },
            Duration::from_secs(3),
            {
                let c = c.clone();
                let f = f.clone();
                let blob = blob.clone();
                let lin = lin.clone();
                let im = im.clone();
                move |i| {
                    let c = c.clone();
                    let f = f.clone();
                    let blob = blob.clone();
                    let lin = lin.clone();
                    let im = im.clone();
                    boxed(async move {
                        if i % 3 == 0 {
                            c.write(&blob, i % 128, Bytes::from(vec![i as u8]))
                                .await
                                .map_err(|e| e.to_string())?;
                        }
                        if i % 2 == 0 {
                            c.read(&im, 0, 32).await.map_err(|e| e.to_string())?;
                        }
                        if i % 4 == 1 {
                            c.read(&lin, 0, 64).await.map_err(|e| e.to_string())?;
                        }
                        c.invoke(
                            &f,
                            InvokeRequest::with_body(Bytes::new())
                                .input(blob.attenuate(pcsi_core::Rights::READ).unwrap()),
                        )
                        .await
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                    })
                }
            },
        )
        .await;

        let invoice = cloud.billing.invoice("det");
        let cache = cloud.store.cache_stats();
        let retry = cloud.store.retry_stats();
        (
            (
                h.now().as_nanos(),
                cloud.fabric.message_count(),
                cloud.fabric.bytes_moved(),
                stats.issued.get(),
                stats.latency.quantile(0.99),
                format!(
                    "{:.12e}|cache {}/{}/{}|retry {}/{}/{}",
                    invoice.total(),
                    cache.hits,
                    cache.misses,
                    cache.evictions,
                    retry.retries,
                    retry.failovers,
                    retry.timeouts
                ),
            ),
            tracer.map_or(0, |t| t.id_draws()),
            cloud.metrics.as_ref().map(pcsi_metrics::Metrics::render),
        )
    });
    let polls = sim.poll_count();
    (
        (
            fingerprint.0,
            fingerprint.1,
            polls,
            fingerprint.2,
            fingerprint.3,
            fingerprint.4,
            fingerprint.5,
        ),
        id_draws,
        snapshot,
    )
}

#[test]
fn identical_seeds_produce_identical_universes() {
    let a = run(424242);
    let b = run(424242);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_diverge() {
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b);
}

/// A full chaos scenario — fault schedule, concurrent history, checker
/// verdict — is part of the reproducibility contract too: a failing
/// seed must replay byte-identically or it is useless for debugging.
#[test]
fn chaos_scenarios_fingerprint_identically_per_seed() {
    use pcsi_chaos::{run_scenario, ScenarioConfig};

    let cfg = ScenarioConfig::default();
    let a = run_scenario(0xC0FFEE, &cfg);
    let b = run_scenario(0xC0FFEE, &cfg);
    // The rendered report covers the injected fault schedule, every
    // operation's invoke/response interval, the observed values, and
    // the verdict — all of it must match byte for byte.
    assert_eq!(a.render(), b.render());
    assert_eq!(a.fingerprint(), b.fingerprint());

    let c = run_scenario(0xC0FFEF, &cfg);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds must explore different schedules"
    );
}

/// Live rebalancing is part of the reproducibility contract: a run in
/// which a node joins mid-flight, shards migrate across an epoch flip,
/// and nodes crash *during* the moves must replay byte-identically —
/// fault schedule, migration events, operation history, end-of-run
/// metrics snapshot, all of it. With tracing on, the span ids drawn
/// must match too (same id-draw count), so traced migration runs stay
/// as reproducible as untraced ones.
#[test]
fn rebalance_scenarios_fingerprint_identically_per_seed() {
    use pcsi_chaos::{run_scenario, FaultPlan, ScenarioConfig};

    let cfg = ScenarioConfig {
        plan: FaultPlan::Rebalance,
        ..ScenarioConfig::default()
    };
    let a = run_scenario(0x9EBA_0001, &cfg);
    let b = run_scenario(0x9EBA_0001, &cfg);
    assert!(
        a.faults.iter().any(|f| f.contains("join "))
            && a.faults.iter().any(|f| f.contains("drain-complete")),
        "the schedule never migrated:\n{}",
        a.render()
    );
    // render() embeds the fault schedule (join, crashes, drain), every
    // op interval, and the rendered metrics snapshot — byte-identical.
    assert_eq!(a.render(), b.render());
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.tail, b.tail, "end-of-run metrics snapshots differ");

    let traced = ScenarioConfig {
        sampling: pcsi_trace::Sampling::Always,
        ..cfg.clone()
    };
    let ta = run_scenario(0x9EBA_0001, &traced);
    let tb = run_scenario(0x9EBA_0001, &traced);
    assert_eq!(ta.render(), tb.render());
    assert_eq!(ta.fingerprint(), tb.fingerprint());

    let c = run_scenario(0x9EBA_0002, &cfg);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds must explore different migration schedules"
    );
}

/// The fault-recovery layer draws its backoff jitter from a dedicated
/// RNG stream, so a retried/failed-over run is as reproducible as a
/// healthy one: same seed + same fault schedule → the identical
/// sequence of retries, failovers and timeouts, down to the counters.
#[test]
fn retry_and_failover_traces_are_deterministic() {
    use pcsi_chaos::{run_scenario, FaultPlan, ScenarioConfig};

    let cfg = ScenarioConfig {
        plan: FaultPlan::Drops,
        ..ScenarioConfig::default()
    };
    let a = run_scenario(0x7E57_u64, &cfg);
    let b = run_scenario(0x7E57_u64, &cfg);
    assert!(
        a.count("retries") > 0,
        "the drop schedule must actually force retries:\n{}",
        a.render()
    );
    assert_eq!(a.body, b.body, "recovery counters must replay exactly");
    // The rendered report embeds the recovery counters, so the full
    // retry/backoff trace participates in the fingerprint contract.
    assert_eq!(a.render(), b.render());
    assert_eq!(a.fingerprint(), b.fingerprint());

    let c = run_scenario(0x7E58_u64, &cfg);
    assert_ne!(a.fingerprint(), c.fingerprint());
}

/// A tracer sampling at `Off` must be free: no trace ids drawn, and the
/// whole universe — virtual time, poll count, wire traffic, caching and
/// recovery counters — byte-identical to a run with no tracer at all.
#[test]
fn tracing_off_is_zero_overhead() {
    let (base, _, _) = run_with(90210, None, false);
    let (off, id_draws, _) = run_with(90210, Some(pcsi_trace::Sampling::Off), false);
    assert_eq!(id_draws, 0, "Off sampling must never draw a trace id");
    assert_eq!(
        base, off,
        "an attached-but-off tracer perturbed the simulation"
    );
}

/// The metrics registry draws no randomness and never touches virtual
/// time, so enabling it must leave the universe fingerprint — virtual
/// time, poll count, wire traffic, latency stats, billing — exactly
/// equal to the metrics-off baseline.
#[test]
fn metrics_are_zero_overhead_when_disabled_and_inert_when_enabled() {
    let (base, _, no_snapshot) = run_with(90210, None, false);
    assert!(no_snapshot.is_none(), "metrics-off run built a registry");
    let (on, _, snapshot) = run_with(90210, None, true);
    assert_eq!(
        base, on,
        "enabling the metrics registry perturbed the simulation"
    );
    let snapshot = snapshot.expect("metrics-on run must render a snapshot");
    assert!(snapshot.contains("kernel.ops"), "{snapshot}");
}

/// Two metrics-on runs of the same seed must render byte-identical
/// snapshots: every counter, every histogram bucket, every label, in
/// the same order. Different seeds must diverge.
#[test]
fn metrics_snapshots_fingerprint_identically_per_seed() {
    let (_, _, a) = run_with(424242, None, true);
    let (_, _, b) = run_with(424242, None, true);
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a, b, "same seed must render byte-identical snapshots");
    assert_eq!(pcsi_metrics::fingerprint(&a), pcsi_metrics::fingerprint(&b));

    let (_, _, c) = run_with(424243, None, true);
    assert_ne!(
        pcsi_metrics::fingerprint(&a),
        pcsi_metrics::fingerprint(&c.unwrap()),
        "different seeds must render different snapshots"
    );
}

/// Traces of a faulty run — spans for every retry, backoff and failover
/// — replay byte-identically per seed and diverge across seeds, so a
/// rendered trace from a failing run is as reproducible as the run.
#[test]
fn trace_fingerprints_are_deterministic_under_faults() {
    use pcsi_net::MessageFaults;
    use pcsi_trace::{fingerprint, render_spans, Sampling};

    fn traced_run(seed: u64) -> (String, u64) {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        sim.block_on(async move {
            let cloud = CloudBuilder::new().tracing(Sampling::Always).build(&h);
            let c = cloud.kernel.client(NodeId(0), "trc");
            let lin = c
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Linearizable)
                        .with_initial(vec![1u8; 256]),
                )
                .await
                .unwrap();
            // Heavy drops force retransmit timeouts, retries and
            // failovers; the recovery path must show up in the spans.
            cloud.fabric.set_message_faults(MessageFaults {
                drop: 0.2,
                ..MessageFaults::NONE
            });
            for i in 0..12u64 {
                let _ = c.write(&lin, 0, Bytes::from(vec![i as u8; 32])).await;
                let _ = c.read(&lin, 0, 32).await;
            }
            let retry = cloud.store.retry_stats();
            let spans = cloud.tracer.as_ref().unwrap().sink().snapshot();
            (
                render_spans(&spans),
                retry.retries + retry.failovers + retry.timeouts,
            )
        })
    }

    let (render_a, recoveries) = traced_run(0xF00D);
    assert!(
        recoveries > 0,
        "the drop schedule never exercised the recovery layer"
    );
    assert!(
        render_a.contains("store.backoff"),
        "retried ops must carry backoff spans:\n{render_a}"
    );
    let (render_b, _) = traced_run(0xF00D);
    assert_eq!(fingerprint(&render_a), fingerprint(&render_b));
    assert_eq!(render_a, render_b, "traces must replay byte-identically");
    let (render_c, _) = traced_run(0xF00E);
    assert_ne!(
        fingerprint(&render_a),
        fingerprint(&render_c),
        "different seeds must produce different traces"
    );
}

/// The predictive warm-pool autoscaler draws no randomness of its own:
/// scan ticks, EWMA updates, pre-warm boots, preemptions and steals are
/// all driven by virtual time and deterministic tie-breaks. An
/// autoscaled diurnal run must therefore replay byte-identically per
/// seed — including every `faas.*` counter — and diverge across seeds.
#[test]
fn autoscaled_diurnal_runs_fingerprint_identically() {
    fn run_autoscaled(seed: u64) -> (u64, u64, u64, u64, String) {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let fp = sim.block_on(async move {
            let cloud = CloudBuilder::new()
                .placement(pcsi_faas::PlacementPolicy::Scavenge)
                .preemption(true)
                .keep_alive(Duration::from_secs(1))
                .autoscale(pcsi_faas::AutoscaleConfig {
                    interval: Duration::from_millis(100),
                    window: Duration::from_secs(2),
                    ..pcsi_faas::AutoscaleConfig::enabled()
                })
                .build(&h);
            cloud.kernel.register_body(
                "mix",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        ctx.compute(Duration::from_millis(2)).await;
                        Ok(Bytes::from_static(b"done"))
                    })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "auto");
            let image = FunctionImage::simple("mix", WorkModel::fixed(Duration::from_millis(2)), 1);
            let f = c
                .create(CreateOptions::function(image.encode()))
                .await
                .unwrap();
            let rng = h.rng().stream("driver");
            let stats = drive_open_loop(
                &h,
                &rng,
                RateShape::Diurnal {
                    base_rps: 120.0,
                    amplitude_rps: 110.0,
                    day: Duration::from_secs(2),
                },
                Duration::from_secs(4),
                {
                    let c = c.clone();
                    let f = f.clone();
                    move |_| {
                        let c = c.clone();
                        let f = f.clone();
                        boxed(async move {
                            c.invoke(&f, InvokeRequest::with_body(Bytes::new()))
                                .await
                                .map(|_| ())
                                .map_err(|e| e.to_string())
                        })
                    }
                },
            )
            .await;
            let rt = &cloud.runtime;
            (
                h.now().as_nanos(),
                stats.issued.get(),
                stats.latency.quantile(0.99),
                format!(
                    "cold {} prewarm {} preempt {} steal {} fail {}",
                    rt.cold_starts(),
                    rt.prewarms(),
                    rt.preemptions(),
                    rt.rebalances(),
                    rt.failures(),
                ),
            )
        });
        (fp.0, sim.poll_count(), fp.1, fp.2, fp.3)
    }

    let a = run_autoscaled(0x00A5_CA1E);
    let b = run_autoscaled(0x00A5_CA1E);
    assert_eq!(a, b, "autoscaled run must replay byte-identically");
    assert!(
        a.4.contains("prewarm") && !a.4.contains("prewarm 0 "),
        "the diurnal ramp never triggered a predictive boot: {}",
        a.4
    );
    let c = run_autoscaled(0x00A5_CA1F);
    assert_ne!(a, c, "different seeds must diverge under autoscaling");
    assert_goldens(&[("autoscaled", format!("{a:?}"))]);
}

/// The observability chaos scenario — SLO rules evaluated on virtual
/// ticks, alert transitions streamed through a kernel FIFO, a journal
/// appended to by three layers, and an exemplar joined back to its
/// trace — replays byte-identically per seed and diverges across
/// seeds. The alert lifecycle itself (exactly pending → firing →
/// resolved per rule, stream == engine log) is asserted by the
/// report's own fidelity checks.
#[test]
fn obs_scenarios_fingerprint_identically_per_seed() {
    let a = pcsi_chaos::run_obs_scenario(0x0B51);
    let b = pcsi_chaos::run_obs_scenario(0x0B51);
    assert_eq!(
        a.render(),
        b.render(),
        "same seed must render byte-identical obs reports"
    );
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.ok(), "alert fidelity violated:\n{}", a.render());

    let c = pcsi_chaos::run_obs_scenario(0x0B52);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds must produce different obs reports"
    );
}

/// Golden fingerprints: pure mechanism swaps (scheduler, codec,
/// buffering) must not move the simulation by a single poll, byte, or
/// RNG draw, so [`GOLDENS`] pins the whole schedule. A row is
/// re-captured only when a PR *deliberately* changes the modeled
/// behavior. Any other drift is a bug.
#[test]
fn fingerprints_match_the_golden_values() {
    use pcsi_chaos::{run_scenario, run_stream_scenario, FaultPlan, ScenarioConfig};

    let plan = |plan| ScenarioConfig {
        plan,
        ..ScenarioConfig::default()
    };
    let hex = |fingerprint: u64| format!("{fingerprint:#018x}");
    let (_, _, snapshot) = run_with(90210, None, true);
    assert_goldens(&[
        ("mixed", format!("{:?}", run(424242))),
        (
            "chaos",
            hex(run_scenario(0xC0FFEE, &plan(FaultPlan::Mixed)).fingerprint()),
        ),
        (
            "drops",
            hex(run_scenario(0x7E57, &plan(FaultPlan::Drops)).fingerprint()),
        ),
        (
            "rebalance",
            hex(run_scenario(0x9EBA_0001, &plan(FaultPlan::Rebalance)).fingerprint()),
        ),
        (
            "metrics",
            hex(pcsi_metrics::fingerprint(&snapshot.unwrap())),
        ),
        (
            "stream",
            hex(run_stream_scenario(0x57BEA7, &Default::default()).fingerprint()),
        ),
        (
            "obs",
            hex(pcsi_chaos::run_obs_scenario(0x0B5E).fingerprint()),
        ),
    ]);
}

/// Every golden this suite pins, `name → value` as the run renders it:
/// the seven-field universe of [`run`], the autoscaled diurnal universe,
/// and the report / snapshot fingerprints.
///
/// * `mixed` dates from the consistent-hash sharding PR and survived the
///   autoscaler PR untouched — the predictive warm-pool machinery is
///   fully inert unless enabled.
/// * `autoscaled` (a diurnal workload over the Scavenge policy with
///   prediction, preemption and work stealing on) and the scenario /
///   `metrics` rows date from the autoscaler PR, when the runtime began
///   binding the `faas.failures`, `faas.preemptions`, `faas.prewarms`
///   and `faas.rebalances` series (at zero) into every rendered
///   snapshot. No schedule, RNG draw, or wire byte moved — only the
///   snapshot text.
/// * Both rows' poll fields were re-captured in PR 23 (`mixed` 53,553 →
///   23,987, `autoscaled` 23,828 → 11,315): a message's hops and a
///   deadline's expiry became timer events, so the task that awaits
///   them is polled once per message, not once per stage. Messages,
///   bytes, virtual time and every other field stayed.
/// * `stream` dates from the streaming PR that introduced the scenario:
///   drops plus a mid-stream subscriber kill over one FIFO's fan-out.
/// * `obs` was re-captured in PR 17, which moved the scenario's latency
///   rule from p90 to p99 (the p90 rule sat on the incident's own slow
///   fraction and flapped on one seed in seventy): a primary kill plus a
///   10% drop spike must walk both SLO rules through exactly pending →
///   firing → resolved, streamed losslessly through the `alerts` FIFO,
///   with the p99 offender joined back to its trace.
const GOLDENS: &[(&str, &str)] = &[
    (
        "mixed",
        r#"(3043445277, 8882, 23987, 454768, 620, 247463936, "5.979504589381e-4|cache 0/1705/0|retry 0/0/0")"#,
    ),
    (
        "autoscaled",
        r#"(4001897051, 11315, 462, 251658240, "cold 48 prewarm 3 preempt 0 steal 5 fail 0")"#,
    ),
    ("chaos", "0x6215d2ff8d01ad26"),
    ("drops", "0x27b4f910079ce5ca"),
    ("rebalance", "0x68ae1e506944bc56"),
    ("metrics", "0xaeff6bcd3a63d793"),
    ("stream", "0x0c03c8ff8361a885"),
    ("obs", "0x681523233efa95f5"),
];

/// Checks each `(name, value)` against its [`GOLDENS`] row and reports
/// every row that drifted, in the table's own syntax.
fn assert_goldens(rows: &[(&str, String)]) {
    let drifted: Vec<String> = rows
        .iter()
        .filter_map(|(name, got)| {
            let (_, want) = GOLDENS
                .iter()
                .find(|(golden, _)| golden == name)
                .unwrap_or_else(|| panic!("no golden named {name}"));
            (got != want).then(|| format!("    ({name:?}, {got:?}), // was {want:?}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} goldens drifted; if the change is deliberate these are the new rows:\n{}",
        drifted.len(),
        rows.len(),
        drifted.join("\n")
    );
}
