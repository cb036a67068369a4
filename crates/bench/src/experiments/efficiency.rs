//! E5 — §4.2: scavenged pay-per-use vs a peak-provisioned fleet.
//!
//! "Rather than wait for a large enough server ... the provider is free
//! to scavenge underutilized resources from around the cluster for each
//! function independently. Even though this may affect performance, it
//! makes much more efficient use of expensive resources."
//!
//! Both modes serve the *same* bursty open-loop workload. The dedicated
//! fleet is sized for the peak with standard 2× headroom and paid for
//! every second; the scavenged mode scales from zero, pays cold starts at
//! burst fronts, and is billed only for held instance-time. Reported:
//! dollars, efficiency (useful-work seconds / paid seconds), p99, and
//! SLO attainment.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::workload::{boxed, drive_open_loop, RateShape, RunStats};
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::CloudInterface;
use pcsi_faas::autoscale::AutoscaleConfig;
use pcsi_faas::function::{FunctionImage, Variant, WorkModel};
use pcsi_faas::registry;
use pcsi_faas::scheduler::PlacementPolicy;
use pcsi_faas::TaskGraph;
use pcsi_net::node::Resources;
use pcsi_net::NodeId;

/// Per-invocation work and footprint of the benchmark function.
pub const WORK: Duration = Duration::from_millis(20);
/// Cores per instance.
pub const CORES: u32 = 2;

/// Provisioning mode under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// PCSI serverless: scale from zero, scavenging placement, short
    /// keep-alive.
    Scavenged,
    /// Dedicated fleet: pre-warmed for peak, never scaled down.
    Dedicated,
}

impl Mode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Scavenged => "PCSI scavenged (pay-per-use)",
            Mode::Dedicated => "dedicated fleet (peak-provisioned)",
        }
    }
}

/// Results for one mode.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// Which mode.
    pub mode: Mode,
    /// Requests completed.
    pub completed: u64,
    /// p50 latency (ns).
    pub p50_ns: u64,
    /// p99 latency (ns).
    pub p99_ns: u64,
    /// p99.9 latency (ns) — where burst-front cold starts live.
    pub p999_ns: u64,
    /// Fraction of requests within the SLO.
    pub slo_attainment: f64,
    /// Dollars paid for compute over the run.
    pub cost_usd: f64,
    /// Useful-work core-seconds / paid core-seconds.
    pub efficiency: f64,
    /// Cold starts paid.
    pub cold_starts: u64,
}

/// The workload: 10 s bursts at `burst_rps` alternating with near-idle.
fn shape(burst_rps: f64) -> RateShape {
    RateShape::OnOff {
        burst_rps,
        idle_rps: burst_rps / 50.0,
        period: Duration::from_secs(10),
    }
}

/// The SLO both modes are judged against.
pub const SLO: Duration = Duration::from_millis(300);

/// Runs one mode.
pub fn run_mode(seed: u64, mode: Mode, burst_rps: f64, run_for: Duration) -> ModeResult {
    let (policy, keep_alive) = match mode {
        Mode::Scavenged => (PlacementPolicy::Scavenge, Duration::from_secs(3)),
        Mode::Dedicated => (PlacementPolicy::LoadBalance, Duration::from_secs(100_000)),
    };
    let builder = CloudBuilder::new().placement(policy).keep_alive(keep_alive);
    Lab::run(seed, builder, move |lab| async move {
        let (cloud, h) = (&lab.cloud, &lab.h);
        cloud.kernel.register_body(
            "svc",
            Rc::new(|ctx| {
                Box::pin(async move {
                    ctx.compute(WORK).await;
                    Ok(Bytes::new())
                })
            }),
        );
        let client = cloud.kernel.client(NodeId(0), "svc-acct");
        let image = FunctionImage::simple("svc", WorkModel::fixed(WORK), CORES);
        let f = client
            .create(CreateOptions::function(image.encode()))
            .await
            .unwrap();

        // Peak sizing: concurrent demand at the burst = rps x service
        // time; 3x headroom absorbs Poisson spikes (the point of a
        // dedicated fleet is that it never boots under load).
        let peak_instances = ((burst_rps * WORK.as_secs_f64()) * 3.0).ceil().max(1.0) as usize;

        if mode == Mode::Dedicated {
            // Pre-warm the fleet: one concurrent invocation per instance.
            let mut joins = Vec::new();
            for _ in 0..peak_instances {
                let c = client.clone();
                let f = f.clone();
                joins.push(h.spawn(async move {
                    c.invoke(&f, InvokeRequest::default()).await.unwrap();
                }));
            }
            for j in joins {
                j.await;
            }
        }
        let warmup_cold = cloud.runtime.cold_starts();
        let billed_before = cloud.billing.invoice("svc-acct").compute;

        let rng = h.rng().stream("efficiency-driver");
        let t_start = h.now();
        let stats = drive_open_loop(h, &rng, shape(burst_rps), run_for, {
            let client = client.clone();
            let f = f.clone();
            move |_| {
                let client = client.clone();
                let f = f.clone();
                boxed(async move {
                    client
                        .invoke(&f, InvokeRequest::default())
                        .await
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
            }
        })
        .await;
        let elapsed = h.now() - t_start;

        // Paid core-seconds.
        let rate = registry::rate(&Resources::cpu(CORES, 2 * CORES));
        let (cost, paid_core_s) = match mode {
            Mode::Scavenged => {
                // Billed per held instance-time (the meter already saw it).
                let usd = cloud.billing.invoice("svc-acct").compute - billed_before;
                (usd, usd / (rate / f64::from(CORES)))
            }
            Mode::Dedicated => {
                // The fleet is paid for wall time regardless of use.
                let core_s = f64::from(CORES) * peak_instances as f64 * elapsed.as_secs_f64();
                let usd = rate * peak_instances as f64 * elapsed.as_secs_f64();
                (usd, core_s)
            }
        };
        let useful_core_s = stats.ok.get() as f64 * WORK.as_secs_f64() * f64::from(CORES);

        ModeResult {
            mode,
            completed: stats.ok.get(),
            p50_ns: stats.latency.quantile(0.50),
            p99_ns: stats.latency.quantile(0.99),
            p999_ns: stats.latency.quantile(0.999),
            slo_attainment: stats.slo_attainment(SLO),
            cost_usd: cost,
            efficiency: (useful_core_s / paid_core_s).min(1.0),
            cold_starts: cloud.runtime.cold_starts() - warmup_cold,
        }
    })
}

/// Runs both modes on identical workloads.
pub fn run(seed: u64, burst_rps: f64, run_for: Duration) -> (ModeResult, ModeResult) {
    (
        run_mode(seed, Mode::Scavenged, burst_rps, run_for),
        run_mode(seed, Mode::Dedicated, burst_rps, run_for),
    )
}

/// One sweep point: burstiness vs the cost advantage of scavenging.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Burst rate (requests per second during the on-phase).
    pub burst_rps: f64,
    /// Dedicated-fleet cost / scavenged cost.
    pub cost_advantage: f64,
    /// Scavenged-mode SLO attainment.
    pub scavenged_slo: f64,
}

/// Sweeps burst intensity: the spikier the load, the more a fleet sized
/// for the peak wastes, and the bigger scavenging's advantage.
pub fn sweep(seed: u64, run_for: Duration) -> Vec<SweepPoint> {
    [50.0f64, 100.0, 200.0, 400.0]
        .into_iter()
        .map(|burst_rps| {
            let (s, d) = run(seed, burst_rps, run_for);
            SweepPoint {
                burst_rps,
                cost_advantage: d.cost_usd / s.cost_usd,
                scavenged_slo: s.slo_attainment,
            }
        })
        .collect()
}

/// §4.2's claims, machine-checkable.
pub fn shape_holds(scavenged: &ModeResult, dedicated: &ModeResult) -> Result<(), String> {
    if scavenged.cost_usd >= dedicated.cost_usd {
        return Err(format!(
            "scavenged (${:.6}) should cost less than dedicated (${:.6})",
            scavenged.cost_usd, dedicated.cost_usd
        ));
    }
    if scavenged.efficiency <= dedicated.efficiency {
        return Err(format!(
            "scavenged efficiency ({:.2}) should beat dedicated ({:.2})",
            scavenged.efficiency, dedicated.efficiency
        ));
    }
    if scavenged.slo_attainment < 0.9 {
        return Err(format!(
            "scavenged must still hold the SLO (got {:.1}%)",
            100.0 * scavenged.slo_attainment
        ));
    }
    // The price of efficiency: burst-front cold starts live in the far
    // tail (a 250 ms boot against a 20 ms service time).
    if scavenged.p999_ns <= dedicated.p999_ns {
        return Err("scavenged p99.9 should exceed dedicated's (cold starts)".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// E5b — the diurnal re-run: reactive scavenging vs the predictive
// warm-pool autoscaler.
// ---------------------------------------------------------------------

/// The SLO of the diurnal comparison. A container cold boot (250 ms)
/// on top of the 150 ms web service time pushes a request over it, so
/// attainment directly measures how many invocations paid a deep cold
/// start.
pub const DIURNAL_SLO: Duration = Duration::from_millis(300);

/// Warm-pool scaling policy under test on the diurnal workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePolicy {
    /// The seed E5 configuration: scavenging placement, 3 s keep-alive,
    /// cold boots on every burst front.
    Reactive,
    /// Scavenging plus the predictive autoscaler: EWMA-driven pre-warm,
    /// preemptible scavenged instances, work stealing, graph pre-warm.
    Predictive,
}

impl ScalePolicy {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ScalePolicy::Reactive => "reactive scavenge (keep-alive only)",
            ScalePolicy::Predictive => "predictive autoscale (EWMA pre-warm)",
        }
    }
}

/// Results for one scaling policy over the diurnal multi-tenant run.
#[derive(Debug, Clone)]
pub struct DiurnalResult {
    /// Which policy.
    pub policy: ScalePolicy,
    /// Requests completed across all tenants.
    pub completed: u64,
    /// Cold starts paid across all tenants.
    pub cold_starts: u64,
    /// Fraction of issued requests (all tenants) inside [`DIURNAL_SLO`].
    pub slo_attainment: f64,
    /// Time-averaged [`pcsi_faas::ClusterState::mean_cpu_utilization`].
    pub mean_cpu_util: f64,
    /// Predictive boots issued by the autoscaler.
    pub prewarms: u64,
    /// Work-stealing moves between nodes.
    pub rebalances: u64,
}

impl DiurnalResult {
    /// Cold starts per completed request — the burst-front tax.
    pub fn cold_start_rate(&self) -> f64 {
        self.cold_starts as f64 / self.completed.max(1) as f64
    }
}

/// The three diurnal tenants: a container web tier, a microVM API tier,
/// and a two-stage wasm→container pipeline (the E4 tie-in — under the
/// predictive policy, ingest arrivals pre-warm the transform pool).
fn tenant_shapes() -> [(&'static str, RateShape); 3] {
    // Deep troughs (≈1 rps for seconds at a time against a 3 s
    // keep-alive) force real scale-to-zero nights; 60 s days give the
    // reactive policy a fresh morning cold-boot wave every day.
    [
        (
            "web",
            RateShape::Diurnal {
                base_rps: 60.0,
                amplitude_rps: 59.0,
                day: Duration::from_secs(60),
            },
        ),
        (
            "api",
            RateShape::Diurnal {
                base_rps: 40.0,
                amplitude_rps: 39.5,
                day: Duration::from_secs(60),
            },
        ),
        (
            "pipeline",
            RateShape::Diurnal {
                base_rps: 25.0,
                amplitude_rps: 24.5,
                day: Duration::from_secs(60),
            },
        ),
    ]
}

/// Runs the diurnal multi-tenant workload under one scaling policy.
///
/// Both policies share the scavenging placement and 3 s keep-alive of
/// the seed E5 run; the predictive mode adds the autoscaler (100 ms
/// scans over a 2 s window), preemption and the ingest→transform
/// pre-warm edge. Deep troughs (rate ≈ 2 rps for several seconds) let
/// the reaper drain every pool each simulated "night", so the reactive
/// policy pays a fresh wave of cold boots every "morning".
pub fn run_diurnal(seed: u64, policy: ScalePolicy, run_for: Duration) -> DiurnalResult {
    let mut builder = CloudBuilder::new()
        .placement(PlacementPolicy::Scavenge)
        .keep_alive(Duration::from_secs(3));
    if policy == ScalePolicy::Predictive {
        builder = builder
            .autoscale(AutoscaleConfig {
                interval: Duration::from_millis(100),
                window: Duration::from_secs(2),
                ..AutoscaleConfig::enabled()
            })
            .preemption(true);
    }
    Lab::run(seed, builder, move |lab| async move {
        let (cloud, h) = (&lab.cloud, &lab.h);
        for (name, work) in [
            ("web", Duration::from_millis(150)),
            ("api", Duration::from_millis(80)),
            ("ingest", Duration::from_millis(5)),
            ("transform", Duration::from_millis(80)),
        ] {
            cloud.kernel.register_body(
                name,
                Rc::new(move |ctx| {
                    Box::pin(async move {
                        ctx.compute(work).await;
                        Ok(Bytes::new())
                    })
                }),
            );
        }
        let client = cloud.kernel.client(NodeId(0), "diurnal");
        let create = |image: FunctionImage| {
            let client = client.clone();
            async move {
                client
                    .create(CreateOptions::function(image.encode()))
                    .await
                    .unwrap()
            }
        };
        let web = create(FunctionImage {
            name: "web".into(),
            work: WorkModel::fixed(Duration::from_millis(150)),
            variants: vec![Variant::cpu(2)],
        })
        .await;
        let api = create(FunctionImage {
            name: "api".into(),
            work: WorkModel::fixed(Duration::from_millis(80)),
            variants: vec![Variant::microvm(1)],
        })
        .await;
        let ingest = create(FunctionImage {
            name: "ingest".into(),
            work: WorkModel::fixed(Duration::from_millis(5)),
            variants: vec![Variant::wasm(1)],
        })
        .await;
        let transform = create(FunctionImage {
            name: "transform".into(),
            work: WorkModel::fixed(Duration::from_millis(80)),
            variants: vec![Variant::cpu(2)],
        })
        .await;
        if policy == ScalePolicy::Predictive {
            let graph = TaskGraph::linear(&["ingest", "transform"]);
            cloud.runtime.register_prewarm_graph(&graph, |stage| {
                (stage.function == "transform").then(|| Variant::cpu(2))
            });
        }

        // The sine starts at `base_rps` (mid-morning); idle until the
        // first trough so the measured run opens on a "night" and every
        // ramp the drivers see is a genuine diurnal dawn rather than a
        // step from nothing at t=0.
        h.sleep(Duration::from_secs(45)).await;

        // Time-averaged cluster utilization, sampled every 100 ms.
        let stop = Rc::new(Cell::new(false));
        let util = Rc::new(Cell::new((0.0f64, 0u64)));
        let sampler = h.spawn({
            let stop = Rc::clone(&stop);
            let util = Rc::clone(&util);
            let cluster = cloud.runtime.cluster().clone();
            let h = h.clone();
            async move {
                while !stop.get() {
                    let (sum, n) = util.get();
                    util.set((sum + cluster.mean_cpu_utilization(), n + 1));
                    h.sleep(Duration::from_millis(100)).await;
                }
            }
        });

        let mut joins = Vec::new();
        for (tenant, shape) in tenant_shapes() {
            let h2 = h.clone();
            let client = client.clone();
            let (f, g) = match tenant {
                "web" => (web.clone(), None),
                "api" => (api.clone(), None),
                _ => (ingest.clone(), Some(transform.clone())),
            };
            joins.push(h.spawn(async move {
                let rng = h2.rng().stream_indexed(
                    "diurnal-tenant",
                    match tenant {
                        "web" => 0,
                        "api" => 1,
                        _ => 2,
                    },
                );
                drive_open_loop(&h2, &rng, shape, run_for, move |_| {
                    let client = client.clone();
                    let f = f.clone();
                    let g = g.clone();
                    boxed(async move {
                        client
                            .invoke(&f, InvokeRequest::default())
                            .await
                            .map_err(|e| e.to_string())?;
                        if let Some(g) = g {
                            client
                                .invoke(&g, InvokeRequest::default())
                                .await
                                .map_err(|e| e.to_string())?;
                        }
                        Ok(())
                    })
                })
                .await
            }));
        }
        let mut stats: Vec<Rc<RunStats>> = Vec::new();
        for j in joins {
            stats.push(j.await);
        }
        stop.set(true);
        sampler.await;

        let issued: u64 = stats.iter().map(|s| s.issued.get()).sum();
        let within: f64 = stats
            .iter()
            .map(|s| s.slo_attainment(DIURNAL_SLO) * s.issued.get() as f64)
            .sum();
        let (sum, n) = util.get();
        DiurnalResult {
            policy,
            completed: stats.iter().map(|s| s.ok.get()).sum(),
            cold_starts: cloud.runtime.cold_starts(),
            slo_attainment: within / issued.max(1) as f64,
            mean_cpu_util: sum / n.max(1) as f64,
            prewarms: cloud.runtime.prewarms(),
            rebalances: cloud.runtime.rebalances(),
        }
    })
}

/// Runs both scaling policies on identical diurnal workloads.
pub fn run_diurnal_pair(seed: u64, run_for: Duration) -> (DiurnalResult, DiurnalResult) {
    (
        run_diurnal(seed, ScalePolicy::Reactive, run_for),
        run_diurnal(seed, ScalePolicy::Predictive, run_for),
    )
}

/// The autoscaler PR's acceptance criteria, machine-checkable: the
/// predictive policy must lift utilization at equal-or-better SLO
/// attainment and cut the diurnal-burst cold-start rate at least 5×.
pub fn diurnal_shape_holds(
    reactive: &DiurnalResult,
    predictive: &DiurnalResult,
) -> Result<(), String> {
    if predictive.mean_cpu_util <= reactive.mean_cpu_util {
        return Err(format!(
            "predictive mean CPU utilization ({:.3}) should exceed reactive ({:.3})",
            predictive.mean_cpu_util, reactive.mean_cpu_util
        ));
    }
    if predictive.slo_attainment + 1e-9 < reactive.slo_attainment {
        return Err(format!(
            "predictive SLO attainment ({:.4}) fell below reactive ({:.4})",
            predictive.slo_attainment, reactive.slo_attainment
        ));
    }
    let ratio = reactive.cold_start_rate() / predictive.cold_start_rate().max(1e-12);
    if ratio < 5.0 {
        return Err(format!(
            "cold-start rate should drop >= 5x (got {:.1}x: reactive {:.4}, predictive {:.4})",
            ratio,
            reactive.cold_start_rate(),
            predictive.cold_start_rate()
        ));
    }
    if predictive.prewarms == 0 {
        return Err("the predictive run never issued a pre-warm boot".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn predictive_autoscaler_beats_reactive_on_diurnal_load() {
        let (r, p) = run_diurnal_pair(DEFAULT_SEED, Duration::from_secs(180));
        diurnal_shape_holds(&r, &p).unwrap();
        assert!(r.completed > 3_000, "reactive completed {}", r.completed);
        assert!(p.completed > 3_000, "predictive completed {}", p.completed);
    }

    #[test]
    fn scavenged_cheaper_dedicated_faster_tail() {
        let (s, d) = run(DEFAULT_SEED, 200.0, Duration::from_secs(30));
        shape_holds(&s, &d).unwrap();
        assert!(s.completed > 1000);
        assert!(d.completed > 1000);
        assert!(
            d.cold_starts <= 5,
            "dedicated fleet must (almost) never boot: {}",
            d.cold_starts
        );
        assert!(s.cold_starts > 0, "scavenged pays cold starts");
    }
}
