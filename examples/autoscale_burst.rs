//! Autoscaling under diurnal load: reactive vs predictive warm pools.
//!
//! §4.2's efficiency argument: a serverless platform scavenges capacity
//! on demand and bills per use, while a dedicated fleet must be sized for
//! the peak. This example drives the same day/night workload twice — once
//! with the reactive scale-from-zero runtime (the pools drain every night
//! and every dawn pays a wave of cold boots) and once with the predictive
//! warm-pool autoscaler (EWMA arrival-rate estimators boot sandboxes
//! ahead of the morning ramp, scavenged instances are preemptible, idle
//! instances are work-stolen off hot nodes) — then prices the traffic
//! against a peak-provisioned fleet.
//!
//! Run with: `cargo run --release --example autoscale_burst`

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::workload::{boxed, drive_open_loop, RateShape};
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::CloudInterface;
use pcsi_faas::function::{FunctionImage, WorkModel};
use pcsi_faas::registry::CostModel;
use pcsi_faas::AutoscaleConfig;
use pcsi_net::node::Resources;
use pcsi_net::NodeId;
use pcsi_sim::Sim;

struct Outcome {
    ok: u64,
    p50_ms: f64,
    p99_ms: f64,
    cold_starts: u64,
    prewarms: u64,
    slo_250ms: f64,
    bill_usd: f64,
}

fn run(predictive: bool) -> Outcome {
    let mut sim = Sim::new(99);
    let h = sim.handle();
    sim.block_on(async move {
        let mut builder = CloudBuilder::new().keep_alive(Duration::from_secs(2));
        if predictive {
            // EWMA estimators scan every 100 ms over a 2 s window and
            // boot instances ahead of the observed arrival rate; the
            // scavenged capacity class and work stealing come along.
            builder = builder
                .autoscale(AutoscaleConfig {
                    interval: Duration::from_millis(100),
                    window: Duration::from_secs(2),
                    ..AutoscaleConfig::enabled()
                })
                .preemption(true);
        }
        let cloud = builder.build(&h);
        cloud.kernel.register_body(
            "api-handler",
            Rc::new(|ctx| {
                Box::pin(async move {
                    ctx.compute(Duration::from_millis(100)).await;
                    Ok(Bytes::from_static(b"ok"))
                })
            }),
        );
        let client = cloud.kernel.client(NodeId(0), "bursty-app");
        let image = FunctionImage::simple(
            "api-handler",
            WorkModel::fixed(Duration::from_millis(100)),
            2,
        );
        let f = client
            .create(CreateOptions::function(image.encode()))
            .await
            .unwrap();

        // Diurnal: 20 s "days" swinging between ~1 rps nights (deep
        // enough that the 2 s keep-alive drains every pool) and 159 rps
        // middays. Start at the first night so every ramp is a dawn.
        let shape = RateShape::Diurnal {
            base_rps: 80.0,
            amplitude_rps: 79.0,
            day: Duration::from_secs(20),
        };
        h.sleep(Duration::from_secs(15)).await;
        let rng = h.rng().stream("burst-driver");
        let stats = drive_open_loop(&h, &rng, shape, Duration::from_secs(60), {
            let client = client.clone();
            let f = f.clone();
            move |_i| {
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

        let s = stats.latency.quantiles();
        Outcome {
            ok: stats.ok.get(),
            p50_ms: s.p50 as f64 / 1e6,
            p99_ms: s.p99 as f64 / 1e6,
            cold_starts: cloud.runtime.cold_starts(),
            prewarms: cloud.runtime.prewarms(),
            slo_250ms: stats.slo_attainment(Duration::from_millis(250)),
            bill_usd: cloud.billing.invoice("bursty-app").total(),
        }
    })
}

fn main() {
    println!("driving diurnal workload (1..159 rps, 20 s days) for 60 s...\n");
    let reactive = run(false);
    let predictive = run(true);

    println!("                     reactive      predictive");
    println!(
        "requests ok:     {:>10}    {:>10}",
        reactive.ok, predictive.ok
    );
    println!(
        "latency p50/p99: {:>6.2}/{:>5.2} ms {:>5.2}/{:>5.2} ms",
        reactive.p50_ms, reactive.p99_ms, predictive.p50_ms, predictive.p99_ms
    );
    println!(
        "cold starts:     {:>10}    {:>10}",
        reactive.cold_starts, predictive.cold_starts
    );
    println!(
        "pre-warm boots:  {:>10}    {:>10}",
        reactive.prewarms, predictive.prewarms
    );
    println!(
        "SLO (250 ms):    {:>9.1}%    {:>9.1}%",
        100.0 * reactive.slo_250ms,
        100.0 * predictive.slo_250ms
    );
    println!(
        "pay-per-use:     ${:>9.6}    ${:>9.6}",
        reactive.bill_usd, predictive.bill_usd
    );

    // Peak sizing: 159 rps x 100 ms x 2 cores = 32 cores busy; with
    // standard 2x headroom, provision 64 cores for the full minute.
    let prices = CostModel::default();
    let provisioned = prices.charge(&Resources::cpu(64, 128), Duration::from_secs(60));
    println!("\npeak-provisioned fleet for the same minute: ${provisioned:.6}");
    println!(
        "pay-per-use savings: {:.1}x (reactive), {:.1}x (predictive)",
        provisioned / reactive.bill_usd,
        provisioned / predictive.bill_usd
    );
}
