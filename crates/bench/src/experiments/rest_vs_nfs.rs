//! E2 — §2.1's in-text comparison: 1 KB fetch via NFS vs DynamoDB-style
//! REST (plus PCSI-native on the same replicated store).
//!
//! Paper: "fetching a 1KB object via the NFS protocol takes 1.5 ms and
//! costs 0.003 USD/M ... whereas fetching the same data from DynamoDB
//! takes 4.3 ms and costs 0.18 USD/M."
//!
//! Shape target: REST ≈ 3× NFS latency and tens-of-× NFS cost. Absolute
//! values differ (our simulated 2021 fabric is faster than the authors'
//! WAN-adjacent testbed); ratios are the claim.

use std::time::Duration;

use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency};
use pcsi_metrics::{Histogram, Quantiles};
use pcsi_net::NodeId;
use pcsi_trace::Sampling;

use super::stages::{self, StageBreakdown};

/// Results for one interface.
#[derive(Debug, Clone)]
pub struct InterfaceResult {
    /// Interface label.
    pub label: &'static str,
    /// Mean fetch latency (ns).
    pub mean_ns: f64,
    /// Full latency quantile snapshot (p50/p95/p99/p999 from the
    /// histogram the run recorded).
    pub latency: Quantiles,
    /// Metered compute cost per million fetches (USD).
    pub usd_per_million: f64,
}

/// The full E2 result set.
#[derive(Debug, Clone)]
pub struct Results {
    /// NFS-like stateful protocol.
    pub nfs: InterfaceResult,
    /// DynamoDB-like REST.
    pub rest: InterfaceResult,
    /// PCSI-native (references + binary data plane).
    pub pcsi: InterfaceResult,
}

impl Results {
    /// REST latency / NFS latency (paper: 4.3 / 1.5 ≈ 2.9).
    pub fn latency_ratio(&self) -> f64 {
        self.rest.mean_ns / self.nfs.mean_ns
    }

    /// REST cost / NFS cost (paper: 0.18 / 0.003 = 60).
    pub fn cost_ratio(&self) -> f64 {
        self.rest.usd_per_million / self.nfs.usd_per_million
    }
}

/// Runs `fetches` 1 KB GETs on each interface.
pub fn run(seed: u64, fetches: u32) -> Results {
    Lab::run(
        seed,
        CloudBuilder::new().metrics(true),
        move |lab| async move {
            let billing = lab.cloud.billing.clone();
            let payload = vec![0x5Au8; 1024];
            let client_node = NodeId(0);

            // --- NFS ---
            let mount = lab
                .nfs()
                .mount(client_node, Lab::NFS_SECRET, "nfs")
                .await
                .unwrap();
            let fh = mount.lookup("bench-1k", true).await.unwrap();
            mount.write(fh, 0, &payload).await.unwrap();
            let nfs_hist = lab.time(fetches, |_| mount.read(fh, 0, 1024)).await;

            // --- REST ---
            let rc = lab.rest().client(client_node, Lab::credential());
            rc.kv_put("bench", "obj-1k", &payload).await.unwrap();
            let rest_reqs_before = billing.request_count("AK1");
            let rest_cost_before = billing.invoice("AK1").compute;
            let rest_hist = lab.time(fetches, |_| rc.kv_get("bench", "obj-1k")).await;
            let rest_reqs = billing.request_count("AK1") - rest_reqs_before;
            // Compute-metered provider cost only: the flat API-metering fee
            // (0.20 USD/M, REST-only) is reported separately by the report
            // binary; the paper's 60x is about work per request.
            let rest_cost = billing.invoice("AK1").compute - rest_cost_before;

            // --- PCSI-native ---
            let kc = lab.cloud.kernel.client(client_node, "pcsi");
            let obj = kc
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Eventual)
                        .with_initial(payload.clone()),
                )
                .await
                .unwrap();
            let pcsi_hist = lab.time(fetches, |_| kc.read(&obj, 0, 1024)).await;

            // Cost accounting. NFS: per-op compute metered at the server.
            // PCSI: we meter the replica-side CPU analogously (binary decode +
            // handle work ~ the same 3 us class as NFS; charge it explicitly
            // so the comparison is apples-to-apples).
            let nfs_cost = billing.invoice("nfs").compute;
            let pcsi_per_op = Duration::from_micros(2); // Capability table hit + dispatch.
            let pcsi_cost = pcsi_per_op.as_secs_f64() * (0.048 / 3600.0) * f64::from(fetches);

            let per_m = |total: f64, n: f64| total / n * 1e6;
            let result = |label, hist: &Histogram, usd_per_million| {
                let q = hist.quantiles();
                InterfaceResult {
                    label,
                    mean_ns: q.mean as f64,
                    latency: q,
                    usd_per_million,
                }
            };
            Results {
                nfs: result(
                    "NFS-like stateful protocol",
                    &nfs_hist,
                    per_m(nfs_cost, f64::from(fetches + 2)),
                ),
                rest: result(
                    "DynamoDB-like REST",
                    &rest_hist,
                    per_m(rest_cost, rest_reqs as f64),
                ),
                pcsi: result(
                    "PCSI-native (reference + binary)",
                    &pcsi_hist,
                    per_m(pcsi_cost, f64::from(fetches)),
                ),
            }
        },
    )
}

/// Trace-derived stage splits of one warm 1 KB GET per interface.
#[derive(Debug, Clone)]
pub struct StageResults {
    /// NFS-like stateful protocol.
    pub nfs: StageBreakdown,
    /// DynamoDB-like REST.
    pub rest: StageBreakdown,
    /// PCSI-native.
    pub pcsi: StageBreakdown,
}

/// Traces one warm fetch per interface on the default 2021 network and
/// splits it into protocol / network / storage self time — the
/// span-level explanation of [`Results`]' latency ratio: the REST path
/// carries ~60× the protocol CPU of the NFS path.
pub fn stage_breakdown(seed: u64) -> StageResults {
    let builder = CloudBuilder::new().tracing(Sampling::Always);
    Lab::run(seed, builder, |lab| async move {
        let tracer = lab.cloud.tracer.clone().expect("tracing enabled");
        let payload = vec![0x5Au8; 1024];
        let client_node = NodeId(0);

        let mount = lab
            .nfs()
            .mount(client_node, Lab::NFS_SECRET, "nfs")
            .await
            .unwrap();
        let fh = mount.lookup("bench-1k", true).await.unwrap();
        mount.write(fh, 0, &payload).await.unwrap();
        mount.read(fh, 0, 1024).await.unwrap();

        let rc = lab.rest().client(client_node, Lab::credential());
        rc.kv_put("bench", "obj-1k", &payload).await.unwrap();
        rc.kv_get("bench", "obj-1k").await.unwrap();
        rc.kv_get("bench", "obj-1k").await.unwrap();

        let kc = lab.cloud.kernel.client(client_node, "pcsi");
        let obj = kc
            .create(
                CreateOptions::regular()
                    .with_consistency(Consistency::Eventual)
                    .with_initial(payload.clone()),
            )
            .await
            .unwrap();
        kc.read(&obj, 0, 1024).await.unwrap();
        kc.read(&obj, 0, 1024).await.unwrap();

        let spans = tracer.sink().snapshot();
        let pick = |name: &str| stages::last_root(&spans, name).expect("traced request");
        StageResults {
            nfs: StageBreakdown::of(&spans, pick("nfs.request")),
            rest: StageBreakdown::of(&spans, pick("rest.request")),
            pcsi: StageBreakdown::of(&spans, pick("kernel.read")),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn stage_breakdown_explains_the_gap() {
        let s = stage_breakdown(DEFAULT_SEED);
        // The interfaces differ in protocol CPU, not in wire or media:
        // REST burns an order of magnitude more than NFS per fetch.
        let rest_protocol = s.rest.ns(stages::PROTOCOL);
        let nfs_protocol = s.nfs.ns(stages::PROTOCOL);
        assert!(
            rest_protocol > 10 * nfs_protocol,
            "REST protocol {rest_protocol} ns vs NFS {nfs_protocol} ns"
        );
        // PCSI-native's protocol overhead is below even NFS's.
        assert!(s.pcsi.ns(stages::PROTOCOL) <= nfs_protocol);
    }

    #[test]
    fn ratios_match_paper_shape() {
        let r = run(DEFAULT_SEED, 200);
        let lat = r.latency_ratio();
        let cost = r.cost_ratio();
        assert!((2.0..5.0).contains(&lat), "latency ratio {lat:.2}");
        assert!((20.0..200.0).contains(&cost), "cost ratio {cost:.1}");
        // PCSI-native beats both on the *replicated* store.
        assert!(r.pcsi.mean_ns < r.rest.mean_ns / 2.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(7, 50);
        let b = run(7, 50);
        assert_eq!(a.rest.mean_ns, b.rest.mean_ns);
        assert_eq!(a.nfs.latency, b.nfs.latency);
    }
}
