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
use pcsi_metrics::Quantiles;
use pcsi_trace::Sampling;

use super::stages::StageBreakdown;
use super::sweep::{self, Iface, FETCH};

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
            let order = [Iface::Nfs, Iface::Rest, Iface::Pcsi];
            let t = sweep::sweep(&lab, FETCH, fetches, &order).await.timed;
            // Cost: the compute each server billed over the timed fetches.
            // REST's leaves out the flat API-metering fee (0.20 USD/M,
            // REST-only), which the report binary shows apart: the paper's
            // 60x is about work per request. Nothing meters PCSI's
            // replica-side CPU, so it is charged explicitly (binary decode
            // + handle work ~ the same 3 us class as NFS) to keep the
            // comparison apples-to-apples.
            let pcsi_per_op = Duration::from_micros(2); // Capability table hit + dispatch.
            let pcsi_cost = pcsi_per_op.as_secs_f64() * (0.048 / 3600.0) * f64::from(fetches);

            let per_m = |total: f64, n: u32| total / f64::from(n) * 1e6;
            let result = |label, timed: &sweep::Timed, usd_per_million| {
                let q = timed.hist.quantiles();
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
                    &t[0],
                    per_m(t[0].usd, fetches),
                ),
                rest: result("DynamoDB-like REST", &t[1], per_m(t[1].usd, fetches)),
                pcsi: result(
                    "PCSI-native (reference + binary)",
                    &t[2],
                    per_m(pcsi_cost, fetches),
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
        StageResults {
            nfs: sweep::traced_fetch(&lab, Iface::Nfs).await,
            rest: sweep::traced_fetch(&lab, Iface::Rest).await,
            pcsi: sweep::traced_fetch(&lab, Iface::Pcsi).await,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{stages, DEFAULT_SEED};

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
