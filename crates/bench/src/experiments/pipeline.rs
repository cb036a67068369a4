//! E4 — Figure 2 / §4.1: placement strategies for the model-serving
//! pipeline, plus an upload-size sweep showing when disaggregation bites.

use pcsi_cloud::pipelines::{compare_strategies, ModelServing, PipelineReport, Strategy};
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_net::NodeId;

/// Standard E4 parameters: 64 MiB weights, 32 MiB uploads.
pub const WEIGHTS: usize = 64 << 20;
/// Default upload size (bytes).
pub const UPLOAD: usize = 32 << 20;

/// Runs the headline three-strategy comparison.
pub fn run(seed: u64, warmup: u64, requests: u64) -> Vec<PipelineReport> {
    run_with_upload(seed, warmup, requests, UPLOAD)
}

/// Runs the comparison at a specific upload size.
pub fn run_with_upload(
    seed: u64,
    warmup: u64,
    requests: u64,
    upload: usize,
) -> Vec<PipelineReport> {
    let builder = CloudBuilder::new().deterministic_network();
    Lab::run(seed, builder, move |lab| async move {
        compare_strategies(&lab.cloud, NodeId(0), WEIGHTS, upload, warmup, requests)
            .await
            .expect("pipeline run")
    })
}

/// One sweep point: upload size → naive/colocated mean latencies.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Upload size in bytes.
    pub upload_bytes: usize,
    /// Naive strategy mean latency (ns).
    pub naive_ns: f64,
    /// Co-located strategy mean latency (ns).
    pub colocated_ns: f64,
    /// Monolithic baseline mean latency (ns).
    pub monolithic_ns: f64,
}

impl SweepPoint {
    /// Disaggregation penalty: naive / colocated.
    pub fn penalty(&self) -> f64 {
        self.naive_ns / self.colocated_ns
    }
}

/// Sweeps intermediate-data size: the disaggregation penalty grows with
/// the bytes shuttled through remote storage.
pub fn sweep(seed: u64, requests: u64) -> Vec<SweepPoint> {
    [1usize << 20, 4 << 20, 16 << 20, 32 << 20, 64 << 20]
        .into_iter()
        .map(|upload| {
            let reports = run_with_upload(seed, 1, requests, upload);
            SweepPoint {
                upload_bytes: upload,
                naive_ns: reports[0].latency.mean() as f64,
                colocated_ns: reports[1].latency.mean() as f64,
                monolithic_ns: reports[2].latency.mean() as f64,
            }
        })
        .collect()
}

/// The §4.1 shape claims, machine-checkable.
pub fn shape_holds(reports: &[PipelineReport]) -> Result<(), String> {
    assert_eq!(reports[0].strategy, Strategy::NaiveRemote);
    let naive = reports[0].latency.mean() as f64;
    let colocated = reports[1].latency.mean() as f64;
    let monolithic = reports[2].latency.mean() as f64;
    if colocated > monolithic * 1.25 {
        return Err(format!(
            "colocated ({colocated:.0}) not within 25% of monolithic ({monolithic:.0})"
        ));
    }
    if naive < colocated * 1.8 {
        return Err(format!(
            "naive ({naive:.0}) not >=1.8x colocated ({colocated:.0})"
        ));
    }
    if reports[0].network_bytes_per_req < reports[1].network_bytes_per_req * 2 {
        return Err("naive should move >=2x the network bytes".into());
    }
    Ok(())
}

// Re-exported for the report binary.
pub use pcsi_cloud::pipelines::tpu_variant;

/// E6 helper placed here to share the deployment: mean latency per
/// inference variant under co-location.
pub fn variant_latencies(seed: u64, requests: u64) -> Vec<(String, f64)> {
    let builder = CloudBuilder::new().deterministic_network();
    Lab::run(seed, builder, move |lab| async move {
        let mut app = ModelServing::deploy(&lab.cloud, NodeId(0), WEIGHTS)
            .await
            .expect("deploy");
        app.add_infer_variant(tpu_variant(40.0))
            .await
            .expect("publish the tpu variant");
        let mut out = Vec::new();
        for variant in ["cpu", "gpu", "tpu"] {
            let report = app
                .run(Strategy::Colocated, 2, requests, UPLOAD, variant)
                .await
                .expect("run");
            out.push((variant.to_owned(), report.latency.mean() as f64));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn headline_shape_holds() {
        let reports = run(DEFAULT_SEED, 2, 5);
        shape_holds(&reports).unwrap();
        // Not one seed's luck (object ids, hence store placement, follow
        // the seed). 16 MiB uploads: large enough that the naive penalty
        // clears 1.8x, small enough for a debug build.
        for seed in DEFAULT_SEED..DEFAULT_SEED + 8 {
            let reports = run_with_upload(seed, 1, 2, 16 << 20);
            shape_holds(&reports).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn penalty_grows_with_intermediate_size() {
        let points = sweep(DEFAULT_SEED, 3);
        let first = points.first().unwrap().penalty();
        let last = points.last().unwrap().penalty();
        assert!(last > first, "penalty should grow: {first:.2} -> {last:.2}");
    }

    #[test]
    fn faster_accelerators_win_under_colocation() {
        let v = variant_latencies(DEFAULT_SEED, 4);
        let get = |name: &str| v.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(get("gpu") < get("cpu"));
        assert!(get("tpu") < get("gpu"));
    }
}
