//! The Figure-2 model-serving pipeline, submitted three ways.
//!
//! Figure 2: an HTTP-ingest function streams an image upload to a file, a
//! GPU-enabled prediction function consumes the file plus widely
//! replicated model weights, and a post-processing function completes the
//! HTTP response through a FIFO.
//!
//! [`ModelServing::deploy`] publishes the stages (and the fused server)
//! as function objects under one namespace directory. §4.1's two
//! implementations and the server baseline then differ only in **what
//! the application submits** — never in a node this module picks:
//!
//! * [`Strategy::NaiveRemote`] — "send intermediate data from the
//!   preprocessing function to remote storage before pulling it onto a
//!   remote GPU": three unrelated `invoke`s, each placed on its own, the
//!   intermediates handed over through store objects named in `inputs` /
//!   `outputs`.
//! * [`Strategy::Colocated`] — the same functions as one [`TaskGraph`]
//!   through [`GraphExecutor`]: the graph says the stages compose, so its
//!   planner finds the one node that fits them all (one with the
//!   accelerator the inference variant demands), intermediates pass by
//!   value, and "data movement is reduced to a single `cudaMemcpy`".
//! * [`Strategy::Monolithic`] — the classical dedicated server, one
//!   `invoke` of the fused function. The paper's claim is that co-located
//!   PCSI "would achieve performance similar to a monolithic server-based
//!   service" — E4 measures exactly that gap.
//!
//! The system charges everything (compute and isolation in the runtime,
//! bodies and store traffic on the fabric, image loads in the kernel)
//! but the PCIe copy: a modelled constant, charged by the body that
//! feeds the accelerator.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Consistency, PcsiError, Reference};
use pcsi_faas::function::{FnCtx, FunctionImage, Variant, WorkModel};
use pcsi_faas::graph::TaskGraph;
use pcsi_faas::isolation::Backend;
use pcsi_metrics::Histogram;
use pcsi_net::node::Resources;
use pcsi_net::NodeId;

use crate::build::Cloud;
use crate::graphs::{GraphExecutor, StageBinding};
use crate::kernel::KernelClient;

/// PCIe 3.0 x16 effective bandwidth for host↔GPU copies.
pub(crate) const PCIE_BPS: u64 = 16_000_000_000;
/// Fixed `cudaMemcpy` launch overhead.
pub(crate) const CUDA_LAUNCH: Duration = Duration::from_micros(10);

/// Time for one host↔GPU copy of `bytes`.
pub(crate) fn cuda_memcpy(bytes: usize) -> Duration {
    CUDA_LAUNCH + Duration::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / PCIE_BPS)
}

/// What the application submits per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Three separate invocations, intermediates through the store.
    NaiveRemote,
    /// Graph-aware: one task graph, intermediates by value.
    Colocated,
    /// One fused server process on the GPU node.
    Monolithic,
}

impl Strategy {
    /// Row label for the report.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::NaiveRemote => "naive (remote storage hops)",
            Strategy::Colocated => "PCSI co-located (graph-aware)",
            Strategy::Monolithic => "monolithic server",
        }
    }
}

/// Work models for the three stages (abstract single-CPU work).
mod work {
    use super::*;

    /// HTTP parse + decode of the upload (~0.5 ns of CPU work per byte).
    pub(crate) fn ingest(bytes: usize) -> Duration {
        Duration::from_millis(1) + Duration::from_nanos((bytes / 2) as u64)
    }

    /// Neural-network inference (reference CPU implementation; the GPU
    /// variant divides this by its speedup).
    pub(crate) const INFER: Duration = Duration::from_millis(100);

    /// Response post-processing.
    pub(crate) const POST: Duration = Duration::from_micros(500);
}

/// The prediction the inference stage returns (1 KiB).
const PREDICTION: &[u8] = &[0u8; 1024];

/// A stage's intermediate input: the store object the application named
/// at `inputs[at]`, else the bytes passed by value.
async fn handed_in(ctx: &FnCtx, at: usize) -> Result<Bytes, PcsiError> {
    match ctx.inputs.get(at) {
        Some(obj) => ctx.data.read(obj, 0, u64::MAX).await,
        None => Ok(ctx.body.clone()),
    }
}

/// A stage's intermediate output: written to the store object the
/// application named at `outputs[0]`, else returned by value.
async fn handed_on(ctx: &FnCtx, out: Bytes) -> Result<Bytes, PcsiError> {
    match ctx.outputs.first() {
        Some(obj) => ctx.data.write(obj, 0, out).await.map(|()| Bytes::new()),
        None => Ok(out),
    }
}

// The bodies charge their stage's abstract work and move their own data.

async fn ingest(ctx: FnCtx) -> Result<Bytes, PcsiError> {
    ctx.compute(work::ingest(ctx.body.len())).await;
    handed_on(&ctx, ctx.body.clone()).await
}

/// `inputs[0]` is the weights, `inputs[1]` the upload if it was staged.
async fn infer(ctx: FnCtx) -> Result<Bytes, PcsiError> {
    let upload = handed_in(&ctx, 1).await?;
    // "Data movement is reduced to a single cudaMemcpy".
    ctx.handle.sleep(cuda_memcpy(upload.len())).await;
    // Hits the node cache after the first pull — immutability makes that
    // sound.
    ctx.data.read(&ctx.inputs[0], 0, u64::MAX).await?;
    ctx.compute(work::INFER).await;
    // Result copy back from the device.
    ctx.handle.sleep(cuda_memcpy(PREDICTION.len())).await;
    handed_on(&ctx, Bytes::from_static(PREDICTION)).await
}

async fn post(ctx: FnCtx) -> Result<Bytes, PcsiError> {
    let prediction = handed_in(&ctx, 0).await?;
    ctx.compute(work::POST).await;
    Ok(prediction)
}

/// The fused server: the upload by value, the weights resident.
async fn monolith(ctx: FnCtx) -> Result<Bytes, PcsiError> {
    // CPU-rate parts ignore the accelerator speedup; only the NN
    // benefits from the GPU.
    ctx.handle.sleep(work::ingest(ctx.body.len())).await;
    ctx.compute(work::INFER).await;
    ctx.handle.sleep(work::POST).await;
    Ok(Bytes::from_static(PREDICTION))
}

/// An inference variant on one accelerator (`"gpu"` or `"tpu"`).
fn accelerated(kind: &str, cpu: u32, speedup: f64) -> Variant {
    let mut demand = Resources::cpu(cpu, 16);
    match kind {
        "tpu" => demand.tpu = 1,
        _ => demand.gpu = 1,
    }
    Variant {
        name: kind.to_owned(),
        backend: Backend::MicroVm,
        demand,
        speedup,
    }
}

/// A TPU variant of the inference stage (§4.3's accelerator swap).
pub fn tpu_variant(speedup: f64) -> Variant {
    accelerated("tpu", 2, speedup)
}

type Bindings = HashMap<usize, StageBinding>;

/// Outcome of one pipeline run.
#[derive(Debug)]
pub struct PipelineReport {
    /// Strategy measured.
    pub strategy: Strategy,
    /// End-to-end request latency (ns), warm requests only.
    pub latency: Histogram,
    /// Network payload bytes moved per request (averaged over the run).
    pub network_bytes_per_req: u64,
}

/// A deployed model-serving application.
pub struct ModelServing {
    cloud: Cloud,
    client: KernelClient,
    /// The namespace directory the functions are linked under by name.
    root: Reference,
    /// The function objects: the three stages in order, then the server.
    fns: Vec<Reference>,
    weights: Reference,
    /// The inference image as published, kept so a variant can be added.
    infer: FunctionImage,
}

impl ModelServing {
    /// Deploys the application: stores the weights (immutable, so every
    /// node's cache may hold them), registers the bodies, publishes the
    /// function objects and links them by name under one directory.
    ///
    /// `edge` is the node standing in for the front door the user's TCP
    /// connection terminates at; every request is submitted from it.
    pub async fn deploy(
        cloud: &Cloud,
        edge: NodeId,
        weights_bytes: usize,
    ) -> Result<ModelServing, PcsiError> {
        let client = cloud.kernel.client(edge, "model-serving");
        let weights = CreateOptions::immutable(vec![0x57u8; weights_bytes]) // 'W'.
            .with_consistency(Consistency::Linearizable);
        let weights = client.create(weights).await?;

        let kernel = &cloud.kernel;
        kernel.register_body("ms-ingest", Rc::new(|ctx| Box::pin(ingest(ctx))));
        kernel.register_body("ms-infer", Rc::new(|ctx| Box::pin(infer(ctx))));
        kernel.register_body("ms-post", Rc::new(|ctx| Box::pin(post(ctx))));
        kernel.register_body("ms-monolith", Rc::new(|ctx| Box::pin(monolith(ctx))));

        let image = |name, work, cores| FunctionImage::simple(name, WorkModel::fixed(work), cores);
        let mut infer = image("ms-infer", work::INFER, 8);
        infer.variants.push(accelerated("gpu", 2, 12.0));
        // The dedicated server owns the whole machine slice.
        let mut server = image("ms-monolith", work::INFER, 8);
        server.variants = vec![accelerated("gpu", 8, 12.0)];
        let ingest = image("ms-ingest", work::ingest(0), 2);
        let post = image("ms-post", work::POST, 1);
        let images = [ingest, infer.clone(), post, server];

        let root = client.create(CreateOptions::directory()).await?;
        let mut fns = Vec::new();
        for image in &images {
            let f = CreateOptions::function(image.encode());
            let f = client.create(f).await?;
            client.link(&root, &image.name, &f).await?;
            fns.push(f);
        }
        Ok(ModelServing {
            cloud: cloud.clone(),
            client,
            root,
            fns,
            weights,
            infer,
        })
    }

    /// Adds an inference variant (e.g. [`tpu_variant`]) by rewriting the
    /// function object in place — the application code is otherwise
    /// unchanged, which is the §4.3 point.
    pub async fn add_infer_variant(&mut self, v: Variant) -> Result<(), PcsiError> {
        self.infer.variants.push(v);
        let image = self.infer.encode();
        self.client.write(&self.fns[1], 0, image).await
    }

    /// What the graph-aware application submits: the Figure-2 graph, its
    /// inference stage naming `infer_variant`, the upload bound to the
    /// first stage by value and the weights to the second by reference.
    fn figure2(&self, infer_variant: &str, upload: Bytes) -> (TaskGraph, Bindings) {
        let mut graph = TaskGraph::new();
        let ingest = graph.add_stage("ms-ingest", None, vec![]);
        let infer = graph.add_stage("ms-infer", Some(infer_variant), vec![ingest]);
        graph.add_stage("ms-post", None, vec![infer]);
        let mut bindings = Bindings::new();
        bindings.entry(ingest).or_default().body = upload;
        bindings.entry(infer).or_default().inputs = vec![self.weights.clone()];
        (graph, bindings)
    }

    /// Runs `warmup + requests` sequential requests under `strategy`,
    /// measuring the post-warmup ones. `infer_variant` is what the
    /// submitted graph names for its inference stage; a bare `invoke`
    /// cannot name one and leaves the choice to the optimizer.
    pub async fn run(
        &self,
        strategy: Strategy,
        warmup: u64,
        requests: u64,
        upload_bytes: usize,
        infer_variant: &str,
    ) -> Result<PipelineReport, PcsiError> {
        let upload = Bytes::from(vec![0x55u8; upload_bytes]);
        // Names are resolved once, as a long-running front end would.
        let (graph, bindings) = self.figure2(infer_variant, upload.clone());
        let exec = GraphExecutor::from_namespace(self.client.clone(), &self.root, &graph).await?;

        let latency = Histogram::new();
        let h = self.cloud.fabric.handle().clone();
        let bytes_before = self.cloud.fabric.bytes_moved();
        for i in 0..(warmup + requests) {
            let t0 = h.now();
            match strategy {
                Strategy::NaiveRemote => self.serve_naive(upload.clone()).await?,
                Strategy::Colocated => exec.execute(&graph, &bindings).await.map(drop)?,
                Strategy::Monolithic => {
                    let req = InvokeRequest::with_body(upload.clone());
                    self.client.invoke(&self.fns[3], req).await.map(drop)?
                }
            }
            if i >= warmup {
                latency.record_duration(h.now() - t0);
            }
        }
        let moved = self.cloud.fabric.bytes_moved() - bytes_before;
        Ok(PipelineReport {
            strategy,
            latency,
            network_bytes_per_req: moved / (warmup + requests).max(1),
        })
    }

    /// One request as three unrelated invocations: the application
    /// stages the upload and the prediction in store objects it creates
    /// for the request and names in `inputs` / `outputs`.
    async fn serve_naive(&self, upload: Bytes) -> Result<(), PcsiError> {
        let (c, fns) = (&self.client, &self.fns);
        // Strong consistency: the next stage must see the object
        // immediately from another node.
        let scratch = || CreateOptions::regular().with_consistency(Consistency::Linearizable);
        let (staged, prediction) = (c.create(scratch()).await?, c.create(scratch()).await?);
        let ingest = InvokeRequest::with_body(upload).output(staged.clone());
        c.invoke(&fns[0], ingest).await?;
        let infer = InvokeRequest::default().input(self.weights.clone());
        let infer = infer.input(staged.clone()).output(prediction.clone());
        c.invoke(&fns[1], infer).await?;
        let post = InvokeRequest::default().input(prediction.clone());
        c.invoke(&fns[2], post).await?;
        // Ephemeral intermediates are deleted (GC would otherwise
        // reclaim them; deleting keeps the store small during long
        // benchmark runs).
        c.delete(&staged).await?;
        c.delete(&prediction).await
    }
}

/// Convenience for experiments: deploy on a cloud and run all three
/// strategies with identical parameters.
pub async fn compare_strategies(
    cloud: &Cloud,
    edge: NodeId,
    weights_bytes: usize,
    upload_bytes: usize,
    warmup: u64,
    requests: u64,
) -> Result<Vec<PipelineReport>, PcsiError> {
    let app = ModelServing::deploy(cloud, edge, weights_bytes).await?;
    let mut out = Vec::new();
    // E4 presentation order.
    for strategy in [
        Strategy::NaiveRemote,
        Strategy::Colocated,
        Strategy::Monolithic,
    ] {
        let report = app.run(strategy, warmup, requests, upload_bytes, "gpu");
        out.push(report.await?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CloudBuilder;
    use crate::lab::Lab;

    /// Shared scenario: 8-node CPU pool + GPU rack + TPU rack, 64 MiB
    /// weights, 1 MiB uploads.
    fn scenario(requests: u64) -> Vec<PipelineReport> {
        let builder = CloudBuilder::new().deterministic_network();
        Lab::run(21, builder, move |Lab { cloud, .. }| async move {
            compare_strategies(&cloud, NodeId(0), 64 << 20, 32 << 20, 2, requests)
                .await
                .unwrap()
        })
    }

    #[test]
    fn colocated_close_to_monolithic_and_far_from_naive() {
        let reports = scenario(5);
        let naive = reports[0].latency.mean() as f64;
        let colocated = reports[1].latency.mean() as f64;
        let monolithic = reports[2].latency.mean() as f64;
        // §4.1's claim: co-located PCSI ~ monolithic.
        assert!(
            colocated < monolithic * 1.25,
            "colocated {colocated} vs monolithic {monolithic}"
        );
        // And the naive implementation is much slower.
        assert!(
            naive > colocated * 1.8,
            "naive {naive} vs colocated {colocated}"
        );
    }

    #[test]
    fn naive_moves_far_more_network_bytes() {
        let reports = scenario(5);
        let naive = reports[0].network_bytes_per_req;
        let colocated = reports[1].network_bytes_per_req;
        assert!(
            naive > colocated * 2,
            "naive {naive} vs colocated {colocated} bytes/req"
        );
    }

    #[test]
    fn tpu_swap_speeds_up_without_app_changes() {
        let builder = CloudBuilder::new().deterministic_network();
        let (gpu_mean, tpu_mean) = Lab::run(22, builder, |Lab { cloud, .. }| async move {
            let mut app = ModelServing::deploy(&cloud, NodeId(0), 16 << 20)
                .await
                .unwrap();
            let gpu = app
                .run(Strategy::Colocated, 2, 5, 1 << 20, "gpu")
                .await
                .unwrap();
            // §4.3: drop in a TPU variant; nothing else changes.
            app.add_infer_variant(tpu_variant(40.0)).await.unwrap();
            let tpu = app
                .run(Strategy::Colocated, 2, 5, 1 << 20, "tpu")
                .await
                .unwrap();
            (gpu.latency.mean() as f64, tpu.latency.mean() as f64)
        });
        assert!(
            tpu_mean < gpu_mean,
            "tpu {tpu_mean} should beat gpu {gpu_mean}"
        );
    }

    /// The experiment cannot regress into a script: the planner, not this
    /// module, puts the graph-aware run's three stages on one node, and
    /// that node holds the accelerator the named variant demands.
    #[test]
    fn the_planner_finds_the_accelerator_node() {
        let builder = CloudBuilder::new().deterministic_network();
        Lab::run(23, builder, |Lab { cloud, .. }| async move {
            let mut app = ModelServing::deploy(&cloud, NodeId(0), 16 << 20)
                .await
                .unwrap();
            app.add_infer_variant(tpu_variant(40.0)).await.unwrap();
            for variant in ["gpu", "tpu"] {
                let upload = Bytes::from(vec![0x55u8; 1 << 20]);
                let (graph, bindings) = app.figure2(variant, upload);
                let exec = GraphExecutor::from_namespace(app.client.clone(), &app.root, &graph)
                    .await
                    .unwrap();
                let run = exec.execute(&graph, &bindings).await.unwrap();
                assert_eq!(run.stages.len(), 3);
                let node = run.stages[0].node;
                assert!(run.stages.iter().all(|s| s.node == node), "{run:?}");
                let capacity = cloud.fabric.topology().spec(node).capacity;
                let accelerators = match variant {
                    "gpu" => capacity.gpu,
                    _ => capacity.tpu,
                };
                assert!(accelerators > 0, "{variant} ran on {node} ({capacity:?})");
            }
        });
    }
}
