//! The Figure-2 model-serving pipeline under three placement strategies.
//!
//! Figure 2: an HTTP-ingest function streams an image upload to a file, a
//! GPU-enabled prediction function consumes the file plus widely
//! replicated model weights, and a post-processing function completes the
//! HTTP response through a FIFO.
//!
//! §4.1 describes the two implementations this module compares, plus the
//! server baseline:
//!
//! * [`Strategy::NaiveRemote`] — "send intermediate data from the
//!   preprocessing function to remote storage before pulling it onto a
//!   remote GPU": every stage lands wherever load balancing puts it, and
//!   intermediates round-trip through the replicated store.
//! * [`Strategy::Colocated`] — the task graph tells the scheduler the
//!   stages compose, so the CPU stages run *on the GPU node* and
//!   intermediate "data movement is reduced to a single `cudaMemcpy`".
//! * [`Strategy::Monolithic`] — the classical dedicated server: one fused
//!   process on the GPU node. The paper's claim is that co-located PCSI
//!   "would achieve performance similar to a monolithic server-based
//!   service" — E4 measures exactly that gap.
//!
//! Stage *compute* always runs through the FaaS runtime (isolation
//! overheads, warm pools, variant speedups included); the *data path*
//! between stages is what the strategy controls, and is charged through
//! the fabric, the store, or the PCIe copy model below.

use std::time::Duration;

use bytes::Bytes;
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Consistency, Mutability, PcsiError, Reference};
use pcsi_faas::function::{FunctionImage, Variant, WorkModel};
use pcsi_faas::isolation::Backend;
use pcsi_metrics::Histogram;
use pcsi_net::node::Resources;
use pcsi_net::{NodeId, Transport};

use crate::build::Cloud;
use crate::kernel::KernelClient;

/// PCIe 3.0 x16 effective bandwidth for host↔GPU copies.
pub(crate) const PCIE_BPS: u64 = 16_000_000_000;
/// Fixed `cudaMemcpy` launch overhead.
pub(crate) const CUDA_LAUNCH: Duration = Duration::from_micros(10);

/// Time for one host↔GPU copy of `bytes`.
pub(crate) fn cuda_memcpy(bytes: usize) -> Duration {
    CUDA_LAUNCH + Duration::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / PCIE_BPS)
}

/// Placement/data-path strategy for the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Spread stages, intermediates through the replicated store.
    NaiveRemote,
    /// Graph-aware: all stages on one GPU node, intermediates by PCIe/DRAM.
    Colocated,
    /// One fused server process on the GPU node.
    Monolithic,
}

impl Strategy {
    /// All strategies, in E4 presentation order.
    pub const ALL: [Strategy; 3] = [
        Strategy::NaiveRemote,
        Strategy::Colocated,
        Strategy::Monolithic,
    ];

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
    weights: Reference,
    ingest: FunctionImage,
    infer: FunctionImage,
    post: FunctionImage,
    monolith: FunctionImage,
    gpu_nodes: Vec<NodeId>,
    cpu_nodes: Vec<NodeId>,
}

fn gpu_variant(name: &str, speedup: f64) -> Variant {
    Variant {
        name: name.to_owned(),
        backend: Backend::MicroVm,
        demand: Resources {
            cpu: 2,
            gpu: 1,
            tpu: 0,
            mem_gib: 16,
        },
        speedup,
    }
}

/// A TPU variant of the inference stage (§4.3's accelerator swap).
pub fn tpu_variant(speedup: f64) -> Variant {
    Variant {
        name: "tpu".to_owned(),
        backend: Backend::MicroVm,
        demand: Resources {
            cpu: 2,
            gpu: 0,
            tpu: 1,
            mem_gib: 16,
        },
        speedup,
    }
}

impl ModelServing {
    /// Deploys the application: stores the weights (immutable, so every
    /// node's cache may hold them), builds the function images, registers
    /// compute-only bodies.
    ///
    /// `edge` is the node standing in for the front door the user's TCP
    /// connection terminates at.
    pub async fn deploy(
        cloud: &Cloud,
        edge: NodeId,
        weights_bytes: usize,
    ) -> Result<ModelServing, PcsiError> {
        let client = cloud.kernel.client(edge, "model-serving");
        let weights = client
            .create(CreateOptions {
                kind: pcsi_core::ObjectKind::Regular,
                mutability: Mutability::Immutable,
                consistency: Consistency::Linearizable,
                initial: Bytes::from(vec![0x57u8; weights_bytes]), // 'W'.
                fifo_capacity: None,
            })
            .await?;

        // Bodies charge the stage's abstract work; the driver owns the
        // data path (see the module docs).
        let kernel = &cloud.kernel;
        kernel.register_body(
            "ms-ingest",
            std::rc::Rc::new(|ctx| {
                Box::pin(async move {
                    let n = body_len(&ctx.body);
                    ctx.compute(work::ingest(n)).await;
                    Ok(Bytes::new())
                })
            }),
        );
        kernel.register_body(
            "ms-infer",
            std::rc::Rc::new(|ctx| {
                Box::pin(async move {
                    ctx.compute(work::INFER).await;
                    Ok(Bytes::from_static(b"prediction"))
                })
            }),
        );
        kernel.register_body(
            "ms-post",
            std::rc::Rc::new(|ctx| {
                Box::pin(async move {
                    ctx.compute(work::POST).await;
                    Ok(ctx.body)
                })
            }),
        );
        kernel.register_body(
            "ms-monolith",
            std::rc::Rc::new(|ctx| {
                Box::pin(async move {
                    let n = body_len(&ctx.body);
                    // CPU-rate parts ignore the accelerator speedup; only
                    // the NN benefits from the GPU.
                    ctx.handle.sleep(work::ingest(n)).await;
                    ctx.compute(work::INFER).await;
                    ctx.handle.sleep(work::POST).await;
                    Ok(Bytes::from_static(b"prediction"))
                })
            }),
        );

        let ingest = FunctionImage {
            name: "ms-ingest".into(),
            work: WorkModel::fixed(work::ingest(0)),
            variants: vec![Variant::cpu(2)],
        };
        let infer = FunctionImage {
            name: "ms-infer".into(),
            work: WorkModel::fixed(work::INFER),
            variants: vec![Variant::cpu(8), gpu_variant("gpu", 12.0)],
        };
        let post = FunctionImage {
            name: "ms-post".into(),
            work: WorkModel::fixed(work::POST),
            variants: vec![Variant::cpu(1)],
        };
        let monolith = FunctionImage {
            name: "ms-monolith".into(),
            work: WorkModel::fixed(work::INFER),
            variants: vec![{
                let mut v = gpu_variant("gpu", 12.0);
                // The dedicated server owns the whole machine slice.
                v.demand.cpu = 8;
                v
            }],
        };

        let topo = cloud.fabric.topology();
        let gpu_nodes = topo.nodes_where(|s| s.capacity.gpu > 0);
        let cpu_nodes = topo.nodes_where(|s| s.capacity.gpu == 0 && s.capacity.tpu == 0);
        if gpu_nodes.is_empty() || cpu_nodes.is_empty() {
            return Err(PcsiError::Fault(
                "model serving needs both CPU and GPU nodes".into(),
            ));
        }
        Ok(ModelServing {
            cloud: cloud.clone(),
            client,
            weights,
            ingest,
            infer,
            post,
            monolith,
            gpu_nodes,
            cpu_nodes,
        })
    }

    /// Adds an inference variant (e.g. [`tpu_variant`]) — the application
    /// code is otherwise unchanged, which is the §4.3 point.
    pub fn add_infer_variant(&mut self, v: Variant) {
        self.infer.variants.push(v);
    }

    /// Runs `warmup + requests` sequential requests under `strategy`,
    /// measuring the post-warmup ones.
    pub async fn run(
        &self,
        strategy: Strategy,
        warmup: u64,
        requests: u64,
        upload_bytes: usize,
        infer_variant: &str,
    ) -> Result<PipelineReport, PcsiError> {
        let latency = Histogram::new();
        let h = self.cloud.fabric.handle().clone();
        let bytes_before = self.cloud.fabric.bytes_moved();
        for i in 0..(warmup + requests) {
            let t0 = h.now();
            self.serve_one(strategy, upload_bytes, infer_variant, i)
                .await?;
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

    async fn serve_one(
        &self,
        strategy: Strategy,
        upload_bytes: usize,
        infer_variant: &str,
        seq: u64,
    ) -> Result<(), PcsiError> {
        let edge = self.client.node();
        let fabric = &self.cloud.fabric;
        let runtime = &self.cloud.runtime;
        let infer_v = self
            .infer
            .variant(infer_variant)
            .ok_or_else(|| PcsiError::NoViableVariant(infer_variant.to_owned()))?
            .clone();
        // Pick the accelerator node hosting this variant's hardware.
        let accel_nodes: Vec<NodeId> = if infer_v.demand.tpu > 0 {
            self.cloud
                .fabric
                .topology()
                .nodes_where(|s| s.capacity.tpu > 0)
        } else if infer_v.demand.gpu > 0 {
            self.gpu_nodes.clone()
        } else {
            self.cpu_nodes.clone()
        };
        // Pin the accelerator node for the whole run: rotating would
        // re-pay cold starts and weight pulls on every request and mask
        // the data-path difference the experiment isolates.
        let _ = seq;
        let accel = accel_nodes[0];
        let body = Bytes::from((upload_bytes as u64).to_le_bytes().to_vec());
        let data = std::rc::Rc::new(self.client.clone());

        match strategy {
            Strategy::Monolithic => {
                // Ingress straight to the server; one fused invocation.
                transfer(fabric, edge, accel, upload_bytes).await?;
                let v = self.monolith.variants[0].clone();
                runtime
                    .invoke_on(&self.monolith, &v, accel, req(body), data)
                    .await?;
                transfer(fabric, accel, edge, 1024).await?;
            }
            Strategy::Colocated => {
                // All stages on the accelerator node (the task graph says
                // they compose): ingress once, then PCIe/DRAM handoffs.
                transfer(fabric, edge, accel, upload_bytes).await?;
                let vi = self.ingest.variants[0].clone();
                runtime
                    .invoke_on(&self.ingest, &vi, accel, req(body.clone()), data.clone())
                    .await?;
                // "Data movement is reduced to a single cudaMemcpy".
                fabric.handle().sleep(cuda_memcpy(upload_bytes)).await;
                self.read_weights(accel).await?;
                runtime
                    .invoke_on(
                        &self.infer,
                        &infer_v,
                        accel,
                        req(body.clone()),
                        data.clone(),
                    )
                    .await?;
                // Result copy back from the device.
                fabric.handle().sleep(cuda_memcpy(1024)).await;
                let vp = self.post.variants[0].clone();
                runtime
                    .invoke_on(&self.post, &vp, accel, req(body), data)
                    .await?;
                transfer(fabric, accel, edge, 1024).await?;
            }
            Strategy::NaiveRemote => {
                // Stages land wherever; intermediates round-trip through
                // the replicated store.
                // Fixed CPU nodes (warm after the first request): the
                // naive penalty must come from data movement, not from
                // instance churn.
                let ingest_node = self.cpu_nodes[0];
                let post_node = self.cpu_nodes[1 % self.cpu_nodes.len()];

                transfer(fabric, edge, ingest_node, upload_bytes).await?;
                let vi = self.ingest.variants[0].clone();
                runtime
                    .invoke_on(
                        &self.ingest,
                        &vi,
                        ingest_node,
                        req(body.clone()),
                        data.clone(),
                    )
                    .await?;
                // Upload file to remote storage (eventual, per Figure 2's
                // uploads archive)...
                let upload_obj = self
                    .client_at(ingest_node)
                    .create(
                        CreateOptions::regular()
                            // Strong consistency: the GPU stage must see
                            // the upload immediately from another node.
                            .with_consistency(Consistency::Linearizable)
                            .with_initial(Bytes::from(vec![0x55u8; upload_bytes])),
                    )
                    .await?;
                // ...pulled onto the GPU node.
                let (_m, _d) = {
                    let c = self.client_at(accel);
                    let d = CloudInterface::read(&c, &upload_obj, 0, u64::MAX).await?;
                    ((), d)
                };
                fabric.handle().sleep(cuda_memcpy(upload_bytes)).await;
                self.read_weights(accel).await?;
                runtime
                    .invoke_on(
                        &self.infer,
                        &infer_v,
                        accel,
                        req(body.clone()),
                        data.clone(),
                    )
                    .await?;
                fabric.handle().sleep(cuda_memcpy(1024)).await;
                // Result object to storage, read by the post stage.
                let result_obj = self
                    .client_at(accel)
                    .create(
                        CreateOptions::regular()
                            .with_consistency(Consistency::Linearizable)
                            .with_initial(Bytes::from(vec![0u8; 1024])),
                    )
                    .await?;
                let c = self.client_at(post_node);
                CloudInterface::read(&c, &result_obj, 0, u64::MAX).await?;
                let vp = self.post.variants[0].clone();
                runtime
                    .invoke_on(&self.post, &vp, post_node, req(body), data)
                    .await?;
                transfer(fabric, post_node, edge, 1024).await?;
                // Ephemeral intermediates are deleted (GC would otherwise
                // reclaim them; deleting keeps the store small during
                // long benchmark runs).
                self.client_at(ingest_node).delete(&upload_obj).await?;
                self.client_at(accel).delete(&result_obj).await?;
            }
        }
        Ok(())
    }

    /// Reads the model weights at `node` (hits the node cache after the
    /// first pull — immutability makes that sound).
    async fn read_weights(&self, node: NodeId) -> Result<(), PcsiError> {
        let c = self.client_at(node);
        CloudInterface::read(&c, &self.weights, 0, u64::MAX).await?;
        Ok(())
    }

    fn client_at(&self, node: NodeId) -> KernelClient {
        self.cloud.kernel.client(node, "model-serving")
    }
}

fn req(body: Bytes) -> InvokeRequest {
    InvokeRequest::with_body(body)
}

fn body_len(body: &Bytes) -> usize {
    body.as_ref()
        .try_into()
        .map(u64::from_le_bytes)
        .unwrap_or(0) as usize
}

async fn transfer(
    fabric: &pcsi_net::Fabric,
    from: NodeId,
    to: NodeId,
    bytes: usize,
) -> Result<(), PcsiError> {
    fabric
        .transfer(from, to, bytes, Transport::Tcp)
        .await
        .map(|_| ())
        .map_err(|e| PcsiError::Fault(e.to_string()))
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
    for strategy in Strategy::ALL {
        out.push(
            app.run(strategy, warmup, requests, upload_bytes, "gpu")
                .await?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CloudBuilder;
    use pcsi_sim::Sim;

    /// Shared scenario: 8-node CPU pool + GPU rack + TPU rack, 64 MiB
    /// weights, 1 MiB uploads.
    fn scenario(requests: u64) -> Vec<PipelineReport> {
        let mut sim = Sim::new(21);
        let h = sim.handle();
        sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
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
        let mut sim = Sim::new(22);
        let h = sim.handle();
        let (gpu_mean, tpu_mean) = sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
            let mut app = ModelServing::deploy(&cloud, NodeId(0), 16 << 20)
                .await
                .unwrap();
            let gpu = app
                .run(Strategy::Colocated, 2, 5, 1 << 20, "gpu")
                .await
                .unwrap();
            // §4.3: drop in a TPU variant; nothing else changes.
            app.add_infer_variant(tpu_variant(40.0));
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
}
