//! Task-graph execution through the kernel (§3.1, §4.1).
//!
//! "In addition to invoking individual functions, users can build task
//! graphs, which opens up optimization opportunities such as pipelining
//! or physical co-location." [`GraphExecutor`] takes an ahead-of-time
//! [`TaskGraph`], resolves each stage's function object through the
//! caller's namespace, plans placement from the graph's co-location
//! groups (one node per connected component when a node fits the group's
//! combined demand), and executes stages in topological order.
//!
//! Dataflow contract: a stage's pass-by-value response body is delivered
//! as the request body of each consumer (multiple producers concatenate
//! in dependency order). Larger state flows through explicit object
//! references declared per stage, exactly like a hand-written pipeline.

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};
use pcsi_core::api::InvokeRequest;
use pcsi_core::{CloudInterface, ObjectKind, PcsiError, Reference};
use pcsi_faas::function::FunctionImage;
use pcsi_faas::graph::TaskGraph;
use pcsi_faas::registry::choose_variant;
use pcsi_faas::scheduler::{place, PlacementPolicy, PlacementRequest};
use pcsi_net::{NodeId, Transport};

use crate::kernel::KernelClient;

/// Per-stage execution inputs beyond the graph structure.
#[derive(Debug, Clone, Default)]
pub struct StageBinding {
    /// Extra pass-by-value bytes prepended to the dataflow body.
    pub body: Bytes,
    /// Explicit data-layer inputs.
    pub inputs: Vec<Reference>,
    /// Explicit data-layer outputs.
    pub outputs: Vec<Reference>,
}

/// Where each stage ran and what it returned.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// Stage index in the graph.
    pub stage: usize,
    /// Node the stage executed on.
    pub node: NodeId,
    /// The stage's response body.
    pub(crate) body: Bytes,
    /// Whether the invocation paid a cold start.
    pub cold_start: bool,
}

/// The result of one graph execution.
#[derive(Debug, Clone)]
pub struct GraphRun {
    /// Per-stage outcomes, indexed by stage.
    pub stages: Vec<StageOutcome>,
    /// The final stages' (no-consumer stages') bodies, in index order.
    pub outputs: Vec<Bytes>,
}

/// Executes task graphs for one client.
pub struct GraphExecutor {
    client: KernelClient,
    /// Function references by image name, resolved before execution.
    functions: HashMap<String, Reference>,
}

impl GraphExecutor {
    /// Resolves the graph's function names from a namespace directory
    /// (each stage name looked up as a path) and builds an executor.
    pub async fn from_namespace(
        client: KernelClient,
        root: &Reference,
        graph: &TaskGraph,
    ) -> Result<Self, PcsiError> {
        let mut functions = HashMap::new();
        for stage in graph.stages() {
            if functions.contains_key(&stage.function) {
                continue;
            }
            let f = client.lookup(root, &stage.function).await?;
            functions.insert(stage.function.clone(), f);
        }
        Ok(GraphExecutor { client, functions })
    }

    /// Loads and decodes a stage's function image.
    async fn image(&self, name: &str) -> Result<FunctionImage, PcsiError> {
        let f = self
            .functions
            .get(name)
            .ok_or_else(|| PcsiError::NameNotFound(format!("function {name:?}")))?;
        let meta = self.client.stat(f).await?;
        if meta.kind != ObjectKind::Function {
            return Err(PcsiError::WrongKind {
                id: f.id(),
                expected: "function",
                actual: meta.kind.name(),
            });
        }
        let bytes = self.client.read(f, 0, u64::MAX).await?;
        FunctionImage::decode(&bytes)
    }

    /// Plans one node per co-location group.
    ///
    /// For each group the planner sums the chosen variants' demands
    /// (stages of one request pipeline overlap when pipelined) and picks
    /// a node that fits via the scavenging policy; a group that fits
    /// nowhere falls back to per-stage placement (`None` entries).
    async fn plan(
        &self,
        graph: &TaskGraph,
        images: &HashMap<usize, FunctionImage>,
    ) -> Result<Vec<Option<NodeId>>, PcsiError> {
        let runtime = self.client.kernel().runtime();
        let mut node_of_stage: Vec<Option<NodeId>> = vec![None; graph.len()];
        for group in graph.colocation_groups() {
            let demand = graph.group_demand(&group, |s| {
                let image = &images[&s];
                let variant_name = graph.stages()[s].variant.as_deref();
                let variant = variant_name
                    .and_then(|v| image.variant(v))
                    .unwrap_or(&image.variants[0]);
                variant.demand
            });
            let node = place(
                runtime.cluster(),
                PlacementPolicy::Scavenge,
                &PlacementRequest {
                    demand,
                    prefer_node: None,
                    warm_nodes: Vec::new(),
                },
            );
            if let Some(node) = node {
                for &s in &group {
                    node_of_stage[s] = Some(node);
                }
            }
        }
        Ok(node_of_stage)
    }

    /// Executes `graph` with `bindings` (missing stages get defaults).
    pub async fn execute(
        &self,
        graph: &TaskGraph,
        bindings: &HashMap<usize, StageBinding>,
    ) -> Result<GraphRun, PcsiError> {
        let order = graph.topo_order()?;

        // Load every image once.
        let mut images: HashMap<usize, FunctionImage> = HashMap::new();
        for &s in &order {
            let image = self.image(&graph.stages()[s].function).await?;
            images.insert(s, image);
        }
        let placement = self.plan(graph, &images).await?;

        let runtime = self.client.kernel().runtime().clone();

        let mut outcomes: Vec<Option<StageOutcome>> = vec![None; graph.len()];
        for &s in &order {
            let spec = &graph.stages()[s];
            let image = &images[&s];
            let variant = match &spec.variant {
                Some(name) => image
                    .variant(name)
                    .ok_or_else(|| PcsiError::NoViableVariant(name.clone()))?
                    .clone(),
                None => {
                    let warm = |v: &str| !runtime.warm_nodes(&image.name, v).is_empty();
                    choose_variant(image, 0, pcsi_faas::registry::Goal::Balanced, warm)?.clone()
                }
            };

            // Assemble the dataflow body: binding bytes, then producer
            // bodies in dependency order.
            let binding = bindings.get(&s).cloned().unwrap_or_default();
            let mut body = BytesMut::from(&binding.body[..]);
            for &dep in &spec.deps {
                let produced = &outcomes[dep]
                    .as_ref()
                    .expect("topological order guarantees producers ran")
                    .body;
                body.extend_from_slice(produced);
            }
            let body = body.freeze();

            // Node: the plan's group node if it fits the variant, else
            // runtime placement biased toward the group node.
            let hint = placement[s];
            let req = InvokeRequest {
                body: body.clone(),
                inputs: binding.inputs.clone(),
                outputs: binding.outputs.clone(),
            };
            let data = std::rc::Rc::new(self.client_for(hint));
            let (resp, node) = match hint {
                Some(node) => runtime.invoke_on(image, &variant, node, req, data).await?,
                None => {
                    runtime
                        .invoke_variant(image, &variant, req, data, None)
                        .await?
                }
            };

            // Cross-group body movement is charged to the fabric.
            for consumer in graph.consumers(s) {
                if placement[consumer] != placement[s] {
                    let to = placement[consumer].unwrap_or(node);
                    if to != node {
                        self.client
                            .kernel()
                            .fabric()
                            .transfer(node, to, resp.body.len().max(64), Transport::Rdma)
                            .await
                            .map_err(|e| PcsiError::Fault(e.to_string()))?;
                    }
                }
            }
            outcomes[s] = Some(StageOutcome {
                stage: s,
                node,
                body: resp.body,
                cold_start: resp.cold_start,
            });
        }

        let stages: Vec<StageOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("all stages executed"))
            .collect();
        let outputs = stages
            .iter()
            .filter(|o| graph.consumers(o.stage).is_empty())
            .map(|o| o.body.clone())
            .collect();
        Ok(GraphRun { stages, outputs })
    }

    fn client_for(&self, node: Option<NodeId>) -> KernelClient {
        match node {
            Some(n) => self.client.kernel().client(n, self.client.account()),
            None => self.client.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CloudBuilder;
    use pcsi_core::api::CreateOptions;
    use pcsi_faas::function::WorkModel;
    use pcsi_sim::Sim;
    use std::rc::Rc;
    use std::time::Duration;

    async fn publish(client: &KernelClient, image: &FunctionImage) -> Result<Reference, PcsiError> {
        client.create(CreateOptions::function(image.encode())).await
    }

    fn body_str(b: &Bytes) -> String {
        String::from_utf8_lossy(b).into_owned()
    }

    #[test]
    fn linear_graph_threads_bodies_through() {
        let mut sim = Sim::new(61);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
            for name in ["a", "b", "c"] {
                let tag = name.to_owned();
                cloud.kernel.register_body(
                    name,
                    Rc::new(move |ctx| {
                        let tag = tag.clone();
                        Box::pin(async move {
                            ctx.compute(Duration::from_micros(100)).await;
                            let mut out = body_str(&ctx.body);
                            out.push_str(&tag);
                            Ok(Bytes::from(out.into_bytes()))
                        })
                    }),
                );
            }
            let client = cloud.kernel.client(NodeId(0), "t");
            let mut functions = HashMap::new();
            for name in ["a", "b", "c"] {
                let image =
                    FunctionImage::simple(name, WorkModel::fixed(Duration::from_micros(100)), 1);
                functions.insert(name.to_owned(), publish(&client, &image).await.unwrap());
            }
            let graph = TaskGraph::linear(&["a", "b", "c"]);
            let exec = GraphExecutor { client, functions };
            let mut bindings = HashMap::new();
            bindings.insert(
                0,
                StageBinding {
                    body: Bytes::from_static(b">"),
                    ..Default::default()
                },
            );
            exec.execute(&graph, &bindings).await.unwrap()
        });
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(body_str(&out.outputs[0]), ">abc");
        // A linear chain is one co-location group: all on one node.
        let nodes: Vec<NodeId> = out.stages.iter().map(|s| s.node).collect();
        assert!(nodes.windows(2).all(|w| w[0] == w[1]), "{nodes:?}");
    }

    #[test]
    fn diamond_graph_concatenates_in_dep_order() {
        let mut sim = Sim::new(62);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
            for name in ["src", "left", "right", "join"] {
                let tag = format!("[{name}]");
                cloud.kernel.register_body(
                    name,
                    Rc::new(move |ctx| {
                        let tag = tag.clone();
                        Box::pin(async move {
                            let mut out = body_str(&ctx.body);
                            out.push_str(&tag);
                            Ok(Bytes::from(out.into_bytes()))
                        })
                    }),
                );
            }
            let client = cloud.kernel.client(NodeId(0), "t");
            let mut functions = HashMap::new();
            for name in ["src", "left", "right", "join"] {
                let image = FunctionImage::simple(name, WorkModel::fixed(Duration::ZERO), 1);
                functions.insert(name.to_owned(), publish(&client, &image).await.unwrap());
            }
            let mut graph = TaskGraph::new();
            let s = graph.add_stage("src", None, vec![]);
            let l = graph.add_stage("left", None, vec![s]);
            let r = graph.add_stage("right", None, vec![s]);
            let _j = graph.add_stage("join", None, vec![l, r]);
            let exec = GraphExecutor { client, functions };
            exec.execute(&graph, &HashMap::new()).await.unwrap()
        });
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(body_str(&out.outputs[0]), "[src][left][src][right][join]");
    }

    #[test]
    fn stages_can_use_explicit_state() {
        let mut sim = Sim::new(63);
        let h = sim.handle();
        let stored = sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
            cloud.kernel.register_body(
                "persist",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        ctx.data.write(&ctx.outputs[0], 0, ctx.body.clone()).await?;
                        Ok(Bytes::new())
                    })
                }),
            );
            let client = cloud.kernel.client(NodeId(0), "t");
            let image = FunctionImage::simple("persist", WorkModel::fixed(Duration::ZERO), 1);
            let mut functions = HashMap::new();
            functions.insert(
                "persist".to_owned(),
                publish(&client, &image).await.unwrap(),
            );
            let sink = client.create(CreateOptions::regular()).await.unwrap();

            let graph = TaskGraph::linear(&["persist"]);
            let exec = GraphExecutor {
                client: client.clone(),
                functions,
            };
            let mut bindings = HashMap::new();
            bindings.insert(
                0,
                StageBinding {
                    body: Bytes::from_static(b"durable"),
                    outputs: vec![sink.clone()],
                    ..Default::default()
                },
            );
            exec.execute(&graph, &bindings).await.unwrap();
            client.read(&sink, 0, 64).await.unwrap()
        });
        assert_eq!(&stored[..], b"durable");
    }

    #[test]
    fn missing_function_is_reported() {
        let mut sim = Sim::new(64);
        let h = sim.handle();
        let err = sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
            let client = cloud.kernel.client(NodeId(0), "t");
            let graph = TaskGraph::linear(&["ghost"]);
            let exec = GraphExecutor {
                client,
                functions: HashMap::new(),
            };
            exec.execute(&graph, &HashMap::new()).await.unwrap_err()
        });
        assert!(matches!(err, PcsiError::NameNotFound(_)));
    }

    #[test]
    fn namespace_resolution_builds_executor() {
        let mut sim = Sim::new(65);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
            cloud.kernel.register_body(
                "hello",
                Rc::new(|_ctx| Box::pin(async move { Ok(Bytes::from_static(b"hi")) })),
            );
            let client = cloud.kernel.client(NodeId(0), "t");
            let image = FunctionImage::simple("hello", WorkModel::fixed(Duration::ZERO), 1);
            let f = publish(&client, &image).await.unwrap();
            let root = client.create(CreateOptions::directory()).await.unwrap();
            client.link(&root, "hello", &f).await.unwrap();

            let graph = TaskGraph::linear(&["hello"]);
            let exec = GraphExecutor::from_namespace(client, &root, &graph)
                .await
                .unwrap();
            exec.execute(&graph, &HashMap::new()).await.unwrap()
        });
        assert_eq!(&out.outputs[0][..], b"hi");
    }
}
