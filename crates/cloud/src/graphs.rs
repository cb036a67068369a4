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
//! A stage is an invocation like any other: the kernel admits it
//! (`KernelClient::load_function` — rights, kind, image) and runs it
//! (`KernelClient::invoke_stage` — schedule, run, bill, one
//! `kernel.invoke` op). All the executor adds is the plan: which node
//! each stage is pinned to and where its request bytes come from.
//!
//! Dataflow contract: a stage's pass-by-value response body is delivered
//! as the request body of each consumer (multiple producers concatenate
//! in dependency order). Bodies cross the fabric where they actually
//! move: the submitter's bytes to the stage they are bound to, a
//! producer's to a consumer on another node, a final stage's back to the
//! submitter. Larger state flows through explicit object references
//! declared per stage, exactly like a hand-written pipeline.

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};
use pcsi_core::api::InvokeRequest;
use pcsi_core::{CloudInterface, PcsiError, Reference};
use pcsi_faas::function::FunctionImage;
use pcsi_faas::graph::TaskGraph;
use pcsi_faas::scheduler::{place, PlacementPolicy, PlacementRequest};
use pcsi_net::NodeId;

use crate::kernel::{KernelClient, Route};

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

    /// Plans one node per co-location group.
    ///
    /// A node already holding a warm instance of every stage of the group
    /// needs no new capacity, so the group stays there. Otherwise the
    /// planner sums the stages' demands (stages of one request pipeline
    /// overlap when pipelined) and picks a node that fits via the
    /// scavenging policy; a group that fits nowhere falls back to
    /// per-stage placement (`None` entries). A stage is planned as the
    /// variant it names, else as its image's first.
    fn plan(&self, graph: &TaskGraph, images: &[FunctionImage]) -> Vec<Option<NodeId>> {
        let runtime = self.client.runtime();
        let variant_of = |s: usize| {
            let named = graph.stages()[s].variant.as_deref();
            named
                .and_then(|v| images[s].variant(v))
                .unwrap_or(&images[s].variants[0])
        };
        let warm_on = |s: usize| runtime.warm_nodes(&images[s].name, &variant_of(s).name);
        let mut node_of_stage: Vec<Option<NodeId>> = vec![None; graph.len()];
        for group in graph.colocation_groups() {
            let warm: Vec<Vec<NodeId>> = group.iter().map(|&s| warm_on(s)).collect();
            let settled = warm[0]
                .iter()
                .copied()
                .filter(|n| warm[1..].iter().all(|nodes| nodes.contains(n)))
                .min();
            let node = settled.or_else(|| {
                place(
                    runtime.cluster(),
                    PlacementPolicy::Scavenge,
                    &PlacementRequest {
                        demand: graph.group_demand(&group, |s| variant_of(s).demand),
                        ..Default::default()
                    },
                )
            });
            if let Some(node) = node {
                for &s in &group {
                    node_of_stage[s] = Some(node);
                }
            }
        }
        node_of_stage
    }

    /// Executes `graph` with `bindings` (missing stages get defaults).
    pub async fn execute(
        &self,
        graph: &TaskGraph,
        bindings: &HashMap<usize, StageBinding>,
    ) -> Result<GraphRun, PcsiError> {
        let order = graph.topo_order()?;
        let submitter = self.client.node();

        // Admit every stage before anything runs: one image per stage,
        // loaded once.
        let mut images = Vec::with_capacity(graph.len());
        for spec in graph.stages() {
            let f = self
                .functions
                .get(&spec.function)
                .ok_or_else(|| PcsiError::NameNotFound(format!("function {:?}", spec.function)))?;
            images.push(self.client.load_function(f).await?);
        }
        let placement = self.plan(graph, &images);

        let mut outcomes: Vec<Option<StageOutcome>> = vec![None; graph.len()];
        for &s in &order {
            let spec = &graph.stages()[s];
            let binding = bindings.get(&s).cloned().unwrap_or_default();
            let produced = |dep: &usize| {
                outcomes[*dep]
                    .as_ref()
                    .expect("topological order guarantees producers ran")
            };

            // Assemble the dataflow body: binding bytes, then producer
            // bodies in dependency order. A lone producer's body is
            // handed on as it is — no copy of a large intermediate.
            let body = match (&spec.deps[..], binding.body.is_empty()) {
                ([only], true) => produced(only).body.clone(),
                (deps, _) => {
                    let mut body = BytesMut::from(&binding.body[..]);
                    for dep in deps {
                        body.extend_from_slice(&produced(dep).body);
                    }
                    body.freeze()
                }
            };
            // Where those bytes sit now: the submitter holds the binding
            // body (and sends the bare request to a stage with no
            // producer), each producer's node holds what it returned.
            let mut sources = Vec::with_capacity(spec.deps.len() + 1);
            if spec.deps.is_empty() || !binding.body.is_empty() {
                sources.push((submitter, binding.body.len()));
            }
            sources.extend(
                spec.deps
                    .iter()
                    .map(|d| (produced(d).node, produced(d).body.len())),
            );

            let route = Route {
                variant: spec.variant.as_deref(),
                pin: placement[s],
                sources: &sources,
                reply_to: graph.consumers(s).is_empty().then_some(submitter),
            };
            let req = InvokeRequest {
                body,
                inputs: binding.inputs,
                outputs: binding.outputs,
            };
            let (resp, node) = self.client.invoke_stage(&images[s], route, req).await?;
            outcomes[s] = Some(StageOutcome {
                stage: s,
                node,
                body: resp.body,
                cold_start: resp.cold_start,
            });
        }

        let stages: Vec<StageOutcome> = outcomes.into_iter().flatten().collect();
        let outputs = stages
            .iter()
            .filter(|o| graph.consumers(o.stage).is_empty())
            .map(|o| o.body.clone())
            .collect();
        Ok(GraphRun { stages, outputs })
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

    /// Publishes `names` as one-core functions echoing their name, linked
    /// under a fresh directory with `rights`.
    async fn namespace(
        cloud: &crate::build::Cloud,
        client: &KernelClient,
        names: &[&str],
        cores: u32,
        rights: pcsi_core::Rights,
    ) -> Reference {
        let root = client.create(CreateOptions::directory()).await.unwrap();
        for name in names {
            let tag = Bytes::from(name.as_bytes().to_vec());
            cloud.kernel.register_body(
                name,
                Rc::new(move |_ctx| {
                    let tag = tag.clone();
                    Box::pin(async move { Ok(tag) })
                }),
            );
            let image = FunctionImage::simple(name, WorkModel::fixed(Duration::ZERO), cores);
            let f = publish(client, &image).await.unwrap();
            let entry = f.attenuate(rights).unwrap();
            client.link(&root, name, &entry).await.unwrap();
        }
        root
    }

    /// The executor is not a way around the capability check: a name that
    /// conveys no INVOKE right fails the submission, and nothing runs.
    #[test]
    fn a_stage_needs_invoke_rights() {
        use pcsi_core::Rights;
        let mut sim = Sim::new(66);
        let h = sim.handle();
        let (err, ran) = sim.block_on(async move {
            let cloud = CloudBuilder::new().deterministic_network().build(&h);
            let client = cloud.kernel.client(NodeId(0), "t");
            let readable = Rights::READ | Rights::GRANT;
            let root = namespace(&cloud, &client, &["a", "b"], 1, readable).await;
            let graph = TaskGraph::linear(&["a", "b"]);
            let exec = GraphExecutor::from_namespace(client, &root, &graph)
                .await
                .unwrap();
            let err = exec.execute(&graph, &HashMap::new()).await.unwrap_err();
            (err, cloud.runtime.invocations())
        });
        assert!(
            matches!(
                err,
                PcsiError::AccessDenied {
                    needed: pcsi_core::Rights::INVOKE,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(ran, 0, "no stage may run before every stage is admitted");
    }

    /// A stage is a kernel invocation: billed to the submitter's account
    /// and counted as one `invoke` op.
    #[test]
    fn a_graph_run_is_billed_and_counted() {
        let mut sim = Sim::new(67);
        let h = sim.handle();
        let (billed, ops, out) = sim.block_on(async move {
            let cloud = CloudBuilder::new()
                .deterministic_network()
                .metrics(true)
                .build(&h);
            let client = cloud.kernel.client(NodeId(0), "tenant");
            let all = pcsi_core::Rights::ALL;
            let root = namespace(&cloud, &client, &["a", "b", "c"], 1, all).await;
            let graph = TaskGraph::linear(&["a", "b", "c"]);
            let exec = GraphExecutor::from_namespace(client, &root, &graph)
                .await
                .unwrap();
            let before = cloud.billing.request_count("tenant");
            let out = exec.execute(&graph, &HashMap::new()).await.unwrap();
            let ops = cloud
                .metrics
                .as_ref()
                .unwrap()
                .find_counter("kernel.ops", &[("op", "invoke")])
                .map(|c| c.get());
            (cloud.billing.request_count("tenant") - before, ops, out)
        });
        assert_eq!(billed, 3);
        assert_eq!(ops, Some(3));
        assert_eq!(&out.outputs[0][..], b"c");
    }

    /// A group whose stages are all warm on one node stays there even
    /// when that node could not fit the group a second time: the plan
    /// asks for no capacity the warm instances already hold. (E4 on
    /// the 8-core TPU nodes is such a case: 5 cores warm, 5 more asked.)
    #[test]
    fn a_warm_group_stays_on_its_node() {
        let mut sim = Sim::new(68);
        let h = sim.handle();
        let runs = sim.block_on(async move {
            let cloud = CloudBuilder::new()
                .deterministic_network()
                .topology(pcsi_net::Topology::uniform(1, 3))
                .build(&h);
            let client = cloud.kernel.client(NodeId(0), "t");
            // Two 12-core stages: 24 of a node's 32 cores, so a second
            // copy of the group fits on no node that holds the first.
            let all = pcsi_core::Rights::ALL;
            let root = namespace(&cloud, &client, &["a", "b"], 12, all).await;
            let graph = TaskGraph::linear(&["a", "b"]);
            let exec = GraphExecutor::from_namespace(client, &root, &graph)
                .await
                .unwrap();
            let first = exec.execute(&graph, &HashMap::new()).await.unwrap();
            let second = exec.execute(&graph, &HashMap::new()).await.unwrap();
            [first, second]
        });
        let nodes = |r: &GraphRun| r.stages.iter().map(|s| s.node).collect::<Vec<_>>();
        assert_eq!(nodes(&runs[0]), nodes(&runs[1]));
        assert!(runs[0].stages.iter().all(|s| s.cold_start));
        assert!(runs[1].stages.iter().all(|s| !s.cold_start));
    }
}
