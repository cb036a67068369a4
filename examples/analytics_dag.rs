//! A data-analytics task graph through the PCSI interface.
//!
//! The paper's introduction motivates PCSI with workloads like "big data
//! analytics" that today live in their own service silos; §3.1 argues
//! they should be ordinary task graphs over the same two abstractions.
//! This example runs a small map/shuffle/reduce word-count DAG: three
//! partition mappers fan out over immutable input shards, a reducer joins
//! their partial counts, and everything flows through explicit state and
//! pass-by-value bodies — no analytics service required.
//!
//! Run with: `cargo run --release --example analytics_dag`

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::graphs::{GraphExecutor, StageBinding};
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Rights};
use pcsi_faas::function::{FunctionImage, WorkModel};
use pcsi_faas::graph::TaskGraph;
use pcsi_net::NodeId;

const SHARDS: [&str; 3] = [
    "the cloud is a computer the cloud is restless",
    "posix for the cloud a portable interface for the cloud",
    "functions and state state and functions in the cloud",
];

fn main() {
    let builder = CloudBuilder::new();
    Lab::run(314, builder, |Lab { cloud, h, .. }| async move {
        let client = cloud.kernel.client(NodeId(0), "analytics");

        // Function bodies: map counts words of its input shard and emits
        // "word:count;..." as its body; reduce merges its producers'
        // bodies (the executor concatenates them in dependency order).
        cloud.kernel.register_body(
            "wordcount-map",
            Rc::new(|ctx| {
                Box::pin(async move {
                    let shard = ctx.data.read(&ctx.inputs[0], 0, u64::MAX).await?;
                    let text = String::from_utf8_lossy(&shard).into_owned();
                    // Charge work proportional to shard size.
                    ctx.compute(Duration::from_micros(50 + shard.len() as u64))
                        .await;
                    let mut counts: HashMap<&str, u32> = HashMap::new();
                    for w in text.split_whitespace() {
                        *counts.entry(w).or_default() += 1;
                    }
                    let mut pairs: Vec<(&str, u32)> = counts.into_iter().collect();
                    pairs.sort_unstable();
                    // Trailing ';' so concatenated producer bodies stay
                    // well-formed at the reducer.
                    let mut body = pairs
                        .iter()
                        .map(|(w, c)| format!("{w}:{c}"))
                        .collect::<Vec<_>>()
                        .join(";");
                    body.push(';');
                    Ok(Bytes::from(body.into_bytes()))
                })
            }),
        );
        cloud.kernel.register_body(
            "wordcount-reduce",
            Rc::new(|ctx| {
                Box::pin(async move {
                    let text = String::from_utf8_lossy(&ctx.body).into_owned();
                    ctx.compute(Duration::from_micros(200)).await;
                    let mut totals: HashMap<String, u32> = HashMap::new();
                    // Producer bodies arrive concatenated; mappers emit
                    // ';'-separated pairs, so split on both boundaries.
                    for pair in text.split(';').filter(|p| !p.is_empty()) {
                        if let Some((w, c)) = pair.split_once(':') {
                            if let Ok(c) = c.parse::<u32>() {
                                *totals.entry(w.to_owned()).or_default() += c;
                            }
                        }
                    }
                    let mut pairs: Vec<(String, u32)> = totals.into_iter().collect();
                    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    let report = pairs
                        .iter()
                        .map(|(w, c)| format!("{w:>10} {c}"))
                        .collect::<Vec<_>>()
                        .join("\n");
                    // Persist the result to the output object too.
                    ctx.data
                        .write(&ctx.outputs[0], 0, Bytes::from(report.clone().into_bytes()))
                        .await?;
                    Ok(Bytes::from(report.into_bytes()))
                })
            }),
        );

        // Publish functions into a namespace (functions are objects).
        let root = client.create(CreateOptions::directory()).await.unwrap();
        for (name, cores) in [("wordcount-map", 2), ("wordcount-reduce", 2)] {
            let image =
                FunctionImage::simple(name, WorkModel::fixed(Duration::from_micros(200)), cores);
            let f = client
                .create(CreateOptions::function(image.encode()))
                .await
                .unwrap();
            client.link(&root, name, &f).await.unwrap();
        }

        // Load the input shards as immutable objects (cacheable anywhere).
        let mut shard_refs = Vec::new();
        for (i, text) in SHARDS.iter().enumerate() {
            let shard = client
                .create(CreateOptions::immutable(text.as_bytes().to_vec()))
                .await
                .unwrap();
            client
                .link(
                    &root,
                    &format!("shard-{i}"),
                    &shard.attenuate(Rights::READ | Rights::GRANT).unwrap(),
                )
                .await
                .unwrap();
            shard_refs.push(shard);
        }
        let result_obj = client.create(CreateOptions::regular()).await.unwrap();

        // The DAG: three mappers fan in to one reducer.
        let mut graph = TaskGraph::new();
        let maps: Vec<usize> = (0..SHARDS.len())
            .map(|_| graph.add_stage("wordcount-map", None, vec![]))
            .collect();
        let reduce = graph.add_stage("wordcount-reduce", None, maps.clone());

        let exec = GraphExecutor::from_namespace(client.clone(), &root, &graph)
            .await
            .unwrap();
        let mut bindings = HashMap::new();
        for (stage, shard) in maps.iter().zip(&shard_refs) {
            bindings.insert(
                *stage,
                StageBinding {
                    inputs: vec![shard.attenuate(Rights::READ).unwrap()],
                    ..Default::default()
                },
            );
        }
        bindings.insert(
            reduce,
            StageBinding {
                // Separator so concatenated map bodies stay well-formed.
                body: Bytes::new(),
                outputs: vec![result_obj.clone()],
                ..Default::default()
            },
        );

        let t0 = h.now();
        let run = exec.execute(&graph, &bindings).await.unwrap();
        let elapsed = h.now() - t0;

        println!("== word-count DAG over {} shards ==", SHARDS.len());
        for o in &run.stages {
            println!(
                "stage {} ({}) ran on {} ({})",
                o.stage,
                graph.stages()[o.stage].function,
                o.node,
                if o.cold_start { "cold" } else { "warm" }
            );
        }
        println!("\ntop words:");
        println!("{}", String::from_utf8_lossy(&run.outputs[0]));
        println!("\ncompleted in {elapsed:?} of virtual time");

        // The result is durable, reachable state like anything else.
        let persisted = client.read(&result_obj, 0, u64::MAX).await.unwrap();
        assert_eq!(persisted, run.outputs[0]);
        let top_line = String::from_utf8_lossy(&run.outputs[0])
            .lines()
            .next()
            .unwrap_or_default()
            .trim()
            .to_owned();
        // "the" and "cloud" tie at 5 apiece; ties sort alphabetically.
        assert!(
            top_line.starts_with("cloud 5"),
            "unexpected top word: {top_line}"
        );
    });
}
