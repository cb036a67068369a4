//! Figure 2: the model-serving pipeline, end to end through the PCSI API.
//!
//! Reproduces the paper's worked example — an HTTP-ingest function, a
//! GPU prediction function, and a post-processing function wired together
//! with a socket object, stored state, and a FIFO — entirely through
//! `CloudInterface` + function bodies using their `DataPlane` capability.
//! Then runs the §4.1 placement comparison (naive / co-located /
//! monolithic) and prints the E4 table.
//!
//! Run with: `cargo run --release --example model_serving`

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::pipelines::compare_strategies;
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Consistency, Mutability, ObjectKind, Rights};
use pcsi_faas::function::{FunctionImage, WorkModel};
use pcsi_net::NodeId;

fn main() {
    Lab::run(7, CloudBuilder::new(), |Lab { cloud, h, .. }| async move {
        let client = cloud.kernel.client(NodeId(0), "figure-2");

        println!("== Figure 2, literally: socket -> ingest -> NN -> FIFO -> post\n");

        // --- State layer objects ----------------------------------------
        // The TCP connection object the user's request arrives on.
        let tcp = client
            .create(CreateOptions {
                kind: ObjectKind::Socket,
                mutability: Mutability::AppendOnly,
                consistency: Consistency::Linearizable,
                initial: Bytes::new(),
                fifo_capacity: None,
            })
            .await
            .unwrap();
        // The uploads directory and model weights (strongly consistent,
        // rarely changing, replicated widely -- and immutable, so every
        // node may cache them).
        let uploads = client.create(CreateOptions::directory()).await.unwrap();
        let weights = client
            .create(
                CreateOptions::regular()
                    .with_mutability(Mutability::Immutable)
                    .with_consistency(Consistency::Linearizable)
                    .with_initial(Bytes::from(vec![0x57; 4 << 20])),
            )
            .await
            .unwrap();
        // The FIFO connecting prediction to post-processing.
        let fifo = client.create(CreateOptions::fifo()).await.unwrap();
        // User metrics: eventually consistent append-only log.
        let metrics = client
            .create(
                CreateOptions::regular()
                    .with_mutability(Mutability::AppendOnly)
                    .with_consistency(Consistency::Eventual),
            )
            .await
            .unwrap();

        // --- Function bodies ---------------------------------------------
        // Ingest: pops the HTTP request off the TCP object, streams the
        // decoded upload into a file it creates no name for (reference
        // only), and returns the upload's bytes length.
        cloud.kernel.register_body(
            "fig2-ingest",
            Rc::new(|ctx| {
                Box::pin(async move {
                    let request = ctx.data.pop(&ctx.inputs[0]).await?; // TCP socket.
                    ctx.compute(
                        Duration::from_millis(1) + Duration::from_nanos(request.len() as u64 / 2),
                    )
                    .await;
                    // Write the decoded image to the upload file object.
                    ctx.data.write(&ctx.outputs[0], 0, request).await?;
                    Ok(Bytes::new())
                })
            }),
        );
        // Prediction: reads the upload + weights, produces a result.
        cloud.kernel.register_body(
            "fig2-nn",
            Rc::new(|ctx| {
                Box::pin(async move {
                    let upload = ctx.data.read(&ctx.inputs[0], 0, u64::MAX).await?;
                    let _weights = ctx.data.read(&ctx.inputs[1], 0, u64::MAX).await?;
                    ctx.compute(Duration::from_millis(100)).await;
                    let label = if upload.first().copied().unwrap_or(0) % 2 == 0 {
                        "cat"
                    } else {
                        "dog"
                    };
                    // Push the prediction into the FIFO for post-processing.
                    ctx.data
                        .append(&ctx.outputs[0], Bytes::from(label.as_bytes().to_vec()))
                        .await?;
                    Ok(Bytes::new())
                })
            }),
        );
        // Post-processing: pops the FIFO, records a metric, completes the
        // HTTP response on the original TCP object.
        cloud.kernel.register_body(
            "fig2-post",
            Rc::new(|ctx| {
                Box::pin(async move {
                    let label = ctx.data.pop(&ctx.inputs[0]).await?; // FIFO.
                    ctx.compute(Duration::from_micros(500)).await;
                    ctx.data
                        .append(&ctx.outputs[1], Bytes::from_static(b"served;"))
                        .await?; // Metrics log (eventual).
                    let mut resp = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
                    resp.extend_from_slice(&label);
                    ctx.data.append(&ctx.outputs[0], Bytes::from(resp)).await?; // TCP.
                    Ok(Bytes::new())
                })
            }),
        );

        // --- Publish functions as data-layer objects ---------------------
        let publish = |name: &str, cores: u32| {
            let client = client.clone();
            let image =
                FunctionImage::simple(name, WorkModel::fixed(Duration::from_millis(1)), cores);
            async move {
                client
                    .create(CreateOptions::function(image.encode()))
                    .await
                    .unwrap()
            }
        };
        let f_ingest = publish("fig2-ingest", 2).await;
        let f_nn = publish("fig2-nn", 8).await;
        let f_post = publish("fig2-post", 1).await;

        // --- One request through the pipeline ----------------------------
        let upload_file = client.create(CreateOptions::regular()).await.unwrap();
        client
            .link(
                &uploads,
                "req-0001.jpg",
                &upload_file.attenuate(Rights::READ | Rights::GRANT).unwrap(),
            )
            .await
            .unwrap();

        // The user's HTTP request lands on the TCP object.
        client
            .append(&tcp, Bytes::from(vec![0x11; 256 * 1024]))
            .await
            .unwrap();

        let t0 = h.now();
        client
            .invoke(
                &f_ingest,
                InvokeRequest::default()
                    .input(tcp.attenuate(Rights::READ).unwrap())
                    .output(upload_file.clone()),
            )
            .await
            .unwrap();
        client
            .invoke(
                &f_nn,
                InvokeRequest::default()
                    .input(upload_file.attenuate(Rights::READ).unwrap())
                    .input(weights.attenuate(Rights::READ).unwrap())
                    .output(fifo.attenuate(Rights::APPEND).unwrap()),
            )
            .await
            .unwrap();
        client
            .invoke(
                &f_post,
                InvokeRequest::default()
                    .input(fifo.attenuate(Rights::READ).unwrap())
                    .output(tcp.attenuate(Rights::APPEND).unwrap())
                    .output(metrics.attenuate(Rights::APPEND).unwrap()),
            )
            .await
            .unwrap();
        let http_response = client.pop(&tcp).await.unwrap();
        println!(
            "pipeline answered in {:?} (cold): {:?}",
            h.now() - t0,
            String::from_utf8_lossy(&http_response)
        );

        // Warm pass.
        client
            .append(&tcp, Bytes::from(vec![0x12; 256 * 1024]))
            .await
            .unwrap();
        let t1 = h.now();
        for (f, inputs, outputs) in [
            (
                &f_ingest,
                vec![tcp.attenuate(Rights::READ).unwrap()],
                vec![upload_file.clone()],
            ),
            (
                &f_nn,
                vec![
                    upload_file.attenuate(Rights::READ).unwrap(),
                    weights.attenuate(Rights::READ).unwrap(),
                ],
                vec![fifo.attenuate(Rights::APPEND).unwrap()],
            ),
            (
                &f_post,
                vec![fifo.attenuate(Rights::READ).unwrap()],
                vec![
                    tcp.attenuate(Rights::APPEND).unwrap(),
                    metrics.attenuate(Rights::APPEND).unwrap(),
                ],
            ),
        ] {
            let req = InvokeRequest {
                inputs,
                outputs,
                ..Default::default()
            };
            client.invoke(f, req).await.unwrap();
        }
        let resp2 = client.pop(&tcp).await.unwrap();
        println!(
            "pipeline answered in {:?} (warm): {:?}",
            h.now() - t1,
            String::from_utf8_lossy(&resp2)
        );
        println!(
            "metrics log now: {:?}\n",
            String::from_utf8_lossy(&client.read(&metrics, 0, 64).await.unwrap())
        );

        // --- §4.1: the placement comparison ------------------------------
        println!("== E4: placement strategies (32 MiB uploads, 64 MiB weights)");
        let reports = compare_strategies(&cloud, NodeId(0), 64 << 20, 32 << 20, 2, 8)
            .await
            .unwrap();
        println!(
            "{:<34} {:>12} {:>12} {:>14}",
            "strategy", "mean", "p99", "net bytes/req"
        );
        for r in &reports {
            println!(
                "{:<34} {:>9.2} ms {:>9.2} ms {:>14}",
                r.strategy.label(),
                r.latency.mean() as f64 / 1e6,
                r.latency.quantile(0.99) as f64 / 1e6,
                r.network_bytes_per_req
            );
        }
        let naive = reports[0].latency.mean() as f64;
        let colo = reports[1].latency.mean() as f64;
        let mono = reports[2].latency.mean() as f64;
        println!(
            "\nco-located is {:.0}% of monolithic; naive is {:.1}x slower than co-located",
            100.0 * colo / mono,
            naive / colo
        );
    });
}
