//! Cross-crate integration: computation through the PCSI kernel.
//!
//! Functions are data-layer objects invoked through references (§3.1):
//! this file exercises the whole path — image stored in the replicated
//! store, INVOKE rights, variant optimization, explicit state-only
//! dataflow, dynamic (Ciel-style) nested invocation, autoscaling, and
//! pay-per-use billing.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, PcsiError, Reference, Rights};
use pcsi_faas::function::{FunctionImage, Variant, WorkModel};
use pcsi_faas::isolation::Backend;
use pcsi_faas::registry::Goal;
use pcsi_net::node::Resources;
use pcsi_net::NodeId;
use pcsi_sim::Sim;

fn with_cloud<T: 'static>(
    seed: u64,
    f: impl FnOnce(pcsi_cloud::Cloud) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>
        + 'static,
) -> T {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    sim.block_on(async move {
        let cloud = CloudBuilder::new().deterministic_network().build(&h);
        f(cloud).await
    })
}

/// Creates a function object holding `image` and returns its reference.
async fn publish(
    c: &pcsi_cloud::KernelClient,
    image: &FunctionImage,
) -> Result<Reference, PcsiError> {
    c.create(CreateOptions::function(image.encode())).await
}

#[test]
fn functions_are_objects_invoked_by_reference() {
    with_cloud(41, |cloud| {
        Box::pin(async move {
            cloud.kernel.register_body(
                "double",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        let n = u64::from_le_bytes(ctx.body[..8].try_into().unwrap());
                        Ok(Bytes::from((n * 2).to_le_bytes().to_vec()))
                    })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "t");
            let image =
                FunctionImage::simple("double", WorkModel::fixed(Duration::from_micros(50)), 1);
            let f = publish(&c, &image).await.unwrap();

            let resp = c
                .invoke(&f, InvokeRequest::with_body(21u64.to_le_bytes().to_vec()))
                .await
                .unwrap();
            assert_eq!(u64::from_le_bytes(resp.body[..8].try_into().unwrap()), 42);
            assert!(resp.cold_start);
            assert!(resp.billed_ns > 0);

            // Second call hits a warm instance.
            let resp2 = c
                .invoke(&f, InvokeRequest::with_body(5u64.to_le_bytes().to_vec()))
                .await
                .unwrap();
            assert!(!resp2.cold_start);

            // INVOKE right is mandatory.
            let no_invoke = f.attenuate(Rights::READ).unwrap();
            assert!(matches!(
                c.invoke(&no_invoke, InvokeRequest::default()).await,
                Err(PcsiError::AccessDenied { .. })
            ));
            // Invoking a non-function is a kind error.
            let blob = c.create(CreateOptions::regular()).await.unwrap();
            assert!(matches!(
                c.invoke(&blob, InvokeRequest::default()).await,
                Err(PcsiError::WrongKind { .. })
            ));
        })
    });
}

#[test]
fn bodies_touch_only_explicit_state() {
    with_cloud(42, |cloud| {
        Box::pin(async move {
            // word-count: reads input[0], writes the count to output[0].
            cloud.kernel.register_body(
                "wc",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        let text = ctx.data.read(&ctx.inputs[0], 0, u64::MAX).await?;
                        let words =
                            String::from_utf8_lossy(&text).split_whitespace().count() as u64;
                        ctx.data
                            .write(
                                &ctx.outputs[0],
                                0,
                                Bytes::from(words.to_le_bytes().to_vec()),
                            )
                            .await?;
                        ctx.compute(Duration::from_micros(200)).await;
                        Ok(Bytes::new())
                    })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "t");
            let image =
                FunctionImage::simple("wc", WorkModel::fixed(Duration::from_micros(200)), 1);
            let f = publish(&c, &image).await.unwrap();

            let input = c
                .create(
                    CreateOptions::regular().with_initial(&b"the restless cloud needs posix"[..]),
                )
                .await
                .unwrap();
            let output = c.create(CreateOptions::regular()).await.unwrap();

            c.invoke(
                &f,
                InvokeRequest::default()
                    .input(input.attenuate(Rights::READ).unwrap())
                    .output(output.clone()),
            )
            .await
            .unwrap();

            let out = c.read(&output, 0, 8).await.unwrap();
            assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 5);

            // The body's access is bounded by the reference it received:
            // a read-only output reference makes the write fail.
            let out2 = c.create(CreateOptions::regular()).await.unwrap();
            let err = c
                .invoke(
                    &f,
                    InvokeRequest::default()
                        .input(input.attenuate(Rights::READ).unwrap())
                        .output(out2.attenuate(Rights::READ).unwrap()),
                )
                .await
                .unwrap_err();
            assert!(matches!(err, PcsiError::AccessDenied { .. }), "{err:?}");
        })
    });
}

#[test]
fn dynamic_nested_invocation() {
    with_cloud(43, |cloud| {
        Box::pin(async move {
            // "outer" invokes "inner" through the data plane — the
            // dynamic task-graph pattern (Ciel/Ray).
            cloud.kernel.register_body(
                "inner",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        ctx.compute(Duration::from_micros(100)).await;
                        Ok(Bytes::from_static(b"inner-result"))
                    })
                }),
            );
            cloud.kernel.register_body(
                "outer",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        // The inner function's reference arrives as an
                        // explicit input — no ambient name resolution.
                        let inner_ref = ctx.inputs[0].clone();
                        let resp = ctx
                            .data
                            .invoke(&inner_ref, InvokeRequest::default())
                            .await?;
                        let mut out = b"outer+".to_vec();
                        out.extend_from_slice(&resp.body);
                        Ok(Bytes::from(out))
                    })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "t");
            let inner_img =
                FunctionImage::simple("inner", WorkModel::fixed(Duration::from_micros(100)), 1);
            let outer_img =
                FunctionImage::simple("outer", WorkModel::fixed(Duration::from_micros(100)), 1);
            let inner = publish(&c, &inner_img).await.unwrap();
            let outer = publish(&c, &outer_img).await.unwrap();

            let resp = c
                .invoke(
                    &outer,
                    InvokeRequest::default()
                        .input(inner.attenuate(Rights::INVOKE | Rights::READ).unwrap()),
                )
                .await
                .unwrap();
            assert_eq!(&resp.body[..], b"outer+inner-result");
        })
    });
}

#[test]
fn concurrent_invocations_autoscale_from_zero() {
    with_cloud(44, |cloud| {
        Box::pin(async move {
            cloud.kernel.register_body(
                "sleepy",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        ctx.compute(Duration::from_millis(20)).await;
                        Ok(Bytes::new())
                    })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "t");
            let image =
                FunctionImage::simple("sleepy", WorkModel::fixed(Duration::from_millis(20)), 2);
            let f = publish(&c, &image).await.unwrap();
            let h = cloud.fabric.handle().clone();

            let mut joins = Vec::new();
            for _ in 0..12 {
                let c2 = c.clone();
                let f2 = f.clone();
                joins.push(
                    h.spawn(async move { c2.invoke(&f2, InvokeRequest::default()).await.unwrap() }),
                );
            }
            let mut colds = 0;
            for j in joins {
                if j.await.cold_start {
                    colds += 1;
                }
            }
            assert_eq!(colds, 12, "scale-from-zero: every concurrent call boots");
            assert_eq!(cloud.runtime.peak_concurrency(), 12);
            assert_eq!(cloud.runtime.warm_count("sleepy", "cpu"), 12);
        })
    });
}

#[test]
fn variant_optimizer_picks_gpu_for_latency_cpu_for_cost() {
    with_cloud(45, |cloud| {
        Box::pin(async move {
            cloud.kernel.register_body(
                "nn",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        ctx.compute(Duration::from_millis(300)).await;
                        Ok(Bytes::new())
                    })
                }),
            );
            let image = FunctionImage {
                name: "nn".into(),
                work: WorkModel::fixed(Duration::from_millis(300)),
                variants: vec![
                    // Modest 2-core CPU variant: slow but cheap.
                    Variant::cpu(2),
                    Variant {
                        name: "gpu".into(),
                        backend: Backend::MicroVm,
                        demand: Resources {
                            cpu: 2,
                            gpu: 1,
                            tpu: 0,
                            mem_gib: 16,
                        },
                        // Modest speedup: fast but not cost-effective.
                        speedup: 4.0,
                    },
                ],
            };
            let c = cloud.kernel.client(NodeId(0), "t");
            let f = publish(&c, &image).await.unwrap();

            // Latency goal: GPU (0.075 s + warm) beats CPU (0.3 s).
            c.invoke_goal(&f, InvokeRequest::default(), Goal::MinLatency)
                .await
                .unwrap();
            assert_eq!(cloud.runtime.warm_count("nn", "gpu"), 1);
            // Cost goal: CPU is ~3.5x cheaper at 4x slower.
            c.invoke_goal(&f, InvokeRequest::default(), Goal::MinCost)
                .await
                .unwrap();
            assert_eq!(cloud.runtime.warm_count("nn", "cpu"), 1);
        })
    });
}

#[test]
fn pay_per_use_billing_accumulates() {
    with_cloud(46, |cloud| {
        Box::pin(async move {
            cloud.kernel.register_body(
                "metered",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        ctx.compute(Duration::from_millis(10)).await;
                        Ok(Bytes::new())
                    })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "acct-1");
            let image =
                FunctionImage::simple("metered", WorkModel::fixed(Duration::from_millis(10)), 2);
            let f = publish(&c, &image).await.unwrap();
            for _ in 0..5 {
                c.invoke(&f, InvokeRequest::default()).await.unwrap();
            }
            let invoice = cloud.billing.invoice("acct-1");
            assert!(invoice.compute > 0.0);
            assert_eq!(cloud.billing.request_count("acct-1"), 5);
            // Warm requests bill ~10 ms of 2 cores; the cold one also
            // bills its 250 ms boot. Sanity-bound the total.
            let upper = 2.0 * (0.048 / 3600.0) * (0.25 + 5.0 * 0.015) * 2.0;
            assert!(invoice.compute < upper, "{} < {upper}", invoice.compute);
            // Unused accounts stay at zero (isolation).
            assert_eq!(cloud.billing.invoice("acct-2").total(), 0.0);
        })
    });
}

#[test]
fn saturation_yields_overloaded_and_recovers() {
    with_cloud(48, |cloud| {
        Box::pin(async move {
            cloud.kernel.register_body(
                "hog",
                Rc::new(|ctx| {
                    Box::pin(async move {
                        ctx.compute(Duration::from_millis(50)).await;
                        Ok(Bytes::new())
                    })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "t");
            // 16 cores per instance: the default cluster has 8 compute
            // nodes x 32 + 4 GPU x 16 + 4 TPU x 8 cores = 352 cores; 16
            // GPU-free... hog takes plain CPU so it can land anywhere
            // with >= 16 free cores: 8*2 + 4*1 + 0 = 20 instances.
            let image =
                FunctionImage::simple("hog", WorkModel::fixed(Duration::from_millis(50)), 16);
            let f = publish(&c, &image).await.unwrap();
            let h = cloud.fabric.handle().clone();
            let mut joins = Vec::new();
            for _ in 0..30 {
                let c2 = c.clone();
                let f2 = f.clone();
                joins.push(h.spawn(async move { c2.invoke(&f2, InvokeRequest::default()).await }));
            }
            let mut ok = 0;
            let mut overloaded = 0;
            for j in joins {
                match j.await {
                    Ok(_) => ok += 1,
                    Err(PcsiError::Overloaded(_)) => overloaded += 1,
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
            assert!(ok >= 18, "ok = {ok}");
            assert!(overloaded >= 1, "overloaded = {overloaded}");
            // After the burst drains, capacity is available again.
            h.sleep(Duration::from_millis(200)).await;
            assert!(c.invoke(&f, InvokeRequest::default()).await.is_ok());
        })
    });
}

#[test]
fn updating_a_function_object_changes_behavior_in_place() {
    with_cloud(47, |cloud| {
        Box::pin(async move {
            // §3.1: "A function can be reimplemented without changing its
            // external interface." Swap the image contents behind the
            // same reference.
            cloud.kernel.register_body(
                "v1",
                Rc::new(|_ctx| Box::pin(async move { Ok(Bytes::from_static(b"one")) })),
            );
            cloud.kernel.register_body(
                "v2",
                Rc::new(|_ctx| Box::pin(async move { Ok(Bytes::from_static(b"two")) })),
            );
            let c = cloud.kernel.client(NodeId(0), "t");
            let img1 = FunctionImage::simple("v1", WorkModel::fixed(Duration::ZERO), 1);
            let f = publish(&c, &img1).await.unwrap();
            let r1 = c.invoke(&f, InvokeRequest::default()).await.unwrap();
            assert_eq!(&r1.body[..], b"one");

            let img2 = FunctionImage::simple("v2", WorkModel::fixed(Duration::ZERO), 1);
            c.write(&f, 0, img2.encode()).await.unwrap();
            // The image shrank or grew; rewrite cleanly via put-style
            // truncation: delete-and-rewrite is the simple route here.
            // (write() splices; if v2's encoding is shorter the tail of
            // v1 would remain, so verify via decode).
            let bytes = c.read(&f, 0, u64::MAX).await.unwrap();
            if FunctionImage::decode(&bytes).is_err() {
                // Fall back: full replace through delete + create is not
                // needed; just overwrite with explicit length by creating
                // a fresh object. For this test, equal-length names keep
                // the sizes identical, so decode must succeed.
                panic!("image overwrite produced undecodable bytes");
            }
            let r2 = c.invoke(&f, InvokeRequest::default()).await.unwrap();
            assert_eq!(&r2.body[..], b"two");
        })
    });
}

/// A `Sim` going out of scope frees the cloud deployed on it. The
/// background tasks (anti-entropy, reaper, autoscaler) hold handles
/// back into the executor that owns them — a cycle only `Sim`'s own
/// destructor breaks.
#[test]
fn dropping_the_sim_frees_the_deployed_cloud() {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let token = Rc::new(());
    let alive = Rc::downgrade(&token);
    sim.block_on({
        let h = h.clone();
        async move {
            let cloud = CloudBuilder::new()
                .autoscale(pcsi_faas::AutoscaleConfig::enabled())
                .build(&h);
            let c = cloud.kernel.client(NodeId(0), "t");
            c.create(CreateOptions::regular().with_initial(vec![1u8; 64]))
                .await
                .unwrap();
            // One more background task, owning the token and the cloud.
            let h2 = h.clone();
            h.spawn_detached(async move {
                loop {
                    h2.sleep(Duration::from_millis(50)).await;
                    let _ = (&token, &cloud);
                }
            });
            // Long enough for every periodic task to have ticked.
            h.sleep(Duration::from_millis(600)).await;
        }
    });
    assert!(h.live_tasks() > 3, "background tasks are parked");
    assert!(alive.upgrade().is_some());
    drop(sim);
    assert!(alive.upgrade().is_none(), "the task table was not freed");
    assert_eq!(h.live_tasks(), 0);
}

/// The handlers a cloud binds on its fabric own their services, which
/// own the fabric: a cycle outside the task table, which the end of the
/// simulation breaks too. Once the `Sim` and the last `Cloud` handle
/// are gone, nothing a device handler or a fabric handler captured is
/// still allocated.
#[test]
fn dropping_the_sim_frees_what_handlers_captured() {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let (device_token, bind_token) = (Rc::new(()), Rc::new(()));
    let alive = [Rc::downgrade(&device_token), Rc::downgrade(&bind_token)];
    let cloud = sim.block_on({
        let h = h.clone();
        async move {
            let cloud = CloudBuilder::new().build(&h);
            cloud.kernel.register_device(
                "token",
                Rc::new(move |_input| {
                    let _ = &device_token;
                    Ok(Bytes::new())
                }),
            );
            cloud.fabric.bind(
                NodeId(0),
                "token",
                Rc::new(move |payload, _ctx| {
                    let _ = &bind_token;
                    Box::pin(async move { Ok(payload) })
                }),
            );
            let c = cloud.kernel.client(NodeId(0), "t");
            c.create(CreateOptions::regular().with_initial(vec![1u8; 64]))
                .await
                .unwrap();
            cloud
        }
    });
    drop(sim);
    assert!(alive[0].upgrade().is_some(), "the handle owns the kernel");
    drop(cloud);
    assert!(
        alive.iter().all(|t| t.upgrade().is_none()),
        "the cloud outlived its simulation"
    );
}

/// One registry, one trace sink and one journal, reached by every
/// layer: each constructor on the path from `CloudBuilder::build` down
/// has to forward the telemetry it was handed, and the one that forgets
/// fails here by name.
#[test]
fn one_telemetry_reaches_every_layer() {
    let mut sim = Sim::new(77);
    let h = sim.handle();
    sim.block_on(async move {
        let cloud = CloudBuilder::new()
            .deterministic_network()
            .metrics(true)
            .tracing(pcsi_trace::Sampling::Always)
            .observability(pcsi_cloud::ObsConfig::default())
            .build(&h);
        cloud
            .kernel
            .register_body("echo", Rc::new(|ctx| Box::pin(async move { Ok(ctx.body) })));
        let c = cloud.kernel.client(NodeId(0), "t");
        let lin = c
            .create(
                CreateOptions::regular()
                    .with_consistency(pcsi_core::Consistency::Linearizable)
                    .with_initial(vec![0u8; 8]),
            )
            .await
            .unwrap();
        c.write(&lin, 0, Bytes::from_static(b"x")).await.unwrap();
        c.read(&lin, 0, 8).await.unwrap();
        let image = FunctionImage::simple("echo", WorkModel::fixed(Duration::from_micros(50)), 1);
        let f = publish(&c, &image).await.unwrap();
        c.invoke(&f, InvokeRequest::with_body(vec![1u8]))
            .await
            .unwrap();
        let fifo = c.create(CreateOptions::fifo()).await.unwrap();
        let sub = cloud
            .kernel
            .client(NodeId(5), "t")
            .subscribe(&fifo, 8)
            .await
            .unwrap();
        c.append(&fifo, Bytes::from_static(b"ev")).await.unwrap();
        sub.next().await.unwrap();
        cloud.kernel.revoke(lin.id()).unwrap();

        let snapshot = cloud.metrics.as_ref().unwrap().render();
        // `stream.frames` is the publisher's: subscriptions are handed the
        // registry per call and would cover for it.
        for layer in [
            "fabric.",
            "store.",
            "replica.",
            "kernel.",
            "faas.",
            "stream.frames",
        ] {
            assert!(
                snapshot.lines().any(|l| l
                    .split_whitespace()
                    .nth(1)
                    .is_some_and(|name| name.starts_with(layer))),
                "no {layer}* series in the registry:\n{snapshot}"
            );
        }

        // The invocation's trace: the kernel op, the store client reading
        // the image, the replicas serving it, the runtime running it.
        let spans = cloud.tracer.as_ref().unwrap().sink().snapshot();
        let trace = spans
            .iter()
            .find(|s| s.name == "kernel.invoke")
            .expect("the kernel recorded no span")
            .trace;
        for layer in ["kernel.", "store.", "replica.", "faas."] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.trace == trace && s.name.starts_with(layer)),
                "no {layer}* span under the invocation's trace"
            );
        }

        let journal = cloud.obs.as_ref().unwrap().journal().render();
        for layer in ["layer=kernel", "layer=faas"] {
            assert!(journal.contains(layer), "no {layer} record:\n{journal}");
        }
    });
}
