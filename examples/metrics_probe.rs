//! Read the unified metrics registry through a function's namespace.
//!
//! Builds the default cloud with metrics on, drives a little traffic
//! through the kernel and the replicated store, then does what a deployed
//! function would do to observe the system: create a `metrics` device
//! object, link it into its root directory as `dev/metrics`, resolve the
//! path, and read the snapshot with a plain file read — no side API, no
//! special rights beyond the capability it holds.
//!
//! Run with: `cargo run --example metrics_probe`

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, Mutability, ObjectKind};
use pcsi_net::NodeId;

fn main() {
    let builder = CloudBuilder::new().metrics(true);
    Lab::run(2026, builder, |Lab { cloud, .. }| async move {
        let client = cloud.kernel.client(NodeId(0), "probe");

        // Some traffic so the snapshot has something to say: a few
        // objects written, read back, and deleted across the store.
        for i in 0..8u8 {
            let obj = client
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Linearizable)
                        .with_initial(vec![i; 512]),
                )
                .await
                .unwrap();
            client.read(&obj, 0, 512).await.unwrap();
            client.read(&obj, 0, 64).await.unwrap();
            if i % 2 == 0 {
                client.delete(&obj).await.unwrap();
            }
        }

        // The function's namespace: a root directory with the metrics
        // device linked at dev/metrics.
        let root = client.create(CreateOptions::directory()).await.unwrap();
        let dev = client.create(CreateOptions::directory()).await.unwrap();
        let metrics_dev = client
            .create(CreateOptions {
                kind: ObjectKind::Device("metrics".into()),
                mutability: Mutability::Immutable,
                consistency: Consistency::Eventual,
                initial: Bytes::new(),
                fifo_capacity: None,
            })
            .await
            .unwrap();
        client.link(&root, "dev", &dev).await.unwrap();
        client.link(&dev, "metrics", &metrics_dev).await.unwrap();

        // What the function does: resolve the path it was given and read.
        let resolved = client.lookup(&root, "dev/metrics").await.unwrap();
        let snapshot = client.read(&resolved, 0, 1 << 20).await.unwrap();

        println!("== metrics snapshot read via dev/metrics ==");
        print!("{}", String::from_utf8_lossy(&snapshot));
        println!(
            "== fingerprint {:#018x} ==",
            pcsi_metrics::fingerprint(&String::from_utf8_lossy(&snapshot))
        );
    });
}
