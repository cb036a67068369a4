//! The two-item consistency menu, measured (§3.3).
//!
//! Writes and reads one object at both menu levels from clients all over
//! the cluster, reporting operation latency and observed staleness — the
//! trade the paper says applications should choose between, with the
//! mechanism (quorums, anti-entropy) hidden behind the interface.
//!
//! Run with: `cargo run --release --example consistency_menu`

use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency};
use pcsi_metrics::Histogram;
use pcsi_net::NodeId;
use pcsi_sim::Sim;

fn main() {
    let mut sim = Sim::new(77);
    let h = sim.handle();
    sim.block_on(async move {
        let cloud = CloudBuilder::new().build(&h);
        println!(
            "{:<14} {:>14} {:>14} {:>12}",
            "consistency", "write p50", "read p50", "stale reads"
        );

        for consistency in [Consistency::Linearizable, Consistency::Eventual] {
            let writer = cloud.kernel.client(NodeId(0), "menu");
            let obj = writer
                .create(
                    CreateOptions::regular()
                        .with_consistency(consistency)
                        .with_initial(vec![0u8; 1024]),
                )
                .await
                .unwrap();

            let writes = Histogram::new();
            let reads = Histogram::new();
            let mut stale = 0u64;
            let mut total_reads = 0u64;
            let nodes = cloud.fabric.topology().node_ids();

            for round in 1..=100u8 {
                // Write a new version...
                let t0 = h.now();
                writer
                    .write(&obj, 0, Bytes::from(vec![round; 1024]))
                    .await
                    .unwrap();
                writes.record_duration(h.now() - t0);

                // ...and immediately read from three scattered clients.
                for &node in [&nodes[3], &nodes[7], &nodes[nodes.len() - 1]] {
                    let reader = cloud.kernel.client(node, "menu");
                    let t1 = h.now();
                    let data = reader.read(&obj, 0, 1).await.unwrap();
                    reads.record_duration(h.now() - t1);
                    total_reads += 1;
                    if data[0] != round {
                        stale += 1;
                    }
                }
            }

            println!(
                "{:<14} {:>11.1} us {:>11.1} us {:>7}/{} ({:.1}%)",
                consistency.as_str(),
                writes.quantile(0.5) as f64 / 1e3,
                reads.quantile(0.5) as f64 / 1e3,
                stale,
                total_reads,
                100.0 * stale as f64 / total_reads as f64
            );
        }

        println!("\nlinearizable: every read saw its write; eventual: cheaper ops, ");
        println!("stale until anti-entropy converges — pick per object, per §3.3.");

        // Demonstrate convergence: sleep past a few anti-entropy rounds.
        let writer = cloud.kernel.client(NodeId(0), "menu");
        let obj = writer
            .create(
                CreateOptions::regular()
                    .with_consistency(Consistency::Eventual)
                    .with_initial(vec![1u8; 8]),
            )
            .await
            .unwrap();
        writer
            .write(&obj, 0, Bytes::from(vec![2u8; 8]))
            .await
            .unwrap();
        h.sleep(Duration::from_secs(1)).await;
        let far = cloud.kernel.client(NodeId(9), "menu");
        let v = far.read(&obj, 0, 1).await.unwrap();
        println!(
            "after 1 s of anti-entropy, a far replica reads version byte {} (converged: {})",
            v[0],
            v[0] == 2
        );
    });
}
