//! Quickstart: a complete tour of the Portable Cloud System Interface.
//!
//! Builds a simulated cloud, then walks through the paper's core ideas:
//! objects + capability references, namespaces, the mutability lattice,
//! the consistency menu, and a function invocation — printing what each
//! step cost in (virtual) time.
//!
//! Run with: `cargo run --example quickstart`

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Consistency, Mutability, Rights};
use pcsi_faas::function::{FunctionImage, WorkModel};
use pcsi_net::NodeId;
use pcsi_sim::Sim;

fn main() {
    let mut sim = Sim::new(2026);
    let h = sim.handle();
    sim.block_on(async move {
        // A heterogeneous cluster: compute racks + a GPU rack + a TPU
        // rack, 2021-era network, 3-way replicated NVMe storage.
        let cloud = CloudBuilder::new().build(&h);
        let client = cloud.kernel.client(NodeId(0), "quickstart");

        println!("== 1. State: objects and capability references");
        let t0 = h.now();
        let doc = client
            .create(
                CreateOptions::regular()
                    .with_consistency(Consistency::Linearizable)
                    .with_initial(&b"hello, restless cloud"[..]),
            )
            .await
            .expect("create");
        println!("   created object {:?} in {:?}", doc.id(), h.now() - t0);

        let read_only = doc.attenuate(Rights::READ).expect("attenuate");
        let data = client.read(&read_only, 0, 64).await.expect("read");
        println!(
            "   read through attenuated ref: {:?}",
            String::from_utf8_lossy(&data)
        );
        let denied = client.write(&read_only, 0, Bytes::from_static(b"x")).await;
        println!("   write through read-only ref: {}", denied.unwrap_err());

        println!("== 2. Namespaces: no global root, names carry rights");
        let root = client.create(CreateOptions::directory()).await.unwrap();
        client
            .link(
                &root,
                "greeting",
                &doc.attenuate(Rights::READ | Rights::GRANT).unwrap(),
            )
            .await
            .unwrap();
        let resolved = client.lookup(&root, "greeting").await.unwrap();
        println!(
            "   lookup(root, \"greeting\") -> {:?} with rights {}",
            resolved.id(),
            resolved.rights()
        );

        println!("== 3. Figure 1: the mutability lattice");
        let log = client
            .create(CreateOptions::regular().with_mutability(Mutability::Mutable))
            .await
            .unwrap();
        client
            .set_mutability(&log, Mutability::AppendOnly)
            .await
            .unwrap();
        client
            .append(&log, Bytes::from_static(b"event-1;"))
            .await
            .unwrap();
        client
            .append(&log, Bytes::from_static(b"event-2;"))
            .await
            .unwrap();
        println!(
            "   APPEND_ONLY accepts appends; in-place write says: {}",
            client
                .write(&log, 0, Bytes::from_static(b"X"))
                .await
                .unwrap_err()
        );
        client
            .set_mutability(&log, Mutability::Immutable)
            .await
            .unwrap();
        println!(
            "   sealed IMMUTABLE; backward transition says: {}",
            client
                .set_mutability(&log, Mutability::Mutable)
                .await
                .unwrap_err()
        );

        println!("== 4. The consistency menu");
        for consistency in [Consistency::Linearizable, Consistency::Eventual] {
            let obj = client
                .create(CreateOptions::regular().with_consistency(consistency))
                .await
                .unwrap();
            let t0 = h.now();
            client
                .write(&obj, 0, Bytes::from(vec![1u8; 1024]))
                .await
                .unwrap();
            println!("   1 KiB write at {consistency}: {:?}", h.now() - t0);
        }

        println!("== 5. Computation: functions are objects");
        cloud.kernel.register_body(
            "greet",
            Rc::new(|ctx| {
                Box::pin(async move {
                    // Explicit state only: read input[0], no ambient access.
                    let who = ctx.data.read(&ctx.inputs[0], 0, 64).await?;
                    ctx.compute(Duration::from_millis(2)).await;
                    let mut out = b"greetings, ".to_vec();
                    out.extend_from_slice(&who);
                    Ok(Bytes::from(out))
                })
            }),
        );
        let image = FunctionImage::simple("greet", WorkModel::fixed(Duration::from_millis(2)), 1);
        let f = client
            .create(CreateOptions::function(image.encode()))
            .await
            .unwrap();
        let name = client
            .create(CreateOptions::regular().with_initial(&b"HotOS"[..]))
            .await
            .unwrap();

        let t0 = h.now();
        let cold = client
            .invoke(
                &f,
                InvokeRequest::default().input(name.attenuate(Rights::READ).unwrap()),
            )
            .await
            .unwrap();
        println!(
            "   cold invoke: {:?} in {:?} (cold_start = {})",
            String::from_utf8_lossy(&cold.body),
            h.now() - t0,
            cold.cold_start
        );
        let t1 = h.now();
        let warm = client
            .invoke(
                &f,
                InvokeRequest::default().input(name.attenuate(Rights::READ).unwrap()),
            )
            .await
            .unwrap();
        println!(
            "   warm invoke: {:?} in {:?} (cold_start = {})",
            String::from_utf8_lossy(&warm.body),
            h.now() - t1,
            warm.cold_start
        );

        println!("== 6. Pay-per-use");
        let invoice = cloud.billing.invoice("quickstart");
        println!(
            "   bill: compute ${:.9}, requests ${:.9} ({} API calls)",
            invoice.compute,
            invoice.requests,
            cloud.billing.request_count("quickstart")
        );
        println!("done at virtual time {}", h.now());
    });
}
