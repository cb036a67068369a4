//! Cross-crate integration: the §2.1 baseline comparison shapes.
//!
//! These tests pin the *qualitative* results the benchmark harness
//! reports quantitatively: REST is slower and far more expensive than a
//! stateful protocol for small-object access, and the PCSI-native path
//! (references: check once, then lean binary data plane) beats both on
//! the same storage substrate.

use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::CloudInterface;
use pcsi_net::NodeId;

fn with_lab<Fut: std::future::Future<Output = ()> + 'static>(
    seed: u64,
    f: impl FnOnce(Lab) -> Fut + 'static,
) {
    Lab::run(seed, CloudBuilder::new().deterministic_network(), f)
}

#[test]
fn rest_is_about_3x_nfs_latency_for_1kb() {
    with_lab(51, |lab| async move {
        let h = &lab.h;
        let payload = vec![42u8; 1024];

        // NFS path: mount once, then stateful reads.
        let nfs = lab
            .nfs()
            .mount(NodeId(0), Lab::NFS_SECRET, "nfs-acct")
            .await
            .unwrap();
        let fh = nfs.lookup("obj-1k", true).await.unwrap();
        nfs.write(fh, 0, &payload).await.unwrap();
        let t0 = h.now();
        lab.time(20, |_| nfs.read(fh, 0, 1024)).await;
        let nfs_total = h.now() - t0;

        // REST path: signed HTTP per request.
        let rest = lab.rest().client(NodeId(0), Lab::credential());
        rest.kv_put("bench", "obj-1k", &payload).await.unwrap();
        let t0 = h.now();
        lab.time(20, |_| rest.kv_get("bench", "obj-1k")).await;
        let rest_total = h.now() - t0;

        let ratio = rest_total.as_secs_f64() / nfs_total.as_secs_f64();
        // The paper reports 4.3 ms / 1.5 ms ~ 2.9x. Accept 2x–5x.
        assert!(
            (2.0..5.0).contains(&ratio),
            "REST {rest_total:?} vs NFS {nfs_total:?} per 20 (ratio {ratio:.2})"
        );
        // The lab deploys what this file used to assemble by hand: the
        // twenty fetches take exactly the virtual time they took through
        // the hand-deployed server and gateway before the lab existed.
        assert_eq!(nfs_total.as_nanos(), 4_877_020);
        assert_eq!(rest_total.as_nanos(), 12_586_240);
    });
}

#[test]
fn rest_costs_orders_of_magnitude_more_per_million() {
    with_lab(52, |lab| async move {
        let payload = vec![7u8; 1024];
        let nfs = lab
            .nfs()
            .mount(NodeId(0), Lab::NFS_SECRET, "nfs-acct")
            .await
            .unwrap();
        let fh = nfs.lookup("f", true).await.unwrap();
        nfs.write(fh, 0, &payload).await.unwrap();
        let rest = lab.rest().client(NodeId(0), Lab::credential());
        rest.kv_put("t", "k", &payload).await.unwrap();

        for _ in 0..50 {
            nfs.read(fh, 0, 1024).await.unwrap();
            rest.kv_get("t", "k").await.unwrap();
        }

        // Compute-cost per operation (the flat request fee applies to
        // the metered REST service only).
        let nfs_compute = lab.cloud.billing.invoice("nfs-acct").compute / 51.0;
        let rest_compute = lab.cloud.billing.invoice("AK1").compute / 51.0;
        let ratio = rest_compute / nfs_compute;
        // The paper reports 0.18 / 0.003 = 60x. Accept 30x–120x.
        assert!(
            (30.0..120.0).contains(&ratio),
            "cost ratio {ratio:.1} (rest {rest_compute:e}, nfs {nfs_compute:e})"
        );
    });
}

#[test]
fn pcsi_native_read_beats_rest_on_the_same_store() {
    with_lab(53, |lab| async move {
        let payload = vec![1u8; 1024];

        let kernel_client = lab.cloud.kernel.client(NodeId(0), "pcsi-acct");
        let obj = kernel_client
            .create(
                CreateOptions::regular()
                    .with_consistency(pcsi_core::Consistency::Eventual)
                    .with_initial(payload.clone()),
            )
            .await
            .unwrap();
        // References are checked at bind time; the data plane is a
        // lean binary protocol straight to the closest replica.
        let pcsi = lab.time(20, |_| kernel_client.read(&obj, 0, 1024)).await;
        let pcsi_mean = pcsi.mean();

        let rest = lab.rest().client(NodeId(0), Lab::credential());
        rest.kv_put("t", "k", &payload).await.unwrap();
        let rest_mean = lab.time(20, |_| rest.kv_get("t", "k")).await.mean();

        assert!(
            rest_mean > pcsi_mean * 2,
            "REST {rest_mean} ns should be >2x PCSI {pcsi_mean} ns"
        );
    });
}

#[test]
fn mutable_objects_stay_correct_under_both_interfaces() {
    // The REST gateway and the PCSI kernel share the replicated store;
    // interleaved writers through both interfaces must still converge.
    with_lab(54, |lab| async move {
        let rest = lab.rest().client(NodeId(0), Lab::credential());
        rest.kv_put("shared", "k", b"via-rest").await.unwrap();
        assert_eq!(rest.kv_get("shared", "k").await.unwrap(), b"via-rest");
        rest.kv_put("shared", "k", b"via-rest-2").await.unwrap();
        assert_eq!(rest.kv_get("shared", "k").await.unwrap(), b"via-rest-2");
    });
}

#[test]
#[should_panic(expected = "REST is deployed with another key")]
fn the_lab_refuses_a_second_rest_credential() {
    // The front door accepts the key it was deployed with; handing back
    // that gateway for another key would answer every request with 403.
    with_lab(54, |lab| async move {
        lab.rest_as(&pcsi_proto::sign::Credentials::new("AK", b"k".to_vec()));
        lab.rest();
    });
}
