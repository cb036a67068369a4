//! Watching SLOs as files: burn-rate alerting end to end.
//!
//! A deployment installs two SLO rules — a write-latency quantile and a
//! failover burn rate — then tails the `alerts` FIFO through a plain
//! `subscribe()` while a fault window (primary crash + message drops)
//! pushes both rules through pending → firing → resolved. Along the
//! way it reads the structured event journal through the `events`
//! device (including a delta read at an offset) and joins the
//! firing latency alert's histogram exemplar back to its rendered span
//! tree.
//!
//! Run with: `cargo run --example slo_watch`

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, Lab, ObsConfig};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency};
use pcsi_net::{MessageFaults, NodeId, Topology};
use pcsi_obs::exemplar_trace;
use pcsi_store::{RetryPolicy, StoreConfig};
use pcsi_trace::Sampling;

fn main() {
    let builder = CloudBuilder::new()
        .topology(Topology::uniform(2, 3))
        .tracing(Sampling::Always)
        .metrics(true)
        .observability(ObsConfig {
            rules: vec![
                "write-p99: p99(kernel.op_ns{op=\"write\"}) < 2ms over 15ms for 2 clear 3".into(),
                "failover-burn: burn(store.failovers / kernel.ops{op=\"write\"}) budget 5% \
                 fast 10ms slow 25ms rate 1 for 2 clear 3"
                    .into(),
            ],
            interval: Duration::from_millis(5),
            ..ObsConfig::default()
        })
        .store(StoreConfig {
            retry: RetryPolicy::tight(),
            ..StoreConfig::default()
        });
    Lab::run(2026, builder, |Lab { cloud, h, .. }| async move {
        let alerts = cloud.alerts.clone().expect("observability is on");

        println!("== SLO watch: two rules, alerts tailed as a file");
        let client = cloud.kernel.client(NodeId(0), "slo-watch");
        // Crash the register's primary, not the alerts FIFO's home
        // node: the incident must break writes, not alert delivery.
        let alerts_home = cloud.store.placement().primary(alerts.id());
        let (target, primary) = loop {
            let r = client
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Linearizable)
                        .with_initial(vec![0u8; 8]),
                )
                .await
                .expect("create register");
            let p = cloud.store.placement().replicas(r.id())[0];
            if p != alerts_home {
                break (r, p);
            }
        };

        // Tail the alerts FIFO like any other stream, from the node
        // that stays up.
        let sub = Rc::new(
            cloud
                .kernel
                .client(alerts_home, "slo-watch")
                .subscribe(&alerts, 16)
                .await
                .expect("subscribe to alerts"),
        );
        let streamed = Rc::new(std::cell::Cell::new(0u32));
        h.spawn_detached({
            let sub = sub.clone();
            let streamed = streamed.clone();
            async move {
                while let Some(ev) = sub.next().await {
                    streamed.set(streamed.get() + 1);
                    print!("   [alerts] {}", String::from_utf8_lossy(&ev.payload));
                }
            }
        });

        // A writer hammers the register for the whole run.
        let writer = cloud.kernel.client(NodeId(1), "slo-watch");
        h.spawn_detached({
            let target = target.clone();
            let h = h.clone();
            async move {
                let mut i = 0u64;
                loop {
                    h.sleep(Duration::from_micros(300)).await;
                    i += 1;
                    let _ = writer
                        .write(&target, 0, Bytes::from(i.to_le_bytes().to_vec()))
                        .await;
                }
            }
        });

        // Healthy, then a 40 ms incident (primary down + 10% drops),
        // then healed.
        h.sleep(Duration::from_millis(30)).await;
        println!("-- t={:?}: crashing {primary} + 10% drops", h.now());
        cloud.fabric.set_message_faults(MessageFaults {
            drop: 0.10,
            ..MessageFaults::NONE
        });
        cloud.fabric.set_node_down(primary, true);
        h.sleep(Duration::from_millis(40)).await;
        println!("-- t={:?}: healing", h.now());
        cloud.fabric.set_node_down(primary, false);
        cloud.fabric.clear_message_faults();
        h.sleep(Duration::from_millis(50)).await;

        // The journal, through the `events` device file: a read at
        // offset 0 is the whole journal, a read at sequence number N only
        // the records from N on.
        let events = client
            .create(CreateOptions {
                kind: pcsi_core::ObjectKind::Device("events".into()),
                mutability: pcsi_core::Mutability::Mutable,
                consistency: Consistency::Eventual,
                initial: Bytes::new(),
                fifo_capacity: None,
            })
            .await
            .expect("create events device");
        let full = client.read(&events, 0, 1 << 20).await.unwrap();
        let text = String::from_utf8_lossy(&full).into_owned();
        let total = text.lines().count().saturating_sub(1);
        println!("== events device: {total} journal entries; last three:");
        for line in text.lines().skip(1 + total.saturating_sub(3)) {
            println!("   {line}");
        }
        // Records are numbered from 0 for good: the header's `appended`
        // count is the next one, so this read serves the newest two.
        let appended = text
            .split(" appended=")
            .nth(1)
            .and_then(|t| t.split(' ').next());
        let from = appended
            .and_then(|n| n.parse::<u64>().ok())
            .expect("a header")
            - 2;
        let delta = client.read(&events, from, 1 << 20).await.unwrap();
        println!(
            "   (a read at offset {from} returned {} lines)",
            String::from_utf8_lossy(&delta).lines().count() - 1
        );

        // The exemplar join: worst slow write → its span tree.
        let metrics = cloud.metrics.as_ref().expect("metrics on");
        let tracer = cloud.tracer.as_ref().expect("tracing on");
        let ex = metrics
            .find_histogram("kernel.op_ns", &[("op", "write")])
            .and_then(|hist| hist.exemplar_ge(2_000_000))
            .expect("the incident produced a >2ms write");
        println!(
            "== p99 offender: trace {:016x}, {:.2}ms write",
            ex.trace,
            ex.value as f64 / 1e6
        );
        let tree = exemplar_trace(tracer.sink(), &ex).expect("trace retained");
        for line in tree.lines().take(6) {
            println!("   {line}");
        }

        let log = cloud.obs.as_ref().unwrap().alert_log();
        let transitions = log.lines().count();
        println!(
            "== done at virtual time {:?}: {transitions} alert transitions, {} streamed",
            h.now(),
            streamed.get()
        );
        assert_eq!(transitions, 6, "both rules must fire and resolve once");
        assert_eq!(
            streamed.get() as usize,
            transitions,
            "the alerts file must deliver every transition"
        );
    });
}
