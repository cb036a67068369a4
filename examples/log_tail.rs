//! Log tailing over streaming everything-is-a-file.
//!
//! A producer appends lines to a log FIFO; two subscribers on other
//! nodes tail it live through cross-node subscriptions with different
//! credit windows. Appends fan out as push frames (encoded once, shared
//! by reference), the slow subscriber's narrow window backpressures the
//! producer, and each side prints the per-event delivery latency it
//! observed.
//!
//! Run with: `cargo run --example log_tail`

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, PcsiError, Rights};
use pcsi_net::NodeId;

fn main() {
    let builder = CloudBuilder::new();
    Lab::run(2026, builder, |Lab { cloud, h, .. }| async move {
        let producer = cloud.kernel.client(NodeId(0), "log-tail");

        println!("== streaming log tail: one FIFO, two live subscribers");
        let log = producer
            .create(CreateOptions::fifo())
            .await
            .expect("create log fifo");
        let tail_cap = log.attenuate(Rights::READ).expect("attenuate");

        // Subscriber A: wide window (fast consumer, rarely stalls the
        // producer). Subscriber B: window of 2 (slow tail -- its credit
        // exhaustion is what the producer feels as backpressure).
        let fast = cloud.kernel.client(NodeId(5), "log-tail");
        let slow = cloud.kernel.client(NodeId(9), "log-tail");
        let sub_fast = fast.subscribe(&tail_cap, 32).await.expect("subscribe fast");
        let sub_slow = slow.subscribe(&tail_cap, 2).await.expect("subscribe slow");

        const LINES: u64 = 12;
        let fast_task = h.spawn({
            let sub = Rc::new(sub_fast);
            async move {
                let mut total = Duration::ZERO;
                for _ in 0..LINES {
                    let ev = sub.next().await.expect("fast tail");
                    total += ev.latency;
                    println!(
                        "   [fast w=32] #{:<2} {:<28} latency {:?}",
                        ev.seq,
                        String::from_utf8_lossy(&ev.payload),
                        ev.latency
                    );
                }
                sub.cancel();
                total / LINES as u32
            }
        });
        let slow_task = h.spawn({
            let sub = Rc::new(sub_slow);
            let h = h.clone();
            async move {
                let mut total = Duration::ZERO;
                for _ in 0..LINES {
                    let ev = sub.next().await.expect("slow tail");
                    total += ev.latency;
                    println!(
                        "   [slow w=2 ] #{:<2} {:<28} latency {:?}",
                        ev.seq,
                        String::from_utf8_lossy(&ev.payload),
                        ev.latency
                    );
                    // A sluggish reader: credits replenish slowly.
                    h.sleep(Duration::from_micros(400)).await;
                }
                sub.cancel();
                total / LINES as u32
            }
        });

        let mut stalls = 0u32;
        for i in 0..LINES {
            let line = Bytes::from(format!("log line {i}: request served"));
            loop {
                match producer.append(&log, line.clone()).await {
                    Ok(_) => break,
                    Err(PcsiError::Overloaded(_)) => {
                        // The slow subscriber's window is exhausted and
                        // its owner-side buffer is full: wait for credit.
                        stalls += 1;
                        h.sleep(Duration::from_micros(200)).await;
                    }
                    Err(e) => panic!("append: {e}"),
                }
            }
        }
        let fast_avg = fast_task.await;
        let slow_avg = slow_task.await;

        println!("== done at virtual time {:?}", h.now());
        println!("   producer credit stalls: {stalls}");
        println!("   fast subscriber mean latency: {fast_avg:?}");
        println!("   slow subscriber mean latency: {slow_avg:?}");
        assert!(stalls > 0, "the narrow window must backpressure");
        assert!(
            slow_avg >= fast_avg,
            "the stalling tail should see events later"
        );
    });
}
