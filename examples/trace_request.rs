//! Trace one signed REST GET end to end.
//!
//! Builds the default 2021 cloud with always-on tracing, stores a 1 KB
//! object behind the DynamoDB-style gateway (the E2 setup), fetches it
//! once warm, and prints the request's span tree: client signing and
//! marshalling, the load balancer hop, gateway parse/auth/route, and the
//! replicated store underneath — every duration in virtual nanoseconds,
//! byte-reproducible for a given seed.
//!
//! Run with: `cargo run --example trace_request`

use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_net::NodeId;
use pcsi_trace::{critical_path, render_trace, trace_duration_ns, Sampling};

fn main() {
    let builder = CloudBuilder::new().tracing(Sampling::Always);
    Lab::run(2026, builder, |lab| async move {
        let tracer = lab.cloud.tracer.clone().expect("tracing enabled");
        let client = lab.rest().client(NodeId(0), Lab::credential());
        let payload = vec![0x5Au8; 1024];
        client.kv_put("bench", "obj-1k", &payload).await.unwrap();
        // One warm-up so the GET below hits steady-state caches.
        client.kv_get("bench", "obj-1k").await.unwrap();
        client.kv_get("bench", "obj-1k").await.unwrap();

        let spans = tracer.sink().snapshot();
        let trace = spans
            .iter()
            .rev()
            .find(|s| s.parent.is_none() && s.name == "rest.request")
            .map(|s| s.trace)
            .expect("traced GET");

        println!("== span tree of one warm 1 KB REST GET ==");
        print!("{}", render_trace(&spans, trace));

        println!("\n== critical path ==");
        let total = trace_duration_ns(&spans, trace);
        for span in critical_path(&spans, trace) {
            let ns = span.end.as_nanos() - span.start.as_nanos();
            println!(
                "  {:<18} {:>8} ns  ({:>4.1}%)",
                span.name,
                ns,
                ns as f64 / total as f64 * 100.0
            );
        }
        println!("  total              {total:>8} ns");
    });
}
