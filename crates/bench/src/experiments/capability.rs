//! E8 — §3.2: stateful references vs stateless per-request authentication,
//! and reachability garbage collection.
//!
//! "In clear contrast to web services, references make the PCSI API
//! stateful. One benefit is that object access possibilities are known
//! and constrained ... Another benefit is automated resource reclamation
//! for unreachable objects."
//!
//! Measured: the per-operation *interface tax* — everything a 1 KB read
//! costs beyond the raw storage fetch — for the PCSI capability path vs
//! the signed-REST path; plus a GC run over a realistic object graph.

use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, Rights};
use pcsi_net::NodeId;

/// E8 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// Raw replicated-store 1 KB read (ns) — the floor.
    pub raw_read_ns: f64,
    /// PCSI read through a bound reference (ns).
    pub pcsi_read_ns: f64,
    /// Signed-REST read (ns).
    pub rest_read_ns: f64,
    /// Objects created in the GC scenario.
    pub gc_objects: usize,
    /// Objects reclaimed by the reachability GC.
    pub gc_reclaimed: usize,
}

impl Results {
    /// PCSI interface tax over the raw store read (ns).
    pub fn pcsi_tax_ns(&self) -> f64 {
        (self.pcsi_read_ns - self.raw_read_ns).max(0.0)
    }

    /// REST interface tax over the raw store read (ns).
    pub fn rest_tax_ns(&self) -> f64 {
        (self.rest_read_ns - self.raw_read_ns).max(0.0)
    }
}

/// Runs the measurement with `ops` reads per interface.
pub fn run(seed: u64, ops: u32) -> Results {
    let builder = CloudBuilder::new().deterministic_network();
    Lab::run(seed, builder, move |lab| async move {
        let cloud = &lab.cloud;
        let payload = vec![0xC4u8; 1024];
        let client_node = NodeId(0);

        // PCSI: bind once (create returns the capability), then read.
        let kc = cloud.kernel.client(client_node, "e8");
        let obj = kc
            .create(
                CreateOptions::regular()
                    .with_consistency(Consistency::Eventual)
                    .with_initial(payload.clone()),
            )
            .await
            .unwrap();
        let read_ref = obj.attenuate(Rights::READ).unwrap();
        let pcsi = lab.time(ops, |_| kc.read(&read_ref, 0, 1024)).await;

        // Raw store read of the *same object* (identical replica
        // placement), bypassing the interface entirely — the floor the
        // interface taxes are measured against.
        let store_client = cloud.store.client(client_node);
        let raw = lab
            .time(ops, |_| {
                store_client.read(obj.id(), 0, 1024, Consistency::Eventual)
            })
            .await;

        // REST: every request re-authenticates.
        let rc = lab.rest().client(client_node, Lab::credential());
        rc.kv_put("e8", "obj", &payload).await.unwrap();
        let rest_h = lab.time(ops, |_| rc.kv_get("e8", "obj")).await;

        // GC scenario: a tenant tree plus ephemeral intermediates whose
        // references were dropped.
        let root = kc.create(CreateOptions::directory()).await.unwrap();
        let mut kept = 0usize;
        let mut dropped = 0usize;
        for i in 0..40u32 {
            let o = kc
                .create(CreateOptions::regular().with_initial(vec![i as u8; 128]))
                .await
                .unwrap();
            if i % 4 == 0 {
                kc.link(&root, &format!("keep-{i}"), &o).await.unwrap();
                kept += 1;
            } else {
                dropped += 1; // Reference forgotten: unreachable.
            }
        }
        let before = cloud.kernel.live_objects();
        let reclaimed = cloud.kernel.run_gc(&[root.clone(), obj.clone()]);
        assert_eq!(reclaimed, dropped);
        let _ = kept;

        Results {
            raw_read_ns: raw.mean() as f64,
            pcsi_read_ns: pcsi.mean() as f64,
            rest_read_ns: rest_h.mean() as f64,
            gc_objects: before,
            gc_reclaimed: reclaimed,
        }
    })
}

/// §3.2's claims, machine-checkable.
pub fn shape_holds(r: &Results) -> Result<(), String> {
    // The PCSI interface adds little over the raw store...
    if r.pcsi_tax_ns() > r.raw_read_ns * 0.5 {
        return Err(format!(
            "PCSI tax {:.0} ns too large vs raw {:.0} ns",
            r.pcsi_tax_ns(),
            r.raw_read_ns
        ));
    }
    // ...while the stateless REST interface multiplies the cost.
    if r.rest_tax_ns() < r.pcsi_tax_ns() * 10.0 {
        return Err(format!(
            "REST tax {:.0} ns should dwarf PCSI tax {:.0} ns",
            r.rest_tax_ns(),
            r.pcsi_tax_ns()
        ));
    }
    if r.gc_reclaimed == 0 {
        return Err("GC reclaimed nothing".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn capability_shape_holds() {
        let r = run(DEFAULT_SEED, 100);
        shape_holds(&r).unwrap();
        assert_eq!(r.gc_reclaimed, 30);
    }
}
