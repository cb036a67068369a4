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
use pcsi_core::CloudInterface;
use pcsi_net::NodeId;

use super::sweep::{self, Iface, FETCH};

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
        // PCSI reads through the reference its create returned; the raw
        // store reads the same objects (identical replica placement),
        // bypassing the interface: the floor the taxes are measured
        // against. REST re-authenticates every request.
        let order = [Iface::Pcsi, Iface::Raw, Iface::Rest];
        let swept = sweep::sweep(&lab, FETCH, ops, &order).await;
        let mean = |i: usize| swept.timed[i].hist.mean() as f64;

        // GC scenario: a tenant tree plus ephemeral intermediates whose
        // references were dropped.
        let cloud = &lab.cloud;
        let kc = cloud.kernel.client(NodeId(0), "e8");
        let root = kc.create(CreateOptions::directory()).await.unwrap();
        let mut dropped = 0usize;
        for i in 0..40u32 {
            let o = kc
                .create(CreateOptions::regular().with_initial(vec![i as u8; 128]))
                .await
                .unwrap();
            if i % 4 == 0 {
                kc.link(&root, &format!("keep-{i}"), &o).await.unwrap();
            } else {
                dropped += 1; // Reference forgotten: unreachable.
            }
        }
        let before = cloud.kernel.live_objects();
        let reclaimed = cloud.kernel.run_gc(&[vec![root], swept.objects].concat());
        assert_eq!(reclaimed, dropped);

        Results {
            raw_read_ns: mean(1),
            pcsi_read_ns: mean(0),
            rest_read_ns: mean(2),
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
