//! E7 — §3.3: the consistency menu, quantified.
//!
//! Sweeps replication factor × consistency level and measures write
//! latency, read latency, and read staleness (fraction of immediate
//! cross-node reads that observed an old version). The paper's position:
//! expose exactly these two points and hide the quorum machinery.

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency};
use pcsi_metrics::Histogram;
use pcsi_net::NodeId;
use pcsi_store::{MediaTier, StoreConfig};

/// One sweep cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Replication factor.
    pub n_replicas: usize,
    /// Consistency level.
    pub consistency: Consistency,
    /// Mean write latency (ns).
    pub write_ns: f64,
    /// Mean read latency (ns).
    pub read_ns: f64,
    /// Fraction of immediate remote reads that were stale.
    pub stale_fraction: f64,
    /// Objects pushed to lagging replicas by quorum read repair.
    pub repaired: u64,
}

/// Runs one cell with `rounds` write-then-read-everywhere iterations.
pub fn run_cell(seed: u64, n_replicas: usize, consistency: Consistency, rounds: u32) -> Cell {
    // Jittered network (still seed-deterministic): replication races
    // need timing variation to surface staleness, exactly as in a real
    // fabric.
    let builder = CloudBuilder::new().store(StoreConfig {
        n_replicas,
        tier: MediaTier::Nvme,
        anti_entropy: Some(std::time::Duration::from_millis(100)),
        ..StoreConfig::default()
    });
    Lab::run(seed, builder, move |lab| async move {
        let cloud = &lab.cloud;
        let writer = cloud.kernel.client(NodeId(0), "e7");
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
        let mut total = 0u64;
        // Read from clients co-located with each replica: a local read
        // arrives in microseconds and races the cross-rack replication
        // message — the sharpest staleness probe the system offers.
        let reader_nodes = cloud.store.placement().replicas(obj.id());

        for round in 1..=rounds {
            let fill = Bytes::from(vec![(round % 251) as u8; 1024]);
            lab.timed(&writes, writer.write(&obj, 0, fill))
                .await
                .unwrap();

            for &node in reader_nodes.iter() {
                let reader = cloud.kernel.client(node, "e7");
                let data = lab.timed(&reads, reader.read(&obj, 0, 1)).await.unwrap();
                total += 1;
                if data[0] != (round % 251) as u8 {
                    stale += 1;
                }
            }
        }
        Cell {
            n_replicas,
            consistency,
            write_ns: writes.mean() as f64,
            read_ns: reads.mean() as f64,
            stale_fraction: stale as f64 / total as f64,
            repaired: cloud
                .store
                .replicas()
                .iter()
                .map(|r| r.repaired_count())
                .sum(),
        }
    })
}

/// The full sweep: N ∈ {3, 5} × both menu items.
pub fn run(seed: u64, rounds: u32) -> Vec<Cell> {
    let mut out = Vec::new();
    for n in [3usize, 5] {
        for consistency in Consistency::ALL {
            out.push(run_cell(seed, n, consistency, rounds));
        }
    }
    out
}

/// §3.3's claims, machine-checkable.
pub fn shape_holds(cells: &[Cell]) -> Result<(), String> {
    for n in [3usize, 5] {
        let lin = cells
            .iter()
            .find(|c| c.n_replicas == n && c.consistency == Consistency::Linearizable)
            .ok_or("missing cell")?;
        let ev = cells
            .iter()
            .find(|c| c.n_replicas == n && c.consistency == Consistency::Eventual)
            .ok_or("missing cell")?;
        if lin.stale_fraction != 0.0 {
            return Err(format!("linearizable must never be stale (N={n})"));
        }
        if ev.write_ns >= lin.write_ns {
            return Err(format!("eventual writes should be cheaper (N={n})"));
        }
        if ev.read_ns >= lin.read_ns {
            return Err(format!("eventual reads should be cheaper (N={n})"));
        }
        if ev.stale_fraction <= 0.0 {
            return Err(format!(
                "eventual reads should show some staleness under write pressure (N={n})"
            ));
        }
    }
    // Strong writes get more expensive as the quorum grows.
    let lin3 = cells
        .iter()
        .find(|c| c.n_replicas == 3 && c.consistency == Consistency::Linearizable)
        .unwrap();
    let lin5 = cells
        .iter()
        .find(|c| c.n_replicas == 5 && c.consistency == Consistency::Linearizable)
        .unwrap();
    // The means differ by an order statistic of jittered RTTs (2nd of 4
    // secondary acks vs 1st of 2) while rack-diverse N=5 sets also gain
    // *closer* secondaries, so the gap is well under the jitter noise
    // floor. Guard against gross inversions only.
    if lin5.write_ns < lin3.write_ns * 0.95 {
        return Err("N=5 linearizable writes should cost at least N=3's".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn menu_shape_holds() {
        let cells = run(DEFAULT_SEED, 40);
        shape_holds(&cells).unwrap();
    }
}
