//! supporting — fault recovery on the client path.
//!
//! Runs the same linearizable register workload on a healthy fabric and
//! on a lossy one (5% of all messages silently dropped, with a
//! per-attempt deadline below the fabric's retransmit timeout) and
//! reports the client-observed outcome next to the recovery counters
//! the store surfaces. The claim under test is the store's failure
//! contract: a dropped message costs latency, never a client-visible
//! error — the deadline/retry/failover layer masks it.

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency};
use pcsi_metrics::Histogram;
use pcsi_net::{MessageFaults, NodeId};
use pcsi_store::{RetryPolicy, RetryStats, StoreConfig};

/// One cell: the workload outcome at a given drop rate.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row label.
    pub label: &'static str,
    /// Fabric-wide message drop probability.
    pub drop: f64,
    /// Mean linearizable write latency (ns).
    pub write_ns: f64,
    /// Mean linearizable read latency (ns).
    pub read_ns: f64,
    /// Operation failures the client actually observed.
    pub client_errors: u64,
    /// Aggregate recovery counters from [`pcsi_store::ReplicatedStore`].
    pub retry: RetryStats,
}

/// Runs `rounds` write-then-read iterations at the given drop rate.
pub fn run_cell(seed: u64, label: &'static str, drop: f64, rounds: u32) -> Cell {
    // Tight per-attempt deadline (below the fabric's 2 ms retransmit
    // timeout) so a lost message surfaces as a fast client-side timeout
    // instead of a slow transport error, plus retry/failover budget to
    // mask it.
    let builder = CloudBuilder::new().store(StoreConfig {
        retry: RetryPolicy::tight(),
        ..StoreConfig::default()
    });
    Lab::run(seed, builder, move |lab| async move {
        let cloud = &lab.cloud;
        if drop > 0.0 {
            cloud.fabric.set_message_faults(MessageFaults {
                drop,
                ..MessageFaults::NONE
            });
        }
        let client = cloud.kernel.client(NodeId(0), "recovery");
        let obj = client
            .create(
                CreateOptions::regular()
                    .with_consistency(Consistency::Linearizable)
                    .with_initial(vec![0u8; 64]),
            )
            .await
            .expect("object creation");

        let writes = Histogram::new();
        let reads = Histogram::new();
        let mut client_errors = 0u64;
        for round in 0..rounds {
            let fill = Bytes::from(vec![(round % 251) as u8; 64]);
            if lab
                .timed(&writes, client.write(&obj, 0, fill))
                .await
                .is_err()
            {
                client_errors += 1;
            }
            if lab.timed(&reads, client.read(&obj, 0, 64)).await.is_err() {
                client_errors += 1;
            }
        }
        Cell {
            label,
            drop,
            write_ns: writes.mean() as f64,
            read_ns: reads.mean() as f64,
            client_errors,
            retry: cloud.store.retry_stats(),
        }
    })
}

/// Both cells: healthy baseline and the lossy fabric.
pub fn run(seed: u64, rounds: u32) -> Vec<Cell> {
    vec![
        run_cell(seed, "healthy fabric", 0.0, rounds),
        run_cell(seed, "5% message drops", 0.05, rounds),
    ]
}

/// The failure contract, machine-checkable.
pub fn shape_holds(cells: &[Cell]) -> Result<(), String> {
    let healthy = cells
        .iter()
        .find(|c| c.drop == 0.0)
        .ok_or("missing healthy cell")?;
    let lossy = cells
        .iter()
        .find(|c| c.drop > 0.0)
        .ok_or("missing lossy cell")?;
    if healthy.client_errors != 0 || lossy.client_errors != 0 {
        return Err(format!(
            "client-visible errors despite a live majority: healthy={} lossy={}",
            healthy.client_errors, lossy.client_errors
        ));
    }
    if healthy.retry.retries != 0 || healthy.retry.timeouts != 0 {
        return Err(format!(
            "recovery fired on a healthy fabric: {:?}",
            healthy.retry
        ));
    }
    if lossy.retry.retries == 0 || lossy.retry.timeouts == 0 {
        return Err(format!(
            "drops never exercised the recovery layer: {:?}",
            lossy.retry
        ));
    }
    if lossy.write_ns <= healthy.write_ns {
        return Err("masking drops must cost write latency, not nothing".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn recovery_shape_holds() {
        let cells = run(DEFAULT_SEED, 120);
        shape_holds(&cells).unwrap();
    }
}
