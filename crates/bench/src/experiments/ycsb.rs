//! Supporting experiment — YCSB-style KV workloads on both interfaces.
//!
//! Not a paper table, but the standard way to characterize a cloud KV
//! data plane: Zipf-popular keys, workload mixes A (50/50 read/update),
//! B (95/5) and C (read-only), run against the PCSI-native path and the
//! signed-REST gateway over the *same* replicated store. The per-op gap
//! from E2/E8 holds across mixes and skew, which is the generalization
//! the §2.1 argument needs.

use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Reference};
use pcsi_net::NodeId;
use pcsi_sim::ZipfParams;

use super::sweep::{self, Iface};

/// Number of keys in the table.
pub const KEYS: u64 = 200;
/// Value size in bytes.
pub const VALUE: usize = 1024;

/// A YCSB workload mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% reads / 50% updates.
    A,
    /// 95% reads / 5% updates.
    B,
    /// 100% reads.
    C,
}

impl Mix {
    /// All mixes.
    pub const ALL: [Mix; 3] = [Mix::A, Mix::B, Mix::C];

    /// Read fraction.
    pub fn read_fraction(self) -> f64 {
        match self {
            Mix::A => 0.5,
            Mix::B => 0.95,
            Mix::C => 1.0,
        }
    }

    /// Label.
    pub fn label(self) -> &'static str {
        match self {
            Mix::A => "A (50/50)",
            Mix::B => "B (95/5)",
            Mix::C => "C (read-only)",
        }
    }
}

/// One `(mix, interface)` measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload mix.
    pub mix: Mix,
    /// Interface label.
    pub interface: &'static str,
    /// Mean operation latency (ns).
    pub mean_ns: f64,
    /// p99 operation latency (ns).
    pub p99_ns: f64,
}

/// Runs all mixes on both interfaces, the same `ops` operations on
/// each: PCSI with one eventual object per key (the DynamoDB-default
/// equivalent), then REST on the same store.
pub fn run(seed: u64, ops: u32) -> Vec<Cell> {
    let mut out = Vec::new();
    for mix in Mix::ALL {
        let load = sweep::Mix {
            keys: KEYS,
            read_fraction: mix.read_fraction(),
        };
        let timed = Lab::run(seed, CloudBuilder::new(), move |lab| async move {
            let order = [Iface::Pcsi, Iface::Rest];
            sweep::sweep(&lab, load, ops, &order).await.timed
        });
        for (interface, t) in ["PCSI-native", "signed REST"].into_iter().zip(timed) {
            out.push(Cell {
                mix,
                interface,
                mean_ns: t.hist.mean() as f64,
                p99_ns: t.hist.quantile(0.99) as f64,
            });
        }
    }
    out
}

/// Mix-C over `IMMUTABLE` objects: the mutability-aware client cache at
/// work. After the first (cold) fetch of each popular key, repeats are
/// served node-locally — the fabric-calls-per-read column collapses.
#[derive(Debug, Clone)]
pub struct ImmutableCell {
    /// Mean read latency (ns).
    pub mean_ns: f64,
    /// Cache hits over the read loop.
    pub hits: u64,
    /// Cache misses over the read loop.
    pub misses: u64,
    /// Fabric messages per read (both directions of every RPC).
    pub fabric_calls_per_read: f64,
}

/// Runs a read-only Zipf workload against immutable objects and reports
/// cache efficacy alongside latency.
pub fn run_immutable(seed: u64, ops: u32) -> ImmutableCell {
    Lab::run(seed, CloudBuilder::new(), move |lab| async move {
        let cloud = &lab.cloud;
        let value = vec![0x42u8; VALUE];
        let kc = cloud.kernel.client(NodeId(0), "ycsb-im");
        let mut refs: Vec<Reference> = Vec::with_capacity(KEYS as usize);
        for _ in 0..KEYS {
            refs.push(
                kc.create(CreateOptions::immutable(value.clone()))
                    .await
                    .unwrap(),
            );
        }

        let keys = lab.h.rng().stream("ycsb-keys-im");
        let zipf = ZipfParams::new(KEYS, 0.99);
        let stats0 = cloud.store.cache_stats();
        let msgs0 = cloud.fabric.message_count();
        let hist = lab
            .time(ops, |_| {
                kc.read(&refs[keys.zipf_from(&zipf) as usize], 0, VALUE as u64)
            })
            .await;
        let stats1 = cloud.store.cache_stats();
        let msgs1 = cloud.fabric.message_count();
        ImmutableCell {
            mean_ns: hist.mean() as f64,
            hits: stats1.hits - stats0.hits,
            misses: stats1.misses - stats0.misses,
            fabric_calls_per_read: (msgs1 - msgs0) as f64 / f64::from(ops),
        }
    })
}

/// The cache claim: a Zipf-popular immutable working set is served almost
/// entirely node-locally.
pub fn immutable_shape_holds(cell: &ImmutableCell) -> Result<(), String> {
    if cell.hits == 0 {
        return Err("immutable reads should hit the cache".into());
    }
    if cell.hits < cell.misses {
        return Err(format!(
            "Zipf immutable reads should mostly hit ({} hits / {} misses)",
            cell.hits, cell.misses
        ));
    }
    if cell.fabric_calls_per_read >= 1.0 {
        return Err(format!(
            "cached reads should average below one fabric message per read, got {:.2}",
            cell.fabric_calls_per_read
        ));
    }
    Ok(())
}

/// The generalization claim: REST pays a multiple of PCSI on every mix.
pub fn shape_holds(cells: &[Cell]) -> Result<(), String> {
    for mix in Mix::ALL {
        let get = |iface: &str| {
            cells
                .iter()
                .find(|c| c.mix == mix && c.interface == iface)
                .map(|c| c.mean_ns)
                .unwrap_or(f64::NAN)
        };
        let ratio = get("signed REST") / get("PCSI-native");
        if !(2.0..20.0).contains(&ratio) {
            return Err(format!(
                "mix {:?}: REST/PCSI ratio {ratio:.2} outside (2, 20)",
                mix
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn rest_tax_holds_across_mixes() {
        let cells = run(DEFAULT_SEED, 150);
        shape_holds(&cells).unwrap();
    }

    #[test]
    fn immutable_working_set_is_cache_served() {
        let cell = run_immutable(DEFAULT_SEED, 300);
        immutable_shape_holds(&cell).unwrap();
    }

    #[test]
    fn write_heavier_mixes_are_slower() {
        let cells = run(DEFAULT_SEED, 150);
        let mean = |mix: Mix, iface: &str| {
            cells
                .iter()
                .find(|c| c.mix == mix && c.interface == iface)
                .unwrap()
                .mean_ns
        };
        // Writes replicate; reads hit the closest replica. A must cost
        // more than C on the PCSI path.
        assert!(mean(Mix::A, "PCSI-native") > mean(Mix::C, "PCSI-native"));
    }
}
