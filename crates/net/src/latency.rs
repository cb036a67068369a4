//! Latency and bandwidth models calibrated to Table 1.
//!
//! Table 1 gives round-trip times for three network generations; the model
//! splits an RTT into two one-way traversals and scales by hop class
//! (in-rack traffic skips the spine). Serialization delay is charged from
//! per-generation NIC bandwidth, and a small lognormal jitter keeps the
//! simulation from being artificially metronomic while staying
//! deterministic under a fixed seed.

use std::time::Duration;

use pcsi_sim::DetRng;

use crate::topology::HopClass;

/// The three network generations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkGeneration {
    /// 2005 datacenter network: 1,000,000 ns RTT, ~1 Gb/s.
    Dc2005,
    /// 2021 datacenter network: 200,000 ns RTT, ~25 Gb/s.
    Dc2021,
    /// Emerging fast network: 1,000 ns RTT, ~100 Gb/s (Table 1's
    /// "attack of the killer microseconds" row).
    FastEmerging,
}

impl NetworkGeneration {
    /// All generations, oldest first.
    pub const ALL: [NetworkGeneration; 3] = [
        NetworkGeneration::Dc2005,
        NetworkGeneration::Dc2021,
        NetworkGeneration::FastEmerging,
    ];

    /// The Table-1 cross-rack round-trip time.
    pub fn rtt(self) -> Duration {
        match self {
            NetworkGeneration::Dc2005 => Duration::from_nanos(1_000_000),
            NetworkGeneration::Dc2021 => Duration::from_nanos(200_000),
            NetworkGeneration::FastEmerging => Duration::from_nanos(1_000),
        }
    }

    /// NIC line rate in bytes per second.
    pub(crate) fn bandwidth_bps(self) -> u64 {
        match self {
            NetworkGeneration::Dc2005 => 1_000_000_000 / 8,
            NetworkGeneration::Dc2021 => 25_000_000_000 / 8,
            NetworkGeneration::FastEmerging => 100_000_000_000 / 8,
        }
    }

    /// Table-1 row label.
    pub fn label(self) -> &'static str {
        match self {
            NetworkGeneration::Dc2005 => "2005 data center network RTT",
            NetworkGeneration::Dc2021 => "2021 data center network RTT",
            NetworkGeneration::FastEmerging => "Emerging fast network RTT",
        }
    }
}

/// Computes message delays for one generation.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    generation: NetworkGeneration,
    /// Relative jitter sigma (lognormal on the propagation component).
    jitter_sigma: f64,
}

impl LatencyModel {
    /// A model with the default 5% jitter.
    pub fn new(generation: NetworkGeneration) -> Self {
        LatencyModel {
            generation,
            jitter_sigma: 0.05,
        }
    }

    /// A jitter-free model (used by calibration tests that must hit the
    /// Table-1 numbers exactly).
    pub fn deterministic(generation: NetworkGeneration) -> Self {
        LatencyModel {
            generation,
            jitter_sigma: 0.0,
        }
    }

    /// The generation this model simulates.
    pub fn generation(&self) -> NetworkGeneration {
        self.generation
    }

    /// One-way propagation delay for a hop class, before jitter.
    ///
    /// Cross-rack is RTT/2 by definition; in-rack traffic skips the spine
    /// (0.4×); local delivery models a kernel loopback at 1% of the
    /// cross-rack time, floored at 200 ns.
    pub(crate) fn base_one_way(&self, hop: HopClass) -> Duration {
        let cross = self.generation.rtt() / 2;
        match hop {
            HopClass::CrossRack => cross,
            HopClass::SameRack => cross.mul_f64(0.4),
            HopClass::Local => cross.mul_f64(0.01).max(Duration::from_nanos(200)),
        }
    }

    /// Serialization (wire) time for a payload at line rate.
    pub(crate) fn serialization(&self, bytes: usize) -> Duration {
        let bps = self.generation.bandwidth_bps();
        Duration::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / bps)
    }

    /// One-way delay with jitter for a message of `bytes` over `hop`.
    pub(crate) fn one_way(&self, hop: HopClass, bytes: usize, rng: &DetRng) -> Duration {
        let base = self.base_one_way(hop);
        let jittered = if self.jitter_sigma > 0.0 {
            base.mul_f64(rng.lognormal(1.0, self.jitter_sigma))
        } else {
            base
        };
        jittered + self.serialization(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_matches_table1() {
        assert_eq!(NetworkGeneration::Dc2005.rtt(), Duration::from_millis(1));
        assert_eq!(NetworkGeneration::Dc2021.rtt(), Duration::from_micros(200));
        assert_eq!(
            NetworkGeneration::FastEmerging.rtt(),
            Duration::from_micros(1)
        );
    }

    #[test]
    fn cross_rack_one_way_is_half_rtt() {
        for generation in NetworkGeneration::ALL {
            let m = LatencyModel::deterministic(generation);
            assert_eq!(m.base_one_way(HopClass::CrossRack) * 2, generation.rtt());
        }
    }

    #[test]
    fn locality_ordering_holds() {
        let m = LatencyModel::deterministic(NetworkGeneration::Dc2021);
        assert!(m.base_one_way(HopClass::Local) < m.base_one_way(HopClass::SameRack));
        assert!(m.base_one_way(HopClass::SameRack) < m.base_one_way(HopClass::CrossRack));
    }

    #[test]
    fn serialization_scales_linearly() {
        let m = LatencyModel::deterministic(NetworkGeneration::Dc2021);
        let one_kib = m.serialization(1024);
        let one_mib = m.serialization(1024 * 1024);
        let ratio = one_mib.as_nanos() as f64 / one_kib.as_nanos() as f64;
        assert!((ratio - 1024.0).abs() < 16.0, "ratio {ratio}");
        // 1 KiB at 25 Gb/s is ~327 ns.
        assert!((300..360).contains(&(one_kib.as_nanos() as u64)));
    }

    #[test]
    fn jitter_perturbs_but_preserves_scale() {
        let m = LatencyModel::new(NetworkGeneration::Dc2021);
        let rng = DetRng::seeded(1);
        let base = m.base_one_way(HopClass::CrossRack);
        for _ in 0..100 {
            let d = m.one_way(HopClass::CrossRack, 0, &rng);
            let rel = d.as_secs_f64() / base.as_secs_f64();
            assert!((0.7..1.4).contains(&rel), "relative delay {rel}");
        }
    }

    #[test]
    fn deterministic_model_has_no_jitter() {
        let m = LatencyModel::deterministic(NetworkGeneration::Dc2005);
        let rng = DetRng::seeded(1);
        let a = m.one_way(HopClass::SameRack, 128, &rng);
        let b = m.one_way(HopClass::SameRack, 128, &rng);
        assert_eq!(a, b);
    }
}
