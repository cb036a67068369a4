//! Execution platforms and their isolation costs.
//!
//! §3.1: "A wide and evolving range of platforms may be used to implement
//! functions (e.g., accelerators, containers, unikernels, WebAssembly)."
//! Table 1 quantifies the per-call isolation boundary costs this module
//! encodes; cold-start times follow published measurements for each
//! platform class (Firecracker ~125 ms, containers ~250 ms, Wasm ~1 ms,
//! unikernels ~30 ms).

use std::time::Duration;

/// An isolation platform a function variant runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// OS containers: syscall-grade boundary (Table 1: 500 ns).
    Container,
    /// MicroVMs: hypervisor-call boundary (Table 1: 700 ns).
    MicroVm,
    /// WebAssembly in-process sandboxes (Table 1: 17 ns).
    Wasm,
    /// Unikernels on a hypervisor (700 ns boundary, fast boot).
    Unikernel,
}

impl Backend {
    /// Cost of crossing the isolation boundary once (Table 1 rows
    /// "Linux system call" / "KVM Hypervisor call" / "WebAssembly call").
    pub fn call_overhead(self) -> Duration {
        match self {
            Backend::Container => Duration::from_nanos(500),
            Backend::MicroVm | Backend::Unikernel => Duration::from_nanos(700),
            Backend::Wasm => Duration::from_nanos(17),
        }
    }

    /// Time to bring a fresh instance up (image pull amortized away;
    /// boot + runtime init).
    pub(crate) fn cold_start(self) -> Duration {
        match self {
            Backend::Container => Duration::from_millis(250),
            Backend::MicroVm => Duration::from_millis(125),
            Backend::Wasm => Duration::from_millis(1),
            Backend::Unikernel => Duration::from_millis(30),
        }
    }

    /// Warm-pool depth a predictive pre-warmer should hold for this
    /// backend at an arrival rate (per second) and per-invocation service
    /// time: the steady-state concurrency (Little's law, padded by
    /// `headroom`) plus a buffer proportional to the boot cost — the
    /// arrivals that would stall behind a cold start if the prediction
    /// undershoots. Expensive boots (containers, microVMs) justify deep
    /// pools; a Wasm sandbox boots in a millisecond, so its pool stays
    /// shallow.
    ///
    /// Pure integer/float arithmetic over the arguments — deterministic,
    /// no clock or RNG involved.
    pub(crate) fn prewarm_depth(
        self,
        rate_per_sec: f64,
        service: Duration,
        headroom: f64,
    ) -> usize {
        if rate_per_sec <= 0.0 {
            return 0;
        }
        let steady = rate_per_sec * service.as_secs_f64() * headroom;
        let boot_buffer =
            rate_per_sec * self.cold_start().as_secs_f64() * (headroom - 1.0).max(0.0);
        let depth = steady + boot_buffer;
        // Rates that predict less than a quarter of an instance round to
        // zero so idle pools drain instead of pinning one slot forever.
        if depth < 0.25 {
            0
        } else {
            depth.ceil() as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Backend; 4] = [
        Backend::Container,
        Backend::MicroVm,
        Backend::Wasm,
        Backend::Unikernel,
    ];

    #[test]
    fn table1_call_overheads() {
        assert_eq!(
            Backend::Container.call_overhead(),
            Duration::from_nanos(500)
        );
        assert_eq!(Backend::MicroVm.call_overhead(), Duration::from_nanos(700));
        assert_eq!(Backend::Wasm.call_overhead(), Duration::from_nanos(17));
    }

    #[test]
    fn wasm_is_cheapest_boundary_and_fastest_boot() {
        for b in ALL {
            assert!(Backend::Wasm.call_overhead() <= b.call_overhead());
            assert!(Backend::Wasm.cold_start() <= b.cold_start());
        }
    }

    #[test]
    fn prewarm_pools_scale_with_boot_cost() {
        // Same traffic, same service time: the container pool must run
        // deeper than the Wasm pool because its boot is 250x costlier.
        let svc = Duration::from_millis(20);
        let deep = Backend::Container.prewarm_depth(100.0, svc, 1.5);
        let shallow = Backend::Wasm.prewarm_depth(100.0, svc, 1.5);
        assert!(deep > shallow, "container {deep} vs wasm {shallow}");
        assert!(shallow <= 4, "wasm pools stay shallow: {shallow}");
        // Near-zero rates pin nothing.
        assert_eq!(Backend::Container.prewarm_depth(0.0, svc, 1.5), 0);
        assert_eq!(
            Backend::Container.prewarm_depth(0.05, Duration::from_millis(1), 1.5),
            0
        );
    }

    #[test]
    fn cold_starts_dwarf_call_overheads() {
        // The asymmetry that makes warm pools worth modeling.
        for b in ALL {
            assert!(b.cold_start() > b.call_overhead() * 1000, "{b:?}");
        }
    }
}
