//! Workload generation.
//!
//! Open-loop drivers (requests arrive on their own schedule regardless of
//! completions — the honest way to measure tail latency), with the rate
//! shapes the efficiency experiment needs: steady Poisson, on/off bursts,
//! and a diurnal curve. Key popularity is Zipf, as in YCSB.

use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use pcsi_metrics::{Counter, Histogram};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::{DetRng, SimHandle, SimTime};

/// Request arrival-rate shapes (requests per second over time).
#[derive(Debug, Clone, Copy)]
pub enum RateShape {
    /// Constant mean rate.
    Steady {
        /// Requests per second.
        rps: f64,
    },
    /// Alternating burst/idle phases.
    OnOff {
        /// Rate while bursting.
        burst_rps: f64,
        /// Rate while idle.
        idle_rps: f64,
        /// Length of each phase.
        period: Duration,
    },
    /// A smooth day/night curve: `base + amplitude * sin`.
    Diurnal {
        /// Mean rate.
        base_rps: f64,
        /// Peak deviation from the mean.
        amplitude_rps: f64,
        /// Length of one simulated "day".
        day: Duration,
    },
}

impl RateShape {
    /// Instantaneous rate at `t` (requests per second, ≥ 0).
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            RateShape::Steady { rps } => rps,
            RateShape::OnOff {
                burst_rps,
                idle_rps,
                period,
            } => {
                let phase = (t.as_secs_f64() / period.as_secs_f64()).floor() as u64;
                if phase.is_multiple_of(2) {
                    burst_rps
                } else {
                    idle_rps
                }
            }
            RateShape::Diurnal {
                base_rps,
                amplitude_rps,
                day,
            } => {
                let x = t.as_secs_f64() / day.as_secs_f64() * std::f64::consts::TAU;
                (base_rps + amplitude_rps * x.sin()).max(0.0)
            }
        }
    }
}

/// Outcome statistics of one open-loop run.
///
/// Built on [`pcsi_metrics`] primitives, so a run's latency distribution
/// answers exact quantile queries ([`Histogram::quantiles`]).
#[derive(Debug)]
pub struct RunStats {
    /// Per-request latency (ns).
    pub latency: Histogram,
    /// Requests issued.
    pub issued: Counter,
    /// Requests that completed successfully.
    pub ok: Counter,
    /// Requests that failed.
    pub(crate) failed: Counter,
}

impl RunStats {
    fn new() -> Rc<Self> {
        Rc::new(RunStats {
            latency: Histogram::new(),
            issued: Counter::new(),
            ok: Counter::new(),
            failed: Counter::new(),
        })
    }

    /// Fraction of issued requests that completed within `slo`.
    pub fn slo_attainment(&self, slo: Duration) -> f64 {
        if self.issued.get() == 0 {
            return 1.0;
        }
        // Failures and stragglers count against the SLO: only recorded
        // (successful) latencies can fall within it.
        let slo_ns = u64::try_from(slo.as_nanos()).unwrap_or(u64::MAX);
        let within = self.latency.fraction_le(slo_ns) * self.latency.count() as f64;
        within / self.issued.get() as f64
    }
}

/// Drives an open-loop workload: requests arrive as an inhomogeneous
/// Poisson process with rate `shape`, each handled by `request(i)`.
///
/// Returns when the run duration has elapsed *and* every issued request
/// has completed, so tail latencies are fully recorded.
pub async fn drive_open_loop(
    handle: &SimHandle,
    rng: &DetRng,
    shape: RateShape,
    run_for: Duration,
    request: impl Fn(u64) -> LocalBoxFuture<Result<(), String>> + 'static,
) -> Rc<RunStats> {
    let stats = RunStats::new();
    let request = Rc::new(request);
    let end = handle.now() + run_for;
    let mut seq = 0u64;
    let mut joins = Vec::new();

    while handle.now() < end {
        // Thinning-free approach: sample the inter-arrival for the
        // *current* rate; adequate when the rate changes slowly relative
        // to inter-arrival gaps.
        let rate = shape.rate_at(handle.now()).max(1e-9);
        let gap = Duration::from_secs_f64(rng.exp(1.0 / rate));
        handle.sleep(gap).await;
        if handle.now() >= end {
            break;
        }
        stats.issued.incr();
        let i = seq;
        seq += 1;
        let stats2 = Rc::clone(&stats);
        let request2 = Rc::clone(&request);
        let h2 = handle.clone();
        joins.push(handle.spawn(async move {
            let t0 = h2.now();
            match request2(i).await {
                Ok(()) => {
                    stats2.ok.incr();
                    stats2.latency.record_duration(h2.now() - t0);
                }
                Err(_) => {
                    stats2.failed.incr();
                }
            }
        }));
    }
    for j in joins {
        j.await;
    }
    stats
}

/// Boxes a request closure's future (helper to keep call sites tidy).
pub fn boxed<F>(fut: F) -> LocalBoxFuture<Result<(), String>>
where
    F: Future<Output = Result<(), String>> + 'static,
{
    Box::pin(fut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_sim::Sim;

    #[test]
    fn steady_rate_generates_expected_count() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let stats = sim.block_on({
            let h = h.clone();
            async move {
                let rng = h.rng().stream("wl");
                drive_open_loop(
                    &h,
                    &rng,
                    RateShape::Steady { rps: 1000.0 },
                    Duration::from_secs(10),
                    |_i| boxed(async { Ok(()) }),
                )
                .await
            }
        });
        let n = stats.issued.get();
        assert!((9_000..11_000).contains(&n), "issued {n}");
        assert_eq!(stats.ok.get(), n);
        assert_eq!(stats.failed.get(), 0);
    }

    #[test]
    fn onoff_rate_shape() {
        let shape = RateShape::OnOff {
            burst_rps: 100.0,
            idle_rps: 1.0,
            period: Duration::from_secs(10),
        };
        assert_eq!(shape.rate_at(SimTime::from_secs(3)), 100.0);
        assert_eq!(shape.rate_at(SimTime::from_secs(13)), 1.0);
        assert_eq!(shape.rate_at(SimTime::from_secs(23)), 100.0);
    }

    #[test]
    fn diurnal_rate_cycles() {
        let shape = RateShape::Diurnal {
            base_rps: 100.0,
            amplitude_rps: 50.0,
            day: Duration::from_secs(100),
        };
        let quarter = shape.rate_at(SimTime::from_secs(25));
        let three_quarter = shape.rate_at(SimTime::from_secs(75));
        assert!((quarter - 150.0).abs() < 1.0, "{quarter}");
        assert!((three_quarter - 50.0).abs() < 1.0, "{three_quarter}");
    }

    #[test]
    fn latency_and_failures_recorded() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let stats = sim.block_on({
            let h = h.clone();
            async move {
                let rng = h.rng().stream("wl");
                let h2 = h.clone();
                drive_open_loop(
                    &h,
                    &rng,
                    RateShape::Steady { rps: 100.0 },
                    Duration::from_secs(5),
                    move |i| {
                        let h3 = h2.clone();
                        boxed(async move {
                            h3.sleep(Duration::from_millis(2)).await;
                            if i % 10 == 0 {
                                Err("injected".into())
                            } else {
                                Ok(())
                            }
                        })
                    },
                )
                .await
            }
        });
        assert!(stats.failed.get() > 0);
        assert!(stats.ok.get() > stats.failed.get() * 5);
        let p50 = stats.latency.quantile(0.5);
        assert!((1_900_000..2_200_000).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn slo_attainment_bounds() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let stats = sim.block_on({
            let h = h.clone();
            async move {
                let rng = h.rng().stream("wl");
                let h2 = h.clone();
                drive_open_loop(
                    &h,
                    &rng,
                    RateShape::Steady { rps: 200.0 },
                    Duration::from_secs(5),
                    move |i| {
                        let h3 = h2.clone();
                        boxed(async move {
                            // Half fast, half slow.
                            let d = if i % 2 == 0 { 1 } else { 20 };
                            h3.sleep(Duration::from_millis(d)).await;
                            Ok(())
                        })
                    },
                )
                .await
            }
        });
        let tight = stats.slo_attainment(Duration::from_millis(5));
        let loose = stats.slo_attainment(Duration::from_millis(50));
        assert!((0.35..0.65).contains(&tight), "tight {tight}");
        assert!(loose > 0.95, "loose {loose}");
    }
}
