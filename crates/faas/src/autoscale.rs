//! Predictive warm-pool autoscaling (§2.4, §4.2).
//!
//! Reactive scale-from-zero makes every burst pay a full cold start. The
//! autoscaler instead estimates the per-(function, variant) arrival rate
//! with an exponentially weighted moving average over fixed virtual-time
//! scan intervals and boots sandboxes *ahead* of demand, sized by the
//! per-backend cold-start cost model in [`crate::isolation`]: Wasm pools
//! stay shallow (a 1 ms boot is nearly free to pay reactively) while
//! microVM and container pools run deep.
//!
//! Everything here is deterministic: the estimator consumes only arrival
//! counts and the simulator's virtual clock — no wall clock, no RNG — so
//! an autoscaled run fingerprints identically per seed (see
//! `tests/determinism.rs`).

use std::time::Duration;

use crate::function::Variant;
use crate::graph::{StageSpec, TaskGraph};
use crate::isolation::Backend;

/// Tuning knobs for the predictive autoscaler. Disabled by default — the
/// runtime then behaves exactly like the reactive seed.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Master switch. When false no estimator state is kept and no
    /// pre-warmer task is spawned.
    pub enabled: bool,
    /// How often the pre-warmer scans: estimators tick, targets are
    /// recomputed, boots and steals are issued.
    pub interval: Duration,
    /// EWMA window: the arrival-rate estimate reflects roughly this much
    /// trailing traffic. A key idle for a full window resets to zero so
    /// pools drain at quiescence.
    pub window: Duration,
}

/// Multiplier over the predicted steady-state concurrency (covers
/// estimator lag on rising ramps).
const HEADROOM: f64 = 1.5;
/// Hard cap on the warm-pool target per (function, variant).
const MAX_POOL: usize = 32;
/// Boot + steal budget per scan (keeps one scan from monopolizing the
/// cluster).
pub(crate) const MAX_ACTIONS_PER_SCAN: usize = 16;
/// Nodes above this utilization get idle instances drained away by the
/// work-stealing rebalance pass.
pub(crate) const STEAL_HIGH: f64 = 0.90;
/// Stolen instances only land on nodes below this utilization.
pub(crate) const STEAL_LOW: f64 = 0.60;

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            enabled: false,
            interval: Duration::from_millis(250),
            window: Duration::from_secs(5),
        }
    }
}

impl AutoscaleConfig {
    /// The default knobs with the master switch on.
    pub fn enabled() -> Self {
        AutoscaleConfig {
            enabled: true,
            ..AutoscaleConfig::default()
        }
    }

    /// EWMA blend factor for one scan interval: `1 - e^(-interval/window)`.
    pub(crate) fn alpha(&self) -> f64 {
        1.0 - (-self.interval.as_secs_f64() / self.window.as_secs_f64().max(1e-9)).exp()
    }

    /// Scans with zero arrivals after which a key's rate snaps to zero.
    pub(crate) fn idle_limit(&self) -> u32 {
        (self.window.as_secs_f64() / self.interval.as_secs_f64().max(1e-9)).ceil() as u32
    }
}

/// Per-(function, variant) arrival-rate and service-time estimator.
///
/// Arrivals accumulate in `pending` between scans; each scan folds the
/// instantaneous rate into the EWMA. Deterministic by construction.
#[derive(Debug, Default, Clone)]
pub(crate) struct RateEstimator {
    rate_per_sec: f64,
    service_secs: f64,
    pending: u64,
    idle_scans: u32,
}

impl RateEstimator {
    /// Notes one arrival (real or a phantom from a graph edge).
    pub(crate) fn record_arrival(&mut self) {
        self.pending += 1;
    }

    /// Folds an observed per-invocation busy time into the service-time
    /// estimate (fixed 0.2 blend — service times move slowly).
    pub(crate) fn record_service(&mut self, busy: Duration) {
        let secs = busy.as_secs_f64();
        if self.service_secs == 0.0 {
            self.service_secs = secs;
        } else {
            self.service_secs = 0.2 * secs + 0.8 * self.service_secs;
        }
    }

    /// One scan tick: blends `pending / interval` into the rate. A key
    /// idle for `idle_limit` consecutive scans resets to zero so the
    /// reaper can drain its pool completely.
    pub(crate) fn tick(&mut self, interval_secs: f64, alpha: f64, idle_limit: u32) {
        let instantaneous = self.pending as f64 / interval_secs;
        self.rate_per_sec = alpha * instantaneous + (1.0 - alpha) * self.rate_per_sec;
        if self.pending == 0 {
            self.idle_scans += 1;
            if self.idle_scans >= idle_limit {
                self.rate_per_sec = 0.0;
            }
        } else {
            self.idle_scans = 0;
        }
        self.pending = 0;
    }

    /// Current warm-pool target for a backend.
    pub(crate) fn target(&self, backend: Backend) -> usize {
        backend
            .prewarm_depth(
                self.rate_per_sec,
                Duration::from_secs_f64(self.service_secs),
                HEADROOM,
            )
            .min(MAX_POOL)
    }

    /// The smoothed arrival rate (tests / diagnostics).
    #[cfg(test)]
    pub(crate) fn rate(&self) -> f64 {
        self.rate_per_sec
    }
}

/// A graph-derived pre-warm rule: every arrival at `upstream` counts as a
/// phantom arrival for `function`/`variant`, so downstream pools warm up
/// before the pipeline's first stage even finishes.
#[derive(Debug, Clone)]
pub(crate) struct PrewarmEdge {
    /// Function whose arrivals predict downstream traffic.
    pub(crate) upstream: String,
    /// Downstream function to pre-warm.
    pub(crate) function: String,
    /// Variant (and thus backend + demand) to boot for it.
    pub(crate) variant: Variant,
}

/// Derives pre-warm edges from a task graph: one edge per (stage,
/// consumer) pair, with `variant_of` naming the variant each downstream
/// stage will run as (stages it returns `None` for are skipped).
pub(crate) fn edges_from_graph(
    graph: &TaskGraph,
    variant_of: impl Fn(&StageSpec) -> Option<Variant>,
) -> Vec<PrewarmEdge> {
    let stages = graph.stages();
    let mut edges = Vec::new();
    for (i, stage) in stages.iter().enumerate() {
        for c in graph.consumers(i) {
            if let Some(variant) = variant_of(&stages[c]) {
                edges.push(PrewarmEdge {
                    upstream: stage.function.clone(),
                    function: stages[c].function.clone(),
                    variant,
                });
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_converges_on_a_steady_rate() {
        let cfg = AutoscaleConfig::enabled();
        let mut est = RateEstimator::default();
        let dt = cfg.interval.as_secs_f64();
        let alpha = cfg.alpha();
        // 100 rps for 40 scans (10 s at the 250 ms interval).
        for _ in 0..40 {
            for _ in 0..25 {
                est.record_arrival();
            }
            est.tick(dt, alpha, cfg.idle_limit());
        }
        assert!((est.rate() - 100.0).abs() < 15.0, "rate {}", est.rate());
    }

    #[test]
    fn idle_keys_reset_to_zero() {
        let cfg = AutoscaleConfig::enabled();
        let mut est = RateEstimator::default();
        let dt = cfg.interval.as_secs_f64();
        for _ in 0..10 {
            est.record_arrival();
            est.tick(dt, cfg.alpha(), cfg.idle_limit());
        }
        assert!(est.rate() > 0.0);
        for _ in 0..cfg.idle_limit() {
            est.tick(dt, cfg.alpha(), cfg.idle_limit());
        }
        assert_eq!(est.rate(), 0.0, "a full idle window must zero the rate");
        assert_eq!(est.target(Backend::Container), 0);
    }

    #[test]
    fn targets_respect_backend_cost_and_cap() {
        let mut est = RateEstimator::default();
        est.record_service(Duration::from_millis(20));
        let cfg = AutoscaleConfig::enabled();
        let dt = cfg.interval.as_secs_f64();
        for _ in 0..80 {
            for _ in 0..50 {
                est.record_arrival();
            }
            est.tick(dt, cfg.alpha(), cfg.idle_limit());
        }
        let container = est.target(Backend::Container);
        let wasm = est.target(Backend::Wasm);
        assert!(container > wasm, "container {container} vs wasm {wasm}");
        assert!(container < MAX_POOL, "200 rps must sit under the cap");
        // Forty times the rate would want far more than the cap allows.
        for _ in 0..80 {
            for _ in 0..2_000 {
                est.record_arrival();
            }
            est.tick(dt, cfg.alpha(), cfg.idle_limit());
        }
        assert_eq!(est.target(Backend::Container), MAX_POOL);
    }

    #[test]
    fn graph_edges_follow_consumers() {
        let g = TaskGraph::linear(&["ingest", "transform", "publish"]);
        let edges = edges_from_graph(&g, |_| Some(Variant::cpu(2)));
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].upstream, "ingest");
        assert_eq!(edges[0].function, "transform");
        assert_eq!(edges[1].upstream, "transform");
        assert_eq!(edges[1].function, "publish");
    }
}
