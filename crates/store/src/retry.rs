//! Client-side fault recovery policy: deadlines, bounded retries with
//! seeded-jitter backoff, and primary failover.
//!
//! A single dropped message must not fail an operation while a write
//! majority is alive — the provider's job is to hide infrastructure
//! faults behind the interface. The [`RetryPolicy`] bounds how hard the
//! client tries before surfacing an error:
//!
//! * every RPC attempt races a **per-attempt deadline** (surfacing as
//!   [`pcsi_core::PcsiError::Timeout`]);
//! * failed attempts are retried after **exponential backoff** whose
//!   jitter is drawn from the dedicated `"store-retry"` RNG stream, so
//!   the same seed reproduces the same retry schedule;
//! * once the per-target attempt budget is exhausted the client **fails
//!   over** to the next replica in placement order — safe because every
//!   retry carries the same `req_id` and coordinators deduplicate on it;
//! * an overall **operation deadline** bounds the total time spent.
//!
//! All jitter draws happen only when a retry actually sleeps: a healthy
//! run makes zero draws and zero extra awaits, so fault-free latency and
//! determinism fingerprints are unchanged by the default policy.

use std::time::Duration;

use pcsi_sim::rng::DetRng;

/// Name of the RNG stream backoff jitter is drawn from. A dedicated
/// stream keeps retry scheduling from perturbing every other seeded
/// decision in the simulation.
pub(crate) const RETRY_RNG_STREAM: &str = "store-retry";

/// Bounds on the client's fault-recovery effort.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Deadline raced against each individual RPC attempt; `None`
    /// disables per-attempt deadlines (the attempt then runs until the
    /// transport itself gives up).
    pub(crate) attempt_timeout: Option<Duration>,
    /// Overall budget for one client operation across all attempts and
    /// failovers; `None` disables the overall deadline.
    pub(crate) op_deadline: Option<Duration>,
    /// Attempts against each target before failing over (minimum 1).
    pub(crate) attempts_per_target: u32,
    /// Whether mutations may fail over to the next replica in placement
    /// order after the per-target budget is exhausted (reads always
    /// retry; this additionally rotates the eventual-read target).
    pub(crate) failover: bool,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub(crate) base_backoff: Duration,
    /// Backoff ceiling.
    pub(crate) max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: the actual sleep is drawn uniformly
    /// from `[d * (1 - jitter), d]` where `d` is the capped exponential
    /// delay.
    pub(crate) jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Generous production defaults: deadlines far above healthy-path
        // latencies (so they never fire outside fault injection), three
        // attempts per target, failover on.
        RetryPolicy {
            attempt_timeout: Some(Duration::from_millis(250)),
            op_deadline: Some(Duration::from_secs(2)),
            attempts_per_target: 3,
            failover: true,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// Single-shot policy: no deadline, no retry, no failover. Restores
    /// the pre-recovery behavior for tests that assert on raw transport
    /// failures.
    pub fn none() -> Self {
        RetryPolicy {
            attempt_timeout: None,
            op_deadline: None,
            attempts_per_target: 1,
            failover: false,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// The fault-injection policy: a per-attempt deadline below the
    /// fabric's 2 ms retransmit timeout, so a lost message surfaces as a
    /// fast client-side timeout rather than a slow transport error, with
    /// enough retry and failover budget inside a 50 ms operation deadline
    /// that a live majority is always found.
    pub fn tight() -> Self {
        RetryPolicy {
            attempt_timeout: Some(Duration::from_micros(1500)),
            op_deadline: Some(Duration::from_millis(50)),
            attempts_per_target: 4,
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        }
    }

    /// The capped exponential delay before retry number `retry`
    /// (0-based), without jitter.
    pub(crate) fn backoff_cap(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }

    /// The jittered sleep before retry number `retry` (0-based), drawn
    /// uniformly from `[cap * (1 - jitter), cap]` using `rng`.
    pub(crate) fn backoff(&self, retry: u32, rng: &DetRng) -> Duration {
        let cap = self.backoff_cap(retry);
        if cap.is_zero() || self.jitter <= 0.0 {
            return cap;
        }
        let scale = 1.0 - self.jitter.min(1.0) * rng.f64();
        cap.mul_f64(scale)
    }

    /// Operation budget left after `elapsed` time spent; `None` when no
    /// overall deadline is configured, `Some(ZERO)` when exhausted.
    pub(crate) fn remaining_budget(&self, elapsed: Duration) -> Option<Duration> {
        self.op_deadline.map(|b| b.saturating_sub(elapsed))
    }

    /// The deadline to race the next attempt against: the per-attempt
    /// timeout clamped to the remaining operation budget. Without the
    /// clamp, an attempt started just inside the budget could overrun
    /// `op_deadline` by nearly a full `attempt_timeout`.
    pub(crate) fn attempt_deadline(&self, remaining: Option<Duration>) -> Option<Duration> {
        match (self.attempt_timeout, remaining) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, r) => r,
        }
    }
}

/// Aggregated fault-recovery counters across all clients of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts re-sent after a retryable failure (failover attempts
    /// included).
    pub retries: u64,
    /// Operations that moved past the first-choice target to another
    /// replica.
    pub failovers: u64,
    /// Attempts abandoned by a deadline (per-attempt or operation-wide).
    pub timeouts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(500),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_cap(0), Duration::from_micros(100));
        assert_eq!(p.backoff_cap(1), Duration::from_micros(200));
        assert_eq!(p.backoff_cap(2), Duration::from_micros(400));
        assert_eq!(p.backoff_cap(3), Duration::from_micros(500));
        assert_eq!(p.backoff_cap(60), Duration::from_micros(500));
    }

    #[test]
    fn jitter_stays_in_range() {
        let p = RetryPolicy {
            base_backoff: Duration::from_micros(1000),
            max_backoff: Duration::from_millis(10),
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let rng = DetRng::seeded(7);
        for retry in 0..8 {
            let cap = p.backoff_cap(retry);
            let lo = cap.mul_f64(1.0 - p.jitter);
            for _ in 0..100 {
                let d = p.backoff(retry, &rng);
                assert!(d >= lo && d <= cap, "{d:?} outside [{lo:?}, {cap:?}]");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let a: Vec<Duration> = {
            let rng = DetRng::seeded(99);
            (0..16).map(|i| p.backoff(i, &rng)).collect()
        };
        let b: Vec<Duration> = {
            let rng = DetRng::seeded(99);
            (0..16).map(|i| p.backoff(i, &rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn none_policy_is_single_shot() {
        let p = RetryPolicy::none();
        assert_eq!(p.attempt_timeout, None);
        assert_eq!(p.op_deadline, None);
        let rng = DetRng::seeded(0);
        assert_eq!(p.backoff(0, &rng), Duration::ZERO);
    }

    #[test]
    fn attempt_deadline_clamps_to_remaining_budget() {
        let p = RetryPolicy {
            attempt_timeout: Some(Duration::from_millis(250)),
            op_deadline: Some(Duration::from_secs(2)),
            ..RetryPolicy::default()
        };
        // Plenty of budget: the per-attempt timeout governs.
        let rem = p.remaining_budget(Duration::from_millis(100));
        assert_eq!(rem, Some(Duration::from_millis(1900)));
        assert_eq!(p.attempt_deadline(rem), Some(Duration::from_millis(250)));
        // Less budget than one attempt: the remainder governs.
        let rem = p.remaining_budget(Duration::from_millis(1900));
        assert_eq!(p.attempt_deadline(rem), Some(Duration::from_millis(100)));
        // Budget exhausted (or overrun): zero, never negative.
        let rem = p.remaining_budget(Duration::from_secs(5));
        assert_eq!(rem, Some(Duration::ZERO));
        assert_eq!(p.attempt_deadline(rem), Some(Duration::ZERO));
    }

    #[test]
    fn attempt_deadline_without_either_bound() {
        let p = RetryPolicy {
            attempt_timeout: None,
            op_deadline: Some(Duration::from_secs(1)),
            ..RetryPolicy::default()
        };
        // No per-attempt timeout: attempts still race the remaining
        // operation budget.
        let rem = p.remaining_budget(Duration::from_millis(400));
        assert_eq!(p.attempt_deadline(rem), Some(Duration::from_millis(600)));
        let none = RetryPolicy::none();
        assert_eq!(none.remaining_budget(Duration::from_secs(9)), None);
        assert_eq!(none.attempt_deadline(None), None);
    }
}
