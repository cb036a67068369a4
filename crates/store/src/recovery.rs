//! The one recovery driver behind every client operation. Reads and
//! writes recover from faults the same way — try a target a few times,
//! back off with seeded jitter, move to the next target, never outspend
//! the operation's budget — so the driver owns all of it and a caller
//! supplies only its targets and what one attempt does. No fabric, store
//! or replica appears here: a scripted attempt on a bare simulator
//! checks the whole schedule.

use std::future::Future;
use std::time::Duration;

use pcsi_core::PcsiError;
use pcsi_metrics::Counter;
use pcsi_sim::SimHandle;
use pcsi_trace::{AttrValue, SpanHandle};

use crate::retry::{RetryPolicy, RETRY_RNG_STREAM};

/// What the driver hands the caller for one attempt.
pub(crate) struct Attempt<'a, S> {
    /// Failover step (0 = the first-choice target).
    pub(crate) step: usize,
    /// Attempt number across all steps, 0-based.
    pub(crate) attempt: u32,
    /// What the caller's `next_step` returned for this step.
    pub(crate) target: &'a S,
    /// What the driver races the attempt against: the per-attempt
    /// timeout clamped to the remaining budget.
    pub(crate) deadline: Option<Duration>,
    /// The open `store.attempt` span: takes the caller's attributes and
    /// is the trace context of what it sends.
    pub(crate) span: &'a mut SpanHandle,
}

/// The environment one recovered operation runs in.
pub(crate) struct Recovery<'a> {
    pub(crate) handle: &'a SimHandle,
    pub(crate) policy: &'a RetryPolicy,
    /// Counts attempts re-sent after a retryable failure.
    pub(crate) retries: &'a Counter,
    /// Counts attempts (or whole operations) abandoned by a deadline.
    pub(crate) timeouts: &'a Counter,
    /// The operation span that backoff and attempt spans nest under.
    pub(crate) parent: &'a SpanHandle,
}

impl Recovery<'_> {
    /// Drives one operation to completion, iterating *failover step ×
    /// attempts per target* (the full contract is DESIGN §4.3).
    ///
    /// `next_step(step)` names the step's target (`None`: no more), before
    /// the step's first backoff. `attempt` builds one try as a `'static`
    /// future, raced against its deadline on a task of its own; an
    /// abandoned try runs on detached, so requests must be idempotent or
    /// carry a request id. A non-retryable error ends the operation; when
    /// attempts or budget run out, a verdict computed from replies beats
    /// the transport noise of the last attempt.
    pub(crate) async fn run<S, T, Fut>(
        &self,
        mut next_step: impl FnMut(usize) -> Option<S>,
        mut attempt: impl FnMut(Attempt<'_, S>) -> Fut,
    ) -> Result<T, PcsiError>
    where
        T: 'static,
        Fut: Future<Output = Result<T, PcsiError>> + 'static,
    {
        let Recovery { handle, policy, .. } = *self;
        let start = handle.now();
        let mut attempt_no = 0u32;
        let (mut verdict, mut transport) = (None, None);
        'steps: for step in 0.. {
            if step > 0 && !policy.failover {
                break;
            }
            let Some(target) = next_step(step) else { break };
            for _ in 0..policy.attempts_per_target.max(1) {
                if attempt_no > 0 {
                    self.retries.incr();
                    // The only jitter draw: a healthy operation never
                    // touches the retry stream.
                    let rng = handle.rng().stream(RETRY_RNG_STREAM);
                    let mut delay = policy.backoff(attempt_no - 1, &rng);
                    if let Some(rem) = policy.remaining_budget(handle.now() - start) {
                        // Never sleep past the operation deadline.
                        delay = delay.min(rem);
                    }
                    if !delay.is_zero() {
                        let backoff_span = self.parent.span("store.backoff");
                        handle.sleep(delay).await;
                        backoff_span.finish();
                    }
                }
                // Check the budget before *every* attempt (the first
                // included) and clamp the attempt's deadline to what is
                // left: an exhausted budget must not buy one more full
                // attempt_timeout of overrun.
                let remaining = policy.remaining_budget(handle.now() - start);
                if remaining == Some(Duration::ZERO) {
                    self.timeouts.incr();
                    break 'steps;
                }
                let deadline = policy.attempt_deadline(remaining);
                let mut span = self.parent.span("store.attempt");
                let fut = attempt(Attempt {
                    step,
                    attempt: attempt_no,
                    target: &target,
                    deadline,
                    span: &mut span,
                });
                attempt_no += 1;
                let result = match deadline {
                    Some(d) => pcsi_sim::util::deadline(handle, d, fut)
                        .await
                        .unwrap_or(Err(PcsiError::Timeout)),
                    None => fut.await,
                };
                if let Err(e) = &result {
                    span.attr_with("error", || AttrValue::Text(e.to_string()));
                }
                span.finish();
                match result {
                    Err(e) if e.is_retryable() => match e {
                        PcsiError::Timeout => {
                            self.timeouts.incr();
                            transport = Some(e);
                        }
                        PcsiError::Unreachable(_) | PcsiError::Fault(_) => transport = Some(e),
                        _ => verdict = Some(e),
                    },
                    done => return done,
                }
            }
        }
        Err(verdict.or(transport).unwrap_or(PcsiError::Timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_core::ObjectId;
    use pcsi_net::NodeId;
    use pcsi_sim::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    const SEED: u64 = 7;
    /// Virtual time every scripted attempt takes before it answers.
    const ATTEMPT: Duration = Duration::from_micros(200);
    const US: Duration = Duration::from_micros(1);

    /// What a scripted attempt does after [`ATTEMPT`] has passed.
    #[derive(Clone)]
    enum Reply {
        Ok,
        Fail(PcsiError),
        /// Never answers: only the deadline race ends the attempt.
        Hang,
    }

    /// One attempt as the caller saw it: `(step, attempt, virtual time
    /// since the operation started, deadline handed over)`.
    type Seen = (usize, u32, Duration, Option<Duration>);

    #[derive(Debug, PartialEq)]
    struct Run {
        result: Result<u32, PcsiError>,
        seen: Vec<Seen>,
        /// Virtual time the whole operation took.
        took: Duration,
        retries: u64,
        timeouts: u64,
        /// Draws taken from the `store-retry` stream.
        draws: usize,
    }

    fn unreachable() -> Reply {
        Reply::Fail(PcsiError::Unreachable("peer".into()))
    }

    fn no_quorum() -> Reply {
        Reply::Fail(PcsiError::QuorumUnavailable { needed: 2, got: 1 })
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Some(Duration::from_millis(1)),
            op_deadline: Some(Duration::from_millis(10)),
            attempts_per_target: 2,
            failover: true,
            base_backoff: 100 * US,
            max_backoff: Duration::from_millis(1),
            jitter: 0.5,
        }
    }

    /// The jittered backoffs a fresh `SEED` simulation hands out, in order.
    fn reference_backoffs(policy: &RetryPolicy, n: u32) -> Vec<Duration> {
        let sim = Sim::new(SEED);
        let rng = sim.handle().rng().stream(RETRY_RNG_STREAM);
        (0..n).map(|i| policy.backoff(i, &rng)).collect()
    }

    /// How many draws leave a fresh `SEED` retry stream about to yield `next`.
    fn draws_before(next: u64) -> usize {
        (0..16)
            .find(|&n| {
                let sim = Sim::new(SEED);
                let rng = sim.handle().rng().stream(RETRY_RNG_STREAM);
                for _ in 0..n {
                    rng.f64();
                }
                rng.u64() == next
            })
            .expect("fewer than 16 draws")
    }

    /// Runs `script` through the driver on a bare simulator, with
    /// `targets[step]` as each step's target.
    fn drive<S: Clone + 'static>(policy: RetryPolicy, targets: Vec<S>, script: Vec<Reply>) -> Run {
        let mut sim = Sim::new(SEED);
        let handle = sim.handle();
        let (retries, timeouts) = (Counter::new(), Counter::new());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let result = sim.block_on({
            let (handle, retries, timeouts, seen) = (
                handle.clone(),
                retries.clone(),
                timeouts.clone(),
                seen.clone(),
            );
            async move {
                let start = handle.now();
                let parent = SpanHandle::disabled();
                let recovery = Recovery {
                    handle: &handle,
                    policy: &policy,
                    retries: &retries,
                    timeouts: &timeouts,
                    parent: &parent,
                };
                let mut script = script.into_iter();
                recovery
                    .run(
                        |step| targets.get(step).cloned(),
                        |a| {
                            seen.borrow_mut().push((
                                a.step,
                                a.attempt,
                                handle.now() - start,
                                a.deadline,
                            ));
                            let reply = script.next().expect("script covers every attempt");
                            let (handle, n) = (handle.clone(), a.attempt);
                            async move {
                                handle.sleep(ATTEMPT).await;
                                match reply {
                                    Reply::Ok => Ok(n),
                                    Reply::Fail(e) => Err(e),
                                    Reply::Hang => {
                                        handle.sleep(Duration::from_secs(3600)).await;
                                        unreachable!("the driver waited out a hung attempt")
                                    }
                                }
                            }
                        },
                    )
                    .await
            }
        });
        let seen = seen.borrow().clone();
        Run {
            result,
            seen,
            took: handle.now() - pcsi_sim::SimTime::ZERO,
            retries: retries.get(),
            timeouts: timeouts.get(),
            draws: draws_before(handle.rng().stream(RETRY_RNG_STREAM).u64()),
        }
    }

    /// Runs the script the way each client path does — the read path's
    /// steps carry no target, the write path's carry a node — and checks
    /// the two see the same schedule before returning it.
    fn run(policy: RetryPolicy, script: &[Reply]) -> Run {
        let read = drive(policy.clone(), vec![(); 3], script.to_vec());
        let nodes = vec![NodeId(4), NodeId(1), NodeId(7)];
        let write = drive(policy, nodes, script.to_vec());
        assert_eq!(read, write, "a read and a write were scheduled differently");
        read
    }

    #[test]
    fn two_retryable_failures_then_success() {
        let p = policy();
        let b = reference_backoffs(&p, 2);
        let ms = p.attempt_timeout;
        let got = run(p, &[unreachable(), no_quorum(), Reply::Ok]);
        assert_eq!(got.result, Ok(2));
        assert_eq!(
            got.seen,
            vec![
                (0, 0, Duration::ZERO, ms),
                (0, 1, ATTEMPT + b[0], ms),
                // Two attempts per target: the third moves to step 1.
                (1, 2, ATTEMPT * 2 + b[0] + b[1], ms),
            ]
        );
        assert!(b[0] >= 50 * US && b[0] <= 100 * US && b[1] >= 100 * US && b[1] <= 200 * US);
        assert_eq!(got.took, ATTEMPT * 3 + b[0] + b[1]);
        assert_eq!((got.retries, got.timeouts, got.draws), (2, 0, 2));
    }

    #[test]
    fn a_fatal_error_ends_the_operation_on_the_spot() {
        let id = ObjectId::from_parts(1, 1);
        let got = run(policy(), &[Reply::Fail(PcsiError::NotFound(id))]);
        assert_eq!(got.result, Err(PcsiError::NotFound(id)));
        assert_eq!(got.seen.len(), 1);
        assert_eq!(got.took, ATTEMPT);
        assert_eq!((got.retries, got.timeouts, got.draws), (0, 0, 0));
    }

    #[test]
    fn a_spent_budget_buys_no_attempt() {
        let p = RetryPolicy {
            op_deadline: Some(Duration::ZERO),
            ..policy()
        };
        let got = run(p, &[]);
        assert_eq!(got.result, Err(PcsiError::Timeout));
        assert_eq!(got.seen, vec![]);
        assert_eq!(got.took, Duration::ZERO);
        assert_eq!((got.retries, got.timeouts, got.draws), (0, 1, 0));
    }

    #[test]
    fn a_backoff_never_sleeps_past_the_budget() {
        // The first attempt fails at 200 µs; the jittered backoff is at
        // least 50 µs, and 50 µs is all the budget has left.
        let p = RetryPolicy {
            op_deadline: Some(250 * US),
            ..policy()
        };
        let got = run(p, &[unreachable()]);
        assert_eq!(got.result, Err(PcsiError::Unreachable("peer".into())));
        // The one attempt raced the budget, not the 1 ms attempt timeout.
        assert_eq!(got.seen, vec![(0, 0, Duration::ZERO, Some(250 * US))]);
        assert_eq!(got.took, 250 * US);
        assert_eq!((got.retries, got.timeouts, got.draws), (1, 1, 1));
    }

    #[test]
    fn failures_that_come_back_at_once_spend_the_attempts_not_the_deadline() {
        // Attempts bound an operation as well as time does. What chaos
        // seed 3557359728 (plan `Drops`) does to a client on the crashing
        // primary: while its own node is down each attempt fails on the
        // spot, three targets × four attempts are gone after the backoffs
        // between them, and the operation fails with most of its 50 ms
        // unspent and a majority alive.
        let p = RetryPolicy::tight();
        let backoffs: Duration = reference_backoffs(&p, 11).iter().sum();
        let got = run(p, &vec![unreachable(); 12]);
        assert_eq!(got.result, Err(PcsiError::Unreachable("peer".into())));
        assert_eq!(got.seen.len(), 12);
        assert_eq!(got.seen[11].0, 2, "the last attempt is on the third target");
        assert_eq!(got.took, ATTEMPT * 12 + backoffs);
        assert!(got.took < Duration::from_millis(20), "took {:?}", got.took);
        assert_eq!((got.retries, got.timeouts, got.draws), (11, 0, 11));
    }

    #[test]
    fn without_failover_only_the_first_step_runs() {
        let p = RetryPolicy {
            failover: false,
            jitter: 0.0,
            ..policy()
        };
        let ms = p.attempt_timeout;
        let got = run(p, &[unreachable(), unreachable()]);
        assert_eq!(got.result, Err(PcsiError::Unreachable("peer".into())));
        assert_eq!(
            got.seen,
            vec![(0, 0, Duration::ZERO, ms), (0, 1, ATTEMPT + 100 * US, ms)]
        );
        // No jitter, no draw.
        assert_eq!((got.retries, got.timeouts, got.draws), (1, 0, 0));
    }

    #[test]
    fn zero_attempts_per_target_means_one_and_a_verdict_beats_later_noise() {
        let p = RetryPolicy {
            attempts_per_target: 0,
            jitter: 0.0,
            ..policy()
        };
        let ms = Duration::from_millis(1);
        // One attempt per step; the second hangs until its deadline.
        let got = run(p, &[no_quorum(), Reply::Hang, unreachable()]);
        assert_eq!(
            got.seen,
            vec![
                (0, 0, Duration::ZERO, Some(ms)),
                (1, 1, ATTEMPT + 100 * US, Some(ms)),
                (2, 2, ATTEMPT + 100 * US + ms + 200 * US, Some(ms)),
            ]
        );
        // The replica-computed verdict of attempt 0 outlives the timeout
        // and the unreachable peer that came after it.
        assert_eq!(
            got.result,
            Err(PcsiError::QuorumUnavailable { needed: 2, got: 1 })
        );
        assert_eq!((got.retries, got.timeouts, got.draws), (2, 1, 0));
    }
}
