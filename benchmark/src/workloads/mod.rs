//! The four workloads and the plumbing they share.
//!
//! A workload is a [`Workload`]: inputs generated once from the seed,
//! then replayed pass after pass on a fresh `Sim::new(seed)`. Every
//! pass has the same three steps — deploy the cloud, preload it, drive
//! the timed window — and returns a [`Pass`]: host times, the output
//! checks' verdict, and a [`Summary`] of the op log, the counter deltas
//! across the window and the digest.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use pcsi_cloud::{Cloud, CloudBuilder};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::{Sim, SimHandle, SimTime};
use pcsi_trace::Sampling;

use crate::alloc;
use crate::spans::SpanRec;
use crate::stats::Fnv;
use crate::summary::{Bag, ClassStat, Summary};
use crate::vt;

pub mod faas_diurnal;
pub mod kv_mixed;
pub mod macro_day;
pub mod rest_kv;

/// Workload names, in run order.
pub const NAMES: [&str; 4] = ["kv_mixed", "rest_kv", "faas_diurnal", "macro_day"];

/// Generates `name`'s inputs from `seed`.
pub fn plan(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv_mixed" => Box::new(kv_mixed::Plan::new(seed)),
        "rest_kv" => Box::new(rest_kv::Plan::new(seed)),
        "faas_diurnal" => Box::new(faas_diurnal::Plan::new(seed)),
        "macro_day" => Box::new(macro_day::Plan::new(seed)),
        _ => return None,
    })
}

/// Telemetry level of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telemetry {
    /// The workload's own setting: off, except `macro_day` (metrics on,
    /// 1 % trace sampling, observability rules). End-to-end metrics are
    /// only ever read from these passes.
    Default,
    /// `metrics(true)` + `tracing(Sampling::Always)` and the counting
    /// allocator armed: the source of the registry-only layer metrics.
    Traced,
}

/// Span-sink bound in traced passes: large enough that the virtual-time
/// shares rest on thousands of whole requests, small enough that the
/// sink's own footprint does not become the workload.
const TRACED_SINK_SPANS: usize = 1 << 16;

impl Telemetry {
    /// Raises `builder` to this level.
    pub fn apply(self, builder: CloudBuilder) -> CloudBuilder {
        match self {
            Telemetry::Default => builder,
            Telemetry::Traced => builder
                .metrics(true)
                .tracing(Sampling::Always)
                .trace_capacity(TRACED_SINK_SPANS),
        }
    }
}

/// One workload: seeded inputs plus the pass that replays them.
pub trait Workload {
    /// Runs one full pass (deploy, preload, timed window, checks).
    fn pass(&self, telemetry: Telemetry, rec: &SpanRec) -> Pass;
    /// Variants of this workload with all but one named traffic source
    /// removed; a traced run passes each once to split executor polls
    /// by source. Empty for single-source workloads.
    fn ablations(&self) -> Vec<(&'static str, Box<dyn Workload>)> {
        Vec::new()
    }
}

/// How an op class counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Driver-issued ops whose latency is the workload's headline
    /// (`op_p50_us`, `op_p99_us`, `slo_miss_frac`).
    Primary,
    /// Other driver-issued ops: counted in ops, attempts and failures.
    Op,
    /// A timed part of some op (one kernel call, one stream delivery):
    /// latency only, never counted as an op.
    Part,
}

/// Latencies and outcomes of one op class over the statistics window.
#[derive(Debug, Clone)]
pub struct Class {
    /// Stable class name.
    pub name: &'static str,
    /// How it counts.
    pub role: Role,
    /// Latencies of successful ops, nanoseconds; sorted by [`OpLog::finish`].
    pub lat_ns: Vec<u64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Ops recorded since the window opened, warm-up included.
    pub seen: u64,
}

/// The op log one pass fills in.
#[derive(Debug)]
pub struct OpLog {
    /// Virtual instant statistics start: ops due earlier are the
    /// warm-up that fills the modelled caches, and are not recorded.
    stats_from_ns: u64,
    classes: Vec<Class>,
    /// Driver-issued ops completed since the window opened, warm-up
    /// included: the divisor of host time per op.
    completed: u64,
}

impl OpLog {
    /// A shared log with the given classes; index = position.
    pub fn new(stats_from: SimTime, classes: &[(&'static str, Role)]) -> Rc<RefCell<OpLog>> {
        Rc::new(RefCell::new(OpLog {
            stats_from_ns: stats_from.as_nanos(),
            classes: classes
                .iter()
                .map(|&(name, role)| Class {
                    name,
                    role,
                    lat_ns: Vec::new(),
                    attempted: 0,
                    failed: 0,
                    seen: 0,
                })
                .collect(),
            completed: 0,
        }))
    }

    /// Records one op of `class` that was due at `start` and finished at
    /// `end`.
    pub fn record(&mut self, class: usize, start: SimTime, end: SimTime, ok: bool) {
        let c = &mut self.classes[class];
        c.seen += 1;
        if c.role != Role::Part {
            self.completed += 1;
        }
        if start.as_nanos() < self.stats_from_ns {
            return;
        }
        c.attempted += 1;
        if ok {
            c.lat_ns.push(end.as_nanos() - start.as_nanos());
        } else {
            c.failed += 1;
        }
    }

    fn finish(mut self) -> (Vec<Class>, u64) {
        for c in &mut self.classes {
            c.lat_ns.sort_unstable();
        }
        (self.classes, self.completed)
    }
}

/// Counters every layer exposes without telemetry, read through public
/// accessors at the window's edges.
fn read_counts(sim: &Sim, cloud: &Cloud) -> Bag {
    let cache = cloud.store.cache_stats();
    let retry = cloud.store.retry_stats();
    let replicas = cloud.store.replicas();
    let (pool_hits, pool_misses) = bytes::pool_stats();
    let counts = [
        ("polls", sim.poll_count()),
        ("msgs", cloud.fabric.message_count()),
        ("bytes", cloud.fabric.bytes_moved()),
        ("dropped", cloud.fabric.messages_dropped()),
        ("cache_hits", cache.hits),
        ("cache_misses", cache.misses),
        ("retries", retry.retries),
        ("failovers", retry.failovers),
        ("timeouts", retry.timeouts),
        (
            "coordinated",
            replicas.iter().map(|r| r.coordinated_count()).sum(),
        ),
        ("fetched", replicas.iter().map(|r| r.fetched_count()).sum()),
        ("invocations", cloud.runtime.invocations()),
        ("cold_starts", cloud.runtime.cold_starts()),
        ("rejections", cloud.runtime.rejections()),
        ("prewarms", cloud.runtime.prewarms()),
        ("preemptions", cloud.runtime.preemptions()),
        ("rebalances", cloud.runtime.rebalances()),
        ("pool_hits", pool_hits),
        ("pool_misses", pool_misses),
    ];
    counts
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v as f64))
        .collect()
}

/// Everything one pass yields.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host time of the timed window.
    pub window_host: Duration,
    /// Output-check failures; empty when the pass is correct.
    pub errors: Vec<String>,
    /// What the pass measured, in the form that crosses processes.
    pub summary: Summary,
}

/// The deploy → preload → window skeleton every workload runs.
///
/// `preload` and `window` each return the root future of one
/// `block_on`; the counters are read between the two, so the window's
/// counts exclude deployment and preload, and the host clock is read at
/// the same edges.
pub fn run_pass<S: 'static>(
    (seed, limit): (u64, Duration),
    telemetry: Telemetry,
    rec: &SpanRec,
    deploy: impl FnOnce(&SimHandle) -> Cloud,
    preload: impl FnOnce(SimHandle, Cloud) -> LocalBoxFuture<S>,
    window: impl FnOnce(SimHandle, Cloud, S, Rc<RefCell<Vec<String>>>) -> Window,
) -> Pass {
    let traced = telemetry == Telemetry::Traced;
    if traced {
        alloc::arm();
    }
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let cloud = rec.span("cloud.build", || deploy(&h));
    let state = rec.span("preload", || {
        sim.block_on(preload(h.clone(), cloud.clone()))
    });

    let errors = Rc::new(RefCell::new(Vec::new()));
    let Window {
        log,
        stats_from,
        root,
    } = window(h.clone(), cloud.clone(), state, Rc::clone(&errors));
    let registry_start = cloud
        .metrics
        .as_ref()
        .filter(|_| traced)
        .map(|m| m.render());
    let counts_start = read_counts(&sim, &cloud);
    let alloc_start = alloc::snapshot();
    let t_window = Instant::now();
    let Driven { until, extra } = rec.span("window", || sim.block_on(root));
    let window_host = t_window.elapsed();
    let alloc_end = alloc::snapshot();
    let mut counts = read_counts(&sim, &cloud);
    for (name, at_start) in counts_start {
        *counts.get_mut(&name).expect("same counters at both edges") -= at_start;
    }
    let sim_end = h.now();

    let traced = traced.then(|| {
        let mut t = Bag::new();
        let mut put = |key: &str, value: f64| t.insert(key.to_owned(), value);
        if let (Some(m), Some(start)) = (&cloud.metrics, &registry_start) {
            let t0 = Instant::now();
            let rendered = rec.span("metrics.render", || m.render());
            put("render_host_s", t0.elapsed().as_secs_f64());
            put("series", m.series_count() as f64);
            let (sums, acks) = vt::registry_sums(&rendered);
            let (sums_start, _) = vt::registry_sums(start);
            put("quorum_acks_p50", acks);
            for (name, v) in sums {
                let before = sums_start.get(&name).copied().unwrap_or(0);
                put(&format!("registry.{name}"), v.saturating_sub(before) as f64);
            }
        }
        if let Some(tracer) = &cloud.tracer {
            let sink = tracer.sink();
            let dropped = sink.dropped();
            let spans = rec.span("trace.drain", || sink.take());
            put("spans_dropped", dropped as f64);
            put("spans", (dropped + spans.len() as u64) as f64);
            for (layer, ns) in vt::self_time_by_layer(&spans) {
                put(&format!("vt.{layer}"), ns as f64);
            }
        }
        if let (Some(obs), Some(m)) = (&cloud.obs, &cloud.metrics) {
            let journal = obs.journal();
            put("journal_appended", journal.appended() as f64);
            put("journal_dropped", journal.dropped() as f64);
            put("alert_transitions", obs.alert_log().lines().count() as f64);
            let t0 = Instant::now();
            rec.span("obs.tick", || obs.tick(m, sim_end.as_nanos()));
            put("obs_tick_host_s", t0.elapsed().as_secs_f64());
        }
        put("alloc_count", (alloc_end.count - alloc_start.count) as f64);
        put("alloc_bytes", (alloc_end.bytes - alloc_start.bytes) as f64);
        put("alloc_peak_live", alloc::disarm() as f64);
        t
    });

    let log = Rc::try_unwrap(log)
        .expect("every op task has finished and dropped its log handle")
        .into_inner();
    let (classes, ops) = log.finish();

    let mut digest = Fnv::default();
    digest.word(sim_end.as_nanos());
    for counter in ["polls", "msgs", "bytes"] {
        digest.word(counts[counter] as u64);
    }
    for c in &classes {
        digest.word(c.attempted);
        digest.word(c.failed);
        digest.words(&c.lat_ns);
    }

    let limit_ns = limit.as_nanos() as u64;
    Pass {
        window_host,
        errors: errors.take(),
        summary: Summary {
            digest: digest.0,
            ops,
            sim_window_s: until.saturating_since(stats_from).as_secs_f64(),
            classes: classes.iter().map(|c| ClassStat::of(c, limit_ns)).collect(),
            counts,
            extra: extra.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            traced,
        },
    }
}

/// What a window's root future resolves to.
pub struct Driven {
    /// Virtual instant the last driver-issued op completed (closing
    /// checks that read data back come after it and are not traffic).
    pub until: SimTime,
    /// Workload-specific layer values, already in their final unit.
    pub extra: BTreeMap<&'static str, f64>,
}

/// What a workload hands [`run_pass`] for its timed window.
pub struct Window {
    /// The log the root future's tasks record into.
    pub log: Rc<RefCell<OpLog>>,
    /// Virtual instant statistics start (the log's own threshold).
    pub stats_from: SimTime,
    /// The window's root future; resolves once every op has completed
    /// and the checks have run.
    pub root: LocalBoxFuture<Driven>,
}

/// Issues `n` requests open-loop on the virtual clock: request `i` is
/// spawned at exactly `due(i)` whatever earlier requests are doing, and
/// the call returns once all have finished. Generator lateness is zero
/// by construction; the assertion keeps it so.
pub async fn open_loop(
    h: &SimHandle,
    n: usize,
    due: impl Fn(usize) -> SimTime,
    op: impl Fn(usize, SimTime) -> LocalBoxFuture<()>,
) {
    let mut joins = Vec::with_capacity(n);
    for i in 0..n {
        let at = due(i);
        h.sleep_until(at).await;
        assert_eq!(h.now(), at, "open-loop request {i} issued late");
        joins.push(h.spawn(op(i, at)));
    }
    for j in joins {
        j.await;
    }
}

/// Arrival instants of a Poisson process on `[from, until)` whose
/// expected count up to `t` is `expected(t)`, conditioned on the count
/// in the interval being its expectation (rounded).
///
/// Fixing the count fixes the size of the input: every seed issues the
/// same number of requests in the warm-up and in the statistics window,
/// so throughput, ops per pass and events per op differ between seeds
/// by what the system did, not by the draw of how much it was asked.
/// Given its count a Poisson process is that many independent points
/// with density ∝ its rate: normalised partial sums of exponential gaps
/// give their sorted uniform positions, which `expected` maps to time.
pub fn poisson_arrivals(
    rng: &pcsi_sim::DetRng,
    from: SimTime,
    until: SimTime,
    expected: impl Fn(SimTime) -> f64,
) -> Vec<SimTime> {
    let (base, total) = (expected(from), expected(until) - expected(from));
    let n = total.round() as usize;
    let mut sums = Vec::with_capacity(n + 1);
    let mut sum = 0.0;
    for _ in 0..=n {
        sum += rng.exp(1.0);
        sums.push(sum);
    }
    sums[..n]
        .iter()
        .map(|s| {
            let target = base + total * s / sum;
            // Invert the (increasing) expectation by bisection, to the ns.
            let (mut lo, mut hi) = (from.as_nanos(), until.as_nanos());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if expected(SimTime::from_nanos(mid)) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            SimTime::from_nanos(hi.min(until.as_nanos() - 1))
        })
        .collect()
}

/// [`poisson_arrivals`] at a steady `rate` per second over each of
/// `segments` in turn (warm-up, then statistics window).
pub fn steady_arrivals(
    rng: &pcsi_sim::DetRng,
    segments: &[(SimTime, SimTime)],
    rate: f64,
) -> Vec<SimTime> {
    let expected = |t: SimTime| rate * t.as_secs_f64();
    segments
        .iter()
        .flat_map(|&(from, until)| poisson_arrivals(rng, from, until, expected))
        .collect()
}

/// `len` bytes (a multiple of 8) of the little-endian `lane`, repeated:
/// the shape of every value the workloads write, so that a read can be
/// told whole from torn and traced back to the write that issued it.
pub fn fill(lane: u64, len: usize) -> Vec<u8> {
    lane.to_le_bytes().repeat(len / 8)
}

/// The lane of `data`, if it is exactly `len` bytes of one repeated lane.
pub fn uniform_lane(data: &[u8], len: usize) -> Option<u64> {
    if data.len() != len || len < 8 {
        return None;
    }
    let lane = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
    data.chunks_exact(8)
        .all(|c| c == lane.to_le_bytes())
        .then_some(lane)
}

/// Appends a check failure, keeping only the first few (one broken
/// invariant tends to fail thousands of ops the same way).
pub fn fail(errors: &RefCell<Vec<String>>, message: impl FnOnce() -> String) {
    let mut e = errors.borrow_mut();
    if e.len() < 8 {
        e.push(message());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_sim::DetRng;

    #[test]
    fn arrivals_have_the_expected_count_and_stay_in_their_interval() {
        let (from, until) = (SimTime::from_secs(1), SimTime::from_secs(5));
        let a = steady_arrivals(
            &DetRng::seeded(1),
            &[(SimTime::ZERO, from), (from, until)],
            4_000.0,
        );
        assert_eq!(a.len(), 20_000);
        assert_eq!(a.iter().filter(|&&t| t < from).count(), 4_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < until));
        // Another seed, same count, other instants.
        let b = steady_arrivals(
            &DetRng::seeded(2),
            &[(SimTime::ZERO, from), (from, until)],
            4_000.0,
        );
        assert_eq!(b.len(), a.len());
        assert_ne!(a, b);
        // Gaps look exponential: their mean is 1/rate and about 1/e of
        // them exceed it.
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).as_secs_f64())
            .collect();
        let long = gaps.iter().filter(|&&g| g > 1.0 / 4_000.0).count() as f64 / gaps.len() as f64;
        assert!((long - (-1.0f64).exp()).abs() < 0.02, "{long}");
    }

    #[test]
    fn fills_are_told_whole_from_torn() {
        assert_eq!(uniform_lane(&fill(42, 1024), 1024), Some(42));
        let mut torn = fill(42, 1024);
        torn[1021] ^= 0x10;
        assert_eq!(uniform_lane(&torn, 1024), None);
        assert_eq!(uniform_lane(&fill(42, 512), 1024), None);
        assert_eq!(uniform_lane(&[], 0), None);
    }

    #[test]
    fn arrivals_follow_a_varying_rate() {
        // Rate 100/s in the first second, 300/s in the second.
        let expected = |t: SimTime| {
            let s = t.as_secs_f64();
            if s < 1.0 {
                100.0 * s
            } else {
                100.0 + 300.0 * (s - 1.0)
            }
        };
        let a = poisson_arrivals(
            &DetRng::seeded(9),
            SimTime::ZERO,
            SimTime::from_secs(2),
            expected,
        );
        assert_eq!(a.len(), 400);
        let early = a.iter().filter(|&&t| t < SimTime::from_secs(1)).count();
        assert!((80..=120).contains(&early), "{early}");
    }
}
