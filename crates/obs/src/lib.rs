#![forbid(unsafe_code)]
//! # pcsi-obs — the deterministic observability control plane
//!
//! Passive observability (PR 4/5) renders what already happened: trace
//! snapshots and metric snapshots, exposed as namespace files. This
//! crate adds the *active* layer on top, with the same determinism
//! contract — everything below is a pure function of the seed, renders
//! byte-stably, and costs nothing when disabled:
//!
//! * **SLO engine** ([`SloEngine`], [`SloRule`]): declarative rules
//!   (`rest-p99: p99(rest.request_ns) < 300ms over 5s`, multi-window
//!   error-budget burn rates) evaluated on virtual-clock ticks against
//!   the live `pcsi-metrics` registry via exact-rank
//!   [`pcsi_metrics::Histogram::count_le`]. Each rule drives an
//!   [`AlertMachine`] (pending→firing→resolved with deterministic
//!   hysteresis) and each transition is appended to a per-namespace
//!   `alerts` FIFO — alerts are literally files, tailed with a plain
//!   PR 9 `subscribe()`.
//! * **Event journal** ([`Journal`]): a bounded, seeded-id log of typed
//!   records from the kernel, store, faas and chaos layers, rendered
//!   byte-stably, fingerprint-able like metrics, exposed as the
//!   `events` device and streamable as deltas
//!   ([`Journal::render_since`]).
//! * **Exemplars** ([`pcsi_metrics::Exemplar`]): when tracing is on,
//!   histogram buckets retain the latest `(trace_id, value)` sample, so
//!   a firing latency alert carries its p99 offender and
//!   [`exemplar_trace`] joins it back to the rendered span tree.
//!
//! The cloud layer owns the wiring: `CloudBuilder::build` assembles one
//! [`Telemetry`] (registry, tracer, journal) and hands it to every
//! layer's constructor. This crate is deliberately free of any
//! dependency on the kernel so the store and faas layers can take a
//! [`Telemetry`] without a cycle.

#![warn(missing_docs)]

mod alert;
mod journal;
mod slo;

pub use alert::{AlertMachine, AlertState, Phase};
pub use journal::{Event, Journal, JournalExt};
pub use slo::{AlertTransition, SloEngine, SloRule, WindowDiff};

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use pcsi_metrics::{Exemplar, Metrics};
use pcsi_sim::SimHandle;
use pcsi_trace::{render_trace, TraceId, TraceSink, Tracer};

/// The telemetry handles of one deployment, handed to every layer's
/// constructor. A `None` handle *is* the disabled state: the layer
/// stores it as is and every hook costs one `Option` check. The handles
/// are never swapped after construction, so a layer binds its always-on
/// cells and resolves its histograms once, where it is built.
/// `Telemetry::default()` turns everything off.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// The unified metrics registry.
    pub metrics: Option<Metrics>,
    /// The deterministic tracer.
    pub tracer: Option<Tracer>,
    /// The structured event journal.
    pub journal: Option<Journal>,
}

/// Configuration for the observability control plane.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// SLO rules, one per string, in the [`SloRule`] grammar. Parsed at
    /// build time; a malformed rule fails the build loudly rather than
    /// silently never firing.
    pub rules: Vec<String>,
    /// Evaluation tick interval (virtual time). Windows round up to
    /// whole ticks.
    pub interval: Duration,
    /// Retained-event bound for the journal ring.
    pub journal_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            rules: Vec::new(),
            interval: Duration::from_secs(1),
            journal_capacity: 256,
        }
    }
}

struct ObsInner {
    journal: Journal,
    engine: RefCell<SloEngine>,
    /// Every rendered transition line, in order — the alert log
    /// determinism tests fingerprint, and the bytes appended to the
    /// `alerts` FIFO.
    log: RefCell<Vec<String>>,
}

/// A cheap-to-clone handle to the installed control plane. Holds the
/// journal, the SLO engine and the append-only alert transition log;
/// the cloud layer drives [`Obs::tick`] from a virtual-clock task and
/// forwards the returned lines to the `alerts` FIFO.
#[derive(Clone)]
pub struct Obs {
    inner: Rc<ObsInner>,
}

impl Obs {
    /// Parses the config's rules and builds the plane. The seeded-id
    /// RNG stream is created here — only when observability is enabled.
    pub fn new(handle: &SimHandle, config: &ObsConfig) -> Result<Obs, String> {
        let rules: Result<Vec<SloRule>, String> =
            config.rules.iter().map(|r| SloRule::parse(r)).collect();
        Ok(Obs {
            inner: Rc::new(ObsInner {
                journal: Journal::new(handle, config.journal_capacity),
                engine: RefCell::new(SloEngine::new(rules?, config.interval)),
                log: RefCell::new(Vec::new()),
            }),
        })
    }

    /// The shared event journal (clone and hand to subsystems).
    pub fn journal(&self) -> Journal {
        self.inner.journal.clone()
    }

    /// Runs one evaluation tick against `metrics` at virtual time
    /// `now_ns`. Transitions are journalled (`layer=obs kind=alert`),
    /// appended to the in-memory alert log, and returned rendered so the
    /// caller can publish them to the `alerts` FIFO.
    pub fn tick(&self, metrics: &Metrics, now_ns: u64) -> Vec<String> {
        let transitions = self.inner.engine.borrow_mut().tick(metrics, now_ns);
        let mut lines = Vec::with_capacity(transitions.len());
        for t in transitions {
            let line = t.render();
            self.inner.journal.append(
                "obs",
                "alert",
                format!("rule={} phase={}", t.rule, t.phase.name()),
            );
            self.inner.log.borrow_mut().push(line.clone());
            lines.push(line);
        }
        lines
    }

    /// The full alert transition log, one rendered line per transition,
    /// newline-terminated (empty string if nothing ever transitioned).
    pub fn alert_log(&self) -> String {
        let log = self.inner.log.borrow();
        if log.is_empty() {
            return String::new();
        }
        let mut out = log.join("\n");
        out.push('\n');
        out
    }
}

/// Joins a histogram exemplar back to its rendered span tree: the
/// "p99 offender → trace tree" step. Returns `None` when the sink no
/// longer retains any span of that trace (bounded ring).
pub fn exemplar_trace(sink: &TraceSink, exemplar: &Exemplar) -> Option<String> {
    let spans = sink.snapshot();
    let trace = TraceId(exemplar.trace);
    if !spans.iter().any(|s| s.trace == trace) {
        return None;
    }
    Some(render_trace(&spans, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_sim::Sim;

    #[test]
    fn plane_ticks_journal_and_log_together() {
        let sim = Sim::new(11);
        let h = sim.handle();
        let m = Metrics::new();
        let cfg = ObsConfig {
            rules: vec!["burn: burn(svc.errors / svc.ops) budget 1% fast 1s slow 2s rate 2".into()],
            ..ObsConfig::default()
        };
        let obs = Obs::new(&h, &cfg).unwrap();
        let errs = m.counter("svc.errors", &[]);
        let ops = m.counter("svc.ops", &[]);
        ops.add(100);
        errs.add(10);
        let lines = obs.tick(&m, 1_000_000_000);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("rule=burn phase=firing"), "{lines:?}");
        assert!(obs
            .journal()
            .render()
            .contains("layer=obs kind=alert rule=burn phase=firing"));
        assert_eq!(obs.alert_log(), format!("{}\n", lines[0]));
    }

    #[test]
    fn malformed_rules_fail_construction() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let _ = &mut sim;
        let cfg = ObsConfig {
            rules: vec!["nope".into()],
            ..ObsConfig::default()
        };
        assert!(Obs::new(&h, &cfg).is_err());
    }
}
