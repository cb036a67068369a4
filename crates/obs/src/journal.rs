//! The structured event journal: a bounded, seeded-id log of typed
//! records appended by the kernel, store, faas and chaos layers.
//!
//! The journal is the "what happened" complement to the metrics
//! snapshot's "how much": a failover, a migration, a cold start or a
//! fired alert each leaves one typed record with a virtual timestamp
//! and a seeded id drawn from the dedicated `"obs-events"` RNG stream
//! (created only when observability is enabled, so journalling can
//! never perturb another component's draws). Like a metrics snapshot
//! the journal renders to byte-stable text and fingerprints with the
//! workspace FNV-1a constants; `tests/determinism.rs` pins renders per
//! seed.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use pcsi_sim::{DetRng, SimHandle};

/// One journal record. `layer`/`kind` are static taxonomy (`store` /
/// `failover`, `faas` / `cold_start`, ...); `detail` is free-form
/// `k=v`-style text built by the call site inside the enabled branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-journal sequence number (0-based, never reused).
    pub(crate) seq: u64,
    /// Virtual time of the append, nanoseconds.
    pub(crate) t_ns: u64,
    /// Seeded id from the `"obs-events"` stream — stable per seed, and
    /// usable as a correlation key across renders.
    pub(crate) id: u64,
    /// Which subsystem appended the record.
    pub layer: &'static str,
    /// The record type within the layer.
    pub kind: &'static str,
    /// Free-form detail text (no newlines).
    pub detail: String,
}

impl Event {
    /// The one-line byte-stable rendering of this record.
    pub(crate) fn render(&self) -> String {
        let Event {
            seq,
            t_ns,
            id,
            layer,
            kind,
            detail,
        } = self;
        if detail.is_empty() {
            format!("event seq={seq} t={t_ns}ns id={id:016x} layer={layer} kind={kind}")
        } else {
            format!("event seq={seq} t={t_ns}ns id={id:016x} layer={layer} kind={kind} {detail}")
        }
    }
}

struct JournalInner {
    handle: SimHandle,
    ids: DetRng,
    capacity: usize,
    events: RefCell<VecDeque<Event>>,
    appended: Cell<u64>,
    dropped: Cell<u64>,
}

/// A cheap-to-clone handle to the shared event journal. Components hold
/// an `Option<Journal>` exactly like an `Option<Metrics>`: absence *is*
/// the disabled state, and the per-event cost when disabled is a `None`
/// check (see [`JournalExt::with`]).
#[derive(Clone)]
pub struct Journal {
    inner: Rc<JournalInner>,
}

impl Journal {
    /// Creates a journal bounded to `capacity` retained events. The
    /// seeded-id stream is created here — i.e. only when observability
    /// is actually enabled.
    pub fn new(handle: &SimHandle, capacity: usize) -> Self {
        Journal {
            inner: Rc::new(JournalInner {
                handle: handle.clone(),
                ids: handle.rng().stream("obs-events"),
                capacity: capacity.max(1),
                events: RefCell::new(VecDeque::new()),
                appended: Cell::new(0),
                dropped: Cell::new(0),
            }),
        }
    }

    /// Appends one record, stamped with the current virtual time and the
    /// next seeded id. When the ring is full the oldest record is
    /// dropped (and counted).
    pub fn append(&self, layer: &'static str, kind: &'static str, detail: impl Into<String>) {
        let i = &self.inner;
        let seq = i.appended.get();
        i.appended.set(seq + 1);
        let ev = Event {
            seq,
            t_ns: i.handle.now().as_nanos(),
            id: i.ids.u64(),
            layer,
            kind,
            detail: detail.into(),
        };
        let mut events = i.events.borrow_mut();
        if events.len() == i.capacity {
            events.pop_front();
            i.dropped.set(i.dropped.get() + 1);
        }
        events.push_back(ev);
    }

    /// Total records ever appended (including since-evicted ones).
    pub fn appended(&self) -> u64 {
        self.inner.appended.get()
    }

    /// Records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// A copy of the retained records, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.borrow().iter().cloned().collect()
    }

    /// Renders the full journal: a header line with the bookkeeping
    /// totals, then one line per retained record, oldest first.
    pub fn render(&self) -> String {
        self.render_since(None)
    }

    /// Renders only records with `seq > after` — the delta form the
    /// `events` device serves so a tailing client resends nothing. Pass
    /// `None` for the full journal.
    pub fn render_since(&self, after: Option<u64>) -> String {
        let i = &self.inner;
        let mut out = format!(
            "# obs.events capacity={} appended={} dropped={}\n",
            i.capacity,
            i.appended.get(),
            i.dropped.get()
        );
        for ev in i.events.borrow().iter() {
            if let Some(a) = after {
                if ev.seq <= a {
                    continue;
                }
            }
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

/// Closure-deferred call-site sugar for `Option<Journal>` holders,
/// mirroring `pcsi_metrics::MetricsExt`: detail formatting inside the
/// closure costs nothing when the journal is absent.
pub trait JournalExt {
    /// Runs `f` against the journal if there is one.
    fn with(&self, f: impl FnOnce(&Journal));
}

impl JournalExt for Option<Journal> {
    fn with(&self, f: impl FnOnce(&Journal)) {
        if let Some(j) = self {
            f(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_sim::Sim;
    use std::time::Duration;

    #[test]
    fn journal_is_bounded_and_renders_stably() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let j = Journal::new(&h, 4);
        let jc = j.clone();
        let hc = h.clone();
        sim.block_on(async move {
            for i in 0..6u64 {
                hc.sleep(Duration::from_millis(1)).await;
                jc.append("store", "failover", format!("attempt={i}"));
            }
        });
        assert_eq!(j.appended(), 6);
        assert_eq!(j.dropped(), 2);
        let r = j.render();
        assert!(
            r.starts_with("# obs.events capacity=4 appended=6 dropped=2\n"),
            "{r}"
        );
        // Oldest two evicted; seqs 2..=5 retained in order.
        assert!(!r.contains("seq=1 "), "{r}");
        assert!(r.contains("seq=2 "), "{r}");
        assert!(r.contains("seq=5 "), "{r}");
        assert!(r.contains("layer=store kind=failover attempt=5"), "{r}");
    }

    #[test]
    fn seeded_ids_are_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            let j = Journal::new(&h, 8);
            let jc = j.clone();
            sim.block_on(async move {
                jc.append("kernel", "boot", "");
                jc.append("faas", "cold_start", "fn=a");
            });
            j.render()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "ids must derive from the seed");
    }

    #[test]
    fn render_since_serves_only_the_tail() {
        let sim = Sim::new(3);
        let h = sim.handle();
        let j = Journal::new(&h, 8);
        j.append("chaos", "drop_spike", "p=5%");
        j.append("chaos", "heal", "");
        let tail = j.render_since(Some(0));
        assert!(!tail.contains("seq=0 "), "{tail}");
        assert!(tail.contains("seq=1 "), "{tail}");
        assert_eq!(j.render_since(None), j.render());
    }
}
