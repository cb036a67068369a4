//! The structured event journal: a [`Ring`] of seeded-id, typed
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

use std::rc::Rc;

use pcsi_sim::{DetRng, Ring, SimHandle};

/// One journal record. `layer`/`kind` are static taxonomy (`store` /
/// `failover`, `faas` / `cold_start`, ...); `detail` is free-form
/// `k=v`-style text built by the call site inside the enabled branch.
#[derive(Clone)]
struct Event {
    /// Monotone per-journal sequence number (0-based, never reused).
    seq: u64,
    /// Virtual time of the append, nanoseconds.
    t_ns: u64,
    /// Seeded id from the `"obs-events"` stream — stable per seed, and
    /// usable as a correlation key across renders.
    id: u64,
    /// Which subsystem appended the record.
    layer: &'static str,
    /// The record type within the layer.
    kind: &'static str,
    /// Free-form detail text (no newlines).
    detail: String,
}

impl Event {
    /// The one-line byte-stable rendering of this record.
    fn render(&self) -> String {
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
    events: Ring<Event>,
}

/// A cheap-to-clone handle to the shared event journal. Components hold
/// an `Option<Journal>` exactly like an `Option<Metrics>`: absence *is*
/// the disabled state, and the per-event cost when disabled is a `None`
/// check: producers format the detail inside `if let Some(j) = &journal`.
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
                events: Ring::new(capacity),
            }),
        }
    }

    /// Appends one record, stamped with the current virtual time and the
    /// next seeded id. When the ring is full the oldest record is
    /// dropped (and counted).
    pub fn append(&self, layer: &'static str, kind: &'static str, detail: impl Into<String>) {
        let i = &self.inner;
        i.events.push(|seq| Event {
            seq,
            t_ns: i.handle.now().as_nanos(),
            id: i.ids.u64(),
            layer,
            kind,
            detail: detail.into(),
        });
    }

    /// Total records ever appended, evicted ones included (the journal
    /// never takes from its ring).
    pub fn appended(&self) -> u64 {
        self.dropped() + self.inner.events.len() as u64
    }

    /// Records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.events.dropped()
    }

    /// Renders the full journal: a header line with the bookkeeping
    /// totals, then one line per retained record, oldest first.
    pub fn render(&self) -> String {
        self.render_since(0)
    }

    /// Renders like [`Journal::render`], but only the retained records
    /// numbered `from` or later: what the `events` device serves a read
    /// at offset `from`, so a tailing client that reads at the header's
    /// `appended` count is sent nothing twice.
    pub fn render_since(&self, from: u64) -> String {
        let events = &self.inner.events;
        let mut out = format!(
            "# obs.events capacity={} appended={} dropped={}\n",
            events.capacity(),
            self.appended(),
            self.dropped()
        );
        for ev in events.since(from) {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
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
        let tail = j.render_since(1);
        assert!(!tail.contains("seq=0 "), "{tail}");
        assert!(tail.contains("seq=1 "), "{tail}");
        assert_eq!(j.render_since(0), j.render());
    }
}
