//! The benchmark's own host-time spans.
//!
//! Spans are taken around the synchronous calls the benchmark makes
//! into a layer — `CloudBuilder::build`, preload, each `block_on`
//! window, each probe, `Metrics::render`, `Obs::tick`, the trace-sink
//! drain — never around awaited ops: on a cooperative single-threaded
//! executor such a span would cover every other task's work too.
//! Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The pass the span belongs to (spans of one pass share it).
    pub pass: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Inner {
    spans: Vec<Span>,
    /// Ids of the spans currently open, outermost first.
    open: Vec<u32>,
    next_id: u32,
    pass: u32,
}

/// Span recorder; a disabled one (untraced runs) only calls through.
pub struct SpanRec {
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

impl SpanRec {
    /// A recorder that records (`enabled`) or only calls through.
    pub fn new(enabled: bool) -> SpanRec {
        SpanRec {
            epoch: Instant::now(),
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    spans: Vec::new(),
                    open: Vec::new(),
                    next_id: 0,
                    pass: 0,
                })
            }),
        }
    }

    /// Sets the pass id stamped on spans opened from now on.
    pub fn set_pass(&self, pass: u32) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().pass = pass;
        }
    }

    /// Runs `f` inside a span called `name`, child of the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        let (id, parent, pass) = {
            let mut i = inner.borrow_mut();
            let id = i.next_id;
            i.next_id += 1;
            let parent = i.open.last().copied();
            i.open.push(id);
            (id, parent, i.pass)
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut i = inner.borrow_mut();
        i.open.pop();
        i.spans.push(Span {
            id,
            parent,
            pass,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Every finished span, in finishing order.
    pub fn finished(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once).
/// `spans[i]` is `(start, end, parent index)`; returns one value per span.
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for &(start, end, parent) in spans {
        if let Some(p) = parent {
            // Clip to the parent: a child that outlives it (a detached
            // background task) covers only the shared interval.
            let (ps, pe) = (spans[p].0, spans[p].1);
            let (s, e) = (start.max(ps), end.min(pe));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(&(start, end, _), kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = start;
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (end - start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            (0, 100, None),     // root
            (10, 40, Some(0)),  // child a
            (30, 60, Some(0)),  // child b overlaps a: union is 10..60
            (35, 38, Some(2)),  // grandchild inside b
            (90, 150, Some(0)), // child outliving the root: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 27, 3, 60]);
    }

    #[test]
    fn recorder_nests_and_stamps_passes() {
        let rec = SpanRec::new(true);
        rec.set_pass(3);
        let v = rec.span("outer", || rec.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = rec.finished();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(
            (inner.name.as_str(), outer.name.as_str()),
            ("inner", "outer")
        );
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((inner.pass, outer.pass), (3, 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = SpanRec::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.finished().is_empty());
    }
}
