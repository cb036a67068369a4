#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-trace — deterministic distributed tracing
//!
//! Every experiment in this repository is a pure function of a seed, and
//! its traces are too: span and trace ids are drawn from the dedicated
//! `"trace-ids"` RNG stream, timestamps are virtual time, and the text
//! renderer sorts deterministically — so the rendered span tree of a
//! request is byte-identical across runs of the same seed and can be
//! fingerprinted like any other simulation output.
//!
//! The pieces:
//!
//! * [`Tracer`] — per-deployment handle; opens root spans (subject to the
//!   [`Sampling`] knob) and child spans (always recorded once the root
//!   sampled), writing finished spans into a bounded ring-buffer
//!   [`TraceSink`].
//! * [`TraceContext`] — the compact `(trace id, parent span id)` pair
//!   that crosses nodes. It rides `pcsi_net::Fabric` calls and the store
//!   wire envelope; its [`TraceContext::WIRE_LEN`] bytes are charged to
//!   virtual time like any other payload bytes.
//! * [`SpanHandle`] — an open span. Finishing (explicitly or on drop)
//!   stamps the end time and records the span. A *disabled* handle is a
//!   `None` all the way down: **zero RNG draws, zero allocations, zero
//!   sink writes** — the hot path of an untraced run is untouched.
//! * Analysis over finished spans: [`render_trace`] (indented tree with
//!   virtual-time offsets and attributes), [`critical_path`] (the chain
//!   of last-finishing children), and [`self_time_breakdown`] (per-span
//!   self time aggregated into caller-defined categories — how the bench
//!   harness derives protocol-vs-network shares from traces instead of
//!   hand-maintained counters).
//!
//! Determinism rules: ids come only from the `"trace-ids"` stream (a
//! dedicated stream cannot perturb any other seeded decision); sampling
//! draws happen only for root spans under [`Sampling::Ratio`]; children
//! of a sampled trace never draw a sampling decision; `Sampling::Off`
//! draws nothing at all.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use pcsi_sim::rng::DetRng;
use pcsi_sim::{SimHandle, SimTime};

/// Name of the RNG stream trace/span ids (and ratio-sampling decisions)
/// are drawn from. Dedicated, so tracing can never perturb the draws any
/// other component sees.
pub(crate) const TRACE_RNG_STREAM: &str = "trace-ids";

/// Identifies one end-to-end trace (one root span and its descendants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The compact cross-node propagation context: which trace the work
/// belongs to and which span is its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this work belongs to.
    pub trace: TraceId,
    /// The span the remote work should parent under.
    pub parent: SpanId,
}

impl TraceContext {
    /// Encoded size in bytes; what a traced message additionally pays on
    /// the wire.
    pub const WIRE_LEN: usize = 16;

    /// Little-endian `trace || parent`.
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace.0.to_le_bytes());
        out[8..].copy_from_slice(&self.parent.0.to_le_bytes());
        out
    }

    /// Inverse of [`TraceContext::encode`]; `None` unless exactly
    /// [`TraceContext::WIRE_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() != Self::WIRE_LEN {
            return None;
        }
        let trace = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let parent = u64::from_le_bytes(bytes[8..].try_into().ok()?);
        Some(TraceContext {
            trace: TraceId(trace),
            parent: SpanId(parent),
        })
    }
}

/// How many root spans get traced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Trace nothing. The hot path makes zero RNG draws, zero
    /// allocations and zero sink writes.
    Off,
    /// Trace this fraction of root spans (one `f64` draw per root).
    Ratio(f64),
    /// Trace every root span.
    Always,
}

/// One attribute value. `U64` and `Str` record without allocating;
/// `Text` is for values that genuinely need formatting (build it via
/// [`SpanHandle::attr_with`] so an untraced run never formats).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An integer attribute.
    U64(u64),
    /// A static-string attribute (no allocation).
    Str(&'static str),
    /// An owned-string attribute.
    Text(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Text(s) => f.write_str(s),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(v)
    }
}

/// A finished span as recorded in the sink.
#[derive(Debug, Clone)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Operation name (stable `layer.op` convention, e.g. `store.read`).
    pub name: &'static str,
    /// Virtual-time start.
    pub start: SimTime,
    /// Virtual-time end.
    pub end: SimTime,
    /// Recorded attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Sink insertion sequence; tie-breaks rendering order.
    pub seq: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.start).as_nanos() as u64
    }
}

struct SinkInner {
    spans: RefCell<VecDeque<Span>>,
    capacity: usize,
    seq: Cell<u64>,
    dropped: Cell<u64>,
}

/// Bounded ring buffer of finished spans. When full, the oldest span is
/// evicted (and counted) — tracing must never grow without bound in a
/// long simulation.
#[derive(Clone)]
pub struct TraceSink {
    inner: Rc<SinkInner>,
}

impl TraceSink {
    /// Creates a sink holding at most `capacity` spans.
    pub(crate) fn new(capacity: usize) -> TraceSink {
        TraceSink {
            inner: Rc::new(SinkInner {
                spans: RefCell::new(VecDeque::new()),
                capacity: capacity.max(1),
                seq: Cell::new(0),
                dropped: Cell::new(0),
            }),
        }
    }

    fn push(&self, mut span: Span) {
        let mut spans = self.inner.spans.borrow_mut();
        span.seq = self.inner.seq.get();
        self.inner.seq.set(span.seq + 1);
        if spans.len() == self.inner.capacity {
            spans.pop_front();
            self.inner.dropped.set(self.inner.dropped.get() + 1);
        }
        spans.push_back(span);
    }

    /// All recorded spans, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.spans.borrow().iter().cloned().collect()
    }

    /// Drains and returns all recorded spans.
    pub fn take(&self) -> Vec<Span> {
        self.inner.spans.borrow_mut().drain(..).collect()
    }

    /// Number of spans evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }
}

struct TracerInner {
    handle: SimHandle,
    sampling: Sampling,
    rng: RefCell<Option<DetRng>>,
    sink: TraceSink,
    id_draws: Cell<u64>,
}

/// The per-deployment tracing handle. Cheap to clone; clones share the
/// sink and the id stream.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Tracer {
    /// Creates a tracer writing into a fresh sink of `capacity` spans.
    ///
    /// The `"trace-ids"` RNG stream is created lazily on the first
    /// sampled span, so an [`Sampling::Off`] tracer touches the
    /// simulation's RNG registry not at all.
    pub fn new(handle: &SimHandle, sampling: Sampling, capacity: usize) -> Tracer {
        Tracer {
            inner: Rc::new(TracerInner {
                handle: handle.clone(),
                sampling,
                rng: RefCell::new(None),
                sink: TraceSink::new(capacity),
                id_draws: Cell::new(0),
            }),
        }
    }

    /// The sink finished spans are recorded into.
    pub fn sink(&self) -> &TraceSink {
        &self.inner.sink
    }

    /// How many id/sampling draws were made on the `"trace-ids"` stream —
    /// the zero-overhead-when-off guard asserts this stays 0.
    pub fn id_draws(&self) -> u64 {
        self.inner.id_draws.get()
    }

    fn draw(&self) -> u64 {
        let mut rng = self.inner.rng.borrow_mut();
        let rng = rng.get_or_insert_with(|| self.inner.handle.rng().stream(TRACE_RNG_STREAM));
        self.inner.id_draws.set(self.inner.id_draws.get() + 1);
        rng.u64()
    }

    fn draw_decision(&self) -> f64 {
        let mut rng = self.inner.rng.borrow_mut();
        let rng = rng.get_or_insert_with(|| self.inner.handle.rng().stream(TRACE_RNG_STREAM));
        self.inner.id_draws.set(self.inner.id_draws.get() + 1);
        rng.f64()
    }

    /// Opens a root span, subject to the sampling knob. Off (or an
    /// unlucky ratio draw) returns a disabled handle.
    fn root(&self, name: &'static str) -> SpanHandle {
        let sampled = match self.inner.sampling {
            Sampling::Off => false,
            Sampling::Always => true,
            Sampling::Ratio(p) => self.draw_decision() < p.clamp(0.0, 1.0),
        };
        if !sampled {
            return SpanHandle(None);
        }
        let trace = TraceId(self.draw());
        let id = SpanId(self.draw());
        self.open(trace, id, None, name)
    }

    /// Opens a child span under an incoming context. The sampling
    /// decision was made at the root: a context exists only for a
    /// sampled trace, so children always record.
    fn child(&self, ctx: TraceContext, name: &'static str) -> SpanHandle {
        let id = SpanId(self.draw());
        self.open(ctx.trace, id, Some(ctx.parent), name)
    }

    fn open(
        &self,
        trace: TraceId,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
    ) -> SpanHandle {
        SpanHandle(Some(Box::new(LiveSpan {
            tracer: self.clone(),
            trace,
            id,
            parent,
            name,
            start: self.inner.handle.now(),
            attrs: Vec::new(),
        })))
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sampling", &self.inner.sampling)
            .finish()
    }
}

/// Opens `name` as a child of `ctx` — the shape at an RPC receiver and
/// at every layer below the one that opened the root. Disabled when the
/// deployment has no tracer or the request arrived without a context
/// (the sampling decision was made at the root, so a context means
/// "record").
pub fn child_of(
    tracer: &Option<Tracer>,
    ctx: Option<TraceContext>,
    name: &'static str,
) -> SpanHandle {
    match (tracer, ctx) {
        (Some(t), Some(ctx)) => t.child(ctx, name),
        _ => SpanHandle(None),
    }
}

/// Opens `name` where a request may enter the traced system: a child of
/// `ctx` when the caller is itself traced, else a new root subject to
/// the tracer's sampling knob. Disabled when the deployment has no
/// tracer.
pub fn child_or_root(
    tracer: &Option<Tracer>,
    ctx: Option<TraceContext>,
    name: &'static str,
) -> SpanHandle {
    match (tracer, ctx) {
        (Some(t), None) => t.root(name),
        _ => child_of(tracer, ctx, name),
    }
}

struct LiveSpan {
    tracer: Tracer,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: SimTime,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// An open span. Disabled handles (sampling off, no incoming context)
/// are a `None` and cost nothing. Finishing — explicitly via
/// [`SpanHandle::finish`] or implicitly on drop — stamps the end time
/// and records the span in the tracer's sink.
pub struct SpanHandle(Option<Box<LiveSpan>>);

impl SpanHandle {
    /// A handle that records nothing.
    pub fn disabled() -> SpanHandle {
        SpanHandle(None)
    }

    /// The propagation context pointing at this span, for handing to
    /// child work (local or remote). `None` when disabled — an untraced
    /// request sends no context bytes.
    pub fn ctx(&self) -> Option<TraceContext> {
        self.0.as_ref().map(|s| TraceContext {
            trace: s.trace,
            parent: s.id,
        })
    }

    /// Records an attribute. `u64` / `&'static str` values do not
    /// allocate; disabled handles do nothing.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(s) = self.0.as_mut() {
            s.attrs.push((key, value.into()));
        }
    }

    /// Records an attribute computed lazily — the closure runs only when
    /// the span is sampled, so formatting costs nothing when tracing is
    /// off.
    pub fn attr_with(&mut self, key: &'static str, value: impl FnOnce() -> AttrValue) {
        if let Some(s) = self.0.as_mut() {
            let v = value();
            s.attrs.push((key, v));
        }
    }

    /// Opens a child span of this one (same tracer). Disabled parents
    /// yield disabled children.
    pub fn span(&self, name: &'static str) -> SpanHandle {
        match (&self.0, self.ctx()) {
            (Some(live), Some(ctx)) => live.tracer.child(ctx, name),
            _ => SpanHandle(None),
        }
    }

    /// Ends the span now and records it.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if let Some(live) = self.0.take() {
            let end = live.tracer.inner.handle.now();
            live.tracer.inner.sink.push(Span {
                trace: live.trace,
                id: live.id,
                parent: live.parent,
                name: live.name,
                start: live.start,
                end,
                attrs: live.attrs,
                seq: 0,
            });
        }
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

impl std::fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(s) => write!(f, "SpanHandle({:?}/{:?} {})", s.trace, s.id, s.name),
            None => f.write_str("SpanHandle(disabled)"),
        }
    }
}

// ---------------------------------------------------------------------
// Analysis over finished spans.
// ---------------------------------------------------------------------

/// Indexes `spans` (already filtered to one trace or not) into
/// parent → children edges with a deterministic order.
fn children_of(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if let Some(pi) = spans.iter().position(|c| c.id == p && c.trace == s.trace) {
                children[pi].push(i);
            }
        }
    }
    for list in &mut children {
        list.sort_by_key(|&i| (spans[i].start, spans[i].seq));
    }
    children
}

fn roots_of(spans: &[Span]) -> Vec<usize> {
    let mut roots: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.parent.is_none()
                || !spans
                    .iter()
                    .any(|c| c.trace == s.trace && Some(c.id) == s.parent)
        })
        .map(|(i, _)| i)
        .collect();
    roots.sort_by_key(|&i| (spans[i].start, spans[i].seq));
    roots
}

/// Renders the spans of `trace` as an indented tree: one line per span
/// with its offset from the trace start, duration, and attributes.
/// Deterministic byte-for-byte for a fixed seed.
pub fn render_trace(spans: &[Span], trace: TraceId) -> String {
    let spans: Vec<Span> = spans.iter().filter(|s| s.trace == trace).cloned().collect();
    render_spans(&spans)
}

/// Renders every trace present in `spans`, roots in (start, seq) order.
pub fn render_spans(spans: &[Span]) -> String {
    let children = children_of(spans);
    let roots = roots_of(spans);
    let mut out = String::new();
    for &root in &roots {
        let t0 = spans[root].start;
        render_node(spans, &children, root, t0, 0, &mut out);
    }
    out
}

fn render_node(
    spans: &[Span],
    children: &[Vec<usize>],
    i: usize,
    t0: SimTime,
    depth: usize,
    out: &mut String,
) {
    let s = &spans[i];
    for _ in 0..depth {
        out.push_str("  ");
    }
    let off = s.start.saturating_since(t0).as_nanos() as u64;
    out.push_str(&format!("{} +{}ns {}ns", s.name, off, s.duration_ns()));
    if depth == 0 {
        // The root line carries the seeded trace id, so a rendered
        // trace fingerprints the id draws too.
        out.push_str(&format!(" trace={:016x}", s.trace.0));
    }
    for (k, v) in &s.attrs {
        out.push_str(&format!(" {k}={v}"));
    }
    out.push('\n');
    for &c in &children[i] {
        render_node(spans, children, c, t0, depth + 1, out);
    }
}

/// The critical path of `trace`: starting at the root, repeatedly
/// descend into the last-finishing child. Returns the span names on the
/// path, root first — the chain a latency optimization must shorten.
pub fn critical_path(spans: &[Span], trace: TraceId) -> Vec<Span> {
    let spans: Vec<Span> = spans.iter().filter(|s| s.trace == trace).cloned().collect();
    let children = children_of(&spans);
    let roots = roots_of(&spans);
    let Some(&root) = roots.first() else {
        return Vec::new();
    };
    let mut path = Vec::new();
    let mut cur = root;
    loop {
        path.push(spans[cur].clone());
        // Last-finishing child; ties break on sink order for determinism.
        let next = children[cur]
            .iter()
            .copied()
            .max_by_key(|&c| (spans[c].end, spans[c].seq));
        match next {
            Some(c) => cur = c,
            None => break,
        }
    }
    path
}

/// Per-category totals of span *self time* (duration minus time covered
/// by child spans) across `trace`, in nanoseconds. `classify` maps a
/// span name to a category label; categories appear in first-seen order
/// over the deterministic render order.
pub fn self_time_breakdown(
    spans: &[Span],
    trace: TraceId,
    classify: &dyn Fn(&str) -> &'static str,
) -> Vec<(&'static str, u64)> {
    let spans: Vec<Span> = spans.iter().filter(|s| s.trace == trace).cloned().collect();
    let children = children_of(&spans);
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start, spans[i].seq));
    for i in order {
        let s = &spans[i];
        let covered: u64 = children[i].iter().map(|&c| spans[c].duration_ns()).sum();
        let self_ns = s.duration_ns().saturating_sub(covered);
        let cat = classify(s.name);
        match totals.iter_mut().find(|(c, _)| *c == cat) {
            Some((_, t)) => *t += self_ns,
            None => totals.push((cat, self_ns)),
        }
    }
    totals
}

/// Total duration of the (first) root span of `trace`, in nanoseconds.
pub fn trace_duration_ns(spans: &[Span], trace: TraceId) -> u64 {
    let spans: Vec<Span> = spans.iter().filter(|s| s.trace == trace).cloned().collect();
    roots_of(&spans)
        .first()
        .map(|&r| spans[r].duration_ns())
        .unwrap_or(0)
}

/// FNV-1a over a rendered trace (or any string) — the trace fingerprint
/// used by the determinism suite.
pub fn fingerprint(rendered: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_sim::Sim;
    use std::time::Duration;

    fn collect(sampling: Sampling, seed: u64) -> (Vec<Span>, u64) {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let tracer = Tracer::new(&h, sampling, 1024);
        let t = tracer.clone();
        sim.block_on(async move {
            let mut root = t.root("op.outer");
            root.attr("bytes", 1024u64);
            {
                let mut a = root.span("op.inner_a");
                h.sleep(Duration::from_micros(10)).await;
                a.attr("kind", "fast");
                a.finish();
            }
            {
                let b = root.span("op.inner_b");
                h.sleep(Duration::from_micros(30)).await;
                // Remote leg: context crosses, child opens at "the other
                // node" (same tracer here — the sim is one process).
                if let Some(ctx) = b.ctx() {
                    let remote = t.child(ctx, "op.remote");
                    h.sleep(Duration::from_micros(5)).await;
                    remote.finish();
                }
                b.finish();
            }
            root.finish();
        });
        (tracer.sink().snapshot(), tracer.id_draws())
    }

    #[test]
    fn off_makes_zero_draws_and_records_nothing() {
        let (spans, draws) = collect(Sampling::Off, 7);
        assert!(spans.is_empty());
        assert_eq!(draws, 0);
    }

    #[test]
    fn always_records_the_full_tree() {
        let (spans, draws) = collect(Sampling::Always, 7);
        assert_eq!(spans.len(), 4);
        assert!(draws >= 5, "trace id + 4 span ids");
        let root = spans.iter().find(|s| s.name == "op.outer").unwrap();
        assert!(root.parent.is_none());
        for name in ["op.inner_a", "op.inner_b", "op.remote"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.trace, root.trace);
            assert!(s.parent.is_some());
        }
        // The remote span parents under inner_b via the context.
        let b = spans.iter().find(|s| s.name == "op.inner_b").unwrap();
        let remote = spans.iter().find(|s| s.name == "op.remote").unwrap();
        assert_eq!(remote.parent, Some(b.id));
    }

    #[test]
    fn ids_and_render_are_deterministic_per_seed() {
        let (a, _) = collect(Sampling::Always, 42);
        let (b, _) = collect(Sampling::Always, 42);
        let (c, _) = collect(Sampling::Always, 43);
        let ra = render_spans(&a);
        let rb = render_spans(&b);
        let rc = render_spans(&c);
        assert_eq!(ra, rb);
        assert_eq!(fingerprint(&ra), fingerprint(&rb));
        assert_ne!(
            fingerprint(&ra),
            fingerprint(&rc),
            "different seeds must yield different ids"
        );
    }

    #[test]
    fn render_shows_offsets_durations_and_attrs() {
        let (spans, _) = collect(Sampling::Always, 7);
        let root = spans.iter().find(|s| s.name == "op.outer").unwrap();
        let out = render_trace(&spans, root.trace);
        let head = format!(
            "op.outer +0ns 45000ns trace={:016x} bytes=1024\n",
            root.trace.0
        );
        assert!(out.starts_with(&head), "{out}");
        assert!(
            out.contains("  op.inner_a +0ns 10000ns kind=fast\n"),
            "{out}"
        );
        assert!(out.contains("  op.inner_b +10000ns 35000ns\n"), "{out}");
        assert!(out.contains("    op.remote +40000ns 5000ns\n"), "{out}");
    }

    #[test]
    fn ratio_sampling_is_deterministic_and_partial() {
        let mut sim = Sim::new(11);
        let h = sim.handle();
        let tracer = Tracer::new(&h, Sampling::Ratio(0.5), 4096);
        let t = tracer.clone();
        let sampled = sim.block_on(async move {
            let mut hits = 0;
            for _ in 0..200 {
                let s = t.root("op");
                if s.ctx().is_some() {
                    hits += 1;
                }
                s.finish();
            }
            hits
        });
        assert!((60..140).contains(&sampled), "sampled {sampled}");
        assert_eq!(tracer.sink().snapshot().len(), sampled);
        // Unsampled roots hand out no context: nothing to propagate.
        let mut sim2 = Sim::new(11);
        let h2 = sim2.handle();
        let t2 = Tracer::new(&h2, Sampling::Ratio(0.0), 16);
        sim2.block_on(async move {
            let s = t2.root("op");
            assert!(s.ctx().is_none());
        });
    }

    #[test]
    fn sink_is_bounded_and_counts_evictions() {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        let tracer = Tracer::new(&h, Sampling::Always, 8);
        let t = tracer.clone();
        sim.block_on(async move {
            for _ in 0..20 {
                t.root("op").finish();
            }
        });
        assert_eq!(tracer.sink().snapshot().len(), 8);
        assert_eq!(tracer.sink().dropped(), 12);
    }

    #[test]
    fn context_roundtrips_on_the_wire() {
        let ctx = TraceContext {
            trace: TraceId(0xdead_beef_0bad_cafe),
            parent: SpanId(42),
        };
        let bytes = ctx.encode();
        assert_eq!(bytes.len(), TraceContext::WIRE_LEN);
        assert_eq!(TraceContext::decode(&bytes), Some(ctx));
        assert_eq!(TraceContext::decode(&bytes[..15]), None);
    }

    #[test]
    fn critical_path_follows_last_finishing_children() {
        let (spans, _) = collect(Sampling::Always, 7);
        let root = spans.iter().find(|s| s.name == "op.outer").unwrap();
        let path: Vec<&str> = critical_path(&spans, root.trace)
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(path, ["op.outer", "op.inner_b", "op.remote"]);
    }

    #[test]
    fn self_time_breakdown_subtracts_children() {
        let (spans, _) = collect(Sampling::Always, 7);
        let root = spans.iter().find(|s| s.name == "op.outer").unwrap();
        let classify = |name: &str| -> &'static str {
            if name == "op.remote" {
                "remote"
            } else if name.starts_with("op.inner") {
                "inner"
            } else {
                "outer"
            }
        };
        let bd = self_time_breakdown(&spans, root.trace, &classify);
        // outer: 45us total minus 10+35 covered = 0; inner: 10 + (35-5);
        // remote: 5. inner_a (seq 0) sorts before the root at start 0,
        // so "inner" is the first-seen category.
        assert_eq!(bd, vec![("inner", 40_000), ("outer", 0), ("remote", 5_000)]);
        assert_eq!(trace_duration_ns(&spans, root.trace), 45_000);
    }
}
