#![forbid(unsafe_code)]
//! Deterministic metrics for the simulated cloud.
//!
//! A [`Metrics`] registry holds typed families of [`Counter`]s,
//! [`Gauge`]s and log₂-bucketed [`Histogram`]s, each family fanned out
//! into label-distinguished series with **bounded cardinality**
//! (`MAX_SERIES_PER_FAMILY`). A registry renders to a stable text
//! [`Metrics::render`] snapshot — families sorted by name, series sorted
//! by canonical label string, every value an integer — so the same
//! sequence of recordings produces byte-identical output and a
//! [`fingerprint`] that determinism tests can pin per seed.
//!
//! # The zero-cost-when-disabled discipline
//!
//! Same contract as `pcsi-trace`: components hold the `Option<Metrics>`
//! their constructor was handed and resolve their series handles
//! **once**, there. With
//! metrics disabled the per-event cost is a `None` check — no
//! allocation, no label formatting, and the crate draws **no RNG at
//! all**, so enabling or disabling metrics can never perturb a seeded
//! simulation. Label values that exist only per event are formatted
//! inside the enabled branch, never eagerly.
//!
//! Handles are plain `Rc<Cell>`s, so a component may also create them
//! *detached* (e.g. [`Counter::new`]) and keep counting whether or not a
//! registry exists; [`Metrics::bind_counter`] later publishes the same
//! cell as a named series. This is how the pre-existing ad-hoc counters
//! (cache hits, retry counters, fabric message counts) migrate onto the
//! registry without double bookkeeping: the legacy accessors and the
//! rendered snapshot read the very same cell.
//!
//! # Histograms
//!
//! [`Histogram`] uses an HDR-style scheme: values below
//! `SUB_BUCKETS` get exact unit buckets; above, a power-of-two major
//! bucket is split into `SUB_BUCKETS` linear sub-buckets,
//! bounding the relative quantization error by `1/SUB_BUCKETS` ≈ 3%.
//! Quantile queries ([`Histogram::quantile`], [`Histogram::quantiles`])
//! return the **lower edge** of the bucket holding the target rank, so
//! the true order statistic always lies in
//! `[reported, bucket_upper_bound(reported))` — the property the
//! quantile proptest pins.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

/// Linear sub-buckets per power-of-two bucket (relative error ≤ 1/32).
pub(crate) const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5;
const N_BUCKETS: usize = 64 * SUB_BUCKETS;

/// Series admitted per family before further label sets are dropped.
///
/// A metrics pipeline must not let an unbounded label (object ids, peer
/// addresses) exhaust memory; past this bound new label sets record into
/// a detached cell and the family counts them in its `dropped` line.
pub(crate) const MAX_SERIES_PER_FAMILY: usize = 64;

/// The self-monitoring family counting label sets refused by the
/// cardinality bound, one series per overflowing family
/// (`metrics.dropped_series{family="<name>"}`). Registered lazily on the
/// first drop so drop-free snapshots are byte-identical to snapshots
/// rendered before this family existed.
pub(crate) const DROPPED_SERIES_FAMILY: &str = "metrics.dropped_series";

/// A monotone event counter (`Rc<Cell<u64>>`; clone to share).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Creates a detached zeroed counter (bindable to a registry later).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// A signed instantaneous value (queue depth, in-flight count).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Rc<Cell<i64>>,
}

impl Gauge {
    /// Creates a detached zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.set(self.value.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.get()
    }
}

/// Exemplars retained per histogram before the stalest bucket is evicted.
///
/// Exemplars exist to answer "show me one offending trace per latency
/// bucket", so only the hot tail of buckets needs representation; the
/// bound keeps a histogram's footprint independent of how many distinct
/// buckets a long run touches.
pub(crate) const MAX_EXEMPLARS: usize = 64;

/// One retained `(trace, value)` sample for a histogram bucket — the
/// join key from a metric back into the `TraceSink` (see `pcsi-obs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Lower edge of the bucket this exemplar represents.
    pub bucket_lo: u64,
    /// The exact recorded value.
    pub value: u64,
    /// The trace id active when the value was recorded.
    pub trace: u64,
    /// Recording sequence number (per histogram; later = fresher).
    pub seq: u64,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: RefCell<Vec<u64>>,
    count: Cell<u64>,
    sum: Cell<u128>,
    min: Cell<u64>,
    max: Cell<u64>,
    /// Bucket index → most recent exemplar. Only populated through
    /// [`Histogram::exemplar`], which call sites gate on tracing being
    /// enabled — plain [`Histogram::record`] never touches this, so
    /// metrics-only runs stay byte-identical.
    exemplars: RefCell<BTreeMap<usize, Exemplar>>,
    exemplar_seq: Cell<u64>,
}

/// A log₂-bucketed histogram over `u64` values (typically nanoseconds).
///
/// O(1) record, O(buckets) quantile, ~3% bounded relative error.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Rc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed quantile snapshot of a [`Histogram`] (all values integer
/// nanoseconds, so rendering is byte-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Number of samples.
    pub count: u64,
    /// Integer mean (`sum / count`, 0 if empty).
    pub mean: u64,
    /// Minimum (0 if empty).
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

impl Histogram {
    /// Creates a detached empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Rc::new(HistogramInner {
                buckets: RefCell::new(vec![0; N_BUCKETS]),
                count: Cell::new(0),
                sum: Cell::new(0),
                min: Cell::new(u64::MAX),
                max: Cell::new(0),
                exemplars: RefCell::new(BTreeMap::new()),
                exemplar_seq: Cell::new(0),
            }),
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Lowest value of bucket `idx` (the value quantile queries report).
    fn value_of(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let major = (idx / SUB_BUCKETS) as u32 - 1 + SUB_BITS;
        if major >= 64 {
            return u64::MAX; // One past the top bucket.
        }
        let sub = (idx % SUB_BUCKETS) as u64;
        (1u64 << major).saturating_add(sub << (major - SUB_BITS))
    }

    /// The half-open range `[lo, hi)` of the bucket `value` falls in;
    /// every sample recorded as `value` is reported as `lo` by quantile
    /// queries, and every true order statistic lies inside its reported
    /// bucket's range. `hi` saturates at `u64::MAX` for the top bucket.
    pub fn bucket_bounds(value: u64) -> (u64, u64) {
        let idx = Self::index_of(value);
        let lo = Self::value_of(idx);
        let hi = if idx + 1 < N_BUCKETS {
            Self::value_of(idx + 1)
        } else {
            u64::MAX
        };
        (lo, hi)
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.inner.buckets.borrow_mut()[Self::index_of(value)] += 1;
        self.inner.count.set(self.inner.count.get() + 1);
        self.inner.sum.set(self.inner.sum.get() + u128::from(value));
        self.inner.min.set(self.inner.min.get().min(value));
        self.inner.max.set(self.inner.max.get().max(value));
    }

    /// Records a [`Duration`] in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.inner.count.get()
    }

    /// Integer mean of recorded values (0 if empty).
    pub fn mean(&self) -> u64 {
        let n = self.inner.count.get();
        if n == 0 {
            0
        } else {
            u64::try_from(self.inner.sum.get() / u128::from(n)).unwrap_or(u64::MAX)
        }
    }

    /// Smallest recorded value (0 if empty).
    pub(crate) fn min(&self) -> u64 {
        if self.inner.count.get() == 0 {
            0
        } else {
            self.inner.min.get()
        }
    }

    /// Largest recorded value.
    pub(crate) fn max(&self) -> u64 {
        self.inner.max.get()
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): the lower edge of the
    /// bucket containing the rank-`⌈q·n⌉` sample; 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.inner.count.get();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.inner.buckets.borrow().iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(i);
            }
        }
        self.inner.max.get()
    }

    /// Fraction of samples recorded in buckets at or below `value`'s
    /// bucket (1.0 if empty — an SLO over no requests is trivially met).
    pub fn fraction_le(&self, value: u64) -> f64 {
        let n = self.inner.count.get();
        if n == 0 {
            return 1.0;
        }
        let idx = Self::index_of(value);
        let below: u64 = self.inner.buckets.borrow()[..=idx].iter().sum();
        below as f64 / n as f64
    }

    /// Exact number of samples recorded in buckets at or below `value`'s
    /// bucket. The integer form of [`Histogram::fraction_le`]: windowed
    /// SLO math (`pcsi-obs`) differences cumulative `(count_le, count)`
    /// pairs between evaluation ticks, so each sample is attributed to
    /// exactly one window and never double-counted.
    pub fn count_le(&self, value: u64) -> u64 {
        let idx = Self::index_of(value);
        self.inner.buckets.borrow()[..=idx].iter().sum()
    }

    /// Retains `(trace, value)` as the exemplar for `value`'s bucket,
    /// replacing the bucket's previous exemplar. Call sites gate this on
    /// tracing being enabled *and* the surrounding span being sampled —
    /// [`Histogram::record`] itself never stores exemplars, so runs
    /// without tracing are byte-identical to runs before exemplars
    /// existed. When more than `MAX_EXEMPLARS` buckets hold exemplars
    /// the one with the oldest sequence number is evicted
    /// (deterministic: ties cannot occur, seq is unique per histogram).
    pub fn exemplar(&self, value: u64, trace: u64) {
        let seq = self.inner.exemplar_seq.get();
        self.inner.exemplar_seq.set(seq + 1);
        let idx = Self::index_of(value);
        let mut ex = self.inner.exemplars.borrow_mut();
        ex.insert(
            idx,
            Exemplar {
                bucket_lo: Self::value_of(idx),
                value,
                trace,
                seq,
            },
        );
        if ex.len() > MAX_EXEMPLARS {
            if let Some((&stalest, _)) = ex.iter().min_by_key(|(_, e)| e.seq) {
                ex.remove(&stalest);
            }
        }
    }

    /// All retained exemplars, ordered by bucket (ascending value).
    #[cfg(test)]
    pub(crate) fn exemplars(&self) -> Vec<Exemplar> {
        self.inner.exemplars.borrow().values().copied().collect()
    }

    /// The worst retained offender at or above `value`: the exemplar in
    /// the highest bucket whose lower edge is ≥ `value`'s bucket lower
    /// edge. This is the "p99 offender" joined against the trace sink
    /// when a latency SLO fires.
    pub fn exemplar_ge(&self, value: u64) -> Option<Exemplar> {
        let idx = Self::index_of(value);
        self.inner
            .exemplars
            .borrow()
            .range(idx..)
            .next_back()
            .map(|(_, e)| *e)
    }

    /// The fixed p50/p95/p99/p999 snapshot used by snapshots and tables.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

#[derive(Clone, Debug)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    /// Canonical label string → series. BTreeMap keeps render order
    /// independent of registration order.
    series: BTreeMap<String, Series>,
    /// Label sets refused past [`MAX_SERIES_PER_FAMILY`].
    dropped: Cell<u64>,
}

struct Inner {
    families: RefCell<BTreeMap<&'static str, Family>>,
}

/// A handle to the shared metrics registry. Cheap to clone; absence
/// (`Option<Metrics>` = `None`) *is* the disabled state.
#[derive(Clone)]
pub struct Metrics {
    inner: Rc<Inner>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders `labels` canonically: sorted by key, `{k="v",…}`, empty for
/// no labels. Built in a single pass into one `String` — this runs on
/// every registry lookup, so it must not allocate per label pair.
fn label_string(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort();
    let cap = 2 + pairs
        .iter()
        .map(|(k, v)| k.len() + v.len() + 4)
        .sum::<usize>();
    let mut out = String::with_capacity(cap);
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics {
            inner: Rc::new(Inner {
                families: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    fn get_or_insert(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let made = {
            let mut families = self.inner.families.borrow_mut();
            let family = families.entry(name).or_insert_with(|| Family {
                series: BTreeMap::new(),
                dropped: Cell::new(0),
            });
            let key = label_string(labels);
            if let Some(existing) = family.series.get(&key) {
                return existing.clone();
            }
            let made = make();
            if family.series.len() < MAX_SERIES_PER_FAMILY {
                family.series.insert(key, made.clone());
                return made;
            }
            family.dropped.set(family.dropped.get() + 1);
            made // Detached: still records, never rendered.
        };
        // Borrow released: record the drop on the self-family so the
        // snapshot carries it as a queryable series, not only a comment.
        // Drops of the self-family itself are not self-counted, bounding
        // the re-entrancy to one level. The self-family appears only
        // after the first drop, so drop-free runs render identically.
        if name != DROPPED_SERIES_FAMILY {
            self.counter(DROPPED_SERIES_FAMILY, &[("family", name)])
                .incr();
        }
        made
    }

    /// Gets or creates the counter series `name{labels}`.
    pub fn counter(&self, name: &'static str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Series::Counter(Counter::new())) {
            Series::Counter(c) => c,
            other => panic!(
                "metric family {name:?} is a {}, not a counter",
                other.kind()
            ),
        }
    }

    /// Gets or creates the gauge series `name{labels}`.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Series::Gauge(Gauge::new())) {
            Series::Gauge(g) => g,
            other => panic!("metric family {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or creates the histogram series `name{labels}`.
    pub fn histogram(&self, name: &'static str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, || Series::Histogram(Histogram::new())) {
            Series::Histogram(h) => h,
            other => panic!(
                "metric family {name:?} is a {}, not a histogram",
                other.kind()
            ),
        }
    }

    /// Publishes an existing (possibly detached) counter cell as
    /// `name{labels}` — the migration path for pre-registry counters:
    /// the legacy accessor and the snapshot read the same cell.
    pub fn bind_counter(&self, name: &'static str, labels: &[(&str, &str)], counter: &Counter) {
        self.get_or_insert(name, labels, || Series::Counter(counter.clone()));
    }

    /// Publishes an existing gauge cell as `name{labels}`.
    pub fn bind_gauge(&self, name: &'static str, labels: &[(&str, &str)], gauge: &Gauge) {
        self.get_or_insert(name, labels, || Series::Gauge(gauge.clone()));
    }

    /// Read-only series lookup by runtime name (no `&'static` needed and
    /// nothing is created): the accessor SLO rules use, since rules are
    /// parsed from text at build time. Returns `None` for an unknown
    /// family or label set.
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<Series> {
        let families = self.inner.families.borrow();
        let family = families.get(name)?;
        family.series.get(&label_string(labels)).cloned()
    }

    /// Looks up an existing counter series without creating it.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        match self.find(name, labels) {
            Some(Series::Counter(c)) => Some(c),
            _ => None,
        }
    }

    /// Looks up an existing histogram series without creating it.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        match self.find(name, labels) {
            Some(Series::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered series across all families (tests).
    pub fn series_count(&self) -> usize {
        self.inner
            .families
            .borrow()
            .values()
            .map(|f| f.series.len())
            .sum()
    }

    /// Renders the stable text snapshot: one line per series,
    /// `<kind> <name>{labels} <values>`, families sorted by name, series
    /// sorted by canonical label string, all values integers.
    pub fn render(&self) -> String {
        let mut out = String::from("# pcsi-metrics snapshot\n");
        let mut total_dropped = 0u64;
        for (name, family) in self.inner.families.borrow().iter() {
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("counter {name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("gauge {name}{labels} {}\n", g.get()));
                    }
                    Series::Histogram(h) => {
                        let q = h.quantiles();
                        out.push_str(&format!(
                            "histogram {name}{labels} count={} mean={} min={} p50={} p95={} p99={} p999={} max={}\n",
                            q.count, q.mean, q.min, q.p50, q.p95, q.p99, q.p999, q.max
                        ));
                    }
                }
            }
            if family.dropped.get() > 0 {
                total_dropped += family.dropped.get();
                out.push_str(&format!(
                    "# {name}: {} series dropped over cardinality bound\n",
                    family.dropped.get()
                ));
            }
        }
        if total_dropped > 0 {
            out.push_str(&format!(
                "# dropped series total: {total_dropped} (per-family: {DROPPED_SERIES_FAMILY})\n"
            ));
        }
        out
    }
}

/// FNV-1a over a rendered snapshot (same constants as `pcsi-trace`).
pub fn fingerprint(rendered: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in rendered.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The identity of a snapshot line: comment lines are their own key;
/// series lines are keyed by `<kind> <name>{labels}` (the first two
/// tokens), so a value change keeps the key while changing the line.
fn line_key(line: &str) -> &str {
    if line.starts_with('#') {
        return line;
    }
    let mut spaces = 0;
    for (i, b) in line.bytes().enumerate() {
        if b == b' ' {
            spaces += 1;
            if spaces == 2 {
                return &line[..i];
            }
        }
    }
    line
}

/// Computes a compact line-diff between two rendered snapshots — the
/// unit the `metrics` device streams instead of whole snapshots.
///
/// Format, one edit per line:
/// - `~ <line>` — a series whose value changed (replace in place)
/// - `+ <index> <line>` — a new line, at `index` in the new snapshot
/// - `- <key>` — a line whose key disappeared
///
/// The diff of two identical snapshots is empty. Reconstruction via
/// [`apply_delta`] is byte-exact because [`Metrics::render`] keeps
/// common lines in the same relative order across snapshots.
pub fn delta(prev: &str, cur: &str) -> String {
    use std::collections::{HashMap, HashSet};
    let prev_map: HashMap<&str, &str> = prev.lines().map(|l| (line_key(l), l)).collect();
    let cur_keys: HashSet<&str> = cur.lines().map(line_key).collect();
    let mut out = String::new();
    for l in prev.lines() {
        let k = line_key(l);
        if !cur_keys.contains(k) {
            out.push_str("- ");
            out.push_str(k);
            out.push('\n');
        }
    }
    for (i, l) in cur.lines().enumerate() {
        match prev_map.get(line_key(l)) {
            Some(&old) if old == l => {}
            Some(_) => {
                out.push_str("~ ");
                out.push_str(l);
                out.push('\n');
            }
            None => {
                out.push_str(&format!("+ {i} {l}\n"));
            }
        }
    }
    out
}

/// Applies a [`delta`] to the snapshot it was computed against,
/// reproducing the newer snapshot byte-for-byte.
pub fn apply_delta(prev: &str, delta: &str) -> String {
    let mut lines: Vec<String> = prev.lines().map(str::to_owned).collect();
    let mut inserts: Vec<(usize, String)> = Vec::new();
    for d in delta.lines() {
        if let Some(key) = d.strip_prefix("- ") {
            lines.retain(|l| line_key(l) != key);
        } else if let Some(l) = d.strip_prefix("~ ") {
            let key = line_key(l);
            if let Some(slot) = lines.iter_mut().find(|s| line_key(s) == key) {
                *slot = l.to_owned();
            }
        } else if let Some(rest) = d.strip_prefix("+ ") {
            let (idx, l) = rest.split_once(' ').unwrap_or((rest, ""));
            inserts.push((idx.parse().unwrap_or(usize::MAX), l.to_owned()));
        }
    }
    inserts.sort_by_key(|(i, _)| *i);
    for (i, l) in inserts {
        let at = i.min(lines.len());
        lines.insert(at, l);
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells() {
        let m = Metrics::new();
        let a = m.counter("x.events", &[]);
        let b = m.counter("x.events", &[]);
        a.incr();
        b.add(2);
        assert_eq!(a.get(), 3);

        let g = m.gauge("x.depth", &[]);
        g.add(5);
        g.add(-2);
        assert_eq!(m.gauge("x.depth", &[]).get(), 3);
    }

    #[test]
    fn bound_counters_render_the_legacy_cell() {
        let m = Metrics::new();
        let detached = Counter::new();
        detached.add(41);
        m.bind_counter("fabric.messages", &[], &detached);
        detached.incr();
        assert!(m.render().contains("counter fabric.messages 42\n"));
    }

    #[test]
    fn labels_are_canonicalized_and_sorted() {
        let m = Metrics::new();
        m.counter("k.ops", &[("op", "read"), ("node", "3")]).incr();
        // Same series regardless of label order at the call site.
        m.counter("k.ops", &[("node", "3"), ("op", "read")]).incr();
        let r = m.render();
        assert!(
            r.contains("counter k.ops{node=\"3\",op=\"read\"} 2\n"),
            "{r}"
        );
        assert_eq!(m.series_count(), 1);
    }

    #[test]
    fn render_is_independent_of_registration_order() {
        let build = |flip: bool| {
            let m = Metrics::new();
            let names: [&'static str; 2] = ["b.second", "a.first"];
            let order = if flip { [0, 1] } else { [1, 0] };
            for &i in &order {
                m.counter(names[i], &[("op", "x")]).add(7);
                m.counter(names[i], &[("op", "a")]).add(3);
            }
            m.render()
        };
        assert_eq!(build(false), build(true));
        assert_eq!(fingerprint(&build(false)), fingerprint(&build(true)));
    }

    #[test]
    fn cardinality_is_bounded_and_reported() {
        let m = Metrics::new();
        for i in 0..(MAX_SERIES_PER_FAMILY + 9) {
            let v = format!("{i}");
            m.counter("hot.family", &[("id", &v)]).incr();
        }
        // 64 admitted series plus the lazily created self-counter.
        assert_eq!(m.series_count(), MAX_SERIES_PER_FAMILY + 1);
        let r = m.render();
        assert!(
            r.contains("# hot.family: 9 series dropped over cardinality bound\n"),
            "{r}"
        );
        // The drops are self-counted as a first-class series and totaled
        // in the snapshot footer — not just buried in a comment.
        assert!(
            r.contains("counter metrics.dropped_series{family=\"hot.family\"} 9\n"),
            "{r}"
        );
        assert!(
            r.contains("# dropped series total: 9 (per-family: metrics.dropped_series)\n"),
            "{r}"
        );
        // Dropped label sets still record into a working (detached) cell.
        let c = m.counter("hot.family", &[("id", "overflow-again")]);
        c.add(5);
        assert_eq!(c.get(), 5);
        assert!(m
            .render()
            .contains("counter metrics.dropped_series{family=\"hot.family\"} 10\n"),);
    }

    #[test]
    fn drop_free_registries_never_mention_the_self_family() {
        let m = Metrics::new();
        m.counter("a.ops", &[]).incr();
        m.histogram("a.lat", &[]).record(3);
        let r = m.render();
        assert!(!r.contains("dropped"), "{r}");
        assert!(!r.contains(DROPPED_SERIES_FAMILY), "{r}");
    }

    #[test]
    fn count_le_is_the_integer_fraction_le() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for probe in [0u64, 1, 31, 500, 999, 1000, u64::MAX] {
            let frac = h.count_le(probe) as f64 / h.count() as f64;
            assert_eq!(frac, h.fraction_le(probe), "probe {probe}");
        }
        assert_eq!(h.count_le(u64::MAX), 1000);
        let empty = Histogram::new();
        assert_eq!(empty.count_le(5), 0);
    }

    #[test]
    fn exemplars_track_the_latest_sample_per_bucket() {
        let h = Histogram::new();
        h.record(100);
        // Plain record never stores exemplars.
        assert!(h.exemplars().is_empty());
        h.exemplar(100, 0xaaaa);
        h.exemplar(101, 0xbbbb); // Same bucket (96..112): replaces.
        h.exemplar(5000, 0xcccc);
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].trace, 0xbbbb);
        assert_eq!(ex[0].value, 101);
        assert_eq!(ex[1].trace, 0xcccc);
        // Worst offender at or above a threshold.
        assert_eq!(h.exemplar_ge(0).unwrap().trace, 0xcccc);
        assert_eq!(h.exemplar_ge(200).unwrap().trace, 0xcccc);
        assert!(h.exemplar_ge(10_000).is_none());
    }

    #[test]
    fn exemplars_are_bounded_with_stalest_bucket_evicted() {
        let h = Histogram::new();
        // Values 0..MAX_EXEMPLARS+8 land in distinct unit buckets
        // (all below SUB_BUCKETS would be needed for that — use spread
        // values across major buckets instead).
        for i in 0..(MAX_EXEMPLARS as u64 + 8) {
            h.exemplar(1u64 << (i % 48) | i << 48, i);
        }
        assert!(h.exemplars().len() <= MAX_EXEMPLARS);
        // The freshest exemplar always survives.
        let max_seq = h.exemplars().iter().map(|e| e.seq).max().unwrap();
        assert_eq!(max_seq, MAX_EXEMPLARS as u64 + 7);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let m = Metrics::new();
        m.gauge("x.v", &[]);
        m.counter("x.v", &[]);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS as u64 - 1);
        // Below SUB_BUCKETS every bucket holds exactly one value.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(Histogram::bucket_bounds(v), (v, v + 1));
        }
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // A power of two starts a fresh major bucket: the value below it
        // lands in a different bucket.
        for exp in (SUB_BITS + 1)..63 {
            let v = 1u64 << exp;
            let (lo, hi) = Histogram::bucket_bounds(v);
            assert_eq!(lo, v, "2^{exp} must open its bucket");
            let (_, hi_prev) = Histogram::bucket_bounds(v - 1);
            assert_eq!(hi_prev, v, "2^{exp}-1 must end the previous bucket");
            // Sub-bucket width within major bucket `exp` is 2^(exp-5).
            assert_eq!(hi - lo, 1u64 << (exp - SUB_BITS));
        }
        // Every value sits inside its own bucket bounds.
        for v in [0, 1, 31, 32, 33, 1000, 123_456_789, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(v);
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v}: [{lo},{hi})");
        }
    }

    #[test]
    fn histogram_quantiles_and_fractions() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q = h.quantiles();
        assert_eq!(q.count, 1000);
        assert!((480..=520).contains(&q.p50), "p50 = {}", q.p50);
        assert!((920..=960).contains(&q.p95), "p95 = {}", q.p95);
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.p999);
        assert!(q.p999 <= q.max && q.min <= q.p50);
        assert_eq!(q.mean, 500); // 500.5 truncated.
        let f = h.fraction_le(500);
        assert!((0.45..=0.55).contains(&f), "fraction_le(500) = {f}");
        assert_eq!(h.fraction_le(u64::MAX), 1.0);
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let h = Histogram::new();
        let v = 987_654_321u64;
        h.record(v);
        let q = h.quantile(0.5);
        let err = (v as f64 - q as f64).abs() / v as f64;
        assert!(err <= 1.0 / SUB_BUCKETS as f64, "error {err}");
    }

    #[test]
    fn histogram_huge_values_do_not_panic() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!((h.min(), h.max()), (0, u64::MAX));
        assert!(h.quantile(1.0) > u64::MAX / 2);
    }

    #[test]
    fn snapshot_renders_histograms() {
        let m = Metrics::new();
        let h = m.histogram("op.latency_ns", &[("op", "read")]);
        h.record(100);
        h.record(300);
        let r = m.render();
        assert!(r.starts_with("# pcsi-metrics snapshot\n"));
        assert!(
            r.contains("histogram op.latency_ns{op=\"read\"} count=2 mean=200 min=100 "),
            "{r}"
        );
    }

    #[test]
    fn fingerprint_matches_fnv_constants() {
        // Empty input must produce the FNV-1a offset basis, pinning the
        // exact constants shared with pcsi-trace.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fingerprint("a"), fingerprint("b"));
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        let m = Metrics::new();
        m.counter("a.ops", &[]).add(3);
        m.gauge("b.depth", &[]).add(7);
        let snap = m.render();
        assert_eq!(delta(&snap, &snap), "");
        assert_eq!(apply_delta(&snap, ""), snap);
    }

    #[test]
    fn delta_carries_only_changed_lines() {
        let m = Metrics::new();
        let hot = m.counter("a.hot", &[("node", "0")]);
        m.counter("a.cold", &[]).add(9);
        m.gauge("b.depth", &[]).add(1);
        let prev = m.render();
        hot.add(5);
        let cur = m.render();
        let d = delta(&prev, &cur);
        // Exactly one edit: the hot counter's line, replaced in place.
        assert_eq!(d.lines().count(), 1, "{d:?}");
        assert!(d.starts_with("~ counter a.hot"), "{d:?}");
        assert_eq!(apply_delta(&prev, &d), cur);
    }

    #[test]
    fn delta_reconstructs_after_adds_and_value_changes() {
        let m = Metrics::new();
        let ops = m.counter("k.ops", &[]);
        ops.add(1);
        let prev = m.render();
        ops.add(41);
        m.counter("k.errors", &[("kind", "timeout")]).incr();
        m.histogram("k.latency", &[]).record(128);
        let cur = m.render();
        let d = delta(&prev, &cur);
        assert_eq!(apply_delta(&prev, &d), cur);
        // The delta must be smaller than re-sending the snapshot once
        // unchanged series dominate.
        assert!(d.len() < cur.len());
    }

    #[test]
    fn delta_handles_removed_lines() {
        // Renders from unrelated registries exercise the removal path.
        let a = Metrics::new();
        a.counter("x.one", &[]).add(1);
        a.counter("x.two", &[]).add(2);
        let b = Metrics::new();
        b.counter("x.two", &[]).add(5);
        b.counter("y.three", &[]).add(3);
        let (prev, cur) = (a.render(), b.render());
        let d = delta(&prev, &cur);
        assert!(d.contains("- counter x.one"), "{d:?}");
        assert_eq!(apply_delta(&prev, &d), cur);
    }
}
