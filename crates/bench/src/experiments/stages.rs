//! Trace-derived latency stage breakdowns, shared by E2 and E9.
//!
//! A request's spans are classified by name into `protocol` (CPU spent
//! on interface mechanics: framing, marshaling, signatures, routing),
//! `network` (wire time), and `storage` (media access and replica-side
//! work), and per-category *self time* — span duration minus time
//! covered by child spans — is summed over the trace. Self time is what
//! makes the split additive: every nanosecond of the root request is
//! attributed to exactly one category.

use pcsi_trace::{self_time_breakdown, Span, TraceId};

/// Interface-mechanics CPU: the cost the paper says should not exist.
pub const PROTOCOL: &str = "protocol";
/// Wire time: the hardware floor.
pub const NETWORK: &str = "network";
/// Media access and replica-side coordination.
pub const STORAGE: &str = "storage";
/// Anything unattributed (scheduling slack, span bookkeeping gaps).
pub const OTHER: &str = "other";

/// Maps a span name to its stage category.
///
/// `store.attempt` counts as network because its self time is the RPC
/// wire time: the replica-side processing it covers lives in `replica.*`
/// child spans. Likewise `rest.lb` self time is the balancer's CPU (its
/// forward hop is wrapped in a nested `rest.transport` span).
pub fn classify(name: &str) -> &'static str {
    match name {
        "rest.sign" | "rest.marshal" | "rest.http_parse" | "rest.auth" | "rest.route"
        | "rest.lb" | "nfs.op" | "nfs.auth" => PROTOCOL,
        "rest.transport" | "nfs.transport" | "store.attempt" | "store.backoff" => NETWORK,
        "store.cache" | "nfs.io" => STORAGE,
        n if n.starts_with("replica.") => STORAGE,
        _ => OTHER,
    }
}

/// Per-stage self-time totals for one trace.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    /// `(category, self-time ns)` in first-seen order.
    pub totals: Vec<(&'static str, u64)>,
}

impl StageBreakdown {
    /// Computes the breakdown of `trace` using [`classify`].
    pub fn of(spans: &[Span], trace: TraceId) -> StageBreakdown {
        StageBreakdown {
            totals: self_time_breakdown(spans, trace, &classify),
        }
    }

    /// Self time attributed to `category`, in nanoseconds.
    pub fn ns(&self, category: &str) -> u64 {
        self.totals
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, t)| *t)
            .unwrap_or(0)
    }

    /// Total attributed time across all categories.
    pub fn total_ns(&self) -> u64 {
        self.totals.iter().map(|(_, t)| t).sum()
    }

    /// `category`'s share of the total, in `[0, 1]`.
    pub fn share(&self, category: &str) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.ns(category) as f64 / total as f64
    }
}

/// The trace of the most recently finished root span named `name` —
/// i.e. the last fully-measured request of that kind in the sink.
pub fn last_root(spans: &[Span], name: &str) -> Option<TraceId> {
    spans
        .iter()
        .rev()
        .find(|s| s.parent.is_none() && s.name == name)
        .map(|s| s.trace)
}
