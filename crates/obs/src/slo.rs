//! Declarative SLO rules, windowed burn-rate math, and the evaluation
//! engine.
//!
//! # Rule grammar
//!
//! One rule per line, `<name>: <body>`. Two bodies exist:
//!
//! ```text
//! rest-p99:  p99(rest.request_ns) < 300ms over 5s for 2 clear 2
//! kernel-burn: burn(kernel.errors / kernel.ops) budget 1% fast 5s slow 30s rate 4 clear 3
//! ```
//!
//! * **Latency**: `pQ(family[{k="v",..}]) < <dur> over <dur>` — the
//!   rule breaches on any tick where, over the trailing window, fewer
//!   than Q% of samples fell at or below the threshold (exact-rank
//!   [`pcsi_metrics::Histogram::count_le`] differenced between ticks).
//!   A window with no samples is vacuously within SLO.
//! * **Burn rate**: `burn(err / total) budget <pct> fast <dur> slow
//!   <dur> rate <r>` — the SRE multi-window form: breaches only when
//!   the error-budget burn rate `(err/total)/budget` is ≥ `r` over
//!   **both** the fast and the slow window, so short blips (fast-only)
//!   and long-healed incidents (slow-only) don't page.
//!
//! `for N` / `clear M` set the [`AlertMachine`] hysteresis (default 1).
//!
//! All arithmetic is integer (`u128` cross-multiplication; budgets in
//! ppm, rates in milli-units), so evaluation is exactly reproducible.

use std::collections::VecDeque;
use std::time::Duration;

use pcsi_metrics::{Exemplar, Metrics};

use crate::alert::{AlertMachine, Phase};

/// A series selector: family name plus an exact label set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Selector {
    /// Metric family name.
    pub(crate) family: String,
    /// Exact label set (sorted on parse; must match the series).
    pub(crate) labels: Vec<(String, String)>,
}

impl Selector {
    fn parse(spec: &str) -> Result<Selector, String> {
        let spec = spec.trim();
        let (family, labels) = match spec.find('{') {
            None => (spec.to_string(), Vec::new()),
            Some(open) => {
                let close = spec
                    .rfind('}')
                    .filter(|&close| close > open)
                    .ok_or_else(|| format!("selector {spec:?}: unclosed '{{'"))?;
                let mut labels = Vec::new();
                let body = &spec[open + 1..close];
                for pair in body.split(',').filter(|p| !p.trim().is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("selector {spec:?}: label {pair:?} has no '='"))?;
                    let v = v.trim().trim_matches('"');
                    labels.push((k.trim().to_string(), v.to_string()));
                }
                labels.sort();
                (spec[..open].to_string(), labels)
            }
        };
        if family.is_empty() {
            return Err(format!("selector {spec:?}: empty family name"));
        }
        Ok(Selector { family, labels })
    }

    fn label_refs(&self) -> Vec<(&str, &str)> {
        self.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }
}

/// `pQ(hist) < threshold over window`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LatencyRule {
    /// Histogram series to watch.
    pub(crate) hist: Selector,
    /// Quantile as an exact rational (p99.9 → 999/1000).
    pub(crate) target_num: u64,
    /// Denominator of the quantile rational.
    pub(crate) target_den: u64,
    /// Latency threshold in nanoseconds.
    pub(crate) threshold_ns: u64,
    /// Trailing evaluation window.
    pub(crate) window: Duration,
}

/// `burn(err / total) budget B fast F slow S rate R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BurnRule {
    /// Error-count counter series.
    pub(crate) err: Selector,
    /// Total-count counter series.
    pub(crate) total: Selector,
    /// Error budget in parts-per-million (1% = 10_000 ppm).
    pub(crate) budget_ppm: u64,
    /// Burn-rate threshold in milli-units (4× = 4000).
    pub(crate) rate_milli: u64,
    /// Fast (paging) window.
    pub(crate) fast: Duration,
    /// Slow (confirmation) window.
    pub(crate) slow: Duration,
}

/// What a rule watches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RuleKind {
    Latency(LatencyRule),
    Burn(BurnRule),
}

/// One parsed SLO rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRule {
    /// Rule name (stable identifier in transitions and FIFO lines).
    pub(crate) name: String,
    /// What the rule watches.
    pub(crate) kind: RuleKind,
    /// Consecutive breached ticks before firing.
    pub(crate) for_ticks: u32,
    /// Consecutive clean ticks before resolving.
    pub(crate) clear_ticks: u32,
}

fn parse_duration(tok: &str) -> Result<Duration, String> {
    let units: [(&str, u64); 5] = [
        ("ns", 1),
        ("us", 1_000),
        ("ms", 1_000_000),
        ("s", 1_000_000_000),
        ("m", 60_000_000_000),
    ];
    for (suffix, scale) in units {
        if let Some(num) = tok.strip_suffix(suffix) {
            // "ms" also ends in "s"; require the numeric part be digits.
            if num.is_empty() || !num.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            let ns = num.parse::<u64>().ok().and_then(|n| n.checked_mul(scale));
            return ns
                .map(Duration::from_nanos)
                .ok_or_else(|| format!("duration {tok:?}: too long"));
        }
    }
    Err(format!("duration {tok:?}: expected <digits>(ns|us|ms|s|m)"))
}

/// Parses `"99"` or `"99.9"` into an exact rational (num, den).
fn parse_decimal(s: &str, what: &str) -> Result<(u64, u64), String> {
    let (int, frac) = match s.split_once('.') {
        None => (s, ""),
        Some((i, f)) => (i, f),
    };
    if int.is_empty() && frac.is_empty() {
        return Err(format!("{what} {s:?}: empty number"));
    }
    if !int.bytes().all(|b| b.is_ascii_digit()) || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{what} {s:?}: expected digits"));
    }
    if frac.len() > 6 {
        return Err(format!("{what} {s:?}: more than 6 decimal places"));
    }
    // All digits, so the only way these fail is a value past `u64`.
    let den = 10u64.pow(frac.len() as u32);
    let digits = |d: &str| format!("0{d}").parse::<u64>().ok();
    let num = digits(int)
        .and_then(|int_v| int_v.checked_mul(den))
        .and_then(|scaled| scaled.checked_add(digits(frac)?));
    Ok((num.ok_or_else(|| format!("{what} {s:?}: too large"))?, den))
}

impl SloRule {
    /// Parses one rule line (see the module docs for the grammar).
    pub fn parse(line: &str) -> Result<SloRule, String> {
        let (name, body) = line
            .split_once(':')
            .ok_or_else(|| format!("rule {line:?}: missing '<name>:'"))?;
        let name = name.trim().to_string();
        if name.is_empty() || name.contains(' ') {
            return Err(format!("rule {line:?}: bad name"));
        }
        let body = body.trim();
        let open = body
            .find('(')
            .ok_or_else(|| format!("rule {name}: body must start with pQ(..) or burn(..)"))?;
        let close = body[open..]
            .find(')')
            .map(|i| i + open)
            .ok_or_else(|| format!("rule {name}: unclosed '('"))?;
        let head = body[..open].trim();
        let inside = &body[open + 1..close];
        let rest: Vec<&str> = body[close + 1..].split_whitespace().collect();

        let (kind, opts) = if head == "burn" {
            let (err_s, total_s) = inside
                .split_once('/')
                .ok_or_else(|| format!("rule {name}: burn(err / total) needs '/'"))?;
            let mut budget_ppm = None;
            let mut rate_milli = None;
            let mut fast = None;
            let mut slow = None;
            let mut opts = Vec::new();
            let mut it = rest.iter();
            while let Some(&key) = it.next() {
                let val = *it
                    .next()
                    .ok_or_else(|| format!("rule {name}: option {key:?} missing value"))?;
                match key {
                    "budget" => {
                        let pct = val
                            .strip_suffix('%')
                            .ok_or_else(|| format!("rule {name}: budget must end in %"))?;
                        let (num, den) = parse_decimal(pct, "budget")?;
                        let ppm = num.checked_mul(10_000).map(|n| n / den);
                        budget_ppm =
                            Some(ppm.ok_or_else(|| format!("rule {name}: budget too large"))?);
                    }
                    "rate" => {
                        let (num, den) = parse_decimal(val, "rate")?;
                        let milli = num.checked_mul(1_000).map(|n| n / den);
                        rate_milli =
                            Some(milli.ok_or_else(|| format!("rule {name}: rate too large"))?);
                    }
                    "fast" => fast = Some(parse_duration(val)?),
                    "slow" => slow = Some(parse_duration(val)?),
                    _ => opts.push((key, val)),
                }
            }
            let budget_ppm =
                budget_ppm.ok_or_else(|| format!("rule {name}: missing 'budget <pct>%'"))?;
            if budget_ppm == 0 {
                return Err(format!("rule {name}: budget must be > 0"));
            }
            let kind = RuleKind::Burn(BurnRule {
                err: Selector::parse(err_s)?,
                total: Selector::parse(total_s)?,
                budget_ppm,
                rate_milli: rate_milli.unwrap_or(1_000),
                fast: fast.ok_or_else(|| format!("rule {name}: missing 'fast <dur>'"))?,
                slow: slow.ok_or_else(|| format!("rule {name}: missing 'slow <dur>'"))?,
            });
            (kind, opts)
        } else if let Some(q) = head.strip_prefix('p') {
            let (qnum, qden) = parse_decimal(q, "quantile")?;
            // pQ means Q percent: p99 → 99/100, p99.9 → 999/1000.
            let (target_num, target_den) = (qnum, qden * 100);
            if target_num == 0 || target_num >= target_den {
                return Err(format!("rule {name}: quantile must be in (p0, p100)"));
            }
            let mut threshold_ns = None;
            let mut window = None;
            let mut opts = Vec::new();
            let mut it = rest.iter();
            while let Some(&key) = it.next() {
                match key {
                    "<" => {
                        let val = *it
                            .next()
                            .ok_or_else(|| format!("rule {name}: '<' missing threshold"))?;
                        threshold_ns = Some(parse_duration(val)?.as_nanos() as u64);
                    }
                    "over" => {
                        let val = *it
                            .next()
                            .ok_or_else(|| format!("rule {name}: 'over' missing window"))?;
                        window = Some(parse_duration(val)?);
                    }
                    _ => {
                        let val = *it
                            .next()
                            .ok_or_else(|| format!("rule {name}: option {key:?} missing value"))?;
                        opts.push((key, val));
                    }
                }
            }
            let kind = RuleKind::Latency(LatencyRule {
                hist: Selector::parse(inside)?,
                target_num,
                target_den,
                threshold_ns: threshold_ns
                    .ok_or_else(|| format!("rule {name}: missing '< <dur>'"))?,
                window: window.ok_or_else(|| format!("rule {name}: missing 'over <dur>'"))?,
            });
            (kind, opts)
        } else {
            return Err(format!(
                "rule {name}: unknown body head {head:?} (want pQ or burn)"
            ));
        };

        let mut for_ticks = 1u32;
        let mut clear_ticks = 1u32;
        for (key, val) in opts {
            let n: u32 = val
                .parse()
                .map_err(|_| format!("rule {name}: {key} wants an integer, got {val:?}"))?;
            match key {
                "for" => for_ticks = n,
                "clear" => clear_ticks = n,
                _ => return Err(format!("rule {name}: unknown option {key:?}")),
            }
        }
        Ok(SloRule {
            name,
            kind,
            for_ticks,
            clear_ticks,
        })
    }
}

/// Trailing-window differencing over a cumulative (monotone) series.
///
/// `push(c)` appends this tick's cumulative value and returns the delta
/// over the last `window` ticks. The ring seeds itself with the implicit
/// t=0 cumulative value 0, so samples recorded before the first tick are
/// attributed to tick 1. Because the delta is a difference of two
/// cumulative readings, every recorded increment is counted in exactly
/// `window` consecutive tick deltas and in exactly one inter-tick
/// interval — the no-double-counting property the proptests pin.
#[derive(Debug, Clone)]
pub struct WindowDiff {
    window: usize,
    samples: VecDeque<u64>,
}

impl WindowDiff {
    /// A window of `window` ticks (minimum 1).
    pub fn new(window: usize) -> Self {
        // Grown as ticks arrive: a rule may ask for a window of centuries.
        let mut samples = VecDeque::new();
        samples.push_back(0);
        WindowDiff {
            window: window.max(1),
            samples,
        }
    }

    /// Appends this tick's cumulative reading; returns the windowed
    /// delta. Saturates on regressions (a reset cumulative series).
    pub fn push(&mut self, cumulative: u64) -> u64 {
        self.samples.push_back(cumulative);
        if self.samples.len() - 1 > self.window {
            self.samples.pop_front();
        }
        cumulative.saturating_sub(*self.samples.front().unwrap())
    }
}

/// What one rule checks each tick: its kind's parameters and the
/// windows they difference, in one value.
enum Check {
    Latency {
        rule: LatencyRule,
        total: WindowDiff,
        le: WindowDiff,
    },
    Burn {
        rule: BurnRule,
        err_fast: WindowDiff,
        total_fast: WindowDiff,
        err_slow: WindowDiff,
        total_slow: WindowDiff,
    },
}

impl Check {
    /// The check for `kind` evaluated every `interval`: window durations
    /// become whole ticks, rounding up.
    fn new(kind: RuleKind, interval: Duration) -> Check {
        match kind {
            RuleKind::Latency(rule) => {
                let w = ticks_for(rule.window, interval);
                let (total, le) = (WindowDiff::new(w), WindowDiff::new(w));
                Check::Latency { rule, total, le }
            }
            RuleKind::Burn(rule) => {
                let fast = ticks_for(rule.fast, interval);
                let slow = ticks_for(rule.slow, interval);
                Check::Burn {
                    rule,
                    err_fast: WindowDiff::new(fast),
                    total_fast: WindowDiff::new(fast),
                    err_slow: WindowDiff::new(slow),
                    total_slow: WindowDiff::new(slow),
                }
            }
        }
    }

    /// Pushes this tick's cumulative readings and returns whether the
    /// rule is breached, the evidence, and (for a breached latency rule)
    /// the worst offending exemplar.
    fn eval(&mut self, metrics: &Metrics) -> (bool, String, Option<Exemplar>) {
        match self {
            Check::Latency { rule, total, le } => {
                let LatencyRule {
                    hist,
                    target_num,
                    target_den,
                    threshold_ns,
                    ..
                } = rule;
                let series = metrics.find_histogram(&hist.family, &hist.label_refs());
                let (cum_total, cum_le) = match &series {
                    Some(h) => (h.count(), h.count_le(*threshold_ns)),
                    None => (0, 0),
                };
                let total_w = total.push(cum_total);
                let le_w = le.push(cum_le);
                // Breach: over the window, the fraction of samples at
                // or below the threshold fell short of the target.
                let breached = total_w > 0
                    && (le_w as u128) * (*target_den as u128)
                        < (*target_num as u128) * (total_w as u128);
                let detail = format!(
                    "ok={le_w}/{total_w} target={target_num}/{target_den} le={threshold_ns}ns"
                );
                let exemplar = if breached {
                    series.as_ref().and_then(|h| h.exemplar_ge(*threshold_ns))
                } else {
                    None
                };
                (breached, detail, exemplar)
            }
            Check::Burn {
                rule,
                err_fast,
                total_fast,
                err_slow,
                total_slow,
            } => {
                let BurnRule {
                    err,
                    total,
                    budget_ppm,
                    rate_milli,
                    ..
                } = rule;
                let cum_err = metrics
                    .find_counter(&err.family, &err.label_refs())
                    .map_or(0, |c| c.get());
                let cum_total = metrics
                    .find_counter(&total.family, &total.label_refs())
                    .map_or(0, |c| c.get());
                let ef = err_fast.push(cum_err);
                let tf = total_fast.push(cum_total);
                let es = err_slow.push(cum_err);
                let ts = total_slow.push(cum_total);
                // burn = (err/total)/budget; breach when burn ≥ rate
                // over both windows: err·10⁹ ≥ rate_milli·budget_ppm·total.
                let burns = |e: u64, t: u64| {
                    // Only an absurd rate × budget can overflow; it
                    // then never burns.
                    let need = (*rate_milli as u128 * *budget_ppm as u128).checked_mul(t as u128);
                    t > 0 && need.is_some_and(|need| (e as u128) * 1_000_000_000 >= need)
                };
                let breached = burns(ef, tf) && burns(es, ts);
                let detail = format!(
                    "fast={ef}/{tf} slow={es}/{ts} budget_ppm={budget_ppm} rate_milli={rate_milli}"
                );
                (breached, detail, None)
            }
        }
    }
}

struct RuleRuntime {
    name: String,
    check: Check,
    machine: AlertMachine,
}

/// One alert state-machine transition, with the windowed numbers that
/// justified it and (for firing latency rules, when tracing is on) the
/// worst offending exemplar.
#[derive(Debug, Clone)]
pub struct AlertTransition {
    /// Evaluation tick (1-based).
    pub(crate) tick: u64,
    /// Virtual time of the tick, nanoseconds.
    pub(crate) t_ns: u64,
    /// Rule name.
    pub(crate) rule: String,
    /// Which lifecycle edge this is.
    pub(crate) phase: Phase,
    /// Integer-rendered evidence (`ok=..`, `fast=..`, ...).
    pub(crate) detail: String,
    /// The histogram exemplar at/above the threshold, if one exists.
    pub(crate) exemplar: Option<Exemplar>,
}

impl AlertTransition {
    /// The one-line byte-stable rendering (the FIFO payload).
    pub fn render(&self) -> String {
        let mut out = format!(
            "alert rule={} phase={} tick={} t={}ns {}",
            self.rule,
            self.phase.name(),
            self.tick,
            self.t_ns,
            self.detail
        );
        if let Some(ex) = &self.exemplar {
            out.push_str(&format!(" exemplar={:016x}:{}ns", ex.trace, ex.value));
        }
        out
    }
}

fn ticks_for(window: Duration, interval: Duration) -> usize {
    let w = window.as_nanos().max(1);
    let i = interval.as_nanos().max(1);
    (w.div_ceil(i)) as usize
}

/// The SLO evaluation engine: owns every rule's windows and alert
/// machine, and is stepped once per tick against the live registry.
/// Pure and synchronous — the cloud layer owns the virtual-clock task
/// that drives it, so the engine itself is trivially testable.
pub struct SloEngine {
    rules: Vec<RuleRuntime>,
    tick: u64,
}

impl SloEngine {
    /// Builds the engine for rules evaluated every `interval`. Window
    /// durations are converted to whole ticks (rounding up).
    pub fn new(rules: Vec<SloRule>, interval: Duration) -> Self {
        let rules = rules
            .into_iter()
            .map(|rule| RuleRuntime {
                machine: AlertMachine::new(rule.for_ticks, rule.clear_ticks),
                check: Check::new(rule.kind, interval),
                name: rule.name,
            })
            .collect();
        SloEngine { rules, tick: 0 }
    }

    /// Evaluates every rule against the registry at virtual time
    /// `now_ns`, returning the transitions this tick caused (in rule
    /// declaration order — deterministic).
    pub fn tick(&mut self, metrics: &Metrics, now_ns: u64) -> Vec<AlertTransition> {
        self.tick += 1;
        let tick = self.tick;
        let mut out = Vec::new();
        for rt in &mut self.rules {
            let (breached, detail, exemplar) = rt.check.eval(metrics);
            if let Some(phase) = rt.machine.step(breached) {
                out.push(AlertTransition {
                    tick,
                    t_ns: now_ns,
                    rule: rt.name.clone(),
                    phase,
                    detail,
                    exemplar,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_latency_form() {
        let r =
            SloRule::parse("rest-p99: p99(rest.request_ns) < 300ms over 5s for 2 clear 3").unwrap();
        assert_eq!(r.name, "rest-p99");
        assert_eq!(r.for_ticks, 2);
        assert_eq!(r.clear_ticks, 3);
        match r.kind {
            RuleKind::Latency(LatencyRule {
                hist,
                target_num,
                target_den,
                threshold_ns,
                window,
            }) => {
                assert_eq!(hist.family, "rest.request_ns");
                assert!(hist.labels.is_empty());
                assert_eq!((target_num, target_den), (99, 100));
                assert_eq!(threshold_ns, 300_000_000);
                assert_eq!(window, Duration::from_secs(5));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn parses_fractional_quantiles_and_labels() {
        let r = SloRule::parse("hot: p99.9(k.op_ns{op=\"read\"}) < 50us over 2s").unwrap();
        match r.kind {
            RuleKind::Latency(LatencyRule {
                hist,
                target_num,
                target_den,
                threshold_ns,
                ..
            }) => {
                assert_eq!(hist.labels, vec![("op".to_string(), "read".to_string())]);
                assert_eq!((target_num, target_den), (999, 1000));
                assert_eq!(threshold_ns, 50_000);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(r.for_ticks, 1);
    }

    #[test]
    fn parses_the_burn_form() {
        let r = SloRule::parse(
            "err-burn: burn(kernel.errors / kernel.ops) budget 0.1% fast 5s slow 30s rate 14.4",
        )
        .unwrap();
        match r.kind {
            RuleKind::Burn(BurnRule {
                err,
                total,
                budget_ppm,
                rate_milli,
                fast,
                slow,
            }) => {
                assert_eq!(err.family, "kernel.errors");
                assert_eq!(total.family, "kernel.ops");
                assert_eq!(budget_ppm, 1_000);
                assert_eq!(rate_milli, 14_400);
                assert_eq!(fast, Duration::from_secs(5));
                assert_eq!(slow, Duration::from_secs(30));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "no-colon p99(x) < 1ms over 1s",
            "r: p0(x) < 1ms over 1s",
            "r: p100(x) < 1ms over 1s",
            "r: p99(x) over 1s",
            "r: p99(x) < 1ms",
            "r: burn(a / b) fast 1s slow 2s",
            "r: burn(a) budget 1% fast 1s slow 2s",
            "r: p99(x) < 1parsec over 1s",
            "r: frob(x) < 1ms over 1s",
        ] {
            assert!(SloRule::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn window_diff_counts_each_increment_once_per_window() {
        let mut w = WindowDiff::new(3);
        let increments = [5u64, 0, 2, 7, 1, 0, 4];
        let mut cum = 0;
        for (i, inc) in increments.iter().enumerate() {
            cum += inc;
            let delta = w.push(cum);
            let lo = i.saturating_sub(2);
            let expect: u64 = increments[lo..=i].iter().sum();
            assert_eq!(delta, expect, "tick {i}");
        }
    }

    #[test]
    fn latency_rule_breaches_and_recovers() {
        let m = Metrics::new();
        let h = m.histogram("svc.lat_ns", &[]);
        let rule = SloRule::parse("lat: p50(svc.lat_ns) < 1ms over 2s").unwrap();
        let mut eng = SloEngine::new(vec![rule], Duration::from_secs(1));

        // Tick 1: all fast → within SLO, no transition.
        for _ in 0..10 {
            h.record(100_000);
        }
        assert!(eng.tick(&m, 1_000_000_000).is_empty());
        // Tick 2: a slow burst pushes the windowed p50 over 1ms.
        for _ in 0..30 {
            h.record(50_000_000);
        }
        let t = eng.tick(&m, 2_000_000_000);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, Phase::Firing);
        assert!(t[0].detail.starts_with("ok=10/40 "), "{}", t[0].detail);
        // Tick 3: a flood of fast samples outweighs the burst still in
        // the window; the rule resolves (clear = 1 tick).
        for _ in 0..200 {
            h.record(100_000);
        }
        let t = eng.tick(&m, 3_000_000_000);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, Phase::Resolved);
        assert!(eng.tick(&m, 4_000_000_000).is_empty());
    }

    #[test]
    fn burn_rule_needs_both_windows() {
        let m = Metrics::new();
        let errs = m.counter("svc.errors", &[]);
        let total = m.counter("svc.ops", &[]);
        let rule =
            SloRule::parse("burn: burn(svc.errors / svc.ops) budget 1% fast 1s slow 3s rate 2")
                .unwrap();
        let mut eng = SloEngine::new(vec![rule], Duration::from_secs(1));

        // Burn of exactly 2% error ratio = burn rate 2.0 against a 1%
        // budget — at threshold, so it breaches (≥).
        total.add(100);
        errs.add(2);
        let t = eng.tick(&m, 1);
        assert_eq!(t.len(), 1, "fast and slow windows both cover tick 1");
        assert_eq!(t[0].phase, Phase::Firing);

        // Clean traffic dilutes the fast window below the rate first;
        // the slow window still burns, but both are required.
        total.add(1000);
        let t = eng.tick(&m, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, Phase::Resolved);
    }

    #[test]
    fn empty_windows_are_vacuously_healthy() {
        let m = Metrics::new();
        m.histogram("quiet.ns", &[]);
        let rule = SloRule::parse("q: p99(quiet.ns) < 1ms over 1s").unwrap();
        let mut eng = SloEngine::new(vec![rule], Duration::from_secs(1));
        for t in 1..=5 {
            assert!(eng.tick(&m, t).is_empty());
        }
        // A selector that matches nothing at all behaves the same.
        let rule2 = SloRule::parse("q2: p99(absent.ns) < 1ms over 1s").unwrap();
        let mut eng2 = SloEngine::new(vec![rule2], Duration::from_secs(1));
        assert!(eng2.tick(&m, 1).is_empty());
    }

    #[test]
    fn transitions_render_byte_stably() {
        let t = AlertTransition {
            tick: 7,
            t_ns: 7_000_000_000,
            rule: "rest-p99".into(),
            phase: Phase::Firing,
            detail: "ok=90/100 target=99/100 le=300000000ns".into(),
            exemplar: Some(Exemplar {
                bucket_lo: 402653184,
                value: 412_345_678,
                trace: 0xdead_beef,
                seq: 3,
            }),
        };
        assert_eq!(
            t.render(),
            "alert rule=rest-p99 phase=firing tick=7 t=7000000000ns \
             ok=90/100 target=99/100 le=300000000ns exemplar=00000000deadbeef:412345678ns"
        );
    }
}
