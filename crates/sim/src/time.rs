//! Virtual time.
//!
//! The simulator measures time in integer nanoseconds since simulation
//! start. [`SimTime`] is an absolute instant; durations are the standard
//! library's [`std::time::Duration`], truncated to nanosecond precision
//! (durations longer than ~584 years saturate, which is far beyond any
//! simulated experiment).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An absolute instant on the simulation clock, in nanoseconds since start.
///
/// `SimTime` is `Copy`, totally ordered, and starts at [`SimTime::ZERO`].
///
/// # Examples
///
/// ```
/// use pcsi_sim::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_micros(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `us` microseconds after simulation start.
    #[cfg(test)]
    pub(crate) const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant `ms` milliseconds after simulation start.
    #[cfg(test)]
    pub(crate) const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant `s` seconds after simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Returns the number of whole nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the elapsed time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration since an earlier instant.
    ///
    /// Returns [`Duration::ZERO`] if `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        // Saturate rather than panic: an experiment sleeping "forever" should
        // park at the end of time, not abort the run.
        let ns = u64::try_from(rhs.as_nanos()).unwrap_or(u64::MAX);
        SimTime(self.0.saturating_add(ns))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// Duration since `rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can happen.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_nanos(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
    }
}

/// Formats a nanosecond count with a human-friendly unit.
fn format_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
    }

    #[test]
    fn add_sub_roundtrip() {
        let t = SimTime::from_micros(7);
        let d = Duration::from_nanos(123);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn add_saturates_at_end_of_time() {
        let t = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!((t + Duration::from_secs(10)).as_nanos(), u64::MAX);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_nanos(5);
        let late = SimTime::from_nanos(9);
        assert_eq!(late.saturating_since(early), Duration::from_nanos(4));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimTime::from_micros(50).to_string(), "50.000us");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_nanos(1_500_000);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
    }
}
