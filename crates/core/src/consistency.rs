//! The two-item consistency menu (§3.3).
//!
//! "We propose supporting just two consistency models, a strong one and a
//! weak one." PCSI deliberately exposes only [`Consistency::Linearizable`]
//! and [`Consistency::Eventual`], hiding mechanism details (quorum sizes,
//! replica counts) from applications. The storage substrate maps these to
//! an ABD majority-quorum register and a sloppy-quorum/anti-entropy path
//! respectively (`pcsi-store`).

use std::fmt;

/// Per-object consistency level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Consistency {
    /// Single-copy semantics: every read observes the latest completed
    /// write (Herlihy & Wing linearizability).
    Linearizable,
    /// Reads may observe stale versions; replicas converge via
    /// anti-entropy (Vogels' eventual consistency). The cheap default for
    /// the scalable common case.
    #[default]
    Eventual,
}

impl Consistency {
    /// Both menu items.
    pub const ALL: [Consistency; 2] = [Consistency::Linearizable, Consistency::Eventual];

    /// Canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Consistency::Linearizable => "LINEARIZABLE",
            Consistency::Eventual => "EVENTUAL",
        }
    }
}

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_eventual() {
        assert_eq!(Consistency::default(), Consistency::Eventual);
    }

    #[test]
    fn menu_has_exactly_two_items() {
        // The paper's design point: a strong one and a weak one, no more.
        assert_eq!(Consistency::ALL.len(), 2);
    }
}
