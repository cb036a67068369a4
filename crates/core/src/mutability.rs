//! Object mutability levels and the Figure-1 transition lattice.
//!
//! §3.3: "PCSI allows objects to be configured to one of four mutability
//! levels. These levels and the transitions allowed between them are shown
//! in Figure 1." The figure names `MUTABLE`, `FIXED_SIZE`, `APPEND_ONLY`
//! and `IMMUTABLE`. The text pins the semantics: transitions only ever
//! *restrict* (an `APPEND_ONLY` prefix is safely cacheable once written;
//! `IMMUTABLE` objects get object-storage efficiency), so the lattice is
//!
//! ```text
//! MUTABLE ──► FIXED_SIZE ──► IMMUTABLE
//!    │                          ▲
//!    ├──────► APPEND_ONLY ──────┤
//!    └──────────────────────────┘
//! ```
//!
//! plus the trivial self-transition at every level. `FIXED_SIZE` and
//! `APPEND_ONLY` are incomparable (neither restricts the other), so no
//! transition connects them.

use std::fmt;

use pcsi_proto::binary::{DecodeError, Reader, Writer};

use crate::error::PcsiError;

/// The four mutability levels of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutability {
    /// Arbitrary in-place updates and resizes.
    Mutable,
    /// Contents may change but the size is frozen (enables preallocated
    /// placement and in-place replication).
    FixedSize,
    /// Bytes may only be added at the end; the written prefix is stable
    /// and may be cached anywhere (§3.3).
    AppendOnly,
    /// Frozen; implementable on proven cloud object storage.
    Immutable,
}

impl Mutability {
    /// All four levels, in lattice order (most to least permissive).
    pub const ALL: [Mutability; 4] = [
        Mutability::Mutable,
        Mutability::FixedSize,
        Mutability::AppendOnly,
        Mutability::Immutable,
    ];

    /// True if Figure 1 permits a transition from `self` to `to`.
    ///
    /// Self-transitions are allowed (no-ops).
    ///
    /// # Examples
    ///
    /// ```
    /// use pcsi_core::Mutability;
    ///
    /// assert!(Mutability::Mutable.can_transition_to(Mutability::AppendOnly));
    /// assert!(Mutability::AppendOnly.can_transition_to(Mutability::Immutable));
    /// assert!(!Mutability::Immutable.can_transition_to(Mutability::Mutable));
    /// assert!(!Mutability::AppendOnly.can_transition_to(Mutability::FixedSize));
    /// ```
    pub fn can_transition_to(self, to: Mutability) -> bool {
        use Mutability::*;
        matches!(
            (self, to),
            (Mutable, _)
                | (FixedSize, FixedSize)
                | (FixedSize, Immutable)
                | (AppendOnly, AppendOnly)
                | (AppendOnly, Immutable)
                | (Immutable, Immutable)
        )
    }

    /// Checked transition; `Err` carries both levels for diagnostics.
    pub fn transition_to(self, to: Mutability) -> Result<Mutability, PcsiError> {
        if self.can_transition_to(to) {
            Ok(to)
        } else {
            Err(PcsiError::InvalidMutabilityTransition { from: self, to })
        }
    }

    /// True if in-place overwrites are allowed at this level.
    pub fn allows_write(self) -> bool {
        matches!(self, Mutability::Mutable | Mutability::FixedSize)
    }

    /// True if appends are allowed at this level.
    pub fn allows_append(self) -> bool {
        matches!(self, Mutability::Mutable | Mutability::AppendOnly)
    }

    /// True if the object's size may change.
    pub fn allows_resize(self) -> bool {
        matches!(self, Mutability::Mutable | Mutability::AppendOnly)
    }

    /// Writes the level as its one wire byte, `0` to `3` in the order of
    /// [`Mutability::ALL`]: the form every binary protocol carries it in.
    pub fn encode(self, w: &mut Writer) {
        w.u8(match self {
            Mutability::Mutable => 0,
            Mutability::FixedSize => 1,
            Mutability::AppendOnly => 2,
            Mutability::Immutable => 3,
        });
    }

    /// Reads a level written by [`Mutability::encode`].
    pub fn decode(r: &mut Reader) -> Result<Mutability, DecodeError> {
        match r.u8()? {
            b @ 0..=3 => Ok(Mutability::ALL[usize::from(b)]),
            b => Err(DecodeError::BadTag(b)),
        }
    }

    /// The canonical paper spelling (`MUTABLE`, `APPEND_ONLY`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Mutability::Mutable => "MUTABLE",
            Mutability::FixedSize => "FIXED_SIZE",
            Mutability::AppendOnly => "APPEND_ONLY",
            Mutability::Immutable => "IMMUTABLE",
        }
    }

    /// The full 4×4 transition matrix, `matrix[from][to]`, in the order of
    /// [`Mutability::ALL`]. Used by the Figure-1 report generator.
    pub fn transition_matrix() -> [[bool; 4]; 4] {
        let mut m = [[false; 4]; 4];
        for (i, from) in Mutability::ALL.into_iter().enumerate() {
            for (j, to) in Mutability::ALL.into_iter().enumerate() {
                m[i][j] = from.can_transition_to(to);
            }
        }
        m
    }
}

impl fmt::Display for Mutability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_matrix_exact() {
        use Mutability::*;
        // Rows/cols: Mutable, FixedSize, AppendOnly, Immutable.
        let expected = [
            [true, true, true, true],
            [false, true, false, true],
            [false, false, true, true],
            [false, false, false, true],
        ];
        assert_eq!(Mutability::transition_matrix(), expected);
        // Spot checks mirroring the figure's arrows.
        assert!(Mutable.can_transition_to(FixedSize));
        assert!(Mutable.can_transition_to(AppendOnly));
        assert!(Mutable.can_transition_to(Immutable));
        assert!(FixedSize.can_transition_to(Immutable));
        assert!(AppendOnly.can_transition_to(Immutable));
        assert!(!FixedSize.can_transition_to(AppendOnly));
        assert!(!AppendOnly.can_transition_to(FixedSize));
        assert!(!Immutable.can_transition_to(Mutable));
    }

    #[test]
    fn wire_byte_is_the_position_in_all() {
        for (i, m) in Mutability::ALL.into_iter().enumerate() {
            let mut w = Writer::with_capacity(1);
            m.encode(&mut w);
            let frame = w.finish();
            assert_eq!(&frame[..], [i as u8]);
            assert_eq!(Mutability::decode(&mut Reader::new(&frame)), Ok(m));
        }
        assert_eq!(
            Mutability::decode(&mut Reader::over(&[4])),
            Err(DecodeError::BadTag(4))
        );
    }

    #[test]
    fn transitions_never_regain_capabilities() {
        // Monotonicity: if a transition is allowed, the target must not
        // allow any operation class the source forbade.
        for from in Mutability::ALL {
            for to in Mutability::ALL {
                if from.can_transition_to(to) {
                    assert!(
                        !to.allows_write() || from.allows_write(),
                        "{from} -> {to} regained write"
                    );
                    assert!(
                        !to.allows_append() || from.allows_append(),
                        "{from} -> {to} regained append"
                    );
                }
            }
        }
    }

    #[test]
    fn immutable_is_terminal() {
        for to in Mutability::ALL {
            assert_eq!(
                Mutability::Immutable.can_transition_to(to),
                to == Mutability::Immutable
            );
        }
    }

    #[test]
    fn checked_transition_errors_carry_context() {
        let err = Mutability::Immutable
            .transition_to(Mutability::Mutable)
            .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("IMMUTABLE") && text.contains("MUTABLE"),
            "{text}"
        );
    }

    #[test]
    fn operation_predicates() {
        assert!(Mutability::Mutable.allows_write());
        assert!(Mutability::Mutable.allows_append());
        assert!(Mutability::FixedSize.allows_write());
        assert!(!Mutability::FixedSize.allows_append());
        assert!(!Mutability::FixedSize.allows_resize());
        assert!(!Mutability::AppendOnly.allows_write());
        assert!(Mutability::AppendOnly.allows_append());
        assert!(!Mutability::Immutable.allows_write());
        assert!(!Mutability::Immutable.allows_append());
    }
}
