//! E3 — Figure 1: the object-mutability transition matrix.
//!
//! Regenerates the figure as the full 4×4 matrix (the figure draws the
//! allowed arrows; the matrix is its adjacency form), and verifies the
//! semantic invariants the lattice exists for.

use pcsi_core::Mutability;

/// The rendered matrix: `(level labels, matrix[from][to])`.
pub fn matrix() -> ([&'static str; 4], [[bool; 4]; 4]) {
    let labels = Mutability::ALL.map(Mutability::as_str);
    (labels, Mutability::transition_matrix())
}

/// The figure's arrows as `(from, to)` pairs (excluding self-loops).
pub fn arrows() -> Vec<(Mutability, Mutability)> {
    let mut out = Vec::new();
    for from in Mutability::ALL {
        for to in Mutability::ALL {
            if from != to && from.can_transition_to(to) {
                out.push((from, to));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_five_arrows() {
        // MUTABLE -> {FIXED_SIZE, APPEND_ONLY, IMMUTABLE},
        // FIXED_SIZE -> IMMUTABLE, APPEND_ONLY -> IMMUTABLE.
        let a = arrows();
        assert_eq!(a.len(), 5, "{a:?}");
        assert!(a.contains(&(Mutability::Mutable, Mutability::FixedSize)));
        assert!(a.contains(&(Mutability::Mutable, Mutability::AppendOnly)));
        assert!(a.contains(&(Mutability::Mutable, Mutability::Immutable)));
        assert!(a.contains(&(Mutability::FixedSize, Mutability::Immutable)));
        assert!(a.contains(&(Mutability::AppendOnly, Mutability::Immutable)));
    }

    #[test]
    fn matrix_diagonal_true() {
        let (_, m) = matrix();
        for (i, row) in m.iter().enumerate() {
            assert!(row[i], "self transition {i} must be allowed");
        }
    }
}
