//! Reachability garbage collection.
//!
//! §3.2: "PCSI makes object reachability explicit. An object is only
//! accessible by functions that hold a reference to it or to a namespace
//! containing it. ... Another benefit is automated resource reclamation
//! for unreachable objects."
//!
//! The collector is a classic mark-and-sweep over the object graph:
//! *roots* are the objects named by live kernel references and tenant
//! namespace roots; *edges* are directory entries (a directory reaches
//! every object it names). The kernel supplies both; this module supplies
//! the algorithm and the sweep.

use fxhash::FxHashSet;

use pcsi_core::ObjectId;

use crate::store::ReplicatedStore;

/// Computes the unreachable subset of `all_objects`.
///
/// `edges(id)` returns the ids directly reachable from `id` (directory
/// entries; empty for leaf objects). The result is sorted for
/// deterministic sweeps.
///
/// # Examples
///
/// ```
/// use pcsi_core::ObjectId;
/// use pcsi_store::gc::mark;
///
/// let a = ObjectId::from_parts(1, 1);
/// let b = ObjectId::from_parts(1, 2);
/// let orphan = ObjectId::from_parts(1, 3);
/// // a -> b, orphan unreferenced.
/// let unreachable = mark(
///     [a],
///     |id| if id == a { vec![b] } else { vec![] },
///     vec![a, b, orphan],
/// );
/// assert_eq!(unreachable, vec![orphan]);
/// ```
pub fn mark(
    roots: impl IntoIterator<Item = ObjectId>,
    edges: impl Fn(ObjectId) -> Vec<ObjectId>,
    all_objects: Vec<ObjectId>,
) -> Vec<ObjectId> {
    let mut live: FxHashSet<ObjectId> = FxHashSet::default();
    let mut stack: Vec<ObjectId> = roots.into_iter().collect();
    while let Some(id) = stack.pop() {
        if live.insert(id) {
            stack.extend(edges(id));
        }
    }
    let mut dead: Vec<ObjectId> = all_objects
        .into_iter()
        .filter(|id| !live.contains(id))
        .collect();
    dead.sort_unstable();
    dead.dedup();
    dead
}

/// Removes `unreachable` objects from every replica engine.
///
/// Returns the number of `(object, replica)` evictions performed. Sweeping
/// goes straight to the engines (no replication protocol round): GC is a
/// provider-internal activity, and tombstone bookkeeping is unnecessary
/// because unreachable objects can never be named again.
pub fn sweep(store: &ReplicatedStore, unreachable: &[ObjectId]) -> usize {
    let mut evictions = 0;
    for replica in store.replicas() {
        replica.with_engine(|engine| {
            for &id in unreachable {
                evictions += usize::from(engine.evict(id));
            }
        });
    }
    evictions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(7, n)
    }

    #[test]
    fn empty_roots_kill_everything() {
        let all = vec![oid(1), oid(2)];
        let dead = mark(Vec::<ObjectId>::new(), |_| vec![], all.clone());
        let mut expected = all;
        expected.sort_unstable(); // `mark` returns sorted ids.
        assert_eq!(dead, expected);
    }

    #[test]
    fn chains_and_cycles_stay_live() {
        // 1 -> 2 -> 3 -> 1 (cycle), root at 1; 4 dangles.
        let edges = |id: ObjectId| -> Vec<ObjectId> {
            if id == oid(1) {
                vec![oid(2)]
            } else if id == oid(2) {
                vec![oid(3)]
            } else if id == oid(3) {
                vec![oid(1)]
            } else {
                vec![]
            }
        };
        let dead = mark([oid(1)], edges, vec![oid(1), oid(2), oid(3), oid(4)]);
        assert_eq!(dead, vec![oid(4)]);
    }

    #[test]
    fn multiple_roots_union() {
        let dead = mark([oid(1), oid(5)], |_| vec![], vec![oid(1), oid(2), oid(5)]);
        assert_eq!(dead, vec![oid(2)]);
    }

    #[test]
    fn roots_not_in_object_list_are_harmless() {
        // A root can be a kernel-held reference to an already-swept id.
        let dead = mark([oid(9)], |_| vec![], vec![oid(1)]);
        assert_eq!(dead, vec![oid(1)]);
    }
}
