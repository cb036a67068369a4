//! Replica placement: consistent hashing over virtual nodes.
//!
//! Each ring member contributes `VNODES_PER_NODE` points on a 64-bit
//! hash ring. An object's candidate order is the distinct-node order of a
//! clockwise walk from the object's own hash point; the replica set is
//! drawn from that order preferring distinct racks, so a rack failure
//! cannot take out a whole replica set. The first replica in the set is
//! the object's *primary* (the mutation serializer).
//!
//! Unlike the seed's static rendezvous placement, the ring is **mutable**:
//! [`Placement::begin_join`] / [`Placement::begin_leave`] change the
//! membership, bump the topology *epoch*, and pin every object whose
//! replica set changed to its old owners until a background migration
//! calls [`Placement::complete_move`]. All clones of a `Placement` share
//! one ring (`Rc` inner), so replicas, clients, and the kernel observe a
//! topology change at the same instant. Nothing derived from the ring is
//! remembered between lookups, so nothing can go stale across a change.

use std::cell::RefCell;
use std::rc::Rc;

use fxhash::FxHashMap;
use pcsi_core::ObjectId;
use pcsi_net::{NodeId, Topology};

/// Virtual nodes contributed to the ring by each member.
pub(crate) const VNODES_PER_NODE: u32 = 64;

/// An object pinned to its pre-change replica set while data moves.
#[derive(Debug, Clone)]
struct MoveState {
    /// The replica set that owns the data until the move completes.
    old: Vec<NodeId>,
    /// While frozen, replicas reject coordinate/apply for the object so
    /// the migration snapshot cannot race a committing write.
    frozen: bool,
}

#[derive(Debug)]
struct RingState {
    /// Monotonic topology epoch; bumped by every join/leave.
    epoch: u64,
    /// Current ring members with their racks, sorted by node id.
    members: Vec<(NodeId, u32)>,
    /// Distinct racks among `members`: the most replicas the
    /// rack-distinct pass of [`RingState::select`] can pick.
    n_racks: usize,
    /// Sorted vnode points: (point, node, rack).
    ring: Vec<(u64, NodeId, u32)>,
    /// In-flight migrations: object -> pinned old owners.
    moves: FxHashMap<ObjectId, MoveState>,
}

impl RingState {
    fn rebuild_ring(&mut self) {
        self.ring.clear();
        for &(n, rack) in &self.members {
            for v in 0..VNODES_PER_NODE {
                self.ring.push((vnode_point(n, v), n, rack));
            }
        }
        // NodeId tiebreak on equal points for full determinism.
        self.ring.sort_unstable_by_key(|a| (a.0, a.1));
        let mut racks: Vec<u32> = self.members.iter().map(|&(_, rack)| rack).collect();
        racks.sort_unstable();
        racks.dedup();
        self.n_racks = racks.len();
    }

    /// The ring-derived replica set (ignores move pins), primary first:
    /// the first node seen of each rack on a clockwise walk from the
    /// object's point, then — only when racks < replicas — the remaining
    /// nodes in first-appearance order. Both are tests on the vnodes
    /// already walked, so a lookup keeps no state, allocates nothing and
    /// ends at its last pick: a handful of vnodes, not the ring.
    fn select(&self, id: ObjectId, n_replicas: usize) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert!(n_replicas <= self.members.len());
        let h = object_point(id);
        let ring = self.ring.as_slice();
        let start = ring.partition_point(|&(p, _, _)| p < h);
        let walk = move || ring[start..].iter().chain(&ring[..start]);
        let distinct = n_replicas.min(self.n_racks);
        let rack_firsts = walk()
            .enumerate()
            .filter(move |&(i, v)| walk().take(i).all(|seen| seen.2 != v.2))
            .take(distinct);
        let fill = walk()
            .enumerate()
            .filter(move |&(i, v)| {
                walk().take(i).all(|seen| seen.1 != v.1) && walk().take(i).any(|seen| seen.2 == v.2)
            })
            .take(n_replicas - distinct);
        rack_firsts.chain(fill).map(|(_, v)| v.1)
    }

    /// The *effective* replica set, primary first: the pinned old owners
    /// mid-migration, the ring walk otherwise.
    fn effective(&self, id: ObjectId, n_replicas: usize) -> impl Iterator<Item = NodeId> + '_ {
        let pinned = self.moves.get(&id).map_or(&[][..], |mv| &mv.old);
        let from_ring = if pinned.is_empty() { n_replicas } else { 0 };
        pinned.iter().copied().chain(self.select(id, from_ring))
    }
}

#[derive(Debug)]
struct PlacementInner {
    n_replicas: usize,
    state: RefCell<RingState>,
}

/// Deterministic, shared, epoch-versioned replica-set computation.
///
/// Cloning is cheap and **shares** the ring: a topology change through any
/// clone is visible to all of them.
#[derive(Debug, Clone)]
pub struct Placement {
    inner: Rc<PlacementInner>,
}

impl Placement {
    /// Creates a placement over `storage_nodes` with `n_replicas` copies.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero or exceeds the node count.
    pub fn new(topology: &Topology, storage_nodes: Vec<NodeId>, n_replicas: usize) -> Self {
        assert!(n_replicas >= 1, "need at least one replica");
        assert!(
            n_replicas <= storage_nodes.len(),
            "n_replicas {} exceeds {} storage nodes",
            n_replicas,
            storage_nodes.len()
        );
        let mut members: Vec<(NodeId, u32)> = storage_nodes
            .into_iter()
            .map(|n| (n, topology.spec(n).rack))
            .collect();
        members.sort_unstable_by_key(|&(n, _)| n);
        let mut state = RingState {
            epoch: 1,
            members,
            n_racks: 0,
            ring: Vec::new(),
            moves: FxHashMap::default(),
        };
        state.rebuild_ring();
        Placement {
            inner: Rc::new(PlacementInner {
                n_replicas,
                state: RefCell::new(state),
            }),
        }
    }

    /// Replication factor.
    pub(crate) fn replication_factor(&self) -> usize {
        self.inner.n_replicas
    }

    /// Majority quorum size (`floor(n/2) + 1`).
    pub(crate) fn majority(&self) -> usize {
        self.inner.n_replicas / 2 + 1
    }

    /// The current ring members.
    pub fn storage_nodes(&self) -> Vec<NodeId> {
        let st = self.inner.state.borrow();
        st.members.iter().map(|(n, _)| *n).collect()
    }

    /// True if `node` is a current ring member.
    pub fn is_member(&self, node: NodeId) -> bool {
        let st = self.inner.state.borrow();
        st.members.iter().any(|&(n, _)| n == node)
    }

    /// The current topology epoch (starts at 1, bumped by join/leave).
    pub fn epoch(&self) -> u64 {
        self.inner.state.borrow().epoch
    }

    /// The *effective* replica set for an object, primary first.
    ///
    /// Rack-aware: replicas are drawn from distinct racks while distinct
    /// racks remain, then filled from the remaining ring-order candidates.
    /// An object mid-migration stays pinned to its old owners until
    /// [`Placement::complete_move`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pcsi_net::Topology;
    /// use pcsi_store::Placement;
    /// use pcsi_core::ObjectId;
    ///
    /// let topo = Topology::uniform(3, 2);
    /// let p = Placement::new(&topo, topo.node_ids(), 3);
    /// let set = p.replicas(ObjectId::from_parts(1, 42));
    /// assert_eq!(set.len(), 3);
    /// // Deterministic:
    /// assert_eq!(set, p.replicas(ObjectId::from_parts(1, 42)));
    /// ```
    pub fn replicas(&self, id: ObjectId) -> Vec<NodeId> {
        let st = self.inner.state.borrow();
        let mut replicas = Vec::with_capacity(self.inner.n_replicas);
        replicas.extend(st.effective(id, self.inner.n_replicas));
        replicas
    }

    /// The ring-derived *target* replica set, ignoring move pins.
    ///
    /// During a migration this is where the data is headed; once
    /// [`Placement::complete_move`] runs it coincides with
    /// [`Placement::replicas`].
    pub(crate) fn ring_replicas(&self, id: ObjectId) -> Vec<NodeId> {
        let st = self.inner.state.borrow();
        st.select(id, self.inner.n_replicas).collect()
    }

    /// True when `node` is in the effective replica set of `id` (no
    /// clone; replica-side membership checks run per request).
    pub fn is_replica(&self, id: ObjectId, node: NodeId) -> bool {
        let st = self.inner.state.borrow();
        let mut set = st.effective(id, self.inner.n_replicas);
        set.any(|n| n == node)
    }

    /// The primary (mutation serializer) for an object.
    pub fn primary(&self, id: ObjectId) -> NodeId {
        let st = self.inner.state.borrow();
        let mut set = st.effective(id, self.inner.n_replicas);
        set.next().expect("replica set non-empty")
    }

    /// The replica of `id` closest to `from` (used by eventual reads).
    pub fn closest_replica(&self, topology: &Topology, id: ObjectId, from: NodeId) -> NodeId {
        let st = self.inner.state.borrow();
        let set = st.effective(id, self.inner.n_replicas);
        set.min_by_key(|&r| (topology.hop_class(from, r), r))
            .expect("replica set non-empty")
    }

    /// Adds `node` to the ring, bumps the epoch, and pins every object in
    /// `objects` whose replica set changed to its old owners. Returns the
    /// newly pinned objects (sorted); [`Placement::pending_moves`] holds
    /// the full migration queue, including pins from earlier changes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already a ring member.
    pub fn begin_join(
        &self,
        topology: &Topology,
        node: NodeId,
        objects: &[ObjectId],
    ) -> Vec<ObjectId> {
        let rack = topology.spec(node).rack;
        let mut st = self.inner.state.borrow_mut();
        assert!(
            !st.members.iter().any(|&(n, _)| n == node),
            "node {node:?} already in ring"
        );
        let n_replicas = self.inner.n_replicas;
        let old_sets: Vec<(ObjectId, Vec<NodeId>)> = objects
            .iter()
            .map(|&id| (id, st.select(id, n_replicas).collect()))
            .collect();
        st.members.push((node, rack));
        st.members.sort_unstable_by_key(|&(n, _)| n);
        st.rebuild_ring();
        st.epoch += 1;
        Self::pin_changed(&mut st, old_sets, n_replicas)
    }

    /// Removes `node` from the ring, bumps the epoch, and pins every
    /// object in `objects` whose replica set changed to its old owners
    /// (which may include the departing node — it keeps serving until the
    /// data moves). Returns the newly pinned objects (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member or removal would leave fewer
    /// members than the replication factor.
    pub fn begin_leave(&self, node: NodeId, objects: &[ObjectId]) -> Vec<ObjectId> {
        let mut st = self.inner.state.borrow_mut();
        let n_replicas = self.inner.n_replicas;
        assert!(
            st.members.iter().any(|&(n, _)| n == node),
            "node {node:?} not in ring"
        );
        assert!(
            st.members.len() > n_replicas,
            "removing {node:?} leaves fewer members than the replication factor"
        );
        let old_sets: Vec<(ObjectId, Vec<NodeId>)> = objects
            .iter()
            .map(|&id| (id, st.select(id, n_replicas).collect()))
            .collect();
        st.members.retain(|&(n, _)| n != node);
        st.rebuild_ring();
        st.epoch += 1;
        Self::pin_changed(&mut st, old_sets, n_replicas)
    }

    fn pin_changed(
        st: &mut RingState,
        old_sets: Vec<(ObjectId, Vec<NodeId>)>,
        n_replicas: usize,
    ) -> Vec<ObjectId> {
        let mut pinned = Vec::new();
        for (id, old) in old_sets {
            // An object already mid-move keeps its original pin: the data
            // still lives on those owners, only the target changed.
            if st.moves.contains_key(&id) {
                continue;
            }
            if !st.select(id, n_replicas).eq(old.iter().copied()) {
                st.moves.insert(id, MoveState { old, frozen: false });
                pinned.push(id);
            }
        }
        pinned.sort_unstable();
        pinned
    }

    /// Objects pinned to old owners, awaiting migration (sorted).
    pub fn pending_moves(&self) -> Vec<ObjectId> {
        let st = self.inner.state.borrow();
        let mut ids: Vec<ObjectId> = st.moves.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The pinned old replica set of an object mid-migration.
    pub(crate) fn move_old_set(&self, id: ObjectId) -> Option<Vec<NodeId>> {
        let st = self.inner.state.borrow();
        st.moves.get(&id).map(|mv| mv.old.clone())
    }

    /// Blocks coordinate/apply for a mid-move object while its state is
    /// snapshotted and installed on the new owners.
    ///
    /// # Panics
    ///
    /// Panics if the object has no pending move.
    pub(crate) fn freeze(&self, id: ObjectId) {
        let mut st = self.inner.state.borrow_mut();
        st.moves
            .get_mut(&id)
            .expect("freeze without a pending move")
            .frozen = true;
    }

    /// Re-admits writes for a mid-move object (no-op if the move is gone).
    pub(crate) fn unfreeze(&self, id: ObjectId) {
        let mut st = self.inner.state.borrow_mut();
        if let Some(mv) = st.moves.get_mut(&id) {
            mv.frozen = false;
        }
    }

    /// True while a migration holds the object's write path shut.
    pub(crate) fn is_frozen(&self, id: ObjectId) -> bool {
        let st = self.inner.state.borrow();
        st.moves.get(&id).is_some_and(|mv| mv.frozen)
    }

    /// Flips an object to its ring-derived owners: drops the pin (and any
    /// freeze) installed by `begin_join`/`begin_leave`.
    pub fn complete_move(&self, id: ObjectId) {
        let mut st = self.inner.state.borrow_mut();
        st.moves.remove(&id);
    }
}

/// Ring point of a vnode.
fn vnode_point(node: NodeId, vnode: u32) -> u64 {
    splitmix((u64::from(node.0) << 32) | u64::from(vnode))
}

/// Ring point of an object.
fn object_point(id: ObjectId) -> u64 {
    splitmix((id.as_u128() as u64) ^ ((id.as_u128() >> 64) as u64))
}

/// SplitMix64 finalizer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(4, n)
    }

    /// The replica-set computation `RingState::select` replaced, kept as
    /// the oracle: walk until every member has appeared, then pick
    /// rack-distinct candidates and fill from the rest.
    fn select_full_walk(st: &RingState, id: ObjectId, n_replicas: usize) -> Vec<NodeId> {
        let len = st.ring.len();
        let h = object_point(id);
        let start = st.ring.partition_point(|&(p, _, _)| p < h) % len;
        let mut cands: Vec<(NodeId, u32)> = Vec::with_capacity(st.members.len());
        let mut i = start;
        while cands.len() < st.members.len() {
            let (_, n, rack) = st.ring[i];
            if !cands.iter().any(|&(c, _)| c == n) {
                cands.push((n, rack));
            }
            i = (i + 1) % len;
        }
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n_replicas);
        let mut used_racks: Vec<u32> = Vec::new();
        for &(n, rack) in &cands {
            if chosen.len() == n_replicas {
                break;
            }
            if !used_racks.contains(&rack) {
                chosen.push(n);
                used_racks.push(rack);
            }
        }
        for &(n, _) in &cands {
            if chosen.len() == n_replicas {
                break;
            }
            if !chosen.contains(&n) {
                chosen.push(n);
            }
        }
        chosen
    }

    proptest! {
        /// The early-stopping walk picks exactly what the full walk did:
        /// any topology (including racks < replicas), before a join,
        /// after it, and after a leave.
        #[test]
        fn select_matches_the_full_walk(
            racks in 1u32..7,
            per_rack in 1u32..7,
            n_replicas in 1usize..6,
            spare in any::<usize>(),
            leaver in any::<usize>(),
            realm in any::<u64>(),
        ) {
            let topo = Topology::uniform(racks, per_rack);
            let mut nodes = topo.node_ids();
            prop_assume!(n_replicas < nodes.len());
            let spare = nodes.remove(spare % nodes.len());
            let p = Placement::new(&topo, nodes.clone(), n_replicas);
            let check = |p: &Placement| {
                let st = p.inner.state.borrow();
                for serial in 0..1_000 {
                    let id = ObjectId::from_parts(realm, serial);
                    let new: Vec<NodeId> = st.select(id, n_replicas).collect();
                    assert_eq!(new, select_full_walk(&st, id, n_replicas), "{id:?}");
                }
            };
            check(&p);
            p.begin_join(&topo, spare, &[]);
            check(&p);
            p.begin_leave(nodes[leaver % nodes.len()], &[]);
            check(&p);
        }
    }

    #[test]
    fn replica_sets_are_deterministic_and_distinct() {
        let topo = Topology::uniform(4, 4);
        let p = Placement::new(&topo, topo.node_ids(), 3);
        for i in 0..100 {
            let set = p.replicas(oid(i));
            assert_eq!(set.len(), 3);
            let mut dedup = set.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "duplicate replica in {set:?}");
            assert_eq!(set, p.replicas(oid(i)));
        }
    }

    #[test]
    fn replicas_span_racks() {
        let topo = Topology::uniform(4, 4);
        let p = Placement::new(&topo, topo.node_ids(), 3);
        for i in 0..100 {
            let set = p.replicas(oid(i));
            let mut racks: Vec<u32> = set.iter().map(|&n| topo.spec(n).rack).collect();
            racks.sort_unstable();
            racks.dedup();
            assert_eq!(racks.len(), 3, "replicas share a rack: {set:?}");
        }
    }

    #[test]
    fn load_spreads_across_nodes() {
        let topo = Topology::uniform(2, 4);
        let p = Placement::new(&topo, topo.node_ids(), 3);
        let mut primary_counts = vec![0u32; topo.len()];
        for i in 0..2_000 {
            primary_counts[p.primary(oid(i)).0 as usize] += 1;
        }
        let min = *primary_counts.iter().min().unwrap();
        let max = *primary_counts.iter().max().unwrap();
        assert!(min > 0, "some node never primary: {primary_counts:?}");
        assert!(
            f64::from(max) / f64::from(min) < 2.0,
            "unbalanced: {primary_counts:?}"
        );
    }

    #[test]
    fn majority_math() {
        let topo = Topology::uniform(2, 3);
        for (n, maj) in [(1, 1), (2, 2), (3, 2), (5, 3)] {
            let p = Placement::new(&topo, topo.node_ids(), n);
            assert_eq!(p.majority(), maj, "n = {n}");
        }
    }

    #[test]
    fn closest_replica_prefers_locality() {
        let topo = Topology::uniform(3, 3);
        let p = Placement::new(&topo, topo.node_ids(), 3);
        for i in 0..50 {
            let id = oid(i);
            let set = p.replicas(id);
            // Asking from a replica node returns that node itself.
            let from = set[1];
            assert_eq!(p.closest_replica(&topo, id, from), from);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_replicas_rejected() {
        let topo = Topology::uniform(1, 2);
        let _ = Placement::new(&topo, topo.node_ids(), 3);
    }

    #[test]
    fn clones_share_the_ring() {
        let topo = Topology::uniform(4, 3);
        let nodes = topo.node_ids();
        let p = Placement::new(&topo, nodes[..11].to_vec(), 3);
        let clone = p.clone();
        assert_eq!(clone.epoch(), 1);
        let moved = p.begin_join(&topo, nodes[11], &[]);
        assert!(moved.is_empty());
        assert_eq!(clone.epoch(), 2);
        assert!(clone.is_member(nodes[11]));
    }

    /// A replica set looked up before a join is not served afterwards:
    /// pins route to the old owners mid-move, and completion routes to
    /// the new owner set, through every clone.
    #[test]
    fn join_reroutes_through_every_clone() {
        let topo = Topology::uniform(4, 3);
        let nodes = topo.node_ids();
        let p = Placement::new(&topo, nodes[..11].to_vec(), 3);
        let clone = p.clone();
        let ids: Vec<ObjectId> = (0..500).map(oid).collect();
        let before: Vec<Vec<NodeId>> = ids.iter().map(|&id| clone.replicas(id)).collect();
        let moved = p.begin_join(&topo, nodes[11], &ids);
        assert!(!moved.is_empty(), "join relocated nothing");
        for (i, &id) in ids.iter().enumerate() {
            if moved.contains(&id) {
                // Pinned: still the old owners (data has not moved yet).
                assert_eq!(clone.replicas(id), before[i]);
                assert_eq!(p.move_old_set(id).unwrap(), before[i]);
                p.complete_move(id);
                // Flipped: the pre-join set must not resurface.
                assert_eq!(clone.replicas(id), p.ring_replicas(id));
                assert_ne!(clone.replicas(id), before[i]);
            } else {
                assert_eq!(clone.replicas(id), before[i], "unpinned set changed");
            }
        }
        // At least one relocated object now routes to the joined node.
        assert!(moved
            .iter()
            .any(|&id| clone.replicas(id).contains(&nodes[11])));
        assert!(p.pending_moves().is_empty());
    }

    #[test]
    fn join_pins_only_changed_sets_and_leave_restores() {
        let topo = Topology::uniform(4, 3);
        let nodes = topo.node_ids();
        let p = Placement::new(&topo, nodes[..11].to_vec(), 3);
        let ids: Vec<ObjectId> = (0..300).map(oid).collect();
        let before: Vec<Vec<NodeId>> = ids.iter().map(|&id| p.ring_replicas(id)).collect();
        let joined = p.begin_join(&topo, nodes[11], &ids);
        // Minimal movement: every changed set involves the joined node.
        for &id in &joined {
            assert!(p.ring_replicas(id).contains(&nodes[11]), "{id:?}");
            p.complete_move(id);
        }
        let left = p.begin_leave(nodes[11], &ids);
        assert_eq!(left, joined, "leave must relocate exactly the joined keys");
        for &id in &left {
            p.complete_move(id);
        }
        // Ring is a pure function of membership: sets are fully restored.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.ring_replicas(id), before[i]);
        }
        assert_eq!(p.epoch(), 3);
    }

    #[test]
    fn freeze_unfreeze_lifecycle() {
        let topo = Topology::uniform(4, 3);
        let nodes = topo.node_ids();
        let p = Placement::new(&topo, nodes[..11].to_vec(), 3);
        let ids: Vec<ObjectId> = (0..100).map(oid).collect();
        let moved = p.begin_join(&topo, nodes[11], &ids);
        let id = moved[0];
        assert!(!p.is_frozen(id));
        p.freeze(id);
        assert!(p.is_frozen(id));
        p.unfreeze(id);
        assert!(!p.is_frozen(id));
        p.freeze(id);
        p.complete_move(id);
        // Completion clears the freeze along with the pin.
        assert!(!p.is_frozen(id));
    }

    #[test]
    #[should_panic(expected = "already in ring")]
    fn double_join_rejected() {
        let topo = Topology::uniform(2, 2);
        let p = Placement::new(&topo, topo.node_ids(), 2);
        let _ = p.begin_join(&topo, topo.node_ids()[0], &[]);
    }

    #[test]
    #[should_panic(expected = "fewer members")]
    fn leave_below_replication_factor_rejected() {
        let topo = Topology::uniform(1, 3);
        let p = Placement::new(&topo, topo.node_ids(), 3);
        let _ = p.begin_leave(topo.node_ids()[0], &[]);
    }
}
