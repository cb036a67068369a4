//! Consistency checkers over recorded histories.
//!
//! * [`check_linearizable`] — a Wing–Gong-style search: try to order
//!   the concurrent history into a legal sequential register history
//!   that respects real-time precedence. Complete for single-register
//!   histories; memoization on (linearized-set, register-state) keeps
//!   it fast on the histories the harness produces.
//! * [`check_converged`] — after heal + anti-entropy quiescence, every
//!   replica of an object must hold byte-identical state at the same
//!   tag (the `Eventual` contract).
//! * [`check_reads_observe_writes`] — no read may return a value that
//!   was never written (validity, any consistency level).

use fxhash::FxHashSet;

use pcsi_core::ObjectId;
use pcsi_store::ReplicatedStore;

use crate::history::{Op, OpKind};

/// The checker can bitset at most this many ops per object.
pub(crate) const MAX_OPS_PER_OBJECT: usize = 128;

/// A contract violation found in a history (or in replica state).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Object the violation is on.
    pub object: ObjectId,
    /// Human-readable description, stable across runs of the same seed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "object {}: {}", self.object, self.detail)
    }
}

/// One operation compiled for the search.
struct COp {
    inv: u64,
    resp: u64,
    kind: CKind,
    required: bool,
}

enum CKind {
    Write(u64),
    Read(u64),
}

/// Checks that the ops on `object` form a linearizable register
/// history starting from `initial`.
///
/// Semantics of failure:
/// * a **failed read** observed nothing — it is dropped entirely,
/// * a **failed write** may still have taken effect (the primary can
///   apply before the quorum is lost), so it participates with an
///   unbounded response time and linearizes *optionally* — at any
///   point after its invocation, or never.
pub fn check_linearizable(object: ObjectId, initial: u64, ops: &[Op]) -> Result<(), Violation> {
    let mut compiled: Vec<COp> = Vec::new();
    for op in ops {
        debug_assert_eq!(op.object, object);
        match op.kind {
            OpKind::Write { value, ok } => compiled.push(COp {
                inv: op.invoke.as_nanos(),
                resp: if ok { op.response.as_nanos() } else { u64::MAX },
                kind: CKind::Write(value),
                required: ok,
            }),
            OpKind::Read { value: Some(v) } => compiled.push(COp {
                inv: op.invoke.as_nanos(),
                resp: op.response.as_nanos(),
                kind: CKind::Read(v),
                required: true,
            }),
            // Failed reads observed nothing.
            OpKind::Read { value: None } => {}
        }
    }
    assert!(
        compiled.len() <= MAX_OPS_PER_OBJECT,
        "history of {} ops on {object} exceeds the checker's {MAX_OPS_PER_OBJECT}-op bitset",
        compiled.len(),
    );

    let required_mask: u128 = compiled
        .iter()
        .enumerate()
        .filter(|(_, op)| op.required)
        .fold(0u128, |mask, (i, _)| mask | (1u128 << i));

    let mut memo: FxHashSet<(u128, u64)> = FxHashSet::default();
    if search(&compiled, required_mask, &mut memo, 0, initial) {
        return Ok(());
    }

    let mut detail = format!(
        "history of {} ops is not linearizable (initial value {initial:#x}):",
        compiled.len()
    );
    let mut sorted: Vec<&Op> = ops.iter().collect();
    sorted.sort_by_key(|op| (op.invoke, op.response));
    for op in sorted {
        detail.push_str("\n  ");
        detail.push_str(&op.render());
    }
    Err(Violation { object, detail })
}

/// Depth-first search for a legal linearization. An undone op is a
/// candidate next step iff no other undone op finished strictly before
/// it started (Wing–Gong "minimal operation" rule); reads must match
/// the register state at their linearization point.
fn search(
    ops: &[COp],
    required_mask: u128,
    memo: &mut FxHashSet<(u128, u64)>,
    done: u128,
    state: u64,
) -> bool {
    if done & required_mask == required_mask {
        return true;
    }
    if !memo.insert((done, state)) {
        return false;
    }
    let mut min_resp = u64::MAX;
    for (i, op) in ops.iter().enumerate() {
        if done & (1u128 << i) == 0 {
            min_resp = min_resp.min(op.resp);
        }
    }
    for (i, op) in ops.iter().enumerate() {
        if done & (1u128 << i) != 0 || op.inv > min_resp {
            continue;
        }
        let next_state = match op.kind {
            CKind::Write(v) => v,
            CKind::Read(v) => {
                if v != state {
                    continue;
                }
                state
            }
        };
        if search(ops, required_mask, memo, done | (1u128 << i), next_state) {
            return true;
        }
    }
    false
}

/// Checks that every replica of `object` holds byte-identical state at
/// the same tag. Call after heal + anti-entropy quiescence; an absent
/// copy on some replicas counts as divergence unless absent everywhere.
pub fn check_converged(store: &ReplicatedStore, object: ObjectId) -> Result<(), Violation> {
    let mut states: Vec<String> = Vec::new();
    for node in store.placement().replicas(object) {
        let replica = store
            .replica_on(node)
            .expect("placement returned a non-storage node");
        let state = replica.with_engine(|e| {
            e.get(object)
                .map(|o| format!("tag {} len {} data {:x?}", o.tag, o.data.len(), &o.data[..]))
                .unwrap_or_else(|| "absent".to_owned())
        });
        states.push(format!("{node}: {state}"));
    }
    let converged = states
        .windows(2)
        .all(|w| w[0].split_once(": ").map(|x| x.1) == w[1].split_once(": ").map(|x| x.1));
    if converged {
        Ok(())
    } else {
        Err(Violation {
            object,
            detail: format!(
                "replicas diverged after quiescence:\n  {}",
                states.join("\n  ")
            ),
        })
    }
}

/// Checks validity: every successful read observed `initial` or some
/// written value (failed writes included — they may have applied).
pub fn check_reads_observe_writes(
    object: ObjectId,
    initial: u64,
    ops: &[Op],
) -> Result<(), Violation> {
    let written: FxHashSet<u64> = ops
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Write { value, .. } => Some(value),
            _ => None,
        })
        .collect();
    for op in ops {
        if let OpKind::Read { value: Some(v) } = op.kind {
            if v != initial && !written.contains(&v) {
                return Err(Violation {
                    object,
                    detail: format!("read observed never-written value {v:#x}: {}", op.render()),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_net::NodeId;
    use pcsi_sim::SimTime;

    fn oid() -> ObjectId {
        ObjectId::from_parts(1, 1)
    }

    fn op(kind: OpKind, inv: u64, resp: u64) -> Op {
        Op {
            client: NodeId(0),
            object: oid(),
            kind,
            invoke: SimTime::from_nanos(inv),
            response: SimTime::from_nanos(resp),
        }
    }

    fn write(v: u64, inv: u64, resp: u64) -> Op {
        op(OpKind::Write { value: v, ok: true }, inv, resp)
    }

    fn read(v: u64, inv: u64, resp: u64) -> Op {
        op(OpKind::Read { value: Some(v) }, inv, resp)
    }

    #[test]
    fn empty_and_sequential_histories_pass() {
        assert!(check_linearizable(oid(), 0, &[]).is_ok());
        let h = [
            write(1, 0, 10),
            read(1, 20, 30),
            write(2, 40, 50),
            read(2, 60, 70),
        ];
        assert!(check_linearizable(oid(), 0, &h).is_ok());
    }

    #[test]
    fn concurrent_reads_may_see_either_side_of_a_write() {
        // The write spans [10, 50]; a concurrent read may see old or new.
        let old = [write(1, 10, 50), read(0, 20, 30)];
        let new = [write(1, 10, 50), read(1, 20, 30)];
        assert!(check_linearizable(oid(), 0, &old).is_ok());
        assert!(check_linearizable(oid(), 0, &new).is_ok());
    }

    #[test]
    fn stale_read_after_acknowledged_write_is_rejected() {
        // Write of 1 completed at t=10; a later read returning the
        // initial value is the classic freshness violation.
        let h = [write(1, 0, 10), read(0, 20, 30)];
        let err = check_linearizable(oid(), 0, &h).unwrap_err();
        assert!(err.detail.contains("not linearizable"), "{err}");
    }

    #[test]
    fn value_order_must_respect_real_time() {
        // W1 then W2 strictly after; a read strictly after both must
        // not see W1.
        let h = [write(1, 0, 10), write(2, 20, 30), read(1, 40, 50)];
        assert!(check_linearizable(oid(), 0, &h).is_err());
        // But a read concurrent with W2 may still see W1.
        let h = [write(1, 0, 10), write(2, 20, 30), read(1, 25, 50)];
        assert!(check_linearizable(oid(), 0, &h).is_ok());
    }

    #[test]
    fn failed_write_may_apply_late_or_never() {
        let failed = |v, inv, resp| {
            op(
                OpKind::Write {
                    value: v,
                    ok: false,
                },
                inv,
                resp,
            )
        };
        // Never applies: reads keep seeing the initial value.
        let h = [failed(1, 0, 10), read(0, 20, 30)];
        assert!(check_linearizable(oid(), 0, &h).is_ok());
        // Applies *after* its nominal response interval.
        let h = [failed(1, 0, 10), read(0, 20, 30), read(1, 40, 50)];
        assert!(check_linearizable(oid(), 0, &h).is_ok());
        // But it can't explain a value it never wrote.
        let h = [failed(1, 0, 10), read(2, 20, 30)];
        assert!(check_linearizable(oid(), 0, &h).is_err());
    }

    #[test]
    fn client_erred_write_is_optional_and_unordered() {
        // The recovery layer can surface an error to the client while a
        // (retried, failed-over) coordination still lands later. So a
        // client-erred write must linearize *optionally and unordered*:
        // at any point after its invocation — even after operations that
        // completed long past its nominal response — or never. A checker
        // that treated erred writes as definitely absent would reject
        // this history on the final read, which observes the erred
        // write's value after an intervening successful write.
        let failed = |v, inv, resp| {
            op(
                OpKind::Write {
                    value: v,
                    ok: false,
                },
                inv,
                resp,
            )
        };
        let h = [
            failed(1, 0, 10),
            write(2, 20, 30),
            read(2, 40, 50),
            read(1, 60, 70),
        ];
        assert!(check_linearizable(oid(), 0, &h).is_ok());
        // The same shape with a *successful* first write is a genuine
        // violation — only erred writes escape real-time order.
        let h = [
            write(1, 0, 10),
            write(2, 20, 30),
            read(2, 40, 50),
            read(1, 60, 70),
        ];
        assert!(check_linearizable(oid(), 0, &h).is_err());
    }

    #[test]
    fn failed_reads_are_ignored() {
        let h = [
            write(1, 0, 10),
            op(OpKind::Read { value: None }, 15, 18),
            read(1, 20, 30),
        ];
        assert!(check_linearizable(oid(), 0, &h).is_ok());
    }

    #[test]
    fn reads_observing_unwritten_values_fail_validity() {
        let h = [write(1, 0, 10), read(7, 20, 30)];
        let err = check_reads_observe_writes(oid(), 0, &h).unwrap_err();
        assert!(err.detail.contains("never-written"), "{err}");
        assert!(check_reads_observe_writes(oid(), 0, &h[..1]).is_ok());
    }
}
