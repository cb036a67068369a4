//! A linearizable write's ballot round (CASPaxos's register round over
//! [`Tag`]s, DESIGN §4.3) as pure decisions, which `replica.rs` runs
//! over the fabric.

use pcsi_core::PcsiError;

use crate::version::Tag;
use crate::wire::Response;

/// One object's ballots on one replica: the tag of the state accepted
/// last (a tombstone's included) and the ballot promised, by a prepare,
/// a migration's snapshot or seal, or its own accept winning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ballots {
    pub(crate) accepted: Tag,
    pub(crate) promised: Tag,
}

impl Ballots {
    /// The lowest ballot a round may get accepted at: the promise, or
    /// the next ballot of the accepted state's proposer, which accepting
    /// its state promised it (a seal's writer proposes nothing).
    pub(crate) fn floor(self) -> Tag {
        let next = match self.accepted.writer {
            u32::MAX => Tag::ZERO,
            writer => self.accepted.next(writer),
        };
        self.promised.max(next)
    }
}

/// What a replica does with a state offered at `ballot`, built on `base`.
#[derive(Debug, PartialEq)]
pub(crate) enum Accept {
    /// It holds exactly that state: an ack, nothing to apply.
    Have,
    /// Take it: a new ballot, not below `floor`, on the state held.
    Take,
    /// No ack; the newer of the tag accepted and `floor`. At or below the
    /// ballot the replica is behind or on another line, above it lost.
    Refuse(Tag),
}

/// The acceptor's rule for an `Apply` (a delta on `base`) and, with
/// `base` the tag held, for a `Prepare` and a pushed state. A round is
/// held to [`Ballots::floor`], a push to the promise alone, and an
/// eventual write to nothing (`floor` zero: the newest tag wins).
pub(crate) fn accept(accepted: Tag, floor: Tag, ballot: Tag, base: Tag) -> Accept {
    if accepted == ballot {
        Accept::Have
    } else if ballot >= floor && ballot > accepted && base == accepted {
        Accept::Take
    } else {
        Accept::Refuse(accepted.max(floor))
    }
}

/// The proposer's ballot, and whether it may skip the prepare: exactly
/// when its next ballot is still promised to it, which it is after its
/// own accept won, on a fresh object's placement primary, and on the
/// new primary of a migration's seal. Otherwise it prepares above
/// everything it holds.
pub(crate) fn plan(held: Ballots, me: u32) -> (Tag, bool) {
    let next = held.accepted.next(me);
    if held.promised == next {
        (next, true)
    } else {
        (held.accepted.max(held.floor()).next(me), false)
    }
}

/// Which state a prepared proposer builds on: the highest a promise
/// reported (its index), or `None` when its own is at least as high.
pub(crate) fn highest(own: Tag, promised: &[Tag]) -> Option<usize> {
    let (i, &tag) = promised.iter().enumerate().max_by_key(|&(_, &t)| t)?;
    (tag > own).then_some(i)
}

/// What one reply to an `Apply` at `ballot` means.
#[derive(Debug, PartialEq)]
pub(crate) enum Verdict {
    /// The peer accepted the ballot.
    Ack,
    /// The peer is behind or on another line and its promise admits the
    /// ballot, or the reply was lost: a push of the whole state repairs it.
    Repair,
    /// The peer accepted or promised a higher ballot.
    Lost(Tag),
    /// An error, or a timeout.
    No,
}

/// The proposer's rule for a reply to its `Apply` at `ballot`.
pub(crate) fn verdict(reply: &Result<Response, PcsiError>, ballot: Tag) -> Verdict {
    match *reply {
        Ok(Response::Applied) => Verdict::Ack,
        Ok(Response::Stale { newest }) if newest <= ballot => Verdict::Repair,
        Err(PcsiError::Unreachable(_)) => Verdict::Repair,
        Ok(Response::Stale { newest }) => Verdict::Lost(newest),
        _ => Verdict::No,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pcsi_core::Mutability;

    fn tag(seq: u64, writer: u32) -> Tag {
        Tag { seq, writer }
    }

    /// The round's decisions as DESIGN §4.3 states them, written out,
    /// not derived. The first three rows are item 1's three failure
    /// shapes, each of which the rules the round replaced got wrong.
    #[test]
    fn round_table_decides_item_1s_shapes_and_the_skip_rules() {
        let (a, b) = (1, 2);
        let at = |seq, writer| tag(seq, writer);
        let held = |accepted, promised| Ballots { accepted, promised };
        // A prepare is promised on the rule an accept is taken by.
        let promise = |h: Ballots, ballot| accept(h.accepted, h.floor(), ballot, h.accepted);

        // A delta across a tag gap: the replica holds 1@A (accepting it
        // promised 2@A); A's accept of 3@A builds on 2@A, which it
        // missed. Old rule: 3@A is newer, so the append applied on the
        // wrong bytes.
        let one = held(at(1, a), Tag::ZERO);
        assert_eq!(one.floor(), at(2, a));
        let gap = accept(one.accepted, one.floor(), at(3, a), at(2, a));
        assert_eq!(gap, Accept::Refuse(at(2, a)));
        let stale = |newest| Ok(Response::Stale { newest });
        assert_eq!(verdict(&stale(at(2, a)), at(3, a)), Verdict::Repair);

        // A peer that recorded the request on an older line (4@2) now
        // holds 6@3. Old rule: a peer holding the request below the tag
        // was acked after a state push. Now an accept at 7@1 is refused
        // (accepting 6@3 promised 7@3), and the refusal is no ack.
        let moved = held(at(6, 3), Tag::ZERO);
        let refused = accept(moved.accepted, moved.floor(), at(7, a), at(5, a));
        assert_eq!(refused, Accept::Refuse(at(7, 3)));
        assert_eq!(verdict(&stale(at(7, 3)), at(7, a)), Verdict::Lost(at(7, 3)));

        // An install replaced the proposer's line with 13@8, whose
        // records lack the request; a promise reports 14@13, which holds
        // it. Old rule: the coordinator read its own records and minted
        // the request again. Now it builds on the highest promise.
        assert_eq!(highest(at(13, 8), &[at(12, 3), at(14, 13)]), Some(1));
        assert_eq!(highest(at(13, 8), &[at(12, 3), at(13, 8)]), None);

        // Skipping the prepare: only while the next ballot is promised
        // to this proposer, which its won accept of 5@A left.
        let won = held(at(5, a), at(6, a));
        assert_eq!(plan(won, a), (at(6, a), true));
        assert_eq!(plan(won, b), (at(7, b), false));
        // Its own accept, not yet won, leaves it a prepare above the
        // next ballot that accept promised.
        assert_eq!(plan(held(at(5, a), Tag::ZERO), a), (at(7, a), false));
        // A higher promise to another proposer forces a prepare above it.
        assert_eq!(plan(held(at(5, a), at(6, 3)), a), (at(7, a), false));
        // Accepting 16@13 promised 17@13: a prepare at 17@0 is refused.
        let prepared = promise(held(at(16, 13), Tag::ZERO), at(17, 0));
        assert_eq!(prepared, Accept::Refuse(at(17, 13)));

        // A fresh object's first ballot is reserved for its primary, 4.
        let fresh = held(Tag::ZERO, at(1, 4));
        assert_eq!(plan(fresh, 4), (at(1, 4), true));
        assert_eq!(plan(fresh, b), (at(2, b), false));
        let first = |ballot| accept(Tag::ZERO, fresh.floor(), ballot, Tag::ZERO);
        assert_eq!(first(at(1, 4)), Accept::Take);
        assert_eq!(first(at(1, b)), Accept::Refuse(at(1, 4)));
        assert_eq!(promise(fresh, at(1, b)), Accept::Refuse(at(1, 4)));
        assert_eq!(promise(fresh, at(2, b)), Accept::Take);
        // A seal (writer u32::MAX) promises its new primary's ballot only.
        let sealed = held(at(9, u32::MAX), at(10, 4));
        assert_eq!(plan(sealed, 4), (at(10, 4), true));
        assert_eq!(promise(sealed, at(10, 2)), Accept::Refuse(at(10, 4)));

        // Duplicates, promises, pushes and eventual writes.
        assert_eq!(
            accept(won.accepted, won.floor(), at(5, a), at(4, a)),
            Accept::Have
        );
        assert_eq!(
            accept(won.accepted, won.floor(), at(6, a), at(5, a)),
            Accept::Take
        );
        assert_eq!(promise(won, at(6, b)), Accept::Take);
        assert_eq!(promise(won, at(6, 0)), Accept::Refuse(at(6, a)));
        // A pushed state is held to the promise alone.
        let pushed = held(at(3, a), at(5, b));
        let push = |tag| accept(pushed.accepted, pushed.promised, tag, pushed.accepted);
        assert_eq!(push(at(4, a)), Accept::Refuse(at(5, b)));
        assert_eq!(push(at(5, b)), Accept::Take);
        // An eventual write: the newest tag wins, on the base it names.
        assert_eq!(
            accept(at(6, 3), Tag::ZERO, at(7, a), at(6, 3)),
            Accept::Take
        );
        assert_eq!(
            accept(at(6, 3), Tag::ZERO, at(7, a), at(5, 3)),
            Accept::Refuse(at(6, 3))
        );
        let data = Response::Data {
            tag: at(6, a),
            mutability: Mutability::Mutable,
            stable_len: 0,
            data: Bytes::new(),
        };
        for (reply, expect) in [
            (Ok(Response::Applied), Verdict::Ack),
            (stale(at(6, a)), Verdict::Repair),
            (Ok(Response::TagIs { tag: at(7, a) }), Verdict::No),
            (Ok(data), Verdict::No),
            (Ok(Response::Err(PcsiError::Fault("x".into()))), Verdict::No),
            (Err(PcsiError::Timeout), Verdict::No),
            (
                Err(PcsiError::Unreachable("n3 down".into())),
                Verdict::Repair,
            ),
        ] {
            assert_eq!(verdict(&reply, at(6, a)), expect, "{reply:?}");
        }
    }
}
