//! One store RPC round trip, and the one quorum gather built on it.
//! Every message the store sends is an [`rpc`]; every "ask N replicas,
//! go on at `need` acks" round is a [`gather`].

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use bytes::Bytes;
use pcsi_core::PcsiError;
use pcsi_net::fabric::{Delivery, NetError};
use pcsi_net::{Fabric, NodeId};
use pcsi_sim::{LocalBoxFuture, SimHandle};
use pcsi_trace::TraceContext;

use crate::replica::{STORE_SERVICE, STORE_TRANSPORT};
use crate::wire::{self, Response};

/// One encoded request/response round trip over the fabric, decoded and
/// error-mapped: the store's one call site. A trace context rides the
/// fabric's call beside the frame (`CallCtx::trace`), which charges its
/// bytes. A wire-level [`Response::Err`] surfaces as the [`PcsiError`] it
/// carries. The call starts at its first poll; it borrows nothing, so
/// fan-out tasks can own it.
pub(crate) fn rpc(
    fabric: &Fabric,
    from: NodeId,
    to: NodeId,
    frame: Bytes,
    ctx: Option<TraceContext>,
) -> Rpc {
    let call = fabric.call_traced(from, to, STORE_SERVICE, STORE_TRANSPORT, frame, ctx);
    Rpc(Some(call))
}

/// An [`rpc`]'s future; a detached one holds nothing.
pub(crate) struct Rpc(Option<Delivery>);

impl Future for Rpc {
    type Output = Result<Response, PcsiError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let call = self.0.as_mut().expect("a detached rpc is not polled");
        Pin::new(call).poll(cx).map(decode)
    }
}

fn decode(raw: Result<Bytes, NetError>) -> Result<Response, PcsiError> {
    match wire::decode_response(&raw.map_err(net_to_pcsi)?) {
        Ok(Response::Err(e)) => Err(e),
        Ok(resp) => Ok(resp),
        Err(e) => Err(PcsiError::BadPayload(e.to_string())),
    }
}

/// Transport errors: one failed RPC says nothing about a quorum, so it
/// is never [`PcsiError::QuorumUnavailable`]; an unreachable peer maps
/// to its own retryable variant (deadlines are the caller's).
fn net_to_pcsi(e: NetError) -> PcsiError {
    match &e {
        NetError::NodeDown(_) | NetError::Partitioned(_, _) | NetError::Dropped(_, _) => {
            PcsiError::Unreachable(e.to_string())
        }
        _ => PcsiError::Fault(e.to_string()),
    }
}

/// The gather's stop rule, free of I/O: with `ok` acks and `failed`
/// non-acks in out of `total`, `Some(true)` once `need` acks are in,
/// `Some(false)` once the replies still out cannot reach `need`.
fn decided(total: usize, need: usize, ok: usize, failed: usize) -> Option<bool> {
    if ok >= need {
        Some(true)
    } else if total - failed < need {
        Some(false)
    } else {
        None
    }
}

/// A gather that fell short: how many acks it had, and the non-acks that
/// arrived (in arrival order) before `need` went out of reach.
pub(crate) struct Shortfall<N> {
    pub(crate) got: usize,
    pub(crate) nacks: Vec<N>,
}

/// A reply's verdict, ack (`Ok`) or not (`Err`), or follow-up work that
/// decides it (a repair push).
pub(crate) enum Classified<A, N> {
    Now(Result<A, N>),
    Then(LocalBoxFuture<Result<A, N>>),
}

/// One target's part of a round: its call, then its follow-up work.
enum Leg<A, N> {
    Call(NodeId, Rpc),
    Then(LocalBoxFuture<Result<A, N>>),
}

/// What a round's legs share: its classifier, and the handle that spawns
/// a detached call's follow-up work.
struct Round<C: ?Sized> {
    handle: SimHandle,
    classify: C,
}

type Classify<A, N> = dyn Fn(NodeId, Result<Response, PcsiError>) -> Classified<A, N>;

/// Sends `frame`, traced by `ctx`, from `from` to every node of
/// `targets` and returns the first `need` acks, or the [`Shortfall`] as
/// soon as `need` is out of reach (DESIGN §4.1).
///
/// Each target gets one [`rpc`], started at the round's first poll in
/// the order `targets` yields them (callers pass placement order), and
/// `classify` judges its reply from `(node, reply)`, at once or by
/// follow-up work the awaiting task polls. At the decision the calls
/// still out are detached: the fabric's event that delivers a late
/// reply classifies it. Work in flight, and the calls of a round decided
/// before it started, go to one task. Only the decision hands them off;
/// dropping a pending gather drops its calls. No caller does. The calls
/// are built before the round's future is: it keeps them, not the frame
/// or its context, across its awaits (a coordinator's future, boxed per
/// request, holds its rounds').
pub(crate) fn gather<A, N, C>(
    fabric: &Fabric,
    from: NodeId,
    targets: impl IntoIterator<Item = NodeId>,
    (frame, ctx): (Bytes, Option<TraceContext>),
    need: usize,
    classify: C,
) -> impl Future<Output = Result<Vec<A>, Shortfall<N>>> + 'static
where
    A: 'static,
    N: 'static,
    C: Fn(NodeId, Result<Response, PcsiError>) -> Classified<A, N> + 'static,
{
    let mut legs: Vec<Leg<A, N>> = targets
        .into_iter()
        // One encode for the whole round: each send bumps a refcount.
        .map(|node| Leg::Call(node, rpc(fabric, from, node, frame.clone(), ctx)))
        .collect();
    let handle = fabric.handle().clone();
    let round: Rc<Round<Classify<A, N>>> = Rc::new(Round { handle, classify });
    async move {
        let total = legs.len();
        let (mut acks, mut nacks) = (Vec::with_capacity(need), Vec::new());
        let open =
            |acks: &Vec<_>, nacks: &Vec<_>| decided(total, need, acks.len(), nacks.len()).is_none();
        // Decided before it starts (`need` 0), a round sends nothing until
        // the caller has gone on.
        if open(&acks, &nacks) {
            poll_fn(|cx| {
                let _ = round.poll(&mut legs, cx, false, |verdict| match verdict {
                    _ if !open(&acks, &nacks) => {}
                    Ok(ack) => acks.push(ack),
                    Err(nack) => nacks.push(nack),
                });
                if open(&acks, &nacks) {
                    return Poll::Pending;
                }
                // Decided: the calls still out are detached.
                let _ = round.poll(&mut legs, cx, true, drop);
                Poll::Ready(())
            })
            .await;
        }
        if !legs.is_empty() {
            let handle = round.handle.clone();
            handle.spawn_detached(poll_fn(move |cx| round.poll(&mut legs, cx, true, drop)));
        }
        if acks.len() >= need {
            Ok(acks)
        } else {
            let got = acks.len();
            Err(Shortfall { got, nacks })
        }
    }
}

impl<A: 'static, N: 'static> Round<Classify<A, N>> {
    /// Polls each leg in order, handing `done` each verdict; a reply's
    /// follow-up work is polled on in its place. Past the decision
    /// (`detaching`), a call pending once sent is detached, not kept.
    fn poll(
        self: &Rc<Self>,
        legs: &mut Vec<Leg<A, N>>,
        cx: &mut Context<'_>,
        detaching: bool,
        mut done: impl FnMut(Result<A, N>),
    ) -> Poll<()> {
        legs.retain_mut(|leg| loop {
            let verdict = match leg {
                Leg::Call(node, call) => match Pin::new(&mut *call).poll(cx) {
                    Poll::Ready(reply) => match (self.classify)(*node, reply) {
                        Classified::Now(verdict) => verdict,
                        Classified::Then(work) => {
                            *leg = Leg::Then(work);
                            continue;
                        }
                    },
                    Poll::Pending if detaching => {
                        // A late reply's follow-up work is spawned in its
                        // event, where a task awaiting it would be woken.
                        let (round, node) = (Rc::clone(self), *node);
                        let call = call.0.take().expect("an rpc is detached once");
                        call.detach(move |reply| {
                            if let Classified::Then(work) = (round.classify)(node, decode(reply)) {
                                round.handle.spawn_detached(async move { drop(work.await) });
                            }
                        });
                        return false;
                    }
                    Poll::Pending => return true,
                },
                Leg::Then(work) => match work.as_mut().poll(cx) {
                    Poll::Ready(verdict) => verdict,
                    Poll::Pending => return true,
                },
            };
            done(verdict);
            return false;
        });
        if legs.is_empty() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, linearizable_put, oid, replica_bytes};
    use pcsi_core::Consistency;
    use pcsi_net::{MessageFaults, NodeId};
    use pcsi_sim::Sim;
    use std::time::Duration;

    /// An `rpc` future holds its frame and trace context once, as its
    /// own captures: the fabric's call it awaits holds only its delivery.
    /// `gather` boxes one such future per target.
    #[test]
    fn an_rpc_future_holds_its_trace_context_once() {
        let sim = Sim::new(42);
        let (fabric, _store) = testkit::deploy(&sim, testkit::config());
        let ctx = TraceContext {
            trace: pcsi_trace::TraceId(1),
            parent: pcsi_trace::SpanId(2),
        };
        let call = rpc(&fabric, NodeId(0), NodeId(1), Bytes::new(), Some(ctx));
        let size = std::mem::size_of_val(&call);
        assert!(size <= 152, "an rpc future is {size} B");
    }

    /// A write's round decides at the first peer's ack; the Apply to the
    /// other peer, held 1 ms on its link, is still in flight then. It
    /// lands from the detached task once the simulation quiesces.
    #[test]
    fn the_third_replica_holds_a_write_the_round_no_longer_awaits() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::config());
        let h = fabric.handle().clone();
        let (id, data) = (oid(1), Bytes::from_static(b"late"));
        let replicas = store.placement().replicas(id);
        let spike = MessageFaults {
            delay_spike: 1.0,
            spike: Duration::from_millis(1),
            ..MessageFaults::NONE
        };
        fabric.set_link_faults(replicas[0], replicas[2], spike);
        let client = store.client(testkit::outsider(&store, id));
        let put = data.clone();
        sim.block_on(async move { linearizable_put(&client, id, put).await });
        assert!(
            replica_bytes(&store, replicas[2], id).is_empty(),
            "in flight"
        );
        sim.block_on(async move { h.sleep(Duration::from_millis(5)).await });
        assert_eq!(replica_bytes(&store, replicas[2], id), data);
    }

    /// The Apply to one peer is lost; the round decides without it. The
    /// lost call ends after the retransmit timeout, long after the write
    /// returned, and its repair push still reaches the peer.
    #[test]
    fn a_repair_push_that_starts_after_the_decision_lands() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::config());
        let h = fabric.handle().clone();
        let (id, data) = (oid(1), Bytes::from_static(b"repaired"));
        let replicas = store.placement().replicas(id);
        testkit::drop_link(&fabric, replicas[0], replicas[2]);
        let client = store.client(testkit::outsider(&store, id));
        let put = data.clone();
        sim.block_on(async move { linearizable_put(&client, id, put).await });
        assert!(replica_bytes(&store, replicas[2], id).is_empty(), "lost");
        fabric.clear_message_faults();
        sim.block_on(async move { h.sleep(Duration::from_millis(5)).await });
        assert_eq!(replica_bytes(&store, replicas[2], id), data);
    }

    /// A round decided before it starts (`need` 0) sends nothing in its
    /// deciding poll: its calls go out from one task, behind every task
    /// runnable at the decision.
    #[test]
    fn a_need_zero_rounds_sends_start_behind_the_tasks_runnable_at_its_decision() {
        let mut sim = Sim::new(42);
        let (fabric, _store) = testkit::deploy(&sim, testkit::config());
        let h = fabric.handle().clone();
        let counts = sim.block_on(async move {
            let before = fabric.message_count();
            let counting = fabric.clone();
            let runnable = h.spawn(async move { counting.message_count() });
            let frame = wire::encode_request(&crate::wire::Request::Inventory);
            let targets = [NodeId(1), NodeId(2)];
            let ack = |_, _| Classified::Now(Ok::<(), ()>(()));
            let round = gather(&fabric, NodeId(0), targets, (frame, None), 0, ack);
            assert!(round.await.is_ok_and(|acks| acks.is_empty()));
            let at_decision = fabric.message_count() - before;
            let seen_by_runnable = runnable.await - before;
            h.sleep(Duration::from_millis(1)).await;
            (
                at_decision,
                seen_by_runnable,
                fabric.message_count() - before,
            )
        });
        // Both requests and their replies, once the round's task ran.
        assert_eq!(counts, (0, 0, 4));
    }

    /// Task polls of one fault-free linearizable write (its straggler
    /// included), one one-RTT linearizable read and one eventual read,
    /// from a client outside the replica set. A round's calls and an
    /// attempt's deadline are polled in the task that awaits them: each
    /// spawned no task of its own and sent no reply down a channel. A
    /// replica's reply leaves when its media time is done, with no wake
    /// of the reading task in between, and each request is served in its
    /// arrival event, with no wake of the calling task for it. A peer's
    /// `Apply` changes its state in its reply's leave event, with no wake
    /// of the coordinating task for its media time. A round's late reply
    /// is classified in the fabric's event, with no task woken for it.
    #[test]
    fn a_write_and_a_one_rtt_read_take_pinned_polls() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::config());
        let h = fabric.handle().clone();
        let id = oid(1);
        let client = store.client(testkit::outsider(&store, id));
        let polls = |sim: &mut Sim, op| {
            let before = sim.poll_count();
            sim.block_on(op);
            sim.poll_count() - before
        };
        let write = {
            let (client, h) = (client.clone(), h.clone());
            async move {
                linearizable_put(&client, id, Bytes::from_static(b"x")).await;
                h.sleep(Duration::from_millis(1)).await;
            }
        };
        let read = |consistency| {
            let (client, h) = (client.clone(), h.clone());
            async move {
                client.read_all(id, consistency).await.unwrap();
                h.sleep(Duration::from_millis(1)).await;
            }
        };
        let write = polls(&mut sim, Box::pin(write) as LocalBoxFuture<()>);
        let read_one_rtt = polls(&mut sim, Box::pin(read(Consistency::Linearizable)));
        let read_eventual = polls(&mut sim, Box::pin(read(Consistency::Eventual)));
        assert_eq!((write, read_one_rtt, read_eventual), (5, 4, 3));
    }

    /// Every `total <= 5`, `need <= total` and every arrival order of
    /// ok/fail replies, fed through the loop the gather runs: the rule
    /// says *met* exactly at the `need`-th ok, *impossible* exactly when
    /// `total - failed < need` first holds, and no reply is read after
    /// the decision (indexing past `total` would panic).
    #[test]
    fn stop_rule_decides_at_the_right_reply_for_every_arrival_order() {
        for total in 0..=5usize {
            for need in 0..=total {
                for order in 0u32..(1 << total) {
                    let replies: Vec<bool> = (0..total).map(|i| order & (1 << i) != 0).collect();
                    let (mut ok, mut failed) = (0, 0);
                    while decided(total, need, ok, failed).is_none() {
                        if replies[ok + failed] {
                            ok += 1;
                        } else {
                            failed += 1;
                        }
                    }
                    let case = format!("total={total} need={need} order={order:05b}");
                    // Decided now, by exactly one of the two conditions...
                    let (met, impossible) = (ok >= need, total - failed < need);
                    assert_ne!(met, impossible, "both or neither: {case}");
                    assert_eq!(decided(total, need, ok, failed), Some(met), "{case}");
                    // ...and by neither of them one reply earlier.
                    if let Some(&last) = replies[..ok + failed].last() {
                        let (ok, failed) = (ok - last as usize, failed - !last as usize);
                        assert!(ok < need && total - failed >= need, "decided late: {case}");
                    }
                }
            }
        }
    }
}
