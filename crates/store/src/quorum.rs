//! One store RPC round trip, and the one quorum gather built on it.
//! Every message the store sends is an [`rpc`]; every "ask N replicas,
//! go on at `need` acks" round is a [`gather`].

use std::future::Future;

use bytes::Bytes;
use pcsi_core::PcsiError;
use pcsi_net::fabric::NetError;
use pcsi_net::{Fabric, NodeId};
use pcsi_sim::sync::mpsc;

use crate::replica::{STORE_SERVICE, STORE_TRANSPORT};
use crate::wire::{self, Response};

/// One encoded request/response round trip over the fabric, decoded and
/// error-mapped. A wire-level
/// [`Response::Err`] surfaces as the [`PcsiError`] it carries. The future
/// borrows nothing, so fan-out tasks can own it.
pub(crate) fn rpc(
    fabric: &Fabric,
    from: NodeId,
    to: NodeId,
    frame: Bytes,
) -> impl Future<Output = Result<Response, PcsiError>> + 'static {
    let fabric = fabric.clone();
    async move {
        let raw = fabric
            .call(from, to, STORE_SERVICE, STORE_TRANSPORT, frame)
            .await
            .map_err(net_to_pcsi)?;
        match wire::decode_response(&raw) {
            Ok(Response::Err(e)) => Err(e),
            Ok(resp) => Ok(resp),
            Err(e) => Err(PcsiError::BadPayload(e.to_string())),
        }
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

/// Sends `frame` from `from` to every node of `targets` and returns the
/// first `need` acks, or the [`Shortfall`] as soon as `need` is out of
/// reach (DESIGN §4.1).
///
/// One detached task is spawned per target, in the order `targets`
/// yields them (callers pass placement order). Each does one [`rpc`],
/// then its own clone of `classify` decides ack (`Ok`) or not (`Err`)
/// from `(node, reply)` — and may itself await. Tasks still in flight at the return finish
/// detached: their effects land, their verdicts are dropped.
pub(crate) async fn gather<A, N, C, Fut>(
    fabric: &Fabric,
    from: NodeId,
    targets: impl IntoIterator<Item = NodeId>,
    frame: Bytes,
    need: usize,
    classify: C,
) -> Result<Vec<A>, Shortfall<N>>
where
    A: 'static,
    N: 'static,
    C: FnOnce(NodeId, Result<Response, PcsiError>) -> Fut + Clone + 'static,
    Fut: Future<Output = Result<A, N>> + 'static,
{
    let (tx, mut rx) = mpsc::channel::<Result<A, N>>();
    let mut total = 0;
    for node in targets {
        total += 1;
        let (tx, classify) = (tx.clone(), classify.clone());
        // One encode for the whole round: each send bumps a refcount.
        let call = rpc(fabric, from, node, frame.clone());
        fabric.handle().spawn_detached(async move {
            let _ = tx.send(classify(node, call.await).await);
        });
    }
    drop(tx);

    let (mut acks, mut nacks) = (Vec::with_capacity(need), Vec::new());
    while decided(total, need, acks.len(), nacks.len()).is_none() {
        match rx.recv().await {
            Some(Ok(ack)) => acks.push(ack),
            Some(Err(nack)) => nacks.push(nack),
            // The simulation is tearing its tasks down.
            None => break,
        }
    }
    if acks.len() >= need {
        Ok(acks)
    } else {
        let got = acks.len();
        Err(Shortfall { got, nacks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
