//! `kv_mixed` — open-loop mixed KV traffic over the PCSI kernel path.
//!
//! Poisson arrivals at 4,000 ops/s from clients on four nodes, default
//! topology and 2021 network, telemetry off. 16,384 objects of 1 KiB
//! (by key mod 4: linearizable-mutable, immutable, eventual-mutable ×2)
//! under Zipf 0.99; 50 % `read` of the whole object, 40 % `write` of
//! 64 B at offset 0, 10 % `lookup` of a two-component path followed by
//! a read. A write drawn for an immutable key is issued as a read (a
//! write there is an error by design). The namespace names the 2,048
//! hottest keys (32 directories × 64 entries) and lookups draw from
//! Zipf 0.99 over those: linking all 16,384 would make preload, which
//! every pass repeats, three times the timed window.
//!
//! Chosen because `sim`, `net`, `store.wire`, `store.client`,
//! `store.replica` and `cloud.kernel` do nearly all the work while
//! `proto`, `faas`, `stream` and telemetry do none; because 16,384 keys
//! is four times the 4,096-entry placement-memo, ledger and
//! seen-coordinates caps, so eviction is on the path; and because
//! reads, cached immutable reads, writes and namespace lookups share
//! one store, so a gain for one class that costs another shows in the
//! per-class kernel metrics.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, KernelClient};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, Reference};
use pcsi_net::NodeId;
use pcsi_sim::{DetRng, SimTime, ZipfParams};
use pcsi_store::StoreConfig;

use super::{
    fail, fill, open_loop, run_pass, steady_arrivals, uniform_lane, Driven, OpLog, Pass, Role,
    Telemetry, Window, Workload,
};
use crate::spans::SpanRec;

const KEYS: usize = 16_384;
/// Names in the namespace: the hottest keys, `DIRS` directories of
/// `NAMES / DIRS` entries.
const NAMES: usize = 2_048;
const DIRS: usize = 32;
const VALUE: usize = 1024;
const WRITE: usize = 64;
const RATE: f64 = 4_000.0;
/// Virtual warm-up: ~8,000 ops, by which the Zipf head of the immutable
/// quarter sits in the four client-node caches.
const WARMUP: Duration = Duration::from_secs(1);
const MEASURE: Duration = Duration::from_secs(4);
const CLIENT_NODES: [u32; 4] = [0, 1, 4, 5];
/// The one store setting changed from its default (100 ms). At 16,384
/// objects each of the 16 replicas' rounds walks ~3,000 inventory
/// entries through a placement memo a quarter that size; at the default
/// period that background costs ~0.75 host-s per simulated second, five
/// times the traffic being measured, and a pass inside the time cap
/// would hold one simulated second. At 1 s it is a quarter of the
/// window: still on the path, no longer the workload.
const ANTI_ENTROPY: Duration = Duration::from_secs(1);
const LIMIT: Duration = Duration::from_millis(1);

/// Top bit marks a lane that still holds a key's initial fill.
const INITIAL: u64 = 1 << 63;

const OP: usize = 0;
const READ: usize = 1;
const WRITE_CLASS: usize = 2;
const LOOKUP: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Lookup,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    /// Offset of the due instant from the window's opening.
    due: Duration,
    kind: Kind,
    key: u32,
}

/// The seeded schedule.
pub struct Plan {
    seed: u64,
    ops: Rc<Vec<Op>>,
}

fn immutable(key: u32) -> bool {
    key % 4 == 1
}

fn path_of(key: u32) -> String {
    format!("d{:03}/k{:03}", key as usize % DIRS, key as usize / DIRS)
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let rng = DetRng::seeded(seed ^ 0x6B76_5F6D_6978_6564);
        let keys = ZipfParams::new(KEYS as u64, 0.99);
        let names = ZipfParams::new(NAMES as u64, 0.99);
        let (warm, end) = (SimTime::ZERO + WARMUP, SimTime::ZERO + WARMUP + MEASURE);
        let ops = steady_arrivals(&rng, &[(SimTime::ZERO, warm), (warm, end)], RATE)
            .into_iter()
            .map(|at| {
                let draw = rng.gen_range(0..10);
                let key = rng.zipf_from(if draw == 9 { &names } else { &keys }) as u32;
                let kind = match draw {
                    0..=4 => Kind::Read,
                    5..=8 if immutable(key) => Kind::Read,
                    5..=8 => Kind::Write,
                    _ => Kind::Lookup,
                };
                Op {
                    due: at.saturating_since(SimTime::ZERO),
                    kind,
                    key,
                }
            })
            .collect();
        Plan {
            seed,
            ops: Rc::new(ops),
        }
    }
}

struct Loaded {
    root: Reference,
    refs: Vec<Reference>,
}

/// Checks one whole-object read of `key` that completed at `now`: the
/// written head is a uniform lane some write to this key issued (or the
/// initial fill), the tail is the initial fill. Anything else is a torn
/// or invented value.
fn check_read(
    ops: &[Op],
    opened: SimTime,
    key: u32,
    data: &[u8],
    now: SimTime,
) -> Result<(), String> {
    if data.len() != VALUE {
        return Err(format!("key {key}: read {} bytes, not {VALUE}", data.len()));
    }
    let initial = INITIAL | u64::from(key);
    let (head, tail) = data.split_at(WRITE);
    if uniform_lane(tail, VALUE - WRITE) != Some(initial) {
        return Err(format!("key {key}: bytes past the written head changed"));
    }
    let Some(head) = uniform_lane(head, WRITE) else {
        return Err(format!("key {key}: torn write head"));
    };
    if head == initial {
        return Ok(());
    }
    match ops.get(head as usize) {
        Some(w) if w.kind == Kind::Write && w.key == key && opened + w.due <= now => Ok(()),
        _ => Err(format!(
            "key {key}: value {head:#x} was never written to it"
        )),
    }
}

impl Workload for Plan {
    fn pass(&self, telemetry: Telemetry, rec: &SpanRec) -> Pass {
        let ops = Rc::clone(&self.ops);
        run_pass(
            (self.seed, LIMIT),
            telemetry,
            rec,
            |h| {
                let store = StoreConfig {
                    anti_entropy: Some(ANTI_ENTROPY),
                    ..StoreConfig::default()
                };
                telemetry.apply(CloudBuilder::new().store(store)).build(h)
            },
            |h, cloud| {
                Box::pin(async move {
                    let c = cloud.kernel.client(NodeId(CLIENT_NODES[0]), "bench");
                    let root = c.create(CreateOptions::directory()).await.expect("root");
                    let mut dirs = Vec::with_capacity(DIRS);
                    for d in 0..DIRS {
                        let dir = c.create(CreateOptions::directory()).await.expect("dir");
                        c.link(&root, &format!("d{d:03}"), &dir)
                            .await
                            .expect("link dir");
                        dirs.push(dir);
                    }
                    // One task per directory: a link is a read-modify-write
                    // of its directory, so links into one directory stay
                    // serial while the 128 directories fill side by side.
                    let mut fills = Vec::with_capacity(DIRS);
                    for (d, dir) in dirs.into_iter().enumerate() {
                        let c = c.clone();
                        fills.push(h.spawn(async move {
                            let mut refs = Vec::with_capacity(KEYS / DIRS);
                            for slot in 0..KEYS / DIRS {
                                let key = (slot * DIRS + d) as u32;
                                let data = fill(INITIAL | u64::from(key), VALUE);
                                let opts = match key % 4 {
                                    0 => CreateOptions::regular()
                                        .with_consistency(Consistency::Linearizable)
                                        .with_initial(data),
                                    1 => CreateOptions::immutable(data),
                                    _ => CreateOptions::regular().with_initial(data),
                                };
                                let r = c.create(opts).await.expect("create");
                                if (key as usize) < NAMES {
                                    c.link(&dir, &format!("k{slot:03}"), &r)
                                        .await
                                        .expect("link");
                                }
                                refs.push((key, r));
                            }
                            refs
                        }));
                    }
                    let mut keyed = Vec::with_capacity(KEYS);
                    for f in fills {
                        keyed.extend(f.await);
                    }
                    keyed.sort_by_key(|&(key, _)| key);
                    Loaded {
                        root,
                        refs: keyed.into_iter().map(|(_, r)| r).collect(),
                    }
                })
            },
            move |h, cloud, loaded: Loaded, errors| {
                let opened = h.now();
                let stats_from = opened + WARMUP;
                let log = OpLog::new(
                    stats_from,
                    &[
                        ("op", Role::Primary),
                        ("read", Role::Part),
                        ("write", Role::Part),
                        ("lookup", Role::Part),
                    ],
                );
                let clients: Rc<Vec<KernelClient>> = Rc::new(
                    CLIENT_NODES
                        .iter()
                        .map(|&n| cloud.kernel.client(NodeId(n), "bench"))
                        .collect(),
                );
                let loaded = Rc::new(loaded);
                let root = {
                    let log = Rc::clone(&log);
                    let h = h.clone();
                    async move {
                        let due_ops = Rc::clone(&ops);
                        open_loop(
                            &h,
                            ops.len(),
                            |i| opened + due_ops[i].due,
                            |i, due| {
                                let (h, ops, log, errors) = (
                                    h.clone(),
                                    Rc::clone(&ops),
                                    Rc::clone(&log),
                                    Rc::clone(&errors),
                                );
                                let (clients, loaded) = (Rc::clone(&clients), Rc::clone(&loaded));
                                Box::pin(async move {
                                    let op = ops[i];
                                    let c = &clients[i % clients.len()];
                                    let mut ok = true;
                                    // Times one kernel call as its own class.
                                    let part = |class: usize, t0: SimTime, good: bool| {
                                        log.borrow_mut().record(class, t0, h.now(), good);
                                    };
                                    let target = match op.kind {
                                        Kind::Lookup => {
                                            let found =
                                                c.lookup(&loaded.root, &path_of(op.key)).await;
                                            part(LOOKUP, due, found.is_ok());
                                            match found {
                                                Ok(r)
                                                    if r.id()
                                                        == loaded.refs[op.key as usize].id() =>
                                                {
                                                    Some(r)
                                                }
                                                Ok(r) => {
                                                    fail(&errors, || {
                                                        format!(
                                                            "key {}: lookup resolved to {:?}",
                                                            op.key,
                                                            r.id()
                                                        )
                                                    });
                                                    None
                                                }
                                                Err(_) => None,
                                            }
                                        }
                                        _ => Some(loaded.refs[op.key as usize].clone()),
                                    };
                                    match (target, op.kind) {
                                        (None, _) => ok = false,
                                        (Some(r), Kind::Write) => {
                                            let t0 = h.now();
                                            let done = c
                                                .write(&r, 0, Bytes::from(fill(i as u64, WRITE)))
                                                .await;
                                            part(WRITE_CLASS, t0, done.is_ok());
                                            ok = done.is_ok();
                                        }
                                        (Some(r), _) => {
                                            let t0 = h.now();
                                            let got = c.read(&r, 0, VALUE as u64).await;
                                            part(READ, t0, got.is_ok());
                                            match got {
                                                Ok(data) => {
                                                    if let Err(e) = check_read(
                                                        &ops,
                                                        opened,
                                                        op.key,
                                                        &data,
                                                        h.now(),
                                                    ) {
                                                        ok = false;
                                                        fail(&errors, || e);
                                                    }
                                                }
                                                Err(_) => ok = false,
                                            }
                                        }
                                    }
                                    log.borrow_mut().record(OP, due, h.now(), ok);
                                })
                            },
                        )
                        .await;
                        Driven {
                            until: h.now(),
                            extra: BTreeMap::new(),
                        }
                    }
                };
                Window {
                    log,
                    stats_from,
                    root: Box::pin(root),
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_check_rejects_torn_and_invented_values() {
        let ops = [
            Op {
                due: Duration::from_micros(10),
                kind: Kind::Write,
                key: 4,
            },
            Op {
                due: Duration::from_micros(20),
                kind: Kind::Read,
                key: 4,
            },
            Op {
                due: Duration::from_micros(30),
                kind: Kind::Write,
                key: 8,
            },
        ];
        let opened = SimTime::from_secs(1);
        let now = opened + Duration::from_micros(25);
        let object = |head: u64, key: u32| {
            let mut v = fill(head, WRITE);
            v.extend_from_slice(&fill(INITIAL | u64::from(key), VALUE - WRITE));
            v
        };
        let check = |data: &[u8]| check_read(&ops, opened, 4, data, now);
        assert!(check(&object(INITIAL | 4, 4)).is_ok());
        assert!(check(&object(0, 4)).is_ok());
        // Op 1 is a read, op 2 wrote another key, op 9 does not exist.
        assert!(check(&object(1, 4)).is_err());
        assert!(check(&object(2, 4)).is_err());
        assert!(check(&object(9, 4)).is_err());
        // A write that had not been issued yet cannot have been read.
        let early = opened + Duration::from_micros(5);
        assert!(check_read(&ops, opened, 4, &object(0, 4), early).is_err());
        let mut torn = object(0, 4);
        torn[8] ^= 1;
        assert!(check(&torn).is_err());
        let mut tail = object(0, 4);
        tail[VALUE - 1] ^= 1;
        assert!(check(&tail).is_err());
        assert!(check(&object(0, 4)[..100]).is_err());
    }

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let (a, b, c) = (Plan::new(7), Plan::new(7), Plan::new(8));
        let key = |p: &Plan| p.ops.iter().map(|o| (o.due, o.key)).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert!(a
            .ops
            .iter()
            .all(|o| !(o.kind == Kind::Write && immutable(o.key))));
        assert!(a.ops.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
