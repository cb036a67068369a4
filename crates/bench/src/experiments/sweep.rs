//! The one interface sweep behind E2, E8, E9 and YCSB: §2.1's 1 KB
//! fetch through NFS, signed REST and PCSI, and the raw store under
//! PCSI, set up and timed one way. The network is whatever the caller's
//! `CloudBuilder` built.

use bytes::Bytes;
use pcsi_cloud::nfs::NfsClient;
use pcsi_cloud::rest::RestClient;
use pcsi_cloud::{KernelClient, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, Reference};
use pcsi_metrics::Histogram;
use pcsi_net::NodeId;
use pcsi_sim::ZipfParams;
use pcsi_store::StoreClient;

use super::stages::{self, StageBreakdown};

/// Every client sits on this node.
const CLIENT: NodeId = NodeId(0);
/// Bytes per value: §2.1's 1 KB object.
const VALUE: u64 = 1024;
/// The NFS mount's and the kernel client's billing account.
const ACCOUNT: &str = "bench";
/// The REST table every item lives in.
const TABLE: &str = "bench";

/// An interface the sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Iface {
    /// NFS-like stateful protocol: one mount, one file per key.
    Nfs,
    /// Signed REST: one item per key, every request authenticated.
    Rest,
    /// PCSI-native: one eventual object per key, used by reference.
    Pcsi,
    /// The replicated store under the kernel, on PCSI's objects.
    Raw,
}

/// Operations over `keys` Zipf-popular keys, `read_fraction` of them
/// reads and the rest overwrites.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Keys the operations choose from.
    pub keys: u64,
    /// Fraction of operations that read.
    pub read_fraction: f64,
}

/// §2.1's fetch: one key, read-only.
pub const FETCH: Mix = Mix {
    keys: 1,
    read_fraction: 1.0,
};

/// One interface's timed operations.
pub struct Timed {
    /// Their virtual-time latencies.
    pub hist: Histogram,
    /// Compute billed to the interface's account over them (USD).
    pub usd: f64,
}

/// What [`sweep`] timed, in the caller's order, and the objects PCSI
/// and the raw store read.
pub struct Swept {
    /// One entry per interface.
    pub timed: Vec<Timed>,
    /// One PCSI object per key.
    pub objects: Vec<Reference>,
}

/// One interface, set up on its keys.
enum Target {
    Nfs(NfsClient, Vec<u64>),
    Rest(RestClient, Vec<String>),
    Pcsi(KernelClient, Vec<Reference>),
    Raw(StoreClient, Vec<Reference>),
}

/// Sets each of `ifaces` up on `mix.keys` keys in `lab`, in order, and
/// times the same `ops` operations of `mix` on it.
pub async fn sweep(lab: &Lab, mix: Mix, ops: u32, ifaces: &[Iface]) -> Swept {
    let keys = lab.h.rng().stream("sweep-keys");
    let zipf = ZipfParams::new(mix.keys, 0.99);
    let coin = lab.h.rng().stream("sweep-mix");
    let plan: Vec<_> = (0..ops)
        .map(|_| (keys.zipf_from(&zipf) as usize, coin.bool(mix.read_fraction)))
        .collect();
    let (mut timed, mut objects) = (Vec::new(), Vec::new());
    for &iface in ifaces {
        let target = setup(lab, iface, mix.keys, &mut objects).await;
        let account = match iface {
            Iface::Rest => Lab::credential().key_id,
            _ => ACCOUNT.into(),
        };
        let billed = || lab.cloud.billing.invoice(&account).compute;
        let before = billed();
        let hist = lab.time(ops, |i| target.op(plan[i as usize])).await;
        let usd = billed() - before;
        timed.push(Timed { hist, usd });
    }
    Swept { timed, objects }
}

/// Sets `iface` up on one key in `lab`, whose cloud traces every
/// request, fetches it twice, and splits the second fetch into stages.
pub async fn traced_fetch(lab: &Lab, iface: Iface) -> StageBreakdown {
    let target = setup(lab, iface, 1, &mut Vec::new()).await;
    for _ in 0..2 {
        target.op((0, true)).await.unwrap();
    }
    let root = match iface {
        Iface::Nfs => "nfs.request",
        Iface::Rest => "rest.request",
        Iface::Pcsi => "kernel.read",
        Iface::Raw => "store.read",
    };
    let tracer = lab.cloud.tracer.as_ref().expect("tracing");
    let spans = tracer.sink().snapshot();
    StageBreakdown::of(&spans, stages::last_root(&spans, root).expect("a fetch"))
}

/// Sets `iface` up on `keys` keys. PCSI and the raw store share
/// `objects`: whichever comes first creates them.
async fn setup(lab: &Lab, iface: Iface, keys: u64, objects: &mut Vec<Reference>) -> Target {
    let kc = lab.cloud.kernel.client(CLIENT, ACCOUNT);
    if matches!(iface, Iface::Pcsi | Iface::Raw) && objects.is_empty() {
        for _ in 0..keys {
            let eventual = CreateOptions::regular().with_consistency(Consistency::Eventual);
            objects.push(kc.create(eventual.with_initial(value())).await.unwrap());
        }
    }
    let names: Vec<String> = (0..keys).map(|k| format!("k{k}")).collect();
    match iface {
        Iface::Nfs => {
            let mount = lab.nfs().mount(CLIENT, Lab::NFS_SECRET, ACCOUNT).await;
            let mount = mount.unwrap();
            let mut files = Vec::new();
            for name in &names {
                let file = mount.lookup(name, true).await.unwrap();
                mount.write(file, 0, &value()).await.unwrap();
                files.push(file);
            }
            Target::Nfs(mount, files)
        }
        Iface::Rest => {
            let rc = lab.rest().client(CLIENT, Lab::credential());
            for name in &names {
                rc.kv_put(TABLE, name, &value()).await.unwrap();
            }
            Target::Rest(rc, names)
        }
        Iface::Pcsi => Target::Pcsi(kc, objects.clone()),
        Iface::Raw => Target::Raw(lab.cloud.store.client(CLIENT), objects.clone()),
    }
}

fn value() -> Bytes {
    Bytes::from(vec![0x5A; VALUE as usize])
}

impl Target {
    /// Reads key `k`, or overwrites it.
    async fn op(&self, (k, read): (usize, bool)) -> Result<(), String> {
        let eventual = Consistency::Eventual;
        match (self, read) {
            (Target::Nfs(m, f), true) => done(m.read(f[k], 0, VALUE).await),
            (Target::Nfs(m, f), false) => done(m.write(f[k], 0, &value()).await),
            (Target::Rest(rc, n), true) => done(rc.kv_get(TABLE, &n[k]).await),
            (Target::Rest(rc, n), false) => done(rc.kv_put(TABLE, &n[k], &value()).await),
            (Target::Pcsi(kc, o), true) => done(kc.read(&o[k], 0, VALUE).await),
            (Target::Pcsi(kc, o), false) => done(kc.write(&o[k], 0, value()).await),
            (Target::Raw(sc, o), true) => done(sc.read(o[k].id(), 0, VALUE, eventual).await),
            (Target::Raw(sc, o), false) => done(sc.write_at(o[k].id(), 0, value(), eventual).await),
        }
    }
}

/// An operation's outcome, its value dropped.
fn done<T, E: std::fmt::Debug>(r: Result<T, E>) -> Result<(), String> {
    r.map(drop).map_err(|e| format!("{e:?}"))
}
