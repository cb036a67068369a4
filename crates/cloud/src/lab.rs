//! One fixture for everything that stands a cloud up to measure or
//! break it: [`Lab::run`] owns the simulation preamble (a `Sim` per run,
//! the cloud built inside the root task so spawn order never depends on
//! the caller) for the experiments, the chaos scenarios, the tests and
//! the examples; [`Lab::rest`] / [`Lab::nfs`] / [`Lab::sse`] deploy the
//! web-service baselines where every comparison in the paper puts them,
//! wired to the cloud's own tracer and registry; [`Lab::time`] is the
//! one virtual-clock stopwatch. The lab draws no randomness and spawns
//! nothing of its own: a run through it is event-for-event the run its
//! caller would have assembled by hand. Three stand-ups stay by hand:
//! `tests/functions.rs`' two `dropping_the_sim_*` tests drop the `Sim`
//! themselves, and `tests/determinism.rs`' `run_with` shares a `match`
//! with a traced deploy the builder cannot make (no tracer when off).

use std::cell::OnceCell;
use std::collections::HashMap;
use std::future::Future;

use pcsi_metrics::Histogram;
use pcsi_net::NodeId;
use pcsi_obs::Telemetry;
use pcsi_proto::sign::Credentials;
use pcsi_sim::{Sim, SimHandle};

use crate::nfs::NfsServer;
use crate::rest::RestGateway;
use crate::sse::SseHub;
use crate::{Cloud, CloudBuilder};

/// A deployed cloud plus the baselines and the stopwatch experiments
/// share.
pub struct Lab {
    /// The cloud the run's [`CloudBuilder`] deployed.
    pub cloud: Cloud,
    /// The simulation the lab runs on.
    pub h: SimHandle,
    rest: OnceCell<(String, RestGateway)>,
    nfs: OnceCell<NfsServer>,
}

impl Lab {
    /// The secret [`Lab::nfs`] authorizes; pass it to
    /// [`NfsServer::mount`].
    pub const NFS_SECRET: &'static [u8] = b"nfs-secret";

    /// Runs `f` to completion on a fresh simulation seeded with `seed`,
    /// over the cloud `builder` deploys.
    pub fn run<T, Fut>(seed: u64, builder: CloudBuilder, f: impl FnOnce(Lab) -> Fut + 'static) -> T
    where
        T: 'static,
        Fut: Future<Output = T> + 'static,
    {
        Lab::run_polled(seed, builder, f).0
    }

    /// [`Lab::run`], also returning how many task polls the run took.
    pub fn run_polled<T, F, Fut>(seed: u64, builder: CloudBuilder, f: F) -> (T, u64)
    where
        T: 'static,
        F: FnOnce(Lab) -> Fut + 'static,
        Fut: Future<Output = T> + 'static,
    {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let lab = Lab {
                cloud: builder.build(&h),
                h,
                rest: OnceCell::new(),
                nfs: OnceCell::new(),
            };
            f(lab).await
        });
        (out, sim.poll_count())
    }

    /// The key every baseline accepts and [`Lab::rest`]'s callers sign
    /// with. Its key id rides every signed request, so a run that wants
    /// another one deploys with [`Lab::rest_as`].
    pub fn credential() -> Credentials {
        Credentials::new("AK1", b"k".to_vec())
    }

    /// The signed-REST front door — load balancer on node 1, gateway on
    /// node 5 — deployed on first use with [`Lab::credential`].
    pub fn rest(&self) -> &RestGateway {
        self.rest_as(&Lab::credential())
    }

    /// [`Lab::rest`] accepting `creds` instead.
    ///
    /// # Panics
    ///
    /// Panics when the front door is already deployed with another key:
    /// it would go on answering `creds` with a 403.
    pub fn rest_as(&self, creds: &Credentials) -> &RestGateway {
        let (key_id, gateway) = self.rest.get_or_init(|| {
            let cloud = &self.cloud;
            let gateway = RestGateway::deploy(
                cloud.fabric.clone(),
                cloud.store.clone(),
                cloud.billing.clone(),
                NodeId(1),
                NodeId(5),
                HashMap::from([(creds.key_id.clone(), creds.clone())]),
            );
            gateway.set_tracer(cloud.tracer.clone());
            gateway.set_metrics(cloud.metrics.clone());
            (creds.key_id.clone(), gateway)
        });
        assert_eq!(*key_id, creds.key_id, "REST is deployed with another key");
        gateway
    }

    /// The NFS-like stateful server on node 6, deployed on first use and
    /// authorizing [`Lab::NFS_SECRET`].
    pub fn nfs(&self) -> &NfsServer {
        self.nfs.get_or_init(|| {
            let cloud = &self.cloud;
            NfsServer::deploy(
                cloud.fabric.clone(),
                cloud.billing.clone(),
                NodeId(6),
                Lab::NFS_SECRET,
                &Telemetry {
                    metrics: cloud.metrics.clone(),
                    tracer: cloud.tracer.clone(),
                    journal: None,
                },
            )
        })
    }

    /// Deploys an SSE hub on `node` accepting [`Lab::credential`]. Every
    /// call is a new hub: E10 moves its hub round by round.
    pub fn sse(&self, node: NodeId) -> SseHub {
        let creds = Lab::credential();
        SseHub::deploy(
            self.cloud.fabric.clone(),
            self.cloud.billing.clone(),
            node,
            HashMap::from([(creds.key_id.clone(), creds)]),
        )
    }

    /// Awaits `op`, recording the virtual time it took into `hist`.
    pub async fn timed<T>(&self, hist: &Histogram, op: impl Future<Output = T>) -> T {
        let t0 = self.h.now();
        let out = op.await;
        hist.record_duration(self.h.now() - t0);
        out
    }

    /// Runs `op(0) .. op(n - 1)` back to back and returns the histogram
    /// of their virtual-time latencies.
    ///
    /// # Panics
    ///
    /// Panics when an op fails: the time a failed op took is not a
    /// latency of the thing being measured.
    pub async fn time<T, E, Fut>(&self, n: u32, mut op: impl FnMut(u32) -> Fut) -> Histogram
    where
        E: std::fmt::Debug,
        Fut: Future<Output = Result<T, E>>,
    {
        let hist = Histogram::new();
        for i in 0..n {
            self.timed(&hist, op(i)).await.expect("timed op failed");
        }
        hist
    }
}
