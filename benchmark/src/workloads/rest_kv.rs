//! `rest_kv` — closed-loop KV traffic through the signed-REST gateway.
//!
//! Four serial clients (each issues its next request when the previous
//! one returns) go through `RestGateway::deploy`'s load balancer and
//! gateway onto the same replicated store `kv_mixed` uses, telemetry
//! off. 1,024 keys of 1 KiB, 256 private to each client, Zipf 0.99
//! within a client's keys; 80 % `kv_get`, 20 % `kv_put`.
//!
//! Chosen because JSON marshalling, HTTP framing and SHA-256/HMAC
//! signing and verification in `pcsi-proto` are real byte-level host
//! work on every request and dominate here, while the PCSI kernel is
//! bypassed; because it is the paper's REST baseline, so every later
//! "PCSI vs REST" ratio takes its denominator from the same harness;
//! and because the key set fits every cap, the opposite of `kv_mixed`.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Duration;

use pcsi_cloud::rest::RestGateway;
use pcsi_cloud::CloudBuilder;
use pcsi_net::NodeId;
use pcsi_proto::sign::Credentials;
use pcsi_sim::{DetRng, ZipfParams};

use super::{
    fail, fill, run_pass, uniform_lane, Driven, OpLog, Pass, Role, Telemetry, Window, Workload,
};
use crate::spans::SpanRec;

const CLIENT_NODES: [u32; 4] = [0, 2, 4, 6];
const LB_NODE: NodeId = NodeId(1);
const GATEWAY_NODE: NodeId = NodeId(5);
const KEYS_PER_CLIENT: usize = 256;
const VALUE: usize = 1024;
/// The store path has no modelled cache to fill for mutable objects;
/// the warm-up only lets the four clients fall out of lock-step.
const WARMUP: Duration = Duration::from_millis(100);
const MEASURE: Duration = Duration::from_millis(2_000);
const LIMIT: Duration = Duration::from_millis(2);
const TABLE: &str = "bench";

const OP: usize = 0;
const GET: usize = 1;
const PUT: usize = 2;

/// The seed is the whole plan: each client draws its requests from its
/// own stream as it goes.
pub struct Plan {
    seed: u64,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        Plan { seed }
    }
}

fn key_name(client: usize, rank: usize) -> String {
    format!("k{:04}", rank * CLIENT_NODES.len() + client)
}

impl Workload for Plan {
    fn pass(&self, telemetry: Telemetry, rec: &SpanRec) -> Pass {
        let seed = self.seed;
        run_pass(
            (seed, LIMIT),
            telemetry,
            rec,
            |h| telemetry.apply(CloudBuilder::new()).build(h),
            |h, cloud| {
                Box::pin(async move {
                    let creds = Credentials::new("AK1", b"bench-secret".to_vec());
                    let keys = HashMap::from([(creds.key_id.clone(), creds.clone())]);
                    let gateway = RestGateway::deploy(
                        cloud.fabric.clone(),
                        cloud.store.clone(),
                        cloud.billing.clone(),
                        LB_NODE,
                        GATEWAY_NODE,
                        keys,
                    );
                    gateway.set_tracer(cloud.tracer.clone());
                    gateway.set_metrics(cloud.metrics.clone());
                    let mut loads = Vec::new();
                    for (i, &node) in CLIENT_NODES.iter().enumerate() {
                        let client = gateway.client(NodeId(node), creds.clone());
                        loads.push(h.spawn(async move {
                            for rank in 0..KEYS_PER_CLIENT {
                                let initial = fill(initial_lane(i, rank), VALUE);
                                client
                                    .kv_put(TABLE, &key_name(i, rank), &initial)
                                    .await
                                    .expect("preload put");
                            }
                        }));
                    }
                    for l in loads {
                        l.await;
                    }
                    (gateway, creds)
                })
            },
            move |h, _cloud, (gateway, creds): (RestGateway, Credentials), errors| {
                let opened = h.now();
                let stats_from = opened + WARMUP;
                let end = stats_from + MEASURE;
                let log = OpLog::new(
                    stats_from,
                    &[
                        ("op", Role::Primary),
                        ("get", Role::Part),
                        ("put", Role::Part),
                    ],
                );
                let stale = Rc::new(Cell::new(0u64));
                let root = {
                    let (log, stale) = (Rc::clone(&log), Rc::clone(&stale));
                    async move {
                        let mut clients = Vec::new();
                        for (i, &node) in CLIENT_NODES.iter().enumerate() {
                            let client = gateway.client(NodeId(node), creds.clone());
                            let (h, log, errors, stale) = (
                                h.clone(),
                                Rc::clone(&log),
                                Rc::clone(&errors),
                                Rc::clone(&stale),
                            );
                            clients.push(h.clone().spawn(async move {
                                let rng = DetRng::seeded(seed ^ (0x7265_7374 + i as u64));
                                let zipf = ZipfParams::new(KEYS_PER_CLIENT as u64, 0.99);
                                // Every lane this client has put to each of
                                // its keys, oldest first.
                                let mut history: Vec<Vec<u64>> = (0..KEYS_PER_CLIENT)
                                    .map(|rank| vec![initial_lane(i, rank)])
                                    .collect();
                                let mut puts = 0u64;
                                while h.now() < end {
                                    let rank = rng.zipf_from(&zipf) as usize;
                                    let name = key_name(i, rank);
                                    let t0 = h.now();
                                    let ok = if rng.gen_range(0..5) == 0 {
                                        puts += 1;
                                        let lane = ((i as u64) << 48) | puts;
                                        // Recorded before the call: a get may
                                        // legally see a put still in flight.
                                        history[rank].push(lane);
                                        let done =
                                            client.kv_put(TABLE, &name, &fill(lane, VALUE)).await;
                                        log.borrow_mut().record(PUT, t0, h.now(), done.is_ok());
                                        done.is_ok()
                                    } else {
                                        let got = client.kv_get(TABLE, &name).await;
                                        log.borrow_mut().record(GET, t0, h.now(), got.is_ok());
                                        match got.as_deref().map(|d| uniform_lane(d, VALUE)) {
                                            Ok(Some(lane)) if history[rank].contains(&lane) => {
                                                // The gateway reads at eventual
                                                // consistency, so an older put of
                                                // this client is legal; count it.
                                                if history[rank].last() != Some(&lane) {
                                                    stale.set(stale.get() + 1);
                                                }
                                                true
                                            }
                                            Ok(_) => {
                                                fail(&errors, || {
                                                    format!(
                                                        "{name}: get returned a value never put"
                                                    )
                                                });
                                                false
                                            }
                                            Err(_) => false,
                                        }
                                    };
                                    log.borrow_mut().record(OP, t0, h.now(), ok);
                                }
                            }));
                        }
                        for c in clients {
                            c.await;
                        }
                        Driven {
                            until: h.now(),
                            extra: BTreeMap::from([("rest.stale_gets", stale.get() as f64)]),
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

/// Preloaded value of a key: top bit set, never a put lane.
fn initial_lane(client: usize, rank: usize) -> u64 {
    (1 << 63) | ((client as u64) << 48) | rank as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_keys_and_initial_values_are_disjoint() {
        assert_ne!(initial_lane(1, 2), initial_lane(2, 1));
        assert_ne!(key_name(1, 2), key_name(2, 1));
        assert_eq!(key_name(3, 255), "k1023");
    }
}
