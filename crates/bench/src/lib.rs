#![warn(missing_docs)]
//! # pcsi-bench — the experiment harness
//!
//! One module per table/figure/claim of the paper (see `DESIGN.md`'s
//! experiment index). Each experiment is a pure function of a seed that
//! runs a deterministic simulation and returns structured results; the
//! `report` binary renders them next to the paper's numbers and pins the
//! virtual-time ones in per-PR `BENCH_<pr>.json` snapshots. Host cost is
//! measured elsewhere, by the repo benchmark under `benchmark/`.
//!
//! | module | artifact |
//! |--------|----------|
//! | [`experiments::table1`] | Table 1 — representative operation latencies |
//! | [`experiments::rest_vs_nfs`] | §2.1 — NFS vs DynamoDB-style fetch (E2) |
//! | [`experiments::mutability`] | Figure 1 — transition matrix (E3) |
//! | [`experiments::pipeline`] | Figure 2 / §4.1 — placement strategies (E4) |
//! | [`experiments::efficiency`] | §4.2 — scavenged vs provisioned (E5) |
//! | [`experiments::flexibility`] | §4.3 — variant swap + optimizer (E6) |
//! | [`experiments::consistency`] | §3.3 — the consistency menu (E7) |
//! | [`experiments::capability`] | §3.2 — stateful refs vs per-request auth (E8) |
//! | [`experiments::crossover`] | §2.1 — overhead share as networks speed up (E9) |
//! | [`experiments::ycsb`] | supporting — YCSB-style KV mixes on both interfaces |
//! | [`experiments::recovery`] | supporting — client fault recovery under message loss |
//! | [`experiments::shard_scaling`] | ring scale-out under live load |
//! | [`experiments::streaming`] | PCSI push vs SSE across network generations (E10) |
//! | [`snapshot`] | the metric table behind `BENCH_<pr>.json`: render, `bench-check` |
//! | [`trend`] | trajectory table and 20 % gate over the committed snapshots |

pub mod experiments;
pub mod reportfmt;
pub mod snapshot;
pub mod trend;
