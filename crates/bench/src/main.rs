//! # pcsi-bench — the experiment harness and its `report` binary
//!
//! Regenerates every table and figure of "The RESTless Cloud". One module
//! per table / figure / claim (see `DESIGN.md`'s experiment index): each
//! experiment is a pure function of a seed that runs a deterministic
//! simulation and returns structured results, and this binary renders
//! them next to the paper's numbers. Host cost is measured elsewhere, by
//! the repo benchmark under `benchmark/`.
//!
//! ```text
//! cargo run --release -p pcsi-bench --bin report            # everything
//! cargo run --release -p pcsi-bench --bin report -- table1  # one artifact
//! ```
//!
//! Artifacts are the rows of [`ARTIFACTS`]; any other argument prints
//! them and exits 2. Everything but Table 1's `measured (host)` rows is
//! deterministic and pinned, to the nanosecond, by
//! `crates/bench/REPORT.txt`; re-bless with
//! `report | grep -v 'measured (host)' > crates/bench/REPORT.txt`.
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
//! | [`experiments::shard_scaling`] | supporting — ring scale-out under live load |
//! | [`experiments::streaming`] | PCSI push vs SSE across network generations (E10) |

mod experiments;
mod reportfmt;

use std::time::Duration;

use experiments::{
    capability, consistency, crossover, efficiency, flexibility, mutability, pipeline, recovery,
    rest_vs_nfs, shard_scaling, stages, streaming, table1, ycsb, DEFAULT_SEED,
};
use reportfmt::{ns, Table};

/// The paper artifacts in report order: the name one is asked for by,
/// its section heading, and what prints the section.
#[rustfmt::skip]
const ARTIFACTS: &[(&str, &str, fn())] = &[
    ("table1",        "Table 1 — representative latency of various operations (E1)",   report_table1),
    ("rest-vs-nfs",   "§2.1 — 1 KB fetch: NFS vs DynamoDB-style REST (E2)",            report_rest_vs_nfs),
    ("mutability",    "Figure 1 — object mutability transitions (E3)",                 report_mutability),
    ("pipeline",      "Figure 2 / §4.1 — model-serving placement strategies (E4)",     report_pipeline),
    ("efficiency",    "§4.2 — scavenged pay-per-use vs peak-provisioned fleet (E5)",   report_efficiency),
    ("flexibility",   "§4.3 — flexibility: accelerator swap + variant optimizer (E6)", report_flexibility),
    ("consistency",   "§3.3 — the two-item consistency menu (E7)",                     report_consistency),
    ("capability",    "§3.2 — stateful references vs per-request auth; GC (E8)",       report_capability),
    ("crossover",     "§2.1 — interface overhead vs network generation (E9)",          report_crossover),
    ("ycsb",          "supporting — YCSB-style KV mixes on both interfaces",           report_ycsb),
    ("recovery",      "supporting — client fault recovery under message loss",         report_recovery),
    ("shard-scaling", "supporting — ring scale-out under live load",                   report_shard_scaling),
    ("streaming",     "E10 — streaming: PCSI push vs SSE across network generations",  report_streaming),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let asked = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    if let Some(unknown) = args.iter().find(|a| !ARTIFACTS.iter().any(|x| x.0 == **a)) {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, ..)| *name).collect();
        eprintln!(
            "report: no artifact named {unknown:?}; there are {}",
            names.join(", ")
        );
        std::process::exit(2);
    }

    println!("The RESTless Cloud (HotOS '21) — reproduction report");
    println!("seed = {DEFAULT_SEED:#x}; all simulated numbers are deterministic.\n");
    for (_, title, print) in ARTIFACTS.iter().filter(|(name, ..)| asked(name)) {
        println!("## {title}\n");
        print();
    }
}

/// A section's verdict. A claim in words closes a table and is set off
/// from it by a blank line; a bare verdict closes a paragraph.
fn shape_check(result: Result<(), String>, claim: &str) {
    let lead = if claim.is_empty() { "" } else { "\n" };
    match result {
        Ok(()) if claim.is_empty() => println!("shape check: PASS\n"),
        Ok(()) => println!("\nshape check: PASS ({claim})\n"),
        Err(e) => println!("{lead}shape check: FAIL — {e}\n"),
    }
}

fn report_table1() {
    let rows = table1::run(DEFAULT_SEED);
    let mut t = Table::new(&["operation", "paper", "ours", "source"]);
    for r in &rows {
        t.row(&[
            r.label.clone(),
            r.paper_ns.map(ns).unwrap_or_else(|| "—".into()),
            ns(r.ours_ns),
            r.source.into(),
        ]);
    }
    print!("{}", t.render());
    shape_check(table1::shape_holds(&rows), "orderings of Table 1 hold");
}

fn report_rest_vs_nfs() {
    let r = rest_vs_nfs::run(DEFAULT_SEED, 500);
    let mut t = Table::new(&[
        "interface",
        "mean",
        "p50",
        "p95",
        "p99",
        "p99.9",
        "compute USD/M",
    ]);
    for i in [&r.nfs, &r.rest, &r.pcsi] {
        let q = i.latency;
        t.row(&[
            i.label.into(),
            ns(q.mean as f64),
            ns(q.p50 as f64),
            ns(q.p95 as f64),
            ns(q.p99 as f64),
            ns(q.p999 as f64),
            format!("{:.5}", i.usd_per_million),
        ]);
    }
    print!("{}", t.render());
    println!("\npaper:   REST/NFS latency 4.3/1.5 = 2.9x, cost 0.18/0.003 = 60x");
    println!(
        "ours:    REST/NFS latency {:.1}x, compute cost {:.0}x",
        r.latency_ratio(),
        r.cost_ratio()
    );
    println!("         (absolute values differ with the substrate; ratios are the claim)\n");

    println!("### trace-derived stage breakdown of one warm 1 KB GET\n");
    let s = rest_vs_nfs::stage_breakdown(DEFAULT_SEED);
    let mut t = Table::new(&["interface", "protocol", "network", "storage", "other"]);
    for (label, b) in [
        ("NFS-like stateful protocol", &s.nfs),
        ("DynamoDB-like REST", &s.rest),
        ("PCSI-native (reference + binary)", &s.pcsi),
    ] {
        t.row(&[
            label.into(),
            ns(b.ns(stages::PROTOCOL) as f64),
            ns(b.ns(stages::NETWORK) as f64),
            ns(b.ns(stages::STORAGE) as f64),
            ns(b.ns(stages::OTHER) as f64),
        ]);
    }
    print!("{}", t.render());
    println!("\n(self time per span category over one traced request; the interfaces differ");
    println!("in protocol CPU, not in wire or media time)\n");
}

fn report_mutability() {
    let (labels, m) = mutability::matrix();
    let mut t = Table::new(&["from \\ to", labels[0], labels[1], labels[2], labels[3]]);
    for (from, to) in labels.iter().zip(&m) {
        let mut row = vec![from.to_string()];
        row.extend(
            to.iter()
                .map(|&ok| if ok { "yes" } else { "–" }.to_string()),
        );
        t.row(&row);
    }
    print!("{}", t.render());
    println!("\narrows (excluding self-loops):");
    for (a, b) in mutability::arrows() {
        println!("  {a} -> {b}");
    }
    println!();
}

fn report_pipeline() {
    let reports = pipeline::run(DEFAULT_SEED, 2, 8);
    let mut t = Table::new(&["strategy", "mean", "p99", "net bytes/req"]);
    for r in &reports {
        t.row(&[
            r.strategy.label().into(),
            ns(r.latency.mean() as f64),
            ns(r.latency.quantile(0.99) as f64),
            format!("{}", r.network_bytes_per_req),
        ]);
    }
    print!("{}", t.render());
    shape_check(
        pipeline::shape_holds(&reports),
        "colocated ~ monolithic; naive >= 1.8x",
    );

    println!("### upload-size sweep: the disaggregation penalty\n");
    let mut t = Table::new(&["upload", "naive", "colocated", "monolithic", "penalty"]);
    for p in pipeline::sweep(DEFAULT_SEED, 4) {
        t.row(&[
            format!("{} MiB", p.upload_bytes >> 20),
            ns(p.naive_ns),
            ns(p.colocated_ns),
            ns(p.monolithic_ns),
            format!("{:.2}x", p.penalty()),
        ]);
    }
    print!("{}", t.render());
    println!();
}

fn report_efficiency() {
    let (s, d) = efficiency::run(DEFAULT_SEED, 200.0, Duration::from_secs(30));
    let mut t = Table::new(&[
        "mode",
        "requests",
        "p50",
        "p99",
        "p99.9",
        "SLO(300ms)",
        "cost",
        "efficiency",
        "cold starts",
    ]);
    for m in [&s, &d] {
        t.row(&[
            m.mode.label().into(),
            format!("{}", m.completed),
            ns(m.p50_ns as f64),
            ns(m.p99_ns as f64),
            ns(m.p999_ns as f64),
            format!("{:.1}%", 100.0 * m.slo_attainment),
            format!("${:.6}", m.cost_usd),
            format!("{:.0}%", 100.0 * m.efficiency),
            format!("{}", m.cold_starts),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nscavenged is {:.1}x cheaper at {:.1}x the resource efficiency; the price is the",
        d.cost_usd / s.cost_usd,
        s.efficiency / d.efficiency
    );
    println!("cold-start tail — \"good enough\" SLOs absorb it (§4.2).");
    shape_check(efficiency::shape_holds(&s, &d), "");

    println!("### burstiness sweep: when does scavenging pay?\n");
    let mut t = Table::new(&["burst rps", "cost advantage", "scavenged SLO"]);
    for p in efficiency::sweep(DEFAULT_SEED, Duration::from_secs(20)) {
        t.row(&[
            format!("{:.0}", p.burst_rps),
            format!("{:.1}x", p.cost_advantage),
            format!("{:.1}%", 100.0 * p.scavenged_slo),
        ]);
    }
    print!("{}", t.render());

    println!("\n### diurnal multi-tenant re-run: reactive vs predictive autoscaling\n");
    let (r, p) = efficiency::run_diurnal_pair(DEFAULT_SEED, Duration::from_secs(180));
    let mut t = Table::new(&[
        "policy",
        "requests",
        "cold starts",
        "cold/1k req",
        "SLO(300ms)",
        "mean CPU util",
        "prewarms",
        "steals",
    ]);
    for m in [&r, &p] {
        t.row(&[
            m.policy.label().into(),
            format!("{}", m.completed),
            format!("{}", m.cold_starts),
            format!("{:.2}", 1000.0 * m.cold_start_rate()),
            format!("{:.2}%", 100.0 * m.slo_attainment),
            format!("{:.1}%", 100.0 * m.mean_cpu_util),
            format!("{}", m.prewarms),
            format!("{}", m.rebalances),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\npredictive pre-warming cuts the diurnal cold-start rate {:.1}x at {:.2}x the",
        r.cold_start_rate() / p.cold_start_rate().max(1e-12),
        p.mean_cpu_util / r.mean_cpu_util.max(1e-12)
    );
    println!("cluster utilization, with equal-or-better SLO attainment.");
    shape_check(efficiency::diurnal_shape_holds(&r, &p), "");
}

fn report_flexibility() {
    println!("### same pipeline, different inference variant (zero app changes)\n");
    let mut t = Table::new(&["inference variant", "pipeline mean latency"]);
    for (name, mean) in pipeline::variant_latencies(DEFAULT_SEED, 5) {
        t.row(&[name, ns(mean)]);
    }
    print!("{}", t.render());

    println!("\n### INFaaS-style optimizer choices for the NN image\n");
    let mut t = Table::new(&[
        "goal",
        "pool state",
        "chosen",
        "est latency",
        "est cost/invoke",
    ]);
    for c in flexibility::optimizer_table() {
        t.row(&[
            c.goal.into(),
            if c.warm { "warm".into() } else { "cold".into() },
            c.variant.clone(),
            ns(c.est_latency_ns),
            format!("${:.8}", c.est_cost_usd),
        ]);
    }
    print!("{}", t.render());
    println!();
}

fn report_consistency() {
    let cells = consistency::run(DEFAULT_SEED, 60);
    let mut t = Table::new(&[
        "N",
        "consistency",
        "write mean",
        "read mean",
        "stale reads",
        "read repairs",
    ]);
    for c in &cells {
        t.row(&[
            format!("{}", c.n_replicas),
            c.consistency.as_str().into(),
            ns(c.write_ns),
            ns(c.read_ns),
            format!("{:.1}%", 100.0 * c.stale_fraction),
            format!("{}", c.repaired),
        ]);
    }
    print!("{}", t.render());
    shape_check(
        consistency::shape_holds(&cells),
        "strong: never stale, dearer; weak: cheap, stale",
    );
}

fn report_capability() {
    let r = capability::run(DEFAULT_SEED, 300);
    let mut t = Table::new(&["path", "1 KB read mean", "interface tax"]);
    t.row(&["raw replicated store".into(), ns(r.raw_read_ns), "—".into()]);
    t.row(&[
        "PCSI reference (bind once)".into(),
        ns(r.pcsi_read_ns),
        ns(r.pcsi_tax_ns()),
    ]);
    t.row(&[
        "signed REST (auth every request)".into(),
        ns(r.rest_read_ns),
        ns(r.rest_tax_ns()),
    ]);
    print!("{}", t.render());
    println!(
        "\nGC: {} live objects, {} unreachable reclaimed by one mark-and-sweep.",
        r.gc_objects, r.gc_reclaimed
    );
    shape_check(capability::shape_holds(&r), "");
}

fn report_ycsb() {
    let cells = ycsb::run(DEFAULT_SEED, 200);
    let mut t = Table::new(&["mix", "interface", "mean", "p99"]);
    for c in &cells {
        t.row(&[
            c.mix.label().into(),
            c.interface.into(),
            ns(c.mean_ns),
            ns(c.p99_ns),
        ]);
    }
    print!("{}", t.render());
    shape_check(ycsb::shape_holds(&cells), "the REST tax holds on every mix");

    println!("### mix C over IMMUTABLE objects — the mutability-aware cache\n");
    let cell = ycsb::run_immutable(DEFAULT_SEED, 300);
    let mut t = Table::new(&[
        "read mean",
        "cache hits",
        "cache misses",
        "hit rate",
        "fabric msgs/read",
    ]);
    t.row(&[
        ns(cell.mean_ns),
        format!("{}", cell.hits),
        format!("{}", cell.misses),
        format!(
            "{:.1}%",
            100.0 * cell.hits as f64 / (cell.hits + cell.misses).max(1) as f64
        ),
        format!("{:.2}", cell.fabric_calls_per_read),
    ]);
    print!("{}", t.render());
    shape_check(
        ycsb::immutable_shape_holds(&cell),
        "immutable working set served node-locally",
    );
}

fn report_recovery() {
    let cells = recovery::run(DEFAULT_SEED, 200);
    let mut t = Table::new(&[
        "fabric",
        "write mean",
        "read mean",
        "retries",
        "failovers",
        "timeouts",
        "client errors",
    ]);
    for c in &cells {
        t.row(&[
            c.label.into(),
            ns(c.write_ns),
            ns(c.read_ns),
            format!("{}", c.retry.retries),
            format!("{}", c.retry.failovers),
            format!("{}", c.retry.timeouts),
            format!("{}", c.client_errors),
        ]);
    }
    print!("{}", t.render());
    shape_check(
        recovery::shape_holds(&cells),
        "drops cost latency, never a client-visible error",
    );
}

fn report_shard_scaling() {
    let r = shard_scaling::run(DEFAULT_SEED);
    let mut t = Table::new(&["ring nodes", "ops/sim s", "p99"]);
    for (nodes, ops_per_s, p99_ns) in [
        (shard_scaling::RING_BEFORE, r.tput_before, r.p99_before_ns),
        (shard_scaling::RING_AFTER, r.tput_after, r.p99_after_ns),
    ] {
        t.row(&[format!("{nodes}"), format!("{ops_per_s:.0}"), ns(p99_ns)]);
    }
    print!("{}", t.render());
    println!(
        "\n{} objects migrated under that load, at a window p99 of {}; the full ring\n\
         carries {:.2}x the throughput.",
        r.objects_moved,
        ns(r.p99_migration_ns),
        r.ratio()
    );
    shape_check(shard_scaling::shape_holds(&r), "");
}

fn report_crossover() {
    let points = crossover::run(DEFAULT_SEED, 100);
    let mut t = Table::new(&["network", "RTT", "interface", "1 KB fetch", "x RTT"]);
    for p in &points {
        t.row(&[
            p.generation.label().into(),
            ns(p.rtt_ns),
            p.interface.into(),
            ns(p.mean_ns),
            format!("{:.1}", p.rtt_multiple()),
        ]);
    }
    print!("{}", t.render());
    shape_check(
        crossover::shape_holds(&points),
        "REST flattens at its CPU floor; PCSI rides the hardware",
    );

    println!("### trace-derived stage shares of one signed-REST 1 KB GET\n");
    let bps = crossover::breakdowns(DEFAULT_SEED);
    let mut t = Table::new(&["network", "interface", "protocol", "network", "storage"]);
    for p in &bps {
        t.row(&[
            p.generation.label().into(),
            p.interface.into(),
            format!("{:.0}%", 100.0 * p.stages.share(stages::PROTOCOL)),
            format!("{:.0}%", 100.0 * p.stages.share(stages::NETWORK)),
            format!("{:.0}%", 100.0 * p.stages.share(stages::STORAGE)),
        ]);
    }
    print!("{}", t.render());
    shape_check(
        crossover::breakdown_shape_holds(&bps),
        "protocol share: minority at 1 ms RTT, dominant at 1 us RTT",
    );
}

fn report_streaming() {
    let r = streaming::run_all(DEFAULT_SEED);
    let mut t = Table::new(&[
        "network",
        "RTT",
        "PCSI/event",
        "SSE/event",
        "SSE tax",
        "PCSI x8",
        "SSE x8",
    ]);
    for p in &r.points {
        t.row(&[
            p.generation.label().into(),
            ns(p.rtt_ns),
            ns(p.pcsi_event_ns),
            ns(p.sse_event_ns),
            format!("{:.1}x", p.sse_tax()),
            ns(p.pcsi_fanout_ns),
            ns(p.sse_fanout_ns),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nmetrics-delta streaming: {:.0} B/update vs {:.0} B full snapshot ({:.1}x smaller), \
         reconstruction {}",
        r.delta.mean_delta_bytes,
        r.delta.mean_full_bytes,
        r.delta.compression(),
        if r.delta.reconstructed {
            "byte-exact"
        } else {
            "FAILED"
        }
    );
    println!(
        "token streaming ({} tokens, 1 ms/token compute, 2021 network): \
         TTFT {} (PCSI) vs {} (SSE); full stream {} vs {}",
        r.tokens.tokens,
        ns(r.tokens.pcsi_ttft_ns),
        ns(r.tokens.sse_ttft_ns),
        ns(r.tokens.pcsi_total_ns),
        ns(r.tokens.sse_total_ns),
    );
    shape_check(
        streaming::shape_holds(&r),
        "PCSI push beats SSE per event on the fast network;\ndeltas reconstruct; PCSI TTFT <= SSE TTFT",
    );
}
