//! Replication-path micro-benchmark: ship/ack commit latency and
//! replication lag at 1/2/4 replicas.
//!
//! The paper (§5) argues controller fault tolerance is "standard
//! replication techniques" over SoftCell's two state classes; this
//! bench prices those techniques in our implementation. Two numbers:
//!
//! * **commit** — full `propose` round trip of one agent attach: the
//!   Algorithm-1 engine's attach and the append on the leader, ship to every live peer over the loopback
//!   ctlchan mesh, each peer appends and applies, quorum ack. This is
//!   the latency an attach/handoff/path request adds before its reply
//!   (flow-mod release is commit-gated).
//! * **lag** — committed index on the leader minus the shortest log
//!   across seats after the run: how far the slowest replica trails
//!   once the storm stops (0 = fully synchronous).
//!
//! Usage: `micro_replica [--quick] [--json PATH] [--replicas N] [--quorum Q]`

use std::time::{Duration, Instant};

use serde::Serialize;
use softcell_bench::{arg_value, is_quick, maybe_dump_json, TextTable};
use softcell_ctlchan::PacketIn;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_replica::Cluster;
use softcell_types::{BaseStationId, SimTime, UeId, UeImsi};

#[derive(Serialize)]
struct Row {
    replicas: usize,
    quorum: usize,
    ops: u64,
    commit_us_p50: f64,
    commit_us_p99: f64,
    commit_us_mean: f64,
    lag: u64,
}

#[derive(Serialize)]
struct Output {
    experiment: String,
    rows: Vec<Row>,
}

/// Stations of the replicas' `paper(4)` topology.
const STATIONS: u64 = 160;

/// The `i`-th attach: a subscriber of its own, at a location of its own.
fn op(i: u64) -> PacketIn {
    PacketIn::Attach {
        imsi: UeImsi(i),
        bs: BaseStationId((i % STATIONS) as u32),
        ue_id: UeId((i / STATIONS + 1) as u16),
        now: SimTime(i),
    }
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

fn bench_cluster(replicas: usize, quorum: usize, ops: u64) -> Row {
    let subscribers: Vec<_> = (0..ops)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let cluster = Cluster::start(
        replicas,
        quorum,
        &ServicePolicy::example_carrier_a(1),
        &subscribers,
        Duration::from_millis(400),
    )
    .expect("cluster start");

    let mut commit_ns: Vec<u64> = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        let start = Instant::now();
        cluster.node(0).propose(op(i)).expect("quorum commit");
        commit_ns.push(start.elapsed().as_nanos() as u64);
    }
    commit_ns.sort_unstable();
    let mean_us = commit_ns.iter().sum::<u64>() as f64 / commit_ns.len().max(1) as f64 / 1_000.0;

    let committed = cluster.node(0).commit_index();
    let lag = (0..replicas)
        .map(|seat| committed.saturating_sub(cluster.node(seat).applied()))
        .max()
        .unwrap_or(0);

    Row {
        replicas,
        quorum,
        ops,
        commit_us_p50: percentile(&commit_ns, 0.50),
        commit_us_p99: percentile(&commit_ns, 0.99),
        commit_us_mean: mean_us,
        lag,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops: u64 = if is_quick(&args) { 2_000 } else { 20_000 };

    println!("Replication-path microbench (quorum commit / lag)");
    let rows: Vec<Row> = match arg_value::<usize>(&args, "--replicas") {
        Some(n) => {
            let quorum = arg_value(&args, "--quorum").unwrap_or(n / 2 + 1);
            vec![bench_cluster(n, quorum, ops)]
        }
        None => [1usize, 2, 4]
            .iter()
            .map(|&n| bench_cluster(n, n / 2 + 1, ops))
            .collect(),
    };

    let mut t = TextTable::new(&[
        "replicas",
        "quorum",
        "ops",
        "commit p50 us",
        "commit p99 us",
        "commit mean us",
        "lag",
    ]);
    for r in &rows {
        t.row(&[
            r.replicas.to_string(),
            r.quorum.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.commit_us_p50),
            format!("{:.1}", r.commit_us_p99),
            format!("{:.1}", r.commit_us_mean),
            r.lag.to_string(),
        ]);
    }
    t.print();

    maybe_dump_json(
        &args,
        &Output {
            experiment: "micro_replica".into(),
            rows,
        },
    );
}
