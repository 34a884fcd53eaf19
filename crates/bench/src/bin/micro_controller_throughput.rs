//! Central-controller throughput micro-benchmark (paper §6.2).
//!
//! The paper floods its Floodlight controller with packet-in events from
//! 1000 Cbench-emulated switches and reports 2.2 M classifier requests
//! per second with 15 threads on an 8-core Xeon W5580.
//!
//! This bench floods the Rust [`ControllerServer`] with attach
//! requests (each answered with the UE's classifier) from emulated
//! local agents and sweeps the domain count
//! (one worker and one queue per domain, requests routed by IMSI).
//! **Host note:** the run prints the host's measured core count; on a
//! host with fewer cores than domains the sweep flattens and the
//! per-core request rate is the comparable quantity (the paper's is
//! ≈ 2.2 M / 8 ≈ 275 K/s/core on 2009-era silicon).
//!
//! Usage: `micro_controller_throughput [--quick] [--json PATH]`

use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use serde::Serialize;
use softcell_bench::{is_quick, maybe_dump_json, maybe_dump_telemetry, TextTable};
use softcell_controller::server::{ControllerServer, Request};
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_telemetry::{Registry, Snapshot};
use softcell_types::{BaseStationId, SimTime, UeId, UeImsi};

#[derive(Serialize)]
struct Row {
    domains: usize,
    clients: usize,
    requests: u64,
    seconds: f64,
    requests_per_sec: f64,
}

#[derive(Serialize)]
struct Output {
    experiment: String,
    host_cores: usize,
    rows: Vec<Row>,
}

fn measure(domains: usize, clients: usize, duration: Duration) -> (Row, Snapshot) {
    const SUBS: u64 = 1000;
    let subscribers: Vec<SubscriberAttributes> = (0..SUBS)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, domains)
            .expect("server");

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let router = server.router();
            std::thread::spawn(move || {
                let (tx, rx) = bounded(1);
                let mut sent = 0u64;
                let t0 = Instant::now();
                while t0.elapsed() < duration {
                    // emulate a batch of local agents pipelining requests
                    for i in 0..64u64 {
                        let imsi = (c as u64 * 64 + i + sent) % SUBS;
                        router
                            .route(Request::Attach {
                                imsi: UeImsi(imsi),
                                // a location of its own per IMSI
                                bs: BaseStationId((imsi % 64) as u32),
                                ue_id: UeId((imsi / 64) as u16),
                                now: SimTime::ZERO,
                                reply: tx.clone(),
                                trace: softcell_telemetry::ReqTrace::NONE,
                            })
                            .expect("send");
                    }
                    for _ in 0..64 {
                        rx.recv().expect("reply").expect("attach grant");
                    }
                    sent += 64;
                }
                sent
            })
        })
        .collect();
    let mut _client_sent = 0u64;
    for h in handles {
        _client_sent += h.join().expect("client");
    }
    let secs = start.elapsed().as_secs_f64();
    let served = server.served();
    let registry = server.telemetry();
    server.shutdown();
    (
        Row {
            domains,
            clients,
            requests: served,
            seconds: secs,
            requests_per_sec: served as f64 / secs,
        },
        registry.snapshot(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let duration = if is_quick(&args) {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Central-controller classifier-request throughput");
    println!("(paper: 2.2M req/s with 15 threads on 8 cores; this host: {host_cores} core(s))");
    let mut telemetry = Snapshot::default();
    let rows: Vec<Row> = [1usize, 2, 4, 8, 15]
        .iter()
        .map(|&d| {
            let (row, snap) = measure(d, 4, duration);
            telemetry.merge(&snap);
            row
        })
        .collect();

    let mut t = TextTable::new(&["domains", "clients", "requests", "secs", "req/s"]);
    for r in &rows {
        t.row(&[
            r.domains.to_string(),
            r.clients.to_string(),
            r.requests.to_string(),
            format!("{:.2}", r.seconds),
            format!("{:.0}", r.requests_per_sec),
        ]);
    }
    t.print();

    maybe_dump_json(
        &args,
        &Output {
            experiment: "micro-controller".into(),
            host_cores,
            rows,
        },
    );
    telemetry.merge(&Registry::global().snapshot());
    maybe_dump_telemetry(&args, &telemetry);
}
