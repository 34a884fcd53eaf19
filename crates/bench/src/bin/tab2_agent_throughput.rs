//! Table 2 — local-agent throughput vs. classifier-cache hit ratio
//! (paper §6.2).
//!
//! The paper's local agent handles each new flow locally when its cached
//! packet classifiers already carry the policy tag, and makes a
//! controller round trip otherwise; Table 2 shows throughput collapsing
//! from tens of thousands of flows/s at 100 % hit ratio to ~1.8 K/s when
//! every flow needs the controller.
//!
//! This bench runs the *real* [`LocalAgent`] against a real access
//! switch; its requests are framed by `softcell-ctlchan`, cross the
//! loopback transport, and are served by the controller's southbound
//! front-end, each round trip paying the full encode/decode cost plus a
//! simulated 500 µs base-station↔controller RTT (the paper's 0 %-hit
//! floor of 1.8 K/s implies ≈ 550 µs per round trip). The hit ratio is
//! forced exactly: before each flow, with probability `1 − p` the flow's
//! clause is evicted from the agent's tag cache.
//!
//! A second mode benchmarks the *controller* side instead of the agent:
//!
//! * `--shards N` — packet-in throughput of the sharded worker pool
//!   ([`ControllerServer::start_sharded`]) swept over shard counts
//!   1, 2, 4, … up to N. Sixteen concurrent agents flood attach/detach
//!   packet-ins through the server's `RequestRouter`; every attach blocks
//!   its domain worker on a simulated 200 µs switch install fence (the
//!   classifier landing at the access station), so the measured scaling
//!   is the concurrency a sharded control plane buys when its
//!   bottleneck is fabric round trips — the deployment regime — rather
//!   than raw CPU. `--min-speedup X` turns the run into a smoke check:
//!   exit nonzero unless the largest shard count reaches `X×` the
//!   single-shard rate.
//!
//! Usage: `tab2_agent_throughput [--quick]
//!          [--shards N [--min-speedup X]] [--json PATH]
//!          [--telemetry PATH] [--trace PATH]`
//!
//! `--telemetry PATH` prints the run's telemetry report (counters,
//! latency percentiles, span ring) and writes the full snapshot — the
//! server's per-instance registry merged with the process-global one —
//! as JSON to `PATH`.
//!
//! `--trace PATH` arms 1-in-64 causal-trace sampling for the run and
//! writes the retained spans as Chrome `trace_event` JSON
//! (Perfetto-loadable). In `--shards` mode the run ends with one fully
//! sampled over-the-wire exchange, so the export always contains a
//! trace spanning packet-in → plan → commit → flow-mod batch → barrier
//! ack across the framed transport.

use std::net::Ipv4Addr;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use serde::Serialize;
use softcell_bench::{
    arg_value, is_quick, maybe_arm_tracing, maybe_dump_json, maybe_dump_telemetry,
    maybe_dump_trace, TextTable,
};
use softcell_controller::agent::{ControllerApi, LocalAgent};
use softcell_controller::core::{AttachGrant, PathTags};
use softcell_controller::server::{ControllerServer, Request};
use softcell_controller::state::UeRecord;
use softcell_controller::wire::ChannelController;
use softcell_ctlchan::{loopback_pair, Loopback};
use softcell_dataplane::Switch;
use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_telemetry::{Registry, ReqTrace, Snapshot};
use softcell_types::{
    AddressingScheme, BaseStationId, PortEmbedding, PortNo, Result, SimTime, SwitchId, UeId, UeImsi,
};

/// The agent's controller: a real [`ChannelController`] over the framed
/// loopback transport, with the simulated network RTT added per request.
struct WireController {
    chan: ChannelController<Loopback>,
    rtt: Duration,
}

impl WireController {
    fn round_trip(&self) {
        // the base-station <-> controller network distance
        std::thread::sleep(self.rtt);
    }
}

impl ControllerApi for WireController {
    fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        self.round_trip();
        self.chan.attach_ue(imsi, bs, ue_id, now)
    }

    fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags> {
        self.round_trip();
        self.chan.request_policy_path(bs, clause)
    }

    fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        self.round_trip();
        self.chan.detach_ue(imsi)
    }

    fn answered(&self) -> bool {
        self.chan.answered()
    }
}

#[derive(Serialize)]
struct Row {
    hit_ratio_pct: f64,
    flows_handled: u64,
    seconds: f64,
    flows_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Serialize)]
struct Output {
    experiment: String,
    simulated_rtt_us: u64,
    rows: Vec<Row>,
}

fn measure(hit_ratio: f64, duration: Duration, ctl: &mut impl ControllerApi) -> Row {
    let scheme = AddressingScheme::default_scheme();
    let ports = PortEmbedding::default_embedding();
    let mut agent = LocalAgent::new(BaseStationId(0), PortNo(2), scheme, ports);
    let mut switch = Switch::access(SwitchId(0));

    // a population of attached UEs (paper: hundreds per station)
    const UES: u64 = 200;
    for i in 0..UES {
        agent
            .handle_attach(UeImsi(i), ctl, SimTime::ZERO)
            .expect("attach");
    }
    let base_stats = agent.stats();

    // xorshift for the eviction coin
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut flip = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 11) as f64 / (1u64 << 53) as f64
    };

    let start = Instant::now();
    let mut flows: u64 = 0;
    let mut now_us: u64 = 0;
    while start.elapsed() < duration {
        let imsi = UeImsi(flows % UES);
        let permanent = agent.ue(imsi).expect("attached").permanent_ip;
        let tuple = FiveTuple {
            src: permanent,
            dst: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 40_000 + (flows % 20_000) as u16,
            dst_port: 443, // web → the catch-all firewall clause
            proto: Protocol::Tcp,
        };
        let view = HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).expect("packet");

        // force the target hit ratio
        if flip() > hit_ratio {
            agent.invalidate_clause(ClauseId(5));
        }

        now_us += 10;
        agent
            .handle_new_flow(&view, ctl, &mut switch, SimTime(now_us))
            .expect("flow");
        // the flow completes immediately (keeps slots bounded)
        agent.flow_finished(imsi, &tuple).expect("finish");
        switch.microflow.remove(&tuple);
        flows += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = agent.stats();
    Row {
        hit_ratio_pct: hit_ratio * 100.0,
        flows_handled: flows,
        seconds: secs,
        flows_per_sec: flows as f64 / secs,
        cache_hits: stats.cache_hits - base_stats.cache_hits,
        cache_misses: stats.cache_misses - base_stats.cache_misses,
    }
}

#[derive(Serialize, Clone)]
struct ShardRow {
    shards: usize,
    requests: u64,
    seconds: f64,
    requests_per_sec: f64,
    speedup_vs_one: f64,
}

#[derive(Serialize)]
struct ShardOutput {
    experiment: String,
    clients: usize,
    install_fence_us: u64,
    rows: Vec<ShardRow>,
}

/// Flood the sharded pool with attach/detach packet-ins from `CLIENTS`
/// concurrent agents for `duration`; returns (requests, seconds).
fn measure_shards(shards: usize, duration: Duration) -> (u64, f64, Snapshot) {
    const CLIENTS: usize = 16;
    const UES_PER_CLIENT: u64 = 64;
    const FENCE: Duration = Duration::from_micros(200);

    let subscribers: Vec<SubscriberAttributes> = (0..CLIENTS as u64 * UES_PER_CLIENT)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, shards)
            .expect("sharded server");
    server.set_install_latency(FENCE);
    let router = server.router();

    let start = Instant::now();
    let totals: Vec<std::thread::JoinHandle<u64>> = (0..CLIENTS)
        .map(|c| {
            let router = router.clone();
            std::thread::spawn(move || {
                let (atx, arx) = bounded(1);
                let (dtx, drx) = bounded(1);
                let mut requests = 0u64;
                let base = (c as u64) * UES_PER_CLIENT;
                // a per-client xorshift picks the next UE: sequential
                // picks would keep the clients in lockstep marching
                // through the same shard together (shard keys of
                // consecutive imsis cycle), hiding all cross-domain
                // overlap
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1) | 1;
                // each client churns its private UE population: attach
                // (one blocking install at the station) then detach
                // each packet-in is a trace root: with --trace armed,
                // one in 64 is recorded through queue_wait and the
                // worker handler; disarmed, root() is a single load
                let tracer = Registry::global().tracer();
                while start.elapsed() < duration {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let imsi = UeImsi(base + rng % UES_PER_CLIENT);
                    let sp = tracer.root("bench_attach");
                    router
                        .route(Request::Attach {
                            imsi,
                            // a location of its own per IMSI
                            bs: BaseStationId((imsi.0 % 31) as u32),
                            ue_id: UeId((imsi.0 / 31) as u16),
                            now: SimTime(requests),
                            reply: atx.clone(),
                            trace: ReqTrace::at_enqueue(sp.ctx()),
                        })
                        .expect("route attach");
                    arx.recv().expect("attach reply").expect("attach grant");
                    drop(sp);
                    requests += 1;
                    let sp = tracer.root("bench_detach");
                    router
                        .route(Request::Detach {
                            imsi,
                            reply: dtx.clone(),
                            trace: ReqTrace::at_enqueue(sp.ctx()),
                        })
                        .expect("route detach");
                    drx.recv().expect("detach reply").expect("detach record");
                    drop(sp);
                    requests += 1;
                }
                requests
            })
        })
        .collect();
    let requests: u64 = totals.into_iter().map(|t| t.join().expect("client")).sum();
    let secs = start.elapsed().as_secs_f64();
    // grab the registry handle first: shutdown consumes the server, and
    // the workers bank their final counters (range steals) on the way out
    let registry = server.telemetry();
    server.shutdown();
    (requests, secs, registry.snapshot())
}

fn run_shard_sweep(max_shards: usize, duration: Duration, args: &[String]) {
    println!("Table 2 (sharded): controller packet-in throughput vs shard count");
    println!("16 agents flood attach/detach; each attach fences a 200us switch install");
    let mut counts = vec![1usize];
    let mut n = 2;
    while n < max_shards {
        counts.push(n);
        n *= 2;
    }
    if max_shards > 1 {
        counts.push(max_shards);
    }

    // touch the ctlchan metric family so frame/retry counters appear in
    // the exported snapshot even when this mode never crosses the wire
    softcell_ctlchan::metrics::metrics();

    let mut rows: Vec<ShardRow> = Vec::new();
    let mut telemetry = Snapshot::default();
    for &shards in &counts {
        let (requests, secs, snap) = measure_shards(shards, duration);
        telemetry.merge(&snap);
        let rate = requests as f64 / secs;
        let speedup = if let Some(first) = rows.first() {
            rate / first.requests_per_sec
        } else {
            1.0
        };
        rows.push(ShardRow {
            shards,
            requests,
            seconds: secs,
            requests_per_sec: rate,
            speedup_vs_one: speedup,
        });
    }

    let mut t = TextTable::new(&["shards", "requests", "secs", "req/s", "speedup"]);
    for r in &rows {
        t.row(&[
            r.shards.to_string(),
            r.requests.to_string(),
            format!("{:.2}", r.seconds),
            format!("{:.0}", r.requests_per_sec),
            format!("{:.2}x", r.speedup_vs_one),
        ]);
    }
    t.print();

    maybe_dump_json(
        args,
        &ShardOutput {
            experiment: "tab2_sharded".into(),
            clients: 16,
            install_fence_us: 200,
            rows: rows.clone(),
        },
    );

    // with --trace, end on a wire-crossing exchange so the exported
    // trace demonstrates packet-in -> plan -> commit -> batch -> barrier
    // across the framed transport (the sweep itself stays in-process)
    if arg_value::<String>(args, "--trace").is_some() {
        softcell_bench::wire_trace_capture(*counts.last().expect("at least one shard count"));
    }

    telemetry.merge(&Registry::global().snapshot());
    maybe_dump_telemetry(args, &telemetry);
    maybe_dump_trace(args, &telemetry);

    // --min-speedup X: fail unless max-shards reaches X× single-shard
    if let Some(min) = arg_value::<f64>(args, "--min-speedup") {
        let last = rows.last().expect("at least one row");
        if last.speedup_vs_one < min {
            eprintln!(
                "FAIL: {} shards reached {:.2}x single-shard throughput, need {:.2}x",
                last.shards, last.speedup_vs_one, min
            );
            std::process::exit(1);
        }
        println!(
            "smoke ok: {} shards at {:.2}x single-shard throughput (>= {:.2}x)",
            last.shards, last.speedup_vs_one, min
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    maybe_arm_tracing(&args);
    let duration = if is_quick(&args) {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };
    // --shards N: run the sharded packet-in throughput sweep instead
    if let Some(max_shards) = arg_value::<NonZeroUsize>(&args, "--shards") {
        run_shard_sweep(max_shards.get(), duration, &args);
        return;
    }

    let subscribers: Vec<SubscriberAttributes> = (0..200)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, 2)
            .expect("server");

    println!("Table 2: local-agent throughput vs cache hit ratio");
    println!("(paper shape: monotone in hit ratio; ~1.8K flows/s at 0%)");
    let ratios = [1.0, 0.999, 0.99, 0.95, 0.90, 0.80, 0.50, 0.0];
    let (agent_end, controller_end) = loopback_pair();
    let serving = server.serve(controller_end);
    let mut ctl = WireController {
        chan: ChannelController::connect(agent_end, BaseStationId(0)).expect("hello"),
        rtt: Duration::from_micros(500),
    };
    let rows: Vec<Row> = ratios
        .iter()
        .map(|&p| measure(p, duration, &mut ctl))
        .collect();
    drop(ctl);
    serving
        .join()
        .expect("serve thread")
        .expect("serve loop exits cleanly");

    let mut t = TextTable::new(&["hit ratio %", "flows", "secs", "flows/s", "hits", "misses"]);
    for r in &rows {
        t.row(&[
            format!("{:.1}", r.hit_ratio_pct),
            r.flows_handled.to_string(),
            format!("{:.2}", r.seconds),
            format!("{:.0}", r.flows_per_sec),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
        ]);
    }
    t.print();

    maybe_dump_json(
        &args,
        &Output {
            experiment: "tab2".into(),
            simulated_rtt_us: 500,
            rows,
        },
    );
    let registry = server.telemetry();
    server.shutdown();
    let mut telemetry = registry.snapshot();
    telemetry.merge(&Registry::global().snapshot());
    maybe_dump_telemetry(&args, &telemetry);
    maybe_dump_trace(&args, &telemetry);
}
