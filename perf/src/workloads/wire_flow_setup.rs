//! `wire_flow_setup`: flow set-up when the local agent must ask the
//! controller (§6.2, Table 2's 0 % cache-hit row). Two real agents, each
//! with its own access switch and its own framed TCP connection over the
//! host's loopback interface to a 2-shard `ControllerServer`. Closed
//! loop: an agent blocks on every reply. Per cycle: attach, three
//! tag-cache-miss flows, detach. Every thread — agents, serve loops,
//! workers — runs on one CPU.

use std::collections::BTreeSet;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::bounded;
use rand::rngs::StdRng;
use rand::SeedableRng;
use softcell_controller::agent::FlowSetup;
use softcell_controller::server::{ControllerServer, Request};
use softcell_controller::wire::ChannelController;
use softcell_controller::{ControllerConfig, LocalAgent};
use softcell_ctlchan::{Frame, Message, PacketIn, TcpTransport};
use softcell_dataplane::Switch;
use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell_policy::{ClauseId, ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_types::{BaseStationId, Error, PortNo, Result, SimTime, SwitchId, UeId, UeImsi};

use super::{
    batched_ns, confine_to_one_cpu, harness_metrics, peak_rss_mb, shuffle, Checks, Metric, Outcome,
    RunArgs, Sampler, SpannedApi, Windows,
};
use crate::span::{by_layer, durations_us, self_times, Tracer};
use crate::stats::{percentile, quiet_high, Summary};

/// Generator threads = connections = agents. All of them, and the
/// server's threads, share one CPU ([`confine_to_one_cpu`]): a request
/// is handed agent → serve loop → worker → serve loop → agent, and
/// spread over two virtual CPUs each hand-off wakes an idle one through
/// the hypervisor — half-second throughput windows of one run then
/// range 7 k–57 k requests/s, and more agents to keep the CPUs busy
/// (four were tried) only trade that for the scheduler's luck in pairing
/// threads. On one CPU a hand-off is a context switch, throughput is what
/// one core can serve, and identical runs agree within 3 %.
const AGENTS: usize = 2;
const SHARDS: usize = 2;
/// Subscribers each agent cycles through.
const UES_PER_AGENT: u64 = 500;
/// web, video, VoIP: three different clauses for a home-silver
/// subscriber, so with the tag cache cleared each one is a miss.
const FLOWS: [(u16, Protocol); 3] = [
    (443, Protocol::Tcp),
    (554, Protocol::Tcp),
    (5060, Protocol::Udp),
];
/// Packet-in round trips per cycle: attach, three path requests, detach.
const REQUESTS_PER_CYCLE: u64 = 5;
const SERVER_ADDR: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);
/// The timed part is cut into episodes, each on a fresh server, fresh
/// connections and fresh threads: twelve set-ups to take `setup_s` from,
/// and no rig's luck (port numbers, allocator placement) is the run's.
const EPISODES: usize = 12;
/// Cycles each agent runs, discarded, before an episode's timed part.
/// They are part of `setup_s`: a rig is not ready until its path maps,
/// classifier caches and sockets are warm — and bringing a rig up alone
/// is half a millisecond of thread spawns and TCP handshakes, which the
/// host times to within a factor of three.
const WARMUP_CYCLES: u64 = 500;
/// Windows per episode, 50 ms each at the benchmark's run length:
/// `ops_per_s` and `op_p50_us` are taken window by window.
const SLICES_PER_EPISODE: usize = 50;
/// Latencies kept per agent per drive.
const LATENCY_SAMPLES: usize = 8_192;
const WIRE_SPANS: [&str; 3] = [
    "wire.attach_ue",
    "wire.request_policy_path",
    "wire.detach_ue",
];

/// One agent's end of the rig.
struct AgentEnd {
    agent: LocalAgent,
    switch: Switch,
    ctl: ChannelController<TcpTransport>,
    /// This agent's subscribers, in a seeded order.
    imsis: Vec<UeImsi>,
}

struct Rig {
    server: ControllerServer,
    serving: Vec<JoinHandle<Result<()>>>,
    agents: Vec<AgentEnd>,
}

fn setup(seed: u64) -> Result<Rig> {
    let total = AGENTS as u64 * UES_PER_AGENT + 1; // + one spare for the codec probes
    let subscribers = (0..total).map(|i| SubscriberAttributes::default_home(UeImsi(i)));
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, SHARDS)?;
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
        .map_err(|e| Error::InvalidState(format!("bind loopback: {e}")))?;
    let addr: SocketAddr = listener
        .local_addr()
        .map_err(|e| Error::InvalidState(format!("local addr: {e}")))?;
    let cfg = ControllerConfig::simulation();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut serving = Vec::new();
    let mut agents = Vec::new();
    for i in 0..AGENTS {
        // connect() completes against the listen backlog; the accepted
        // end is handed to a serve thread before the hello goes out
        let client = TcpTransport::connect(addr)?;
        let (stream, _) = listener
            .accept()
            .map_err(|e| Error::InvalidState(format!("accept: {e}")))?;
        serving.push(server.serve(TcpTransport::from_stream(stream)));
        let bs = BaseStationId(i as u32);
        let mut imsis: Vec<UeImsi> = (0..UES_PER_AGENT)
            .map(|u| UeImsi(i as u64 * UES_PER_AGENT + u))
            .collect();
        shuffle(&mut imsis, &mut rng);
        agents.push(AgentEnd {
            agent: LocalAgent::new(bs, PortNo(2), cfg.scheme, cfg.ports),
            switch: Switch::access(SwitchId(i as u32)),
            ctl: ChannelController::connect(client, bs)?,
            imsis,
        });
    }
    Ok(Rig {
        server,
        serving,
        agents,
    })
}

/// Closes the connections, joins the serve threads, stops the workers.
fn teardown(rig: Rig, checks: &mut Checks) {
    drop(rig.agents);
    for h in rig.serving {
        match h.join() {
            Ok(r) => {
                checks.ok("serve thread", r);
            }
            Err(_) => checks.fail(|| "serve thread panicked".into()),
        }
    }
    let rejected = rig.server.queue_rejected();
    checks.check(rejected == 0, || {
        format!("{rejected} requests shed by a full queue")
    });
    rig.server.shutdown();
}

/// What an agent accumulates cycle by cycle. Fixed memory.
struct Tallies {
    flow_setup_us: Sampler,
    attach_us: Sampler,
    /// Distinct policy tags the controller handed this agent.
    tags: BTreeSet<u16>,
    /// Most microflow entries the access switch held at once.
    microflow_hwm: usize,
    /// The latest cycle's three flow set-ups.
    cycle_flow_setup_us: [f64; FLOWS.len()],
}

impl Tallies {
    fn new() -> Tallies {
        Tallies {
            flow_setup_us: Sampler::new(LATENCY_SAMPLES),
            attach_us: Sampler::new(LATENCY_SAMPLES),
            tags: BTreeSet::new(),
            microflow_hwm: 0,
            cycle_flow_setup_us: [0.0; FLOWS.len()],
        }
    }
}

/// What one agent thread measured.
struct AgentRun {
    end: AgentEnd,
    checks: Checks,
    /// Packet-in round trips completed, by window since the common start.
    windows: Windows,
    tallies: Tallies,
    tracer: Tracer,
}

/// One attach → three flows → detach cycle.
fn cycle(end: &mut AgentEnd, n: u64, tr: &mut Tracer, tallies: &mut Tallies) -> Result<()> {
    let imsi = end.imsis[n as usize % end.imsis.len()];
    let now = SimTime(n);
    let AgentEnd {
        agent, switch, ctl, ..
    } = end;
    tr.scope("wire.cycle", n, |tr| {
        agent.clear_tag_cache();
        let t = Instant::now();
        let rec = tr.scope("agent.handle_attach", n, |tr| {
            agent.handle_attach(
                imsi,
                &mut SpannedApi::new(&mut *ctl, tr, n, WIRE_SPANS),
                now,
            )
        })?;
        tallies.attach_us.offer(t.elapsed().as_secs_f64() * 1e6);

        for (k, (dst_port, proto)) in FLOWS.into_iter().enumerate() {
            let tuple = FiveTuple {
                src: rec.permanent_ip,
                dst: SERVER_ADDR,
                src_port: 50_000 + k as u16,
                dst_port,
                proto,
            };
            let view = tr.scope("packet.build_parse", n, |_| {
                HeaderView::parse(&build_flow_packet(tuple, 64, 0, b"x"))
            })?;
            let t = Instant::now();
            let setup = tr.scope("agent.handle_new_flow", n, |tr| {
                agent.handle_new_flow(
                    &view,
                    &mut SpannedApi::new(&mut *ctl, tr, n, WIRE_SPANS),
                    switch,
                    now,
                )
            })?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            tallies.flow_setup_us.offer(us);
            tallies.cycle_flow_setup_us[k] = us;

            // the set-up counts only once both microflow rules are in
            // the access switch
            let flow = *agent
                .flows_of(imsi)?
                .last()
                .ok_or_else(|| Error::InvalidState("flow not recorded".into()))?;
            let installed = switch.microflow.peek(&flow.uplink).is_some()
                && switch.microflow.peek(&flow.downlink).is_some();
            match setup {
                FlowSetup::Allowed {
                    cache_hit: false,
                    loc_source,
                    ..
                } if installed => {
                    tallies.tags.insert(cfg_tag(loc_source.1));
                }
                other => {
                    return Err(Error::InvalidState(format!(
                        "flow set-up was not a miss with rules installed: {other:?}"
                    )))
                }
            }
            tallies.microflow_hwm = tallies.microflow_hwm.max(switch.microflow.len());
        }
        for flow in agent.flows_of(imsi)?.to_vec() {
            agent.flow_finished(imsi, &flow.uplink)?;
            switch.microflow.remove(&flow.uplink);
            switch.microflow.remove(&flow.downlink);
        }
        tr.scope("agent.handle_detach", n, |tr| {
            agent.handle_detach(imsi, &mut SpannedApi::new(&mut *ctl, tr, n, WIRE_SPANS))
        })
    })
}

/// The policy tag embedded in a rewritten source port.
fn cfg_tag(port: u16) -> u16 {
    ControllerConfig::simulation().ports.decode(port).0 .0
}

/// Runs one agent: a discarded warm-up, then cycles until `seconds`
/// after the common start. Also returns when, on `epoch`'s clock, every
/// agent was warm.
fn agent_thread(
    mut end: AgentEnd,
    mut tracer: Tracer,
    seconds: f64,
    start: Arc<Barrier>,
    epoch: Instant,
) -> (AgentRun, f64) {
    let mut checks = Checks::default();
    let mut n = 0u64;
    let mut one = |end: &mut AgentEnd, tr: &mut Tracer, tallies: &mut Tallies, n: u64| {
        let r = cycle(end, n, tr, tallies);
        checks.tally(REQUESTS_PER_CYCLE, u64::from(r.is_err()), || {
            format!("cycle {n}: {}", r.as_ref().expect_err("tallied as failed"))
        });
        r.is_ok()
    };

    let mut discarded = Tallies::new();
    while n < WARMUP_CYCLES && one(&mut end, &mut Tracer::disabled(), &mut discarded, n) {
        n += 1;
    }

    let mut tallies = Tallies::new();
    let mut windows = Windows::new(seconds, SLICES_PER_EPISODE);
    start.wait();
    let ready_s = epoch.elapsed().as_secs_f64();
    let t0 = Instant::now();
    // a failed cycle leaves the agent's view of the UE unknown; stop
    // instead of failing every later cycle for the same reason
    while one(&mut end, &mut tracer, &mut tallies, n) {
        n += 1;
        let now = t0.elapsed().as_secs_f64();
        windows.done(now, REQUESTS_PER_CYCLE, &tallies.cycle_flow_setup_us);
        if now >= seconds {
            break;
        }
    }
    let run = AgentRun {
        end,
        checks,
        windows,
        tallies,
        tracer,
    };
    (run, ready_s)
}

/// What one drive of a rig measured, all agents together.
struct Driven {
    /// Packet-in round trips per second, and the median flow set-up,
    /// window by window.
    rates: Vec<f64>,
    window_flow_setup_us: Vec<f64>,
    flow_setup_us: Vec<f64>,
    attach_us: Vec<f64>,
    tags: BTreeSet<u16>,
    /// Sum over the agents' access switches.
    microflow_hwm: usize,
    tracer: Tracer,
    /// Seconds from the start of the drive until every agent was warm.
    ready_s: f64,
}

/// Runs the rig's agents concurrently for `seconds` and folds their
/// results; the agents' ends go back into the rig.
fn drive(rig: &mut Rig, seconds: f64, traced: bool, checks: &mut Checks) -> Driven {
    let epoch = Instant::now();
    let start = Arc::new(Barrier::new(rig.agents.len()));
    let handles: Vec<_> = rig
        .agents
        .drain(..)
        .enumerate()
        .map(|(i, end)| {
            let start = Arc::clone(&start);
            let tracer = if traced {
                Tracer::new(epoch, i as u32)
            } else {
                Tracer::disabled()
            };
            std::thread::spawn(move || agent_thread(end, tracer, seconds, start, epoch))
        })
        .collect();
    let mut d = Driven {
        rates: Vec::new(),
        window_flow_setup_us: Vec::new(),
        flow_setup_us: Vec::new(),
        attach_us: Vec::new(),
        tags: BTreeSet::new(),
        microflow_hwm: 0,
        tracer: Tracer::new(epoch, 0),
        ready_s: 0.0,
    };
    let mut windows = Windows::new(seconds, SLICES_PER_EPISODE);
    for h in handles {
        let (run, ready_s) = h.join().expect("agent thread panicked");
        d.ready_s = d.ready_s.max(ready_s);
        checks.absorb(run.checks);
        windows.merge(run.windows);
        d.flow_setup_us
            .extend(run.tallies.flow_setup_us.into_samples());
        d.attach_us.extend(run.tallies.attach_us.into_samples());
        d.tags.extend(run.tallies.tags);
        d.microflow_hwm += run.tallies.microflow_hwm;
        d.tracer.absorb(run.tracer);
        rig.agents.push(run.end);
    }
    d.rates = windows.rates();
    d.window_flow_setup_us = windows.median_latencies_us();
    d
}

pub fn run(args: &RunArgs) -> Outcome {
    // before the first rig: its server threads inherit the mask
    if confine_to_one_cpu().is_none() {
        eprintln!("softcell-perf: not confined to one CPU; timings will follow the scheduler");
    }
    if args.trace {
        return run_traced(args);
    }
    let mut checks = Checks::default();
    let mut setup_times = Vec::new();
    let mut rates = Vec::new();
    let mut flow_setup_us = Vec::new();
    let mut tags = BTreeSet::new();
    let mut microflow_hwm = 0;
    for _ in 0..EPISODES {
        let t = Instant::now();
        let rig = setup(args.seed);
        let built_s = t.elapsed().as_secs_f64();
        let Some(mut rig) = checks.ok("rig set-up", rig) else {
            break;
        };
        let d = drive(&mut rig, args.seconds / EPISODES as f64, false, &mut checks);
        setup_times.push(built_s + d.ready_s);
        teardown(rig, &mut checks);
        rates.extend(d.rates);
        flow_setup_us.extend(d.window_flow_setup_us);
        tags.extend(d.tags);
        microflow_hwm = microflow_hwm.max(d.microflow_hwm);
    }
    Outcome {
        checks,
        metrics: vec![
            Metric::quiet("setup_s", &setup_times),
            Metric::estimated("ops_per_s", quiet_high(&rates), &rates),
            // the typical request of an undisturbed window
            Metric::quiet("op_p50_us", &flow_setup_us),
            Metric::exact("peak_rss_mb", peak_rss_mb()),
            // the only rule tables on this workload are the agents' access
            // switches: one cycle's microflow rules each, at most
            Metric::exact("rules_total", microflow_hwm as f64),
            Metric::exact("tags_used", tags.len() as f64),
        ],
        spans: Vec::new(),
    }
}

/// Times `f` per call, `n` calls.
fn per_call_us(n: usize, mut f: impl FnMut() -> Result<()>, checks: &mut Checks) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut failed = 0u64;
    for _ in 0..n {
        let t = Instant::now();
        failed += u64::from(f().is_err());
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    checks.tally(n as u64, failed, || format!("{failed} probe calls failed"));
    out
}

/// The probes below a flow set-up, on the run's own connection and
/// server: channel round trips that skip the worker queue, the worker
/// queue without the channel, the codec alone.
fn layer_probes(rig: &mut Rig, budget_s: f64, checks: &mut Checks, metrics: &mut Vec<Metric>) {
    let spare = UeImsi(AGENTS as u64 * UES_PER_AGENT);
    let calls = ((budget_s / 4.0) / 60e-6) as usize; // ~60 µs per round trip
    let router = rig.server.router();
    let end = &mut rig.agents[0];
    let bs = end.ctl.base_station();

    let us = per_call_us(calls, || end.ctl.channel().echo(b"perf").map(drop), checks);
    metrics.push(Metric::sampled("ctlchan.echo_rtt_us", &us));
    let us = per_call_us(calls, || end.ctl.channel().barrier(), checks);
    metrics.push(Metric::sampled("ctlchan.barrier_rtt_us", &us));

    let (tx, rx) = bounded(1);
    let us = per_call_us(
        calls,
        || {
            router.route(Request::PathTag {
                bs,
                clause: ClauseId(5),
                reply: tx.clone(),
                trace: Default::default(),
            })?;
            rx.recv()
                .map_err(|_| Error::InvalidState("worker dropped the reply".into()))?
                .map(drop)
        },
        checks,
    );
    metrics.push(Metric::sampled("server.route_rtt_us", &us));

    // the frames of one attach / path request / detach, as they crossed
    // this connection
    let requests = [
        Message::PacketIn(PacketIn::Attach {
            imsi: spare,
            bs,
            ue_id: UeId(4000),
            now: SimTime::ZERO,
        }),
        Message::PacketIn(PacketIn::PathRequest {
            bs,
            clause: ClauseId(5),
        }),
        Message::PacketIn(PacketIn::Detach { imsi: spare }),
    ];
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for req in &requests {
        frames.push(req.encode(1));
        if let Some(reply) = checks.ok("probe request", end.ctl.channel().request(req)) {
            frames.push(reply);
        }
    }
    let decoded: Vec<Message<'static>> = frames
        .iter()
        .filter_map(|f| {
            let msg =
                Frame::new_checked(f.as_slice()).and_then(|fr| Ok(fr.message()?.into_static()));
            checks.ok("decode probe frame", msg)
        })
        .collect();
    checks.check(
        decoded
            .iter()
            .any(|m| matches!(m, Message::ClassifierReply { .. }))
            && decoded
                .iter()
                .any(|m| matches!(m, Message::FlowModBatch { .. })),
        || "probe frames lack a classifier reply or a flow-mod batch".into(),
    );
    if decoded.is_empty() {
        return;
    }
    let frames_coded = ((budget_s / 4.0) / 1e-6) as usize; // ~1 µs per frame
    let ns = batched_ns(frames_coded, |i| {
        let m = &decoded[i % decoded.len()];
        std::hint::black_box(std::hint::black_box(m).encode(7));
    });
    metrics.push(Metric::sampled("ctlchan.codec_encode_ns", &ns));
    let ns = batched_ns(frames_coded, |i| {
        let f = std::hint::black_box(frames[i % frames.len()].as_slice());
        let _ = std::hint::black_box(Frame::new_checked(f).and_then(|fr| fr.message().map(drop)));
    });
    metrics.push(Metric::sampled("ctlchan.codec_decode_ns", &ns));
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    let spans = traced_body(args, &mut checks, &mut metrics);
    Outcome {
        checks,
        metrics,
        spans: spans.unwrap_or_default(),
    }
}

fn traced_body(
    args: &RunArgs,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Option<Vec<crate::span::Span>> {
    let policy = ServicePolicy::example_carrier_a(1);
    let attrs = SubscriberAttributes::default_home(UeImsi(0));
    let apps = softcell_policy::AppClassifier::default();
    let compile_us: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(UeClassifier::compile(&policy, &apps, &attrs));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.push(Metric::sampled("policy.classifier_compile_us", &compile_us));

    let mut rig = checks.ok("rig set-up", setup(args.seed))?;
    // untraced, then traced, on the same rig: the difference is what the
    // spans cost
    let plain = drive(&mut rig, args.seconds * 0.3, false, checks);
    let before = rig.agents[0].ctl.channel().stats();
    let traced = drive(&mut rig, args.seconds * 0.4, true, checks);
    let after = rig.agents[0].ctl.channel().stats();
    let (plain_rate, traced_rate) = (Summary::of(&plain.rates), Summary::of(&traced.rates));

    // frames and bytes per packet-in round trip, from the server's own
    // counters for connection 0 across the traced drive
    let spans = traced.tracer.into_spans();
    let requests0 = spans
        .iter()
        .filter(|s| s.tid == 0 && WIRE_SPANS.contains(&s.name))
        .count() as f64;
    if let (Some(b), Some(a)) = (checks.ok("stats", before), checks.ok("stats", after)) {
        let frames = (a.tx_msgs - b.tx_msgs + a.rx_msgs - b.rx_msgs) as f64;
        let bytes = (a.tx_bytes - b.tx_bytes + a.rx_bytes - b.rx_bytes) as f64;
        metrics.push(Metric::exact(
            "ctlchan.frames_per_request",
            frames / requests0,
        ));
        metrics.push(Metric::exact(
            "ctlchan.bytes_per_request",
            bytes / requests0,
        ));
    }

    layer_probes(&mut rig, args.seconds * 0.3, checks, metrics);

    let snapshot = rig.server.telemetry().snapshot();
    let hwm = (0..SHARDS)
        .map(|s| {
            snapshot.gauge_labeled(
                "softcell_controller_shard_queue_depth_hwm",
                &format!("shard={s}"),
            )
        })
        .max()
        .unwrap_or(0);
    metrics.push(Metric::exact("server.queue_depth_hwm", hwm as f64));
    metrics.push(Metric::exact(
        "server.queue_rejected",
        rig.server.queue_rejected() as f64,
    ));
    teardown(rig, checks);

    metrics.extend(harness_metrics(
        plain_rate.median / traced_rate.median,
        &plain_rate,
        &spans,
    ));
    let layers = by_layer(&spans);
    let us = |name: &str| durations_us(&layers, name);
    metrics.push(Metric::sampled("wire.attach_rtt_us", &us("wire.attach_ue")));
    metrics.push(Metric::sampled(
        "wire.path_request_rtt_us",
        &us("wire.request_policy_path"),
    ));
    metrics.push(Metric::sampled("wire.detach_rtt_us", &us("wire.detach_ue")));
    // a miss minus its path-request round trip: the agent's own work
    let selfs = self_times(&spans);
    let miss_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "agent.handle_new_flow")
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    metrics.push(Metric::sampled("agent.new_flow_miss_self_us", &miss_self));

    for (p50, p99, samples) in [
        (
            "wire.flow_setup_p50_us",
            "wire.flow_setup_p99_us",
            &traced.flow_setup_us,
        ),
        (
            "wire.attach_p50_us",
            "wire.attach_p99_us",
            &traced.attach_us,
        ),
    ] {
        metrics.push(Metric::sampled(p50, samples));
        metrics.push(Metric::exact(p99, percentile(samples, 99.0)));
    }
    Some(spans)
}
