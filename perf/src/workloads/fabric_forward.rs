//! `fabric_forward`: the data-plane read path. 640 attached
//! subscribers, five live connections each; the timed part walks one
//! packet up to the gateway and its echo back down to the radio, for
//! every connection in turn. No controller work after set-up. Single
//! thread.

use std::net::Ipv4Addr;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softcell_controller::ControllerConfig;
use softcell_dataplane::matcher::{conventional_priority, Direction, Match};
use softcell_dataplane::{Action, FlowTable, LookupKey};
use softcell_packet::{build_flow_packet, AccessRewriter, FiveTuple, HeaderView, Protocol};
use softcell_policy::ServicePolicy;
use softcell_sim::world::ConnId;
use softcell_sim::{MiddleboxTracker, SimWorld, WalkOutcome};
use softcell_topology::{CellularParams, Topology};
use softcell_types::{
    BaseStationId, Error, Ipv4Prefix, LocIp, PolicyTag, PortNo, Result, SwitchId, UeId,
};

use super::{
    batched_ns, fabric_rule_counts, harness_metrics, peak_rss_mb, shuffle, subscriber_mix, Checks,
    Metric, Outcome, RunArgs, UnitTimes, PROBE_BATCH,
};
use crate::span::{by_layer, durations_us, Tracer};
use crate::stats::Summary;

/// Four per station, one of each kind of [`subscriber_mix`]. Twenty per
/// station (the 16 000 connections ISSUE 11 sized) put the microflow
/// tables and connection records well past the 2 MiB of a core's own
/// cache, and the run then timed the host's shared cache — identical
/// runs read 217 k–307 k round trips/s as neighbours came and went. At
/// this size the walk is the same code over the same fabric tables and
/// repeats within 1 %; `dataplane.table_lookup_2000_ns` is where a
/// table too big for the cache is probed.
const SUBSCRIBERS: u64 = 640;
/// web, web, video, VoIP, DNS — one connection each per subscriber.
const APPS: [(u16, Protocol); 5] = [
    (443, Protocol::Tcp),
    (80, Protocol::Tcp),
    (554, Protocol::Tcp),
    (5060, Protocol::Udp),
    (53, Protocol::Udp),
];
const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);
/// Round trips timed as one unit: long enough that the two clock reads
/// around it cost under 0.1 % of it, short enough (0.2 ms) that many
/// units of a disturbed second still run undisturbed. The shuffled
/// visiting order is cut into units once, so a unit is the same 64
/// connections every pass.
const CHUNK: usize = 64;
/// The timed part is cut into episodes, each on a freshly built world:
/// where the allocator puts a world, and which hash seeds its tables
/// draw, shift a whole process's speed by several percent, so one world
/// per run would make that luck the run's result.
const EPISODES: usize = 12;
/// Spans kept by a traced run (five per round trip).
const TRACED_ROUND_TRIPS: usize = 100_000;

pub fn topology() -> Topology {
    CellularParams::paper(4).build().expect("paper(4) topology")
}

/// The provisioned, attached world with every connection's rules in
/// place (each connection has completed one round trip), and the
/// connections in the order the timed loop visits them.
///
/// Who attaches where, and in which order, is fixed: Algorithm 1 is
/// order-dependent, and a seeded attach order moved the fabric's rule
/// count by ±25 % and the throughput with it. The seed picks what the
/// read path sees — each connection's client port (its place in the
/// microflow hash tables) and the visiting order.
pub fn setup<'t>(
    topo: &'t Topology,
    seed: u64,
    checks: &mut Checks,
) -> (SimWorld<'t>, Vec<ConnId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = SimWorld::new(topo, ServicePolicy::example_carrier_a(1));
    let stations = topo.base_stations().len() as u64;
    let mut conns = Vec::with_capacity(SUBSCRIBERS as usize * APPS.len());
    for attrs in subscriber_mix(SUBSCRIBERS, stations) {
        world.provision(attrs);
        let bs = BaseStationId((attrs.imsi.0 % stations) as u32);
        if checks.ok("attach", world.attach(attrs.imsi, bs)).is_none() {
            continue;
        }
        let client_port = rng.gen_range(20_000..60_000u16);
        for (k, (port, proto)) in APPS.into_iter().enumerate() {
            let id = checks.ok(
                "start_connection",
                world.start_connection_from_port(
                    attrs.imsi,
                    SERVER,
                    port,
                    proto,
                    client_port + k as u16,
                ),
            );
            if let Some(id) = id {
                if checks
                    .ok("first round trip", world.round_trip(id))
                    .is_some()
                {
                    conns.push(id);
                }
            }
        }
    }
    shuffle(&mut conns, &mut rng);
    (world, conns)
}

/// Forgets the middlebox traversal log. The tracker appends one entry
/// per middlebox per packet and `assert_policy_consistency` scans the
/// whole log per connection, so it is only ever checked over one pass.
fn reset_tracker(world: &mut SimWorld<'_>) {
    let cfg = ControllerConfig::simulation();
    world.net.middleboxes = MiddleboxTracker::new(cfg.scheme, cfg.ports);
}

/// One verified pass over every connection on a fresh traversal log.
fn verify_pass(world: &mut SimWorld<'_>, conns: &[ConnId], checks: &mut Checks) {
    reset_tracker(world);
    for &id in conns {
        checks.ok("round_trip", world.round_trip(id));
    }
    checks.ok("policy consistency", world.assert_policy_consistency());
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut checks = Checks::default();
    let topo = topology();
    let mut setup_times = Vec::new();
    let mut units = UnitTimes::new((SUBSCRIBERS as usize * APPS.len()).div_ceil(CHUNK));
    let mut counts = (0, 0);
    let per_episode = args.seconds / EPISODES as f64;
    for episode in 0..EPISODES {
        let mut setup_checks = Checks::default();
        let t = Instant::now();
        let (mut world, conns) = setup(&topo, args.seed, &mut setup_checks);
        setup_times.push(t.elapsed().as_secs_f64());
        checks.absorb(setup_checks);
        checks.check(conns.len() == SUBSCRIBERS as usize * APPS.len(), || {
            format!("{} connections set up", conns.len())
        });
        if conns.is_empty() {
            break;
        }
        // warm-up: one untimed pass, verified on the first episode
        if episode == 0 {
            verify_pass(&mut world, &conns, &mut checks);
        } else {
            reset_tracker(&mut world);
            for &id in &conns {
                checks.ok("round_trip", world.round_trip(id));
            }
        }

        let mut failed = 0u64;
        let mut round_trips = 0u64;
        let start = Instant::now();
        // whole passes only: every unit is timed equally often
        while start.elapsed().as_secs_f64() < per_episode {
            for (unit, chunk) in conns.chunks(CHUNK).enumerate() {
                // untimed, and per chunk: the log and the per-connection
                // counters are the simulator's bookkeeping, and left to
                // grow over a pass they are most of the memory it touches
                reset_tracker(&mut world);
                let t = Instant::now();
                for &id in chunk {
                    failed += u64::from(world.round_trip(id).is_err());
                }
                units.record(unit, t.elapsed().as_secs_f64());
                round_trips += chunk.len() as u64;
            }
        }
        checks.tally(round_trips, failed, || {
            format!("{failed} round trips failed")
        });
        if episode + 1 == EPISODES {
            verify_pass(&mut world, &conns, &mut checks);
            counts = (
                fabric_rule_counts(&topo, &world.net).total,
                world.controller.installer().tags_in_use(),
            );
        }
    }
    // each unit at its quiet time: a pass is their sum, and the median
    // unit gives the time of one round trip
    let per_pass = (SUBSCRIBERS as usize * APPS.len()) as f64;
    let quiet = units.quiet();
    let pass_s = units.pass_times();
    let rates: Vec<f64> = pass_s.iter().map(|t| per_pass / t).collect();
    let per_op_us: Vec<f64> = quiet.iter().map(|t| t * 1e6 / CHUNK as f64).collect();
    Outcome {
        checks,
        metrics: vec![
            Metric::quiet("setup_s", &setup_times),
            Metric::estimated("ops_per_s", per_pass / quiet.iter().sum::<f64>(), &rates),
            Metric::sampled("op_p50_us", &per_op_us),
            Metric::exact("peak_rss_mb", peak_rss_mb()),
            Metric::exact("rules_total", counts.0 as f64),
            Metric::exact("tags_used", counts.1 as f64),
        ],
        spans: Vec::new(),
    }
}

/// What one decomposed round trip observed.
struct Hops {
    uplink: usize,
    downlink: usize,
}

/// One round trip through the per-call public API — what
/// `SimWorld::round_trip` does for an established connection, with a
/// span around each layer call.
fn round_trip_per_call(
    world: &mut SimWorld<'_>,
    topo: &Topology,
    id: ConnId,
    tr: &mut Tracer,
) -> Result<Hops> {
    let req = id.0 as u64;
    let conn = world.connection(id);
    let (imsi, ue_tuple) = (conn.imsi, conn.ue_tuple);
    let internet_tuple = conn
        .internet_tuple
        .ok_or_else(|| Error::InvalidState("connection not set up".into()))?;
    let station = topo.base_station(world.controller.state().ue(imsi)?.bs);
    let (access, radio) = (station.access_switch, station.radio_port);
    let gw = topo.default_gateway();
    let now = world.now();

    tr.scope("fabric.round_trip", req, |tr| {
        let mut buf = tr.scope("packet.build_flow_packet", req, |_| {
            build_flow_packet(ue_tuple, 64, 0, b"ping")
        });
        let version = world.net.switch(access).ingress_version;
        let out = tr.scope("sim.walk_uplink", req, |_| {
            world.net.walk(topo, &mut buf, access, radio, version, now)
        })?;
        if !matches!(out, WalkOutcome::ExitedGateway { .. }) {
            return Err(Error::InvalidState(format!("uplink did not exit: {out:?}")));
        }
        let uplink = world.net.last_walk_hops;
        HeaderView::parse(&buf)?; // 10 ns: below what a span can time, see `packet.parse_ns`

        let mut buf = tr.scope("packet.build_flow_packet", req, |_| {
            build_flow_packet(internet_tuple.reverse(), 200, 0, b"pong")
        });
        let version = world.net.switch(gw.switch).ingress_version;
        let out = tr.scope("sim.walk_downlink", req, |_| {
            world
                .net
                .walk(topo, &mut buf, gw.switch, gw.port, version, now)
        })?;
        let view = HeaderView::parse(&buf)?;
        match out {
            WalkOutcome::DeliveredToRadio { switch }
                if switch == access
                    && view.dst() == ue_tuple.src
                    && view.dst_port() == ue_tuple.src_port => {}
            other => {
                return Err(Error::InvalidState(format!(
                    "downlink not delivered to the UE: {other:?}"
                )))
            }
        }
        Ok(Hops {
            uplink,
            downlink: world.net.last_walk_hops,
        })
    })
}

/// A packet at the point it enters a switch.
struct Ingress {
    switch: SwitchId,
    in_port: PortNo,
    version: u32,
    packet: Vec<u8>,
}

/// The layer probes below the walk: calls into one switch, one table,
/// one packet function at a time, on this workload's own packets.
fn layer_probes(
    world: &mut SimWorld<'_>,
    topo: &Topology,
    conns: &[ConnId],
    budget_s: f64,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) {
    let now = world.now();
    let gw = topo.default_gateway();
    // uplink packets as the UE sends them (access ingress: microflow
    // hit + rewrite) and their echoes as the Internet returns them
    // (gateway ingress: wildcard table)
    let mut ingress: Vec<Ingress> = Vec::new();
    for &id in conns.iter().step_by(conns.len().div_ceil(512).max(1)) {
        let c = world.connection(id);
        let (Ok(rec), Some(internet)) = (world.controller.state().ue(c.imsi), c.internet_tuple)
        else {
            continue;
        };
        let station = topo.base_station(rec.bs);
        ingress.push(Ingress {
            switch: station.access_switch,
            in_port: station.radio_port,
            version: world.net.switch(station.access_switch).ingress_version,
            packet: build_flow_packet(c.ue_tuple, 64, 0, b"ping"),
        });
        ingress.push(Ingress {
            switch: gw.switch,
            in_port: gw.port,
            version: world.net.switch(gw.switch).ingress_version,
            packet: build_flow_packet(internet.reverse(), 200, 0, b"pong"),
        });
    }
    checks.check(!ingress.is_empty(), || "no packets to probe with".into());
    if ingress.is_empty() {
        return;
    }
    // one probe's share of the budget, as a call count from a quick
    // estimate of ~100 ns per call
    let calls = ((budget_s / 8.0) / 100e-9) as usize;

    let mut scratch = vec![0u8; 256];
    let ns = batched_ns(calls, |i| {
        let p = &ingress[i % ingress.len()];
        let buf = &mut scratch[..p.packet.len()];
        buf.copy_from_slice(&p.packet);
        let r = world
            .net
            .switch_mut(p.switch)
            .process(buf, p.in_port, p.version, now);
        std::hint::black_box(&r);
    });
    metrics.push(Metric::sampled("dataplane.switch_process_ns", &ns));

    let views: Vec<(usize, HeaderView)> = ingress
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some((i, HeaderView::parse(&p.packet).ok()?)))
        .collect();
    let downlink: Vec<&(usize, HeaderView)> = views.iter().filter(|(i, _)| i % 2 == 1).collect();
    let uplink: Vec<&(usize, HeaderView)> = views.iter().filter(|(i, _)| i % 2 == 0).collect();

    let mut hits = 0usize;
    let ns = batched_ns(calls, |i| {
        let (idx, view) = downlink[i % downlink.len()];
        let p = &ingress[*idx];
        let key = LookupKey {
            in_port: p.in_port,
            view: *view,
            version: p.version,
        };
        hits += usize::from(world.net.switch_mut(p.switch).table.lookup(&key).is_some());
    });
    checks.check(hits == ns.len() * PROBE_BATCH, || {
        format!(
            "gateway table lookups: {hits} hits of {}",
            ns.len() * PROBE_BATCH
        )
    });
    metrics.push(Metric::sampled("dataplane.table_lookup_ns", &ns));

    let mut hits = 0usize;
    let idle = world.net.switch(ingress[0].switch).microflow_idle;
    let ns = batched_ns(calls, |i| {
        let (idx, view) = uplink[i % uplink.len()];
        let sw = world.net.switch_mut(ingress[*idx].switch);
        hits += usize::from(sw.microflow.lookup(&view.tuple, now, idle).is_some());
    });
    checks.check(hits == ns.len() * PROBE_BATCH, || {
        format!(
            "microflow lookups: {hits} hits of {}",
            ns.len() * PROBE_BATCH
        )
    });
    metrics.push(Metric::sampled("dataplane.microflow_lookup_ns", &ns));

    let (table, key) = table_2000();
    let mut table = checks.ok("2000-rule table", table).unwrap_or_default();
    let mut hits = 0usize;
    let ns = batched_ns(calls, |_| {
        hits += usize::from(table.lookup(std::hint::black_box(&key)).is_some());
    });
    checks.check(hits == ns.len() * PROBE_BATCH, || {
        "2000-rule probe missed".into()
    });
    metrics.push(Metric::sampled("dataplane.table_lookup_2000_ns", &ns));

    let tuple = world.connection(conns[0]).ue_tuple;
    let ns = batched_ns(calls, |_| {
        std::hint::black_box(build_flow_packet(
            std::hint::black_box(tuple),
            64,
            0,
            b"ping",
        ));
    });
    metrics.push(Metric::sampled("packet.build_ns", &ns));

    let packet = build_flow_packet(tuple, 64, 0, b"ping");
    let ns = batched_ns(calls, |_| {
        let _ = std::hint::black_box(HeaderView::parse(std::hint::black_box(&packet)));
    });
    metrics.push(Metric::sampled("packet.parse_ns", &ns));

    let cfg = ControllerConfig::simulation();
    let rewriter = AccessRewriter::new(cfg.scheme, cfg.ports);
    let loc = LocIp::new(BaseStationId(37), UeId(10));
    let mut buf = packet.clone();
    let mut failed = 0usize;
    let ns = batched_ns(calls, |_| {
        buf.copy_from_slice(&packet);
        failed += usize::from(
            rewriter
                .uplink_rewrite(&mut buf, loc, PolicyTag(2), 5)
                .is_err(),
        );
    });
    checks.check(failed == 0, || format!("{failed} uplink rewrites failed"));
    metrics.push(Metric::sampled("packet.rewrite_ns", &ns));
}

/// The `microbench.rs` core-switch model: 2 000 tag+prefix rules and a
/// packet that hits rule 50.
fn table_2000() -> (Result<FlowTable>, LookupKey) {
    let ports = ControllerConfig::simulation().ports;
    let mut table = FlowTable::new();
    let mut built = Ok(());
    for i in 0..2000u32 {
        let m = Match::tag_and_prefix(
            Direction::Downlink,
            PolicyTag((i % 1024) as u16),
            Ipv4Prefix::from_bits(0x0A00_0000 | (i << 9), 23),
            &ports,
        );
        if let Err(e) = table.install(conventional_priority(&m), m, Action::Forward(PortNo(1))) {
            built = Err(e);
        }
    }
    let packet = build_flow_packet(
        FiveTuple {
            src: SERVER,
            dst: Ipv4Addr::new(10, 0, 100, 7),
            src_port: 443,
            dst_port: ports.encode(PolicyTag(50), 3).unwrap_or(0),
            proto: Protocol::Tcp,
        },
        64,
        0,
        &[],
    );
    let key = LookupKey {
        in_port: PortNo(1),
        view: HeaderView::parse(&packet).expect("harness-built packet"),
        version: 0,
    };
    (built.map(|()| table), key)
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut checks = Checks::default();
    let t = Instant::now();
    let topo = topology();
    let topology_build_s = t.elapsed().as_secs_f64();
    let (mut world, conns) = setup(&topo, args.seed, &mut checks);
    checks.check(!conns.is_empty(), || "no connections".into());
    let mut metrics = vec![Metric::exact("topology.build_s", topology_build_s)];
    if conns.is_empty() {
        return Outcome {
            checks,
            metrics,
            spans: Vec::new(),
        };
    }

    // the same decomposed round trip, untraced then traced, in
    // alternating passes over all connections
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let (mut hops_up, mut hops_down, mut trips) = (0usize, 0usize, 0usize);
    let budget = args.seconds * 0.6;
    while epoch.elapsed().as_secs_f64() < budget {
        for traced in [false, true] {
            let mut off = Tracer::disabled();
            let keep = traced && trips < TRACED_ROUND_TRIPS;
            let t = Instant::now();
            for (i, &id) in conns.iter().enumerate() {
                if i % CHUNK == 0 {
                    reset_tracker(&mut world); // as the untraced run does
                }
                let tr = if keep { &mut tracer } else { &mut off };
                if let Some(h) = checks.ok(
                    "per-call round trip",
                    round_trip_per_call(&mut world, &topo, id, tr),
                ) {
                    hops_up += h.uplink;
                    hops_down += h.downlink;
                    trips += 1;
                }
            }
            let rate = conns.len() as f64 / t.elapsed().as_secs_f64();
            if keep {
                traced_rates.push(rate);
            } else if !traced {
                plain_rates.push(rate);
            }
        }
    }
    verify_pass(&mut world, &conns, &mut checks);
    let plain = Summary::of(&plain_rates);
    metrics.push(Metric::exact(
        "sim.hops_per_round_trip",
        (hops_up + hops_down) as f64 / trips.max(1) as f64,
    ));

    layer_probes(
        &mut world,
        &topo,
        &conns,
        args.seconds * 0.4,
        &mut checks,
        &mut metrics,
    );

    let rules = fabric_rule_counts(&topo, &world.net);
    metrics.push(Metric::exact("dataplane.table_rules_max", rules.max as f64));
    metrics.push(Metric::exact(
        "dataplane.table_rules_median",
        rules.median as f64,
    ));

    let spans = tracer.into_spans();
    metrics.extend(harness_metrics(
        plain.median / Summary::of(&traced_rates).median,
        &plain,
        &spans,
    ));
    let layers = by_layer(&spans);
    let durations = |name: &str| {
        layers
            .get(name)
            .map(|l| l.durations.as_slice())
            .unwrap_or(&[])
    };
    let us = |name: &str| durations_us(&layers, name);
    metrics.push(Metric::sampled(
        "sim.uplink_walk_us",
        &us("sim.walk_uplink"),
    ));
    metrics.push(Metric::sampled(
        "sim.downlink_walk_us",
        &us("sim.walk_downlink"),
    ));
    let walk_ns: f64 = ["sim.walk_uplink", "sim.walk_downlink"]
        .iter()
        .map(|n| durations(n).iter().sum::<f64>())
        .sum();
    let traced_trips = durations("fabric.round_trip").len().max(1) as f64;
    metrics.push(Metric::exact(
        "sim.walk_ns_per_hop",
        walk_ns / traced_trips / ((hops_up + hops_down) as f64 / trips.max(1) as f64),
    ));
    Outcome {
        checks,
        metrics,
        spans,
    }
}
