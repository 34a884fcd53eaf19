//! `metro_churn`: the §6.1 signalling mix (attach / detach / handoff /
//! first flow / cache-hit flow) through the sharded Algorithm-1 engine
//! at 2 shards, then written onto a data plane. Batch, closed: a fresh
//! controller per iteration absorbs the whole seeded trace.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use softcell_controller::mobility::FlowRecord;
use softcell_controller::sharded::{EventOutcome, ShardedStats};
use softcell_controller::{
    CentralController, ControllerConfig, LocalAgent, ShardEvent, ShardEventKind, ShardedController,
    ShardedRun,
};
use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_sim::PhysicalNetwork;
use softcell_topology::{CellularParams, Topology};
use softcell_types::{Result, SimDuration, UeImsi};
use softcell_workload::{EventKind, EventStream, EventStreamConfig};

use super::{
    fabric_dump, fabric_rule_counts, harness_metrics, iterate_for, peak_rss_mb, subscriber_mix,
    timed_setup, Checks, Metric, Outcome, RuleCounts, RunArgs, SpannedApi, UnitTimes,
};
use crate::span::{by_layer, durations_us, Tracer};
use crate::stats::Summary;

/// Set-ups timed at the head of every iteration (25 ms each against an
/// iteration's 1.1 s).
const SETUPS_PER_ITERATION: usize = 2;
/// Stations of `CellularParams::paper(4)`.
const STATIONS: u32 = 160;
/// The largest population whose 600 s trace never exhausts a station's
/// UE ids (10 000 already does on some seeds).
const UES: u64 = 5_000;
const SHARDS: usize = 2;
/// Flows kept per attachment session, under the 64 flow slots of a UE.
const MAX_SESSION_FLOWS: u32 = 60;
/// Span names of the controller calls an agent makes.
const CONTROLLER_SPANS: [&str; 3] = [
    "controller.attach_ue",
    "controller.request_policy_path",
    "controller.detach_ue",
];
/// Remote endpoint of every flow.
const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

pub struct Setup {
    pub topo: Topology,
    pub subscribers: Vec<SubscriberAttributes>,
    pub events: Vec<ShardEvent>,
    topology_build_s: f64,
    generate_s: f64,
}

pub fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let topo = CellularParams::paper(4).build().expect("paper(4) topology");
    let topology_build_s = t.elapsed().as_secs_f64();
    assert_eq!(topo.base_stations().len(), STATIONS as usize);

    let t = Instant::now();
    let stream = EventStream::generate(&EventStreamConfig::busy(STATIONS, UES, seed));
    let generate_s = t.elapsed().as_secs_f64();

    // Every flow of a UE gets its own source port, so no two of its
    // microflow entries collide. The trace never ends a flow, and a UE
    // has 64 flow slots: the rare session that would open more (a few
    // seeds in a hundred have one) is cut short, so that no seed makes
    // an operation fail.
    let mut next_port: HashMap<UeImsi, u16> = HashMap::new();
    let mut session_flows: HashMap<UeImsi, u32> = HashMap::new();
    let events = stream
        .events()
        .iter()
        .filter_map(|ev| {
            let kind = match ev.kind {
                EventKind::Attach { bs } => {
                    session_flows.insert(ev.imsi, 0);
                    ShardEventKind::Attach { bs }
                }
                EventKind::NewFlow { bs, dst_port, udp } => {
                    let flows = session_flows.entry(ev.imsi).or_insert(0);
                    *flows += 1;
                    if *flows > MAX_SESSION_FLOWS {
                        return None;
                    }
                    let port = next_port.entry(ev.imsi).or_insert(10_000);
                    *port += 1;
                    ShardEventKind::NewFlow {
                        bs,
                        dst: SERVER,
                        src_port: *port,
                        dst_port,
                        udp,
                    }
                }
                EventKind::Handoff { from, to } => ShardEventKind::Handoff { from, to },
                EventKind::Detach { bs } => ShardEventKind::Detach { bs },
            };
            Some(ShardEvent {
                time: ev.time,
                imsi: ev.imsi,
                kind,
            })
        })
        .collect();
    Setup {
        topo,
        subscribers: subscriber_mix(UES, u64::from(STATIONS)),
        events,
        topology_build_s,
        generate_s,
    }
}

fn policy() -> ServicePolicy {
    ServicePolicy::example_carrier_a(1)
}

/// Replays a sharded run's merged batch stream and per-event microflow
/// outcomes onto a fresh data plane — the data-plane write path.
fn materialize(topo: &Topology, run: &ShardedRun<'_>) -> Result<PhysicalNetwork> {
    let mut net = PhysicalNetwork::new(topo);
    for batch in run.merged_batches() {
        net.apply_all(&batch.ops)?;
    }
    for out in &run.outcomes {
        match out {
            EventOutcome::Flow(d) => {
                let deadline = d.time + ShardedController::microflow_idle();
                for (t, a) in &d.installs {
                    net.switch_mut(d.access)
                        .microflow
                        .install(*t, *a, deadline)?;
                }
            }
            EventOutcome::HandedOff(h) => {
                for t in &h.removals {
                    net.switch_mut(h.old_access).microflow.remove(t);
                }
                let deadline = h.time + SimDuration::from_secs(300);
                for (t, a) in &h.installs {
                    net.switch_mut(h.new_access)
                        .microflow
                        .install(*t, *a, deadline)?;
                }
            }
            _ => {}
        }
    }
    Ok(net)
}

/// One sharded pass over the trace.
struct Pass<'t> {
    run: ShardedRun<'t>,
    net: Result<PhysicalNetwork>,
    run_s: f64,
    materialize_s: f64,
}

fn pass(s: &Setup, shards: usize) -> Pass<'_> {
    let t = Instant::now();
    let run = ShardedController::new(&s.topo, ControllerConfig::simulation(), shards).run(
        policy(),
        &s.subscribers,
        &s.events,
    );
    let run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let net = materialize(&s.topo, &run);
    Pass {
        run,
        net,
        run_s,
        materialize_s: t.elapsed().as_secs_f64(),
    }
}

/// What a pass leaves behind that must repeat exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub rules: RuleCounts,
    pub tags_used: usize,
}

/// Every event is one attempted operation; a skipped one failed.
fn tally_events(s: &Setup, p: &Pass<'_>, checks: &mut Checks) {
    let skipped = p.run.stats.skipped;
    checks.tally(s.events.len() as u64, skipped, || {
        let first = p.run.outcomes.iter().find_map(|o| match o {
            EventOutcome::Skipped { reason } => Some(reason.as_str()),
            _ => None,
        });
        format!(
            "{skipped} events skipped, the first: {}",
            first.unwrap_or("?")
        )
    });
}

/// Verifies one pass and returns its counts and fabric dump.
fn verify(s: &Setup, p: &Pass<'_>, checks: &mut Checks) -> Option<(Counts, String)> {
    tally_events(s, p, checks);
    checks.check(p.run.outcomes.len() == s.events.len(), || {
        format!(
            "{} outcomes for {} events",
            p.run.outcomes.len(),
            s.events.len()
        )
    });
    let net = match &p.net {
        Ok(net) => {
            checks.passed(1);
            net
        }
        Err(e) => {
            checks.fail(|| format!("materialise: {e}"));
            return None;
        }
    };
    Some((
        Counts {
            rules: fabric_rule_counts(&s.topo, net),
            tags_used: p.run.engine.installer().tags_in_use(),
        },
        fabric_dump(&s.topo, net),
    ))
}

/// The 2-shard and 1-shard fabrics must be byte-identical; returns the
/// 2-shard counts.
pub fn verified_counts(s: &Setup, checks: &mut Checks) -> Option<Counts> {
    let two = verify(s, &pass(s, SHARDS), checks);
    let one = verify(s, &pass(s, 1), checks);
    match (two, one) {
        (Some((counts, dump2)), Some((_, dump1))) => {
            checks.check(dump2 == dump1, || {
                "2-shard fabric differs from the 1-shard fabric".into()
            });
            Some(counts)
        }
        _ => None,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut checks = Checks::default();
    let mut setup_times = Vec::new();
    let mut s = timed_setup(1, &mut setup_times, || setup(args.seed));
    let counts = verified_counts(&s, &mut checks); // doubles as the warm-up

    // `run` is one opaque call, so an iteration has just two units
    let mut units = UnitTimes::new(2);
    iterate_for(args.seconds, || {
        s = timed_setup(SETUPS_PER_ITERATION, &mut setup_times, || setup(args.seed));
        let p = pass(&s, SHARDS);
        tally_events(&s, &p, &mut checks);
        checks.ok("materialise", p.net.as_ref());
        units.record(0, p.run_s);
        units.record(1, p.materialize_s);
        p.run_s + p.materialize_s
    });

    let events = s.events.len() as f64;
    let quiet_s: f64 = units.quiet().iter().sum();
    let times = units.pass_times();
    let rates: Vec<f64> = times.iter().map(|t| events / t).collect();
    let per_op_us: Vec<f64> = times.iter().map(|t| t / events * 1e6).collect();
    let counts = counts.unwrap_or_default();
    Outcome {
        checks,
        metrics: vec![
            Metric::quiet("setup_s", &setup_times),
            Metric::estimated("ops_per_s", events / quiet_s, &rates),
            Metric::estimated("op_p50_us", quiet_s / events * 1e6, &per_op_us),
            Metric::exact("peak_rss_mb", peak_rss_mb()),
            Metric::exact("rules_total", counts.rules.total as f64),
            Metric::exact("tags_used", counts.tags_used as f64),
        ],
        spans: Vec::new(),
    }
}

/// Drives the trace through the per-call public API — the central
/// controller, one local agent per station and a data plane, the way
/// `SimWorld` wires them — so every layer call gets its own span.
/// `ShardedController::run` is one opaque call and cannot be traced
/// from outside; this is the same signalling work, single-threaded.
fn drive_per_call(s: &Setup, tr: &mut Tracer, checks: &mut Checks) {
    let cfg = ControllerConfig::simulation();
    let topo = &s.topo;
    let mut ctl = CentralController::new(topo, cfg, policy());
    for attrs in &s.subscribers {
        ctl.put_subscriber(*attrs);
    }
    let mut net = PhysicalNetwork::new(topo);
    let mut agents: Vec<LocalAgent> = topo
        .base_stations()
        .iter()
        .map(|bs| LocalAgent::new(bs.id, bs.radio_port, cfg.scheme, cfg.ports))
        .collect();

    for (idx, ev) in s.events.iter().enumerate() {
        let req = idx as u64;
        let r: Result<()> = tr.scope("metro.event", req, |tr| {
            match ev.kind {
                ShardEventKind::Attach { bs } => {
                    tr.scope("agent.handle_attach", req, |tr| {
                        let mut api = SpannedApi::new(&mut ctl, tr, req, CONTROLLER_SPANS);
                        agents[bs.index()].handle_attach(ev.imsi, &mut api, ev.time)
                    })?;
                }
                ShardEventKind::NewFlow {
                    bs,
                    dst,
                    src_port,
                    dst_port,
                    udp,
                } => {
                    let tuple = FiveTuple {
                        src: ctl.state().ue(ev.imsi)?.permanent_ip,
                        dst,
                        src_port,
                        dst_port,
                        proto: if udp { Protocol::Udp } else { Protocol::Tcp },
                    };
                    // one span for both: each alone is shorter than a clock read
                    let view = tr.scope("packet.build_parse", req, |_| {
                        HeaderView::parse(&build_flow_packet(tuple, 64, 0, b"x"))
                    })?;
                    let access = topo.base_station(bs).access_switch;
                    tr.scope("agent.handle_new_flow", req, |tr| {
                        let mut api = SpannedApi::new(&mut ctl, tr, req, CONTROLLER_SPANS);
                        agents[bs.index()].handle_new_flow(
                            &view,
                            &mut api,
                            net.switch_mut(access),
                            ev.time,
                        )
                    })?;
                }
                ShardEventKind::Handoff { from, to } => {
                    let old_access = topo.base_station(from).access_switch;
                    let new_access = topo.base_station(to).access_switch;
                    let flows =
                        tr.scope("agent.flows_of", req, |_| -> Result<Vec<FlowRecord>> {
                            let sw = net.switch(old_access);
                            Ok(agents[from.index()]
                                .flows_of(ev.imsi)?
                                .iter()
                                .filter_map(|f| {
                                    Some(FlowRecord {
                                        uplink: f.uplink,
                                        downlink: f.downlink,
                                        downlink_original: f.downlink_original,
                                        up_action: sw.microflow.peek(&f.uplink)?.action,
                                        down_action: sw.microflow.peek(&f.downlink)?.action,
                                    })
                                })
                                .collect())
                        })?;
                    let new_id = agents[to.index()].reserve_ue_id()?;
                    let plan = tr.scope("controller.handoff", req, |_| {
                        ctl.handoff(ev.imsi, to, new_id, &flows, ev.time)
                    })?;
                    tr.scope("dataplane.apply_all", req, |_| net.apply_all(&plan.ops))?;
                    tr.scope("dataplane.microflow_install", req, |_| -> Result<()> {
                        for t in &plan.old_microflow_removals {
                            net.switch_mut(old_access).microflow.remove(t);
                        }
                        let deadline = ev.time + SimDuration::from_secs(300);
                        for (t, a) in &plan.new_microflow_installs {
                            net.switch_mut(new_access)
                                .microflow
                                .install(*t, *a, deadline)?;
                        }
                        Ok(())
                    })?;
                    tr.scope("agent.handoff_adopt", req, |_| -> Result<()> {
                        agents[from.index()].evict(ev.imsi)?;
                        agents[to.index()].adopt(plan.new, plan.classifier.clone())?;
                        agents[to.index()].adopt_flows(ev.imsi, plan.carried_flows.clone())
                    })?;
                }
                ShardEventKind::Detach { .. } => {
                    let bs = ctl.state().ue(ev.imsi)?.bs;
                    tr.scope("agent.handle_detach", req, |tr| {
                        let mut api = SpannedApi::new(&mut ctl, tr, req, CONTROLLER_SPANS);
                        agents[bs.index()].handle_detach(ev.imsi, &mut api)
                    })?;
                }
            }
            let ops = tr.scope("controller.drain_ops", req, |_| ctl.drain_ops());
            if !ops.is_empty() {
                tr.scope("dataplane.apply_all", req, |_| net.apply_all(&ops))?;
            }
            Ok(())
        });
        checks.ok("per-call event", r);
    }
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut checks = Checks::default();
    // the last of a few: its own layer times are read off it
    let s = timed_setup(5, &mut Vec::new(), || setup(args.seed));
    let mut metrics = vec![
        Metric::exact("workload.generate_s", s.generate_s),
        Metric::exact("topology.build_s", s.topology_build_s),
    ];

    // half the budget: the opaque sharded runs at 1 and 2 shards, alternating
    let mut one = Vec::new();
    let mut two = Vec::new();
    let mut materialize = Vec::new();
    let mut stats2 = ShardedStats::default();
    iterate_for(args.seconds * 0.5, || {
        let p1 = pass(&s, 1);
        let p2 = pass(&s, SHARDS);
        tally_events(&s, &p1, &mut checks);
        tally_events(&s, &p2, &mut checks);
        one.push(p1.run_s);
        two.push(p2.run_s);
        materialize.extend([p1.materialize_s, p2.materialize_s]);
        stats2 = p2.run.stats;
        p1.run_s + p1.materialize_s + p2.run_s + p2.materialize_s
    });
    let (one, two) = (Summary::of(&one), Summary::of(&two));
    metrics.extend([
        Metric::exact("sharded.scaling", one.median / two.median),
        Metric {
            name: "sharded.run_s_1shard",
            summary: one,
        },
        Metric {
            name: "sharded.run_s_2shard",
            summary: two,
        },
        Metric::sampled("sharded.materialize_s", &materialize),
        Metric::exact(
            "sharded.coordinated_share",
            stats2.coordinated as f64 / stats2.events.max(1) as f64,
        ),
        Metric::exact("sharded.commit_replanned", stats2.commit_replanned as f64),
        Metric::exact(
            "sharded.rendezvous_messages",
            stats2.rendezvous_messages as f64,
        ),
    ]);

    // the per-call driver, untraced then traced: the difference is what
    // the spans themselves cost
    let epoch = Instant::now();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut tracer = Tracer::disabled();
    iterate_for(args.seconds * 0.5, || {
        let t = Instant::now();
        drive_per_call(&s, &mut Tracer::disabled(), &mut checks);
        let plain = t.elapsed().as_secs_f64();
        plain_s.push(plain);

        tracer = Tracer::new(epoch, 0);
        let t = Instant::now();
        drive_per_call(&s, &mut tracer, &mut checks);
        let traced = t.elapsed().as_secs_f64();
        traced_s.push(traced);
        plain + traced
    });
    let (plain, traced) = (Summary::of(&plain_s), Summary::of(&traced_s));
    let spans = tracer.into_spans();
    metrics.extend(harness_metrics(
        traced.median / plain.median,
        &plain,
        &spans,
    ));
    let layers = by_layer(&spans);
    let us = |name: &str| durations_us(&layers, name);
    for (metric, span) in [
        ("controller.attach_us", "controller.attach_ue"),
        ("controller.detach_us", "controller.detach_ue"),
        ("controller.handoff_us", "controller.handoff"),
        (
            "controller.path_request_us",
            "controller.request_policy_path",
        ),
        ("dataplane.rule_apply_us", "dataplane.apply_all"),
        (
            "dataplane.microflow_install_us",
            "dataplane.microflow_install",
        ),
    ] {
        metrics.push(Metric::sampled(metric, &us(span)));
    }
    // a new-flow call with no controller child span is a tag-cache hit
    let mut has_child = vec![false; spans.len()];
    for sp in &spans {
        if let Some(p) = sp.parent {
            has_child[p as usize] = true;
        }
    }
    let hits: Vec<f64> = spans
        .iter()
        .zip(&has_child)
        .filter(|(sp, child)| sp.name == "agent.handle_new_flow" && !**child)
        .map(|(sp, _)| (sp.end_ns - sp.start_ns) as f64 / 1e3)
        .collect();
    metrics.push(Metric::sampled("agent.new_flow_hit_us", &hits));

    Outcome {
        checks,
        metrics,
        spans,
    }
}
