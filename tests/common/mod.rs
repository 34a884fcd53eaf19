//! Shared harness for the sharded-controller differential tests: a
//! single-threaded reference driver (real `CentralController` + real
//! per-station `LocalAgent`s, applied the way the simulator applies
//! them) that records the engine inputs it makes, a materializer
//! replaying a `ShardedRun` onto a fresh data plane, and verbatim state
//! dumps for byte-level comparison.
#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use softcell::controller::agent::ControllerApi;
use softcell::controller::core::{AttachGrant, PathTags};
use softcell::controller::mobility::FlowRecord;
use softcell::controller::ops::{batch_by_switch, SwitchBatch};
use softcell::controller::sharded::{EventOutcome, ShardEvent, ShardEventKind, ShardedRun};
use softcell::controller::state::UeRecord;
use softcell::controller::{CentralController, ControllerConfig, Input, LocalAgent, RuleOp};
use softcell::ctlchan::PacketIn;
use softcell::dataplane::MicroflowAction;
use softcell::packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell::policy::clause::ClauseId;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::PhysicalNetwork;
use softcell::topology::Topology;
use softcell::types::{BaseStationId, Result, SimDuration, SimTime, UeId, UeImsi};

/// Remote endpoint all test flows target.
pub const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

/// The service policy both implementations run.
pub fn policy() -> ServicePolicy {
    ServicePolicy::example_carrier_a(1)
}

/// `n` provisioned subscribers.
pub fn subscribers(n: u64) -> Vec<SubscriberAttributes> {
    (0..n)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect()
}

/// Everything compared between the two implementations.
pub struct RunDump {
    /// Per-switch fabric flow tables, verbatim (no canonicalization —
    /// these hold LocIP prefixes and tags only, never permanent IPs).
    pub fabric: String,
    /// Sorted microflow entries across all switches, verbatim.
    pub microflow: Vec<String>,
    /// Controller state (locations, reservations, tags, transitions).
    pub state: String,
    /// (flows, cache_hits, cache_misses, denied).
    pub flow_stats: (u64, u64, u64, u64),
    /// Every rule op, each event's grouped per switch, in event order.
    pub batches: Vec<SwitchBatch>,
}

/// Dumps every switch's fabric flow table verbatim.
pub fn fabric_dump(topo: &Topology, net: &PhysicalNetwork) -> String {
    let mut s = String::new();
    for sw in topo.switches() {
        writeln!(s, "== {:?}", sw.id).unwrap();
        for r in net.switch(sw.id).table.iter() {
            writeln!(s, "{r:?}").unwrap();
        }
    }
    s
}

/// Dumps all microflow entries verbatim, sorted.
pub fn microflow_dump(topo: &Topology, net: &PhysicalNetwork) -> Vec<String> {
    let mut lines = Vec::new();
    for sw in topo.switches() {
        for (tuple, entry) in net.switch(sw.id).microflow.iter() {
            lines.push(format!(
                "{:?} {tuple:?} {:?} deadline={:?} packets={}",
                sw.id, entry.action, entry.idle_deadline, entry.packets
            ));
        }
    }
    lines.sort();
    lines
}

/// Dumps controller state: per-UE locations, reservation and tag
/// counters, mobility residue.
pub fn state_dump(ctl: &CentralController) -> String {
    let mut ues: Vec<_> = ctl
        .state()
        .attached()
        .map(|r| (r.imsi.0, r.bs, r.ue_id, r.since))
        .collect();
    ues.sort_by_key(|u| u.0);
    format!(
        "ues={ues:?} reserved={} tags={} transitions={} tunnels={}",
        ctl.state().reserved_count(),
        ctl.installer().tags_in_use(),
        ctl.mobility().transitions_active(),
        ctl.mobility().tunnel_count(),
    )
}

/// The agents' side of an engine that records each call as the
/// [`Input`] it is before making it.
pub struct Recorder<'a> {
    pub ctl: &'a mut CentralController,
    pub inputs: &'a mut Vec<Input>,
}

impl ControllerApi for Recorder<'_> {
    fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        let pi = PacketIn::Attach {
            imsi,
            bs,
            ue_id,
            now,
        };
        self.inputs.push(Input::Agent(pi));
        self.ctl.attach_ue(imsi, bs, ue_id, now)
    }

    fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags> {
        let pi = PacketIn::PathRequest { bs, clause };
        self.inputs.push(Input::Agent(pi));
        self.ctl.request_policy_path(bs, clause)
    }

    fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        self.inputs.push(Input::Agent(PacketIn::Detach { imsi }));
        self.ctl.detach_ue(imsi)
    }
}

/// A fresh engine with `n_subs` subscribers provisioned.
pub fn engine(topo: &Topology, n_subs: u64) -> CentralController {
    let mut ctl = CentralController::new(topo, ControllerConfig::simulation(), policy());
    for attrs in subscribers(n_subs) {
        ctl.put_subscriber(attrs);
    }
    ctl
}

/// Replays recorded inputs through `apply` on a fresh engine and
/// asserts it reproduces the reference's op batches, drained after each
/// input, and its state dump, byte for byte.
pub fn assert_replay_matches(topo: &Topology, n_subs: u64, inputs: &[Input], reference: &RunDump) {
    let mut ctl = engine(topo, n_subs);
    let mut batches = Vec::new();
    for input in inputs {
        ctl.apply(input).expect("a recorded input applies");
        batches.extend(batch_by_switch(ctl.drain_ops()));
    }
    assert!(
        batches == reference.batches,
        "replaying the recorded inputs must reproduce the reference's op batches"
    );
    assert_eq!(state_dump(&ctl), reference.state, "replayed state");
}

/// Drives the trace through the single-threaded controller + real local
/// agents, the way `SimWorld` does (agent-side UE-id discipline,
/// microflow installs at the access switch, handoff plan application).
/// Returns the dump, the engine inputs it made in order, and the live
/// controller and network for follow-up checks (expiry, residue).
pub fn reference_run_full(
    topo: &Topology,
    n_subs: u64,
    events: &[ShardEvent],
) -> (RunDump, Vec<Input>, CentralController, PhysicalNetwork) {
    let cfg = ControllerConfig::simulation();
    let mut ctl = engine(topo, n_subs);
    let mut inputs = Vec::new();
    let mut net = PhysicalNetwork::new(topo);
    let mut batches = Vec::new();
    let mut apply = |net: &mut PhysicalNetwork, ops: Vec<RuleOp>, what: &str| {
        net.apply_all(&ops).expect(what);
        batches.extend(batch_by_switch(ops));
    };
    let mut agents: Vec<LocalAgent> = topo
        .base_stations()
        .iter()
        .map(|bs| LocalAgent::new(bs.id, bs.radio_port, cfg.scheme, cfg.ports))
        .collect();

    for ev in events {
        match ev.kind {
            ShardEventKind::Attach { bs } => {
                let mut rec = Recorder {
                    ctl: &mut ctl,
                    inputs: &mut inputs,
                };
                agents[bs.index()]
                    .handle_attach(ev.imsi, &mut rec, ev.time)
                    .expect("reference attach");
                apply(&mut net, ctl.drain_ops(), "attach ops");
            }
            ShardEventKind::NewFlow {
                bs,
                dst,
                src_port,
                dst_port,
                udp,
            } => {
                let rec = *ctl.state().ue(ev.imsi).expect("flow for attached UE");
                assert_eq!(rec.bs, bs, "trace keeps flows at the current station");
                let tuple = FiveTuple {
                    src: rec.permanent_ip,
                    dst,
                    src_port,
                    dst_port,
                    proto: if udp { Protocol::Udp } else { Protocol::Tcp },
                };
                let buf = build_flow_packet(tuple, 64, 0, b"x");
                let view = HeaderView::parse(&buf).expect("well-formed packet");
                let access = topo.base_station(bs).access_switch;
                let mut rec = Recorder {
                    ctl: &mut ctl,
                    inputs: &mut inputs,
                };
                agents[bs.index()]
                    .handle_new_flow(&view, &mut rec, net.switch_mut(access), ev.time)
                    .expect("reference flow");
                apply(&mut net, ctl.drain_ops(), "flow ops");
            }
            ShardEventKind::Handoff { from, to } => {
                let rec = *ctl.state().ue(ev.imsi).expect("handoff for attached UE");
                assert_eq!(rec.bs, from, "trace hands off from the current station");
                let old_access = topo.base_station(from).access_switch;
                let flows: Vec<FlowRecord> = {
                    let sw = net.switch(old_access);
                    agents[from.index()]
                        .flows_of(ev.imsi)
                        .expect("flows of attached UE")
                        .iter()
                        .filter_map(|f| {
                            let up = sw.microflow.peek(&f.uplink)?;
                            let down = sw.microflow.peek(&f.downlink)?;
                            Some(FlowRecord {
                                uplink: f.uplink,
                                downlink: f.downlink,
                                downlink_original: f.downlink_original,
                                up_action: up.action,
                                down_action: down.action,
                            })
                        })
                        .collect()
                };
                let new_id = agents[to.index()].reserve_ue_id().expect("target UE id");
                let plan = ctl
                    .handoff(ev.imsi, to, new_id, &flows, ev.time)
                    .expect("reference handoff");
                inputs.push(Input::Handoff {
                    imsi: ev.imsi,
                    to,
                    new_id,
                    flows,
                    now: ev.time,
                });
                apply(&mut net, ctl.drain_ops(), "handoff ops");
                for t in &plan.old_microflow_removals {
                    net.switch_mut(old_access).microflow.remove(t);
                }
                let new_access = topo.base_station(to).access_switch;
                let deadline = ev.time + SimDuration::from_secs(300);
                for (tuple, action) in &plan.new_microflow_installs {
                    net.switch_mut(new_access)
                        .microflow
                        .install(*tuple, *action, deadline)
                        .expect("handoff microflow copy");
                }
                agents[from.index()].evict(ev.imsi).expect("evict");
                agents[to.index()]
                    .adopt(plan.new, plan.classifier.clone())
                    .expect("adopt");
                agents[to.index()]
                    .adopt_flows(ev.imsi, plan.carried_flows.clone())
                    .expect("adopt flows");
            }
            ShardEventKind::Detach { .. } => {
                let bs = ctl.state().ue(ev.imsi).expect("detach of attached UE").bs;
                let mut rec = Recorder {
                    ctl: &mut ctl,
                    inputs: &mut inputs,
                };
                agents[bs.index()]
                    .handle_detach(ev.imsi, &mut rec)
                    .expect("reference detach");
                apply(&mut net, ctl.drain_ops(), "detach ops");
            }
        }
    }

    let mut flow_stats = (0, 0, 0, 0);
    for a in &agents {
        let s = a.stats();
        flow_stats.0 += s.flows;
        flow_stats.1 += s.cache_hits;
        flow_stats.2 += s.cache_misses;
        flow_stats.3 += s.denied;
    }
    let dump = RunDump {
        fabric: fabric_dump(topo, &net),
        microflow: microflow_dump(topo, &net),
        state: state_dump(&ctl),
        flow_stats,
        batches,
    };
    (dump, inputs, ctl, net)
}

/// Replays a sharded run's merged batch stream and per-event outcomes
/// onto a fresh data plane.
///
/// The same forty lines as `materialize` in
/// `perf/src/workloads/metro_churn.rs`. That copy is the frozen reference
/// (the benchmark's files do not change with the code they measure) and
/// must keep compiling against `ShardedRun` unchanged; this one adds the
/// stream-shape asserts and may follow the API.
pub fn materialize_net(topo: &Topology, run: &ShardedRun<'_>) -> PhysicalNetwork {
    let mut net = PhysicalNetwork::new(topo);
    for log in &run.shard_logs {
        let mut last = None;
        for (seq, batch) in log.batches() {
            assert!(
                last.is_none_or(|p| p <= seq),
                "per-shard logs are ticket-ascending"
            );
            assert!(!batch.ops.is_empty(), "no empty group is logged");
            last = Some(seq);
        }
    }
    for batch in run.merged_batches() {
        for op in batch.ops {
            assert_eq!(op.switch(), batch.switch, "batch is single-switch");
        }
        net.apply_all(batch.ops).expect("sharded fabric ops");
    }
    for out in &run.outcomes {
        match out {
            EventOutcome::Flow(d) => {
                let deadline =
                    d.time + softcell::controller::sharded::ShardedController::microflow_idle();
                for (t, a) in &d.installs {
                    net.switch_mut(d.access)
                        .microflow
                        .install(*t, *a, deadline)
                        .expect("sharded microflow install");
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
                        .install(*t, *a, deadline)
                        .expect("sharded handoff copy");
                }
            }
            _ => {}
        }
    }
    net
}

/// Materializes and dumps a sharded run.
pub fn materialize(topo: &Topology, run: &ShardedRun<'_>) -> RunDump {
    let net = materialize_net(topo, run);
    RunDump {
        fabric: fabric_dump(topo, &net),
        microflow: microflow_dump(topo, &net),
        state: state_dump(&run.engine),
        flow_stats: (
            run.stats.flows,
            run.stats.cache_hits,
            run.stats.cache_misses,
            run.stats.denied,
        ),
        batches: run
            .merged_batches()
            .into_iter()
            .map(|b| SwitchBatch {
                switch: b.switch,
                ops: b.ops.to_vec(),
            })
            .collect(),
    }
}

/// Asserts two dumps are identical, permanent addresses included.
pub fn compare(reference: &RunDump, sharded: &RunDump, label: &str) {
    assert_eq!(
        reference.fabric, sharded.fabric,
        "{label}: fabric flow tables must be byte-identical (rule ids included)"
    );
    assert_eq!(
        reference.microflow, sharded.microflow,
        "{label}: microflow tables must match"
    );
    assert_eq!(reference.state, sharded.state, "{label}: controller state");
    assert!(
        reference.batches == sharded.batches,
        "{label}: the merged op stream must equal the single-threaded drain, op for op"
    );
    assert_eq!(
        reference.flow_stats, sharded.flow_stats,
        "{label}: flow / cache-hit / cache-miss / denied counters"
    );
}

/// The ports of each attachment session (one UE, attach→detach span),
/// straight from the trace.
pub fn session_port_groups(events: &[ShardEvent]) -> Vec<BTreeSet<u16>> {
    let mut session_of: HashMap<u64, u32> = HashMap::new();
    let mut groups: HashMap<(u64, u32), BTreeSet<u16>> = HashMap::new();
    for ev in events {
        match ev.kind {
            ShardEventKind::Attach { .. } => {
                *session_of.entry(ev.imsi.0).or_insert(0) += 1;
            }
            ShardEventKind::NewFlow { src_port, .. } => {
                let s = *session_of.get(&ev.imsi.0).unwrap_or(&0);
                groups.entry((ev.imsi.0, s)).or_default().insert(src_port);
            }
            _ => {}
        }
    }
    groups.into_values().collect()
}

/// Asserts that every attachment session's flows share exactly one
/// permanent address in `net`'s microflow tables. Every microflow entry
/// names its flow by the UE-side source port: an uplink or drop entry
/// carries it as `src_port` beside the permanent address in `src`, a
/// downlink entry restores both in its `RewriteDst`.
pub fn assert_sessions_refine(topo: &Topology, net: &PhysicalNetwork, sessions: &[BTreeSet<u16>]) {
    let pool = ControllerConfig::simulation().permanent_pool;
    let mut groups: HashMap<Ipv4Addr, BTreeSet<u16>> = HashMap::new();
    for sw in topo.switches() {
        for (t, entry) in net.switch(sw.id).microflow.iter() {
            if pool.contains(t.src) {
                groups.entry(t.src).or_default().insert(t.src_port);
            }
            if let MicroflowAction::RewriteDst { addr, port, .. } = entry.action {
                if pool.contains(addr) {
                    groups.entry(addr).or_default().insert(port);
                }
            }
        }
    }
    for session in sessions {
        let hits: Vec<&BTreeSet<u16>> = groups
            .values()
            .filter(|g| !g.is_disjoint(session))
            .collect();
        assert!(
            hits.len() == 1 && session.is_subset(hits[0]),
            "a session's flows must share exactly one permanent address \
             (session ports {session:?})"
        );
    }
}
