//! Randomized fault-injection churn (PR 3 acceptance).
//!
//! Two drills with a fixed seed:
//!
//! * **Wire churn** — a local agent drives attach/flow/detach traffic at
//!   the controller through a [`FaultTransport`] that drops, duplicates,
//!   delays and mid-frame-cuts its frames. Timeouts are retried under
//!   the same xid (server-side dedup makes that safe); dead connections
//!   are re-established and the agent's state resynced. At the end every
//!   UE must be exactly where the agent believes it is, with its
//!   first-assigned permanent address, and the server seat's log,
//!   replayed through a fresh engine, must give the seat's engine and
//!   every attach and detach answer the agent was handed.
//! * **Simulator churn** — random attach/handoff/detach over the full
//!   data plane must leave no residue once everything detaches and
//!   expires: no reserved locations, no tunnels, no leaked tags, no
//!   extra fabric rules.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softcell::controller::agent::{ControllerApi, LocalAgent};
use softcell::controller::core::{AttachGrant, PathTags};
use softcell::controller::input::Output;
use softcell::controller::server::ControllerServer;
use softcell::controller::state::UeRecord;
use softcell::controller::wire::ChannelController;
use softcell::controller::{Log, State};
use softcell::ctlchan::PacketIn;
use softcell::ctlchan::{
    loopback_pair, FaultConfig, FaultStats, FaultTransport, Loopback, RetryPolicy, Transport,
};
use softcell::dataplane::Switch;
use softcell::packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell::policy::clause::ClauseId;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::SimWorld;
use softcell::topology::small_topology;
use softcell::types::{
    AddressingScheme, BaseStationId, PortEmbedding, PortNo, Result, SimDuration, SimTime, SwitchId,
    UeId, UeImsi,
};

const SEED: u64 = 0xC0FF_EE03;
const SERVER_ADDR: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

fn fault_profile(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop: 0.12,
        duplicate: 0.10,
        delay: 0.10,
        disconnect_every: Some(23),
    }
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_millis(50),
        max_retries: 10,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
    }
}

/// The agent's controller over the wire, keeping every attach and
/// detach answer it hands the agent, in order.
struct Keeping<'a> {
    ctl: &'a mut ChannelController<FaultTransport<Loopback>>,
    kept: &'a mut Vec<UeRecord>,
}

impl ControllerApi for Keeping<'_> {
    fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        let grant = self.ctl.attach_ue(imsi, bs, ue_id, now)?;
        self.kept.push(grant.record);
        Ok(grant)
    }

    fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags> {
        self.ctl.request_policy_path(bs, clause)
    }

    fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        let rec = self.ctl.detach_ue(imsi)?;
        self.kept.push(rec);
        Ok(rec)
    }

    fn answered(&self) -> bool {
        self.ctl.answered()
    }
}

/// Accumulates one transport's fault counters into a running total.
fn harvest(total: &mut FaultStats, ctl: &mut ChannelController<FaultTransport<Loopback>>) {
    let s = ctl.channel().transport_mut().fault_stats();
    total.dropped += s.dropped;
    total.duplicated += s.duplicated;
    total.delayed += s.delayed;
    total.disconnects += s.disconnects;
}

/// Re-establishes the channel after a fault (fresh loopback pair, fresh
/// serve thread) and replays the agent's state. The hello handshake runs
/// under a transport deadline so a dropped hello fails fast instead of
/// hanging; failed attempts just try again with the next fault stream.
#[allow(clippy::too_many_arguments)]
fn reconnect_and_resync(
    server: &ControllerServer,
    serves: &mut Vec<std::thread::JoinHandle<softcell::types::Result<()>>>,
    ctl: &mut ChannelController<FaultTransport<Loopback>>,
    agent: &mut LocalAgent,
    stats: &mut FaultStats,
    reconnect_seq: &mut u64,
    now: SimTime,
    faulty: bool,
) {
    for _ in 0..100 {
        *reconnect_seq += 1;
        harvest(stats, ctl);
        let (agent_end, controller_end) = loopback_pair();
        serves.push(server.serve(controller_end));
        let cfg = if faulty {
            fault_profile(SEED ^ *reconnect_seq)
        } else {
            FaultConfig::default()
        };
        let mut transport = FaultTransport::new(agent_end, cfg);
        transport
            .set_deadline(Some(Duration::from_millis(100)))
            .unwrap();
        if ctl.reconnect(transport).is_err() {
            continue; // hello lost to a fault; next stream
        }
        ctl.channel().set_deadline(None).unwrap();
        match ctl.resync(agent, now) {
            Ok(_) => return,
            Err(_) => continue, // resync hit a fault; reconnect again
        }
    }
    panic!("channel could not be re-established in 100 attempts");
}

#[test]
fn wire_churn_converges_under_faults() {
    const UES: u64 = 6;
    const ROUNDS: u32 = 120;
    let bs = BaseStationId(0);

    let server = ControllerServer::start_sharded(
        ServicePolicy::example_carrier_a(1),
        (0..UES).map(|i| SubscriberAttributes::default_home(UeImsi(i))),
        2,
    )
    .unwrap();
    let mut serves = Vec::new();
    let (agent_end, controller_end) = loopback_pair();
    serves.push(server.serve(controller_end));

    let mut transport = FaultTransport::new(agent_end, fault_profile(SEED));
    transport
        .set_deadline(Some(Duration::from_millis(100)))
        .unwrap();
    let mut ctl = ChannelController::connect(transport, bs).expect("first hello survives seed");
    ctl.channel().set_deadline(None).unwrap();
    ctl.set_retry_policy(Some(retry_policy()));

    let mut agent = LocalAgent::new(
        bs,
        PortNo(2),
        AddressingScheme::default_scheme(),
        PortEmbedding::default_embedding(),
    );
    let mut switch = Switch::access(SwitchId(0));

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut stats = FaultStats::default();
    let mut reconnect_seq = 0u64;
    // ground truth the wire must converge to: attachment + first
    // permanent address per UE
    let mut attached: HashMap<UeImsi, bool> = HashMap::new();
    let mut first_ip: HashMap<UeImsi, Ipv4Addr> = HashMap::new();
    let mut next_port = 40_000u16;
    // every attach and detach answer the agent was handed
    let mut kept = Vec::new();

    for round in 0..ROUNDS {
        let now = SimTime(u64::from(round));
        let imsi = UeImsi(rng.gen_range(0..UES));
        let is_attached = *attached.get(&imsi).unwrap_or(&false);
        let action = rng.gen_range(0u32..10);
        // two attempts: first may die on a fault, triggering
        // reconnect + resync, after which the op must succeed
        for attempt in 0..2 {
            let mut keeping = Keeping {
                ctl: &mut ctl,
                kept: &mut kept,
            };
            let result = if !is_attached && action < 6 {
                agent.handle_attach(imsi, &mut keeping, now).map(|rec| {
                    attached.insert(imsi, true);
                    let ip = *first_ip.entry(imsi).or_insert(rec.permanent_ip);
                    assert_eq!(rec.permanent_ip, ip, "permanent address is forever");
                })
            } else if is_attached && action < 6 {
                // a new flow: classifier lookup + (on cache miss) a
                // path request over the faulty wire
                next_port += 1;
                let tuple = FiveTuple {
                    src: first_ip[&imsi],
                    dst: SERVER_ADDR,
                    src_port: next_port,
                    dst_port: 443,
                    proto: Protocol::Tcp,
                };
                let view = HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).unwrap();
                agent
                    .handle_new_flow(&view, &mut keeping, &mut switch, now)
                    .map(|_| ())
            } else if is_attached {
                agent.handle_detach(imsi, &mut keeping).map(|_| {
                    attached.insert(imsi, false);
                    // a later re-attach is a fresh registration and may
                    // receive a different permanent address
                    first_ip.remove(&imsi);
                })
            } else {
                Ok(()) // detach of a detached UE: nothing to do
            };
            match result {
                Ok(()) => break,
                Err(e) => {
                    assert!(
                        attempt == 0,
                        "round {round}: op failed twice even after resync: {e}"
                    );
                    reconnect_and_resync(
                        &server,
                        &mut serves,
                        &mut ctl,
                        &mut agent,
                        &mut stats,
                        &mut reconnect_seq,
                        now,
                        true,
                    );
                }
            }
        }
    }

    // convergence check over a clean channel: re-register everything,
    // then confirm the server's records match the agent's ground truth
    reconnect_and_resync(
        &server,
        &mut serves,
        &mut ctl,
        &mut agent,
        &mut stats,
        &mut reconnect_seq,
        SimTime(1_000),
        false,
    );
    harvest(&mut stats, &mut ctl);

    for (imsi, is_attached) in &attached {
        if *is_attached {
            // an attach in place returns the live record: the reply proves
            // the server still has the UE, at the right station, with its
            // first IP
            let ue = agent.ue(*imsi).expect("agent holds attached UE");
            let ue_id = ue.ue_id;
            let grant = ctl.attach_ue(*imsi, bs, ue_id, SimTime(1_001)).unwrap();
            kept.push(grant.record);
            assert_eq!(grant.record.permanent_ip, first_ip[imsi], "stable address");
            assert_eq!(grant.record.bs, bs);
        } else {
            assert!(agent.ue(*imsi).is_err(), "detached UE gone from agent");
            let err = ctl.detach_ue(*imsi).unwrap_err();
            assert!(
                matches!(err, softcell::types::Error::NotFound(_)),
                "detached UE unknown to the server: {err:?}"
            );
        }
    }

    // every replaced channel's agent end is gone, so its serve thread
    // ends; join them so the counts below cannot race one still exiting
    let live = serves.pop().expect("the clean channel's serve thread");
    for handle in serves {
        let _ = handle.join().unwrap();
    }

    // every fault class actually fired, and the server survived them all
    assert!(stats.dropped > 0, "no drops injected: {stats:?}");
    assert!(stats.duplicated > 0, "no duplicates injected: {stats:?}");
    assert!(stats.delayed > 0, "no delays injected: {stats:?}");
    assert!(stats.disconnects > 0, "no disconnects injected: {stats:?}");
    assert!(server.disconnects() > 0);
    assert!(server.connection_errors() > 0, "torn frames were recorded");
    assert_eq!(server.active_connections(), 1, "exactly the live channel");

    // The seat's log, replayed record by record through a fresh engine,
    // ends on the seat's engine, and every attach and detach answer the
    // agent was handed is the replayed engine's record for that UE, in
    // the order the agent got them.
    let seat = server.seat();
    let bytes = seat.log_bytes();
    let log = Log::decode(&bytes, seat.config()).unwrap();
    assert!(
        log.get(1).is_some(),
        "the whole run is in the log, unfolded"
    );
    let mut fresh = State::new(seat.config()).unwrap();
    let mut replayed: HashMap<UeImsi, Vec<UeRecord>> = HashMap::new();
    for index in 1..=log.last_index() {
        let op = log.get(index).unwrap().op;
        let (out, _) = fresh.apply(&op).unwrap();
        match (op, out) {
            (PacketIn::Attach { imsi, .. }, Output::Attached(grant)) => {
                replayed.entry(imsi).or_default().push(grant.record)
            }
            (PacketIn::Detach { imsi }, Output::Detached(rec)) => {
                replayed.entry(imsi).or_default().push(rec)
            }
            _ => {}
        }
    }
    assert_eq!(fresh.image(), seat.image(), "the replayed engine");
    let (_, whole) = Log::replay(&bytes, seat.config()).unwrap();
    assert_eq!(whole.image(), seat.image(), "the encoded log's engine");
    assert!(kept.len() > 20, "{} answers kept", kept.len());
    for imsi in (0..UES).map(UeImsi) {
        let mut records = replayed.remove(&imsi).unwrap_or_default().into_iter();
        for answer in kept.iter().filter(|r| r.imsi == imsi) {
            assert!(
                records.any(|r| r == *answer),
                "{imsi}: {answer:?} is no record of the replay, in order"
            );
        }
    }

    drop(ctl);
    let _ = live.join().unwrap();
    server.shutdown();
}

#[test]
fn sim_churn_leaves_no_fabric_residue() {
    const UES: u64 = 6;
    const ROUNDS: u32 = 60;
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    for i in 0..UES {
        w.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }

    // warmup: install the churn clause's policy path at every station so
    // the baseline below contains all long-lived state
    for bs in 0..4u32 {
        w.attach(UeImsi(0), BaseStationId(bs)).unwrap();
        let c = w
            .start_connection(UeImsi(0), SERVER_ADDR, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
        w.detach(UeImsi(0)).unwrap();
    }
    w.advance(SimDuration::from_secs(1_000));
    let now = w.now();
    w.expire_transitions().unwrap();
    for sw in w.net.switches_mut() {
        sw.microflow.expire_idle(now);
    }
    let baseline_rules = w.net.total_rules();
    let baseline_tags = w.controller.installer().tags_in_use();
    assert_eq!(w.controller.state().reserved_count(), 0);

    // churn: random attach / handoff / detach with live round trips.
    // Time advances 1 s per round — transitions stay inside their 120 s
    // TTL, so anchored flows keep working throughout.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut conns: HashMap<UeImsi, softcell::sim::world::ConnId> = HashMap::new();
    let mut handoffs = 0u32;
    for _ in 0..ROUNDS {
        w.advance(SimDuration::from_secs(1));
        let imsi = UeImsi(rng.gen_range(0..UES));
        let at = w.controller.state().ue(imsi).ok().map(|r| r.bs);
        match at {
            None => {
                let bs = BaseStationId(rng.gen_range(0..4u32));
                w.attach(imsi, bs).unwrap();
                let c = w
                    .start_connection(imsi, SERVER_ADDR, 443, Protocol::Tcp)
                    .unwrap();
                w.round_trip(c).unwrap();
                conns.insert(imsi, c);
            }
            Some(bs) if rng.gen_bool(0.6) => {
                let mut to = BaseStationId(rng.gen_range(0..4u32));
                if to == bs {
                    to = BaseStationId((to.0 + 1) % 4);
                }
                w.handoff(imsi, to).unwrap();
                handoffs += 1;
                w.round_trip(conns[&imsi]).unwrap();
            }
            Some(_) => {
                w.detach(imsi).unwrap();
                conns.remove(&imsi);
            }
        }
    }
    assert!(
        handoffs > 10,
        "churn actually moved UEs ({handoffs} handoffs)"
    );
    w.assert_policy_consistency().unwrap();

    // drain: detach everyone, let every transition and microflow expire
    for i in 0..UES {
        if w.controller.state().ue(UeImsi(i)).is_ok() {
            w.detach(UeImsi(i)).unwrap();
        }
    }
    w.advance(SimDuration::from_secs(10_000));
    let now = w.now();
    w.expire_transitions().unwrap();
    for sw in w.net.switches_mut() {
        sw.microflow.expire_idle(now);
    }

    // no residue: every location, tunnel, tag and fabric rule the churn
    // created is gone again
    assert_eq!(w.controller.state().attached_count(), 0);
    assert_eq!(w.controller.state().reserved_count(), 0, "locations leaked");
    assert_eq!(w.controller.mobility().transitions_active(), 0);
    assert_eq!(w.controller.mobility().tunnel_count(), 0, "tunnels leaked");
    assert_eq!(
        w.controller.installer().tags_in_use(),
        baseline_tags,
        "the mobility tag leaked"
    );
    assert_eq!(w.net.total_rules(), baseline_rules, "fabric rules leaked");
    let microflows: usize = (0..topo.switches().len())
        .map(|i| w.net.switch(SwitchId(i as u32)).microflow.len())
        .sum();
    assert_eq!(microflows, 0, "microflow entries leaked");
}
