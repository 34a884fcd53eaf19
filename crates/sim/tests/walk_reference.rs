//! Differential test for [`PhysicalNetwork::walk`]: a reference walker
//! written the obvious way — classify each out-port by searching the
//! topology's stations, gateways, middleboxes and neighbours, re-sum the
//! whole header for every TTL tick, collect the trail in a fresh vector —
//! must agree with the port-table walker packet for packet.

use std::net::Ipv4Addr;

use softcell_controller::ControllerConfig;
use softcell_dataplane::ForwardDecision;
use softcell_packet::{build_flow_packet, FiveTuple, Ipv4Packet, Protocol};
use softcell_policy::{BillingPlan, DeviceType, Provider, ServicePolicy, SubscriberAttributes};
use softcell_sim::world::ConnId;
use softcell_sim::{MiddleboxTracker, PhysicalNetwork, SimWorld, WalkOutcome};
use softcell_topology::{small_topology, CellularParams, Topology};
use softcell_types::{BaseStationId, Error, PortNo, Result, SimTime, SwitchId, UeImsi};

const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);
/// web, web, video, DNS, VoIP: every clause family of the Table-1 policy.
/// VoIP goes last: its chain needs an echo canceller, which `paper(2)`
/// (two middlebox kinds) does not deploy.
const APPS: [(u16, Protocol); 5] = [
    (443, Protocol::Tcp),
    (80, Protocol::Tcp),
    (554, Protocol::Tcp),
    (53, Protocol::Udp),
    (5060, Protocol::Udp),
];

/// The walker as it was before the port table. Runs the real switch
/// pipelines of `net` but records middlebox traversals in its own
/// `tracker`, and returns the trail beside the outcome.
#[allow(clippy::too_many_arguments)]
fn reference_walk(
    net: &mut PhysicalNetwork,
    tracker: &mut MiddleboxTracker,
    topo: &Topology,
    buffer: &mut [u8],
    start: SwitchId,
    in_port: PortNo,
    version: u32,
    now: SimTime,
) -> (Result<WalkOutcome>, Vec<SwitchId>) {
    let mut trail = Vec::new();
    let walk_id = tracker.begin_walk();
    let (mut sw, mut port) = (start, in_port);
    let outcome = (|| {
        for _ in 0..net.max_hops {
            trail.push(sw);
            let out = match net.switch_mut(sw).process(buffer, port, version, now)? {
                ForwardDecision::ToController => {
                    return Ok(WalkOutcome::PuntedToAgent {
                        switch: sw,
                        in_port: port,
                    })
                }
                ForwardDecision::Drop => return Ok(WalkOutcome::Dropped { switch: sw }),
                ForwardDecision::Out(out) => out,
            };
            if topo
                .base_station_at(sw)
                .is_some_and(|bs| topo.base_station(bs).radio_port == out)
            {
                return Ok(WalkOutcome::DeliveredToRadio { switch: sw });
            }
            if topo
                .gateways()
                .iter()
                .any(|g| g.switch == sw && g.port == out)
            {
                return Ok(WalkOutcome::ExitedGateway { switch: sw });
            }
            let middlebox = topo
                .middleboxes()
                .iter()
                .find(|m| m.switch == sw && m.port == out);
            if let Some(mb) = middlebox {
                tracker.observe(mb.id, buffer, walk_id)?;
                port = out;
            } else {
                let &(next, _, in_port) = topo
                    .neighbors(sw)
                    .iter()
                    .find(|(_, p, _)| *p == out)
                    .ok_or_else(|| {
                        Error::InvalidState(format!("{sw} forwarded out unconnected port {out}"))
                    })?;
                (sw, port) = (next, in_port);
            }
            let mut ip = Ipv4Packet::new_checked(&mut buffer[..])?;
            let Some(ttl) = ip.ttl().checked_sub(1) else {
                return Err(Error::InvalidState(format!(
                    "TTL exhausted mid-walk ({} -> {}); trail tail: {:?}",
                    ip.src_addr(),
                    ip.dst_addr(),
                    &trail[trail.len().saturating_sub(12)..]
                )));
            };
            ip.set_ttl(ttl);
            ip.fill_checksum();
        }
        Err(Error::InvalidState(format!(
            "walk exceeded {} hops (rule loop?) at {sw}; trail tail: {:?}",
            net.max_hops,
            &trail[trail.len().saturating_sub(12)..]
        )))
    })();
    (outcome, trail)
}

/// Four kinds of subscriber, one connection per app each, homed
/// round-robin; every connection has completed its first round trip, so
/// all rules are in place.
fn live_world<'t>(
    topo: &'t Topology,
    subscribers: u64,
    apps: &[(u16, Protocol)],
) -> (SimWorld<'t>, Vec<ConnId>) {
    let mut w = SimWorld::new(topo, ServicePolicy::example_carrier_a(1));
    let stations = topo.base_stations().len() as u64;
    let mut conns = Vec::new();
    for i in 0..subscribers {
        let mut attrs = SubscriberAttributes::default_home(UeImsi(i));
        match (i / stations) % 4 {
            0 => {}
            1 => attrs.provider = Provider::Partner(1),
            2 => {
                attrs.device = DeviceType::M2mFleetTracker;
                attrs.plan = BillingPlan::M2m;
            }
            _ => attrs.plan = BillingPlan::Gold,
        }
        w.provision(attrs);
        w.attach(attrs.imsi, BaseStationId((i % stations) as u32))
            .unwrap();
        for (k, &(port, proto)) in apps.iter().enumerate() {
            let id = w
                .start_connection_from_port(attrs.imsi, SERVER, port, proto, 30_000 + k as u16)
                .unwrap();
            w.round_trip(id).unwrap();
            conns.push(id);
        }
    }
    (w, conns)
}

/// Walks one packet with both walkers from the same bytes and checks
/// they cannot be told apart. Returns the common outcome.
fn walk_both(
    w: &mut SimWorld<'_>,
    reference: &mut MiddleboxTracker,
    topo: &Topology,
    packet: &[u8],
    start: SwitchId,
    in_port: PortNo,
) -> Result<WalkOutcome> {
    let now = w.now();
    let version = w.net.switch(start).ingress_version;
    let mut expected_bytes = packet.to_vec();
    let (expected, expected_trail) = reference_walk(
        &mut w.net,
        reference,
        topo,
        &mut expected_bytes,
        start,
        in_port,
        version,
        now,
    );
    let mut bytes = packet.to_vec();
    let got = w.net.walk(topo, &mut bytes, start, in_port, version, now);
    assert_eq!(
        got.as_ref().map_err(|e| e.to_string()),
        expected.as_ref().map_err(|e| e.to_string())
    );
    assert_eq!(bytes, expected_bytes, "packet bytes after the walk");
    assert_eq!(w.net.last_walk_trail, expected_trail);
    assert_eq!(w.net.last_walk_hops, expected_trail.len());
    if let Ok(WalkOutcome::DeliveredToRadio { .. } | WalkOutcome::ExitedGateway { .. }) = got {
        assert!(Ipv4Packet::new_checked(&bytes[..])?.verify_checksum());
    }
    got
}

fn walkers_agree_on(topo: &Topology, subscribers: u64, apps: &[(u16, Protocol)]) {
    let (mut w, conns) = live_world(topo, subscribers, apps);
    let cfg = ControllerConfig::simulation();
    w.net.middleboxes = MiddleboxTracker::new(cfg.scheme, cfg.ports);
    let mut reference = MiddleboxTracker::new(cfg.scheme, cfg.ports);
    let gw = *topo.default_gateway();

    for _pass in 0..2 {
        for &id in &conns {
            let conn = w.connection(id).clone();
            let bs = w.controller.state().ue(conn.imsi).unwrap().bs;
            let station = *topo.base_station(bs);
            let up = build_flow_packet(conn.ue_tuple, 64, 0, b"ping");
            let out = walk_both(
                &mut w,
                &mut reference,
                topo,
                &up,
                station.access_switch,
                station.radio_port,
            )
            .unwrap();
            assert_eq!(out, WalkOutcome::ExitedGateway { switch: gw.switch });
            let echo = conn.internet_tuple.unwrap().reverse();
            let down = build_flow_packet(echo, 200, 0, b"pong");
            let out = walk_both(&mut w, &mut reference, topo, &down, gw.switch, gw.port).unwrap();
            assert_eq!(
                out,
                WalkOutcome::DeliveredToRadio {
                    switch: station.access_switch
                }
            );
        }
    }
    w.assert_policy_consistency().unwrap();

    // a TTL too short for the path fails the same way in both
    for &id in &conns {
        let echo = w.connection(id).internet_tuple.unwrap().reverse();
        let starved = build_flow_packet(echo, 2, 0, b"pong");
        let err =
            walk_both(&mut w, &mut reference, topo, &starved, gw.switch, gw.port).unwrap_err();
        assert!(err.to_string().contains("TTL exhausted mid-walk"), "{err}");
    }
    // a stranger's packet dies at the gateway in both
    let stray = build_flow_packet(
        FiveTuple {
            src: SERVER,
            dst: Ipv4Addr::new(203, 0, 113, 9),
            src_port: 443,
            dst_port: 4096,
            proto: Protocol::Tcp,
        },
        64,
        0,
        b"?",
    );
    let out = walk_both(&mut w, &mut reference, topo, &stray, gw.switch, gw.port).unwrap();
    assert_eq!(out, WalkOutcome::Dropped { switch: gw.switch });

    let seen = &w.net.middleboxes;
    assert!(seen.total_packets() > 0, "no walk crossed a middlebox");
    assert_eq!(seen.total_packets(), reference.total_packets());
    for &id in &conns {
        let key = w.connection(id).key.unwrap();
        for mb in topo.middleboxes() {
            assert_eq!(seen.counts(mb.id, &key), reference.counts(mb.id, &key));
        }
        for uplink in [true, false] {
            assert_eq!(
                seen.all_chains(&key, uplink),
                reference.all_chains(&key, uplink)
            );
        }
    }
}

#[test]
fn walkers_agree_on_small_topology() {
    walkers_agree_on(&small_topology(), 8, &APPS);
}

#[test]
fn walkers_agree_on_paper_k2() {
    let topo = CellularParams::paper(2).build().unwrap();
    walkers_agree_on(&topo, 80, &APPS[..4]);
}
