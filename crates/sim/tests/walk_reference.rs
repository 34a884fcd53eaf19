//! Differential test for [`PhysicalNetwork::walk`]: a reference walker
//! written the obvious way — classify each out-port by searching the
//! topology's stations, gateways, middleboxes and neighbours, re-sum the
//! whole header for every TTL tick, collect the trail in a fresh vector —
//! must agree with the port-table walker packet for packet.
//!
//! The reference parses the bytes at every hop, as `Switch::process`
//! does; `walk` parses once and carries the view, and in a debug build
//! asserts after every hop that the view equals a parse of the bytes.
//! `every_rewrite_keeps_the_carried_view_in_step` makes each kind of
//! rewrite happen on some hop and keys the next hop's rule on the
//! rewritten fields, so a stale view would also change the walk.

use std::net::Ipv4Addr;

use softcell_controller::ControllerConfig;
use softcell_dataplane::{Action, ForwardDecision, Match, MicroflowAction, PortField};
use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Ipv4Packet, Protocol};
use softcell_policy::{BillingPlan, DeviceType, Provider, ServicePolicy, SubscriberAttributes};
use softcell_sim::world::ConnId;
use softcell_sim::{MiddleboxTracker, PhysicalNetwork, SimWorld, WalkOutcome};
use softcell_topology::{small_topology, CellularParams, Topology};
use softcell_types::{BaseStationId, Error, Ipv4Prefix, PortNo, Result, SimTime, SwitchId, UeImsi};

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
                tracker.observe(mb.id, &HeaderView::parse(buffer)?, walk_id)?;
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
/// they cannot be told apart. Returns the common outcome and leaves the
/// walked bytes in `packet`.
fn walk_both(
    net: &mut PhysicalNetwork,
    reference: &mut MiddleboxTracker,
    topo: &Topology,
    packet: &mut [u8],
    (start, in_port): (SwitchId, PortNo),
    now: SimTime,
) -> Result<WalkOutcome> {
    let version = net.switch(start).ingress_version;
    let mut expected_bytes = packet.to_vec();
    let (expected, expected_trail) = reference_walk(
        net,
        reference,
        topo,
        &mut expected_bytes,
        start,
        in_port,
        version,
        now,
    );
    let got = net.walk(topo, packet, start, in_port, version, now);
    assert_eq!(
        got.as_ref().map_err(|e| e.to_string()),
        expected.as_ref().map_err(|e| e.to_string())
    );
    assert_eq!(packet, expected_bytes, "packet bytes after the walk");
    assert_eq!(net.last_walk_trail, expected_trail);
    assert_eq!(net.last_walk_hops, expected_trail.len());
    if let Ok(WalkOutcome::DeliveredToRadio { .. } | WalkOutcome::ExitedGateway { .. }) = got {
        assert!(Ipv4Packet::new_checked(&packet[..])?.verify_checksum());
    }
    got
}

fn walkers_agree_on(topo: &Topology, subscribers: u64, apps: &[(u16, Protocol)]) {
    let (mut w, conns) = live_world(topo, subscribers, apps);
    let cfg = ControllerConfig::simulation();
    w.net.middleboxes = MiddleboxTracker::new(cfg.scheme, cfg.ports);
    let mut reference = MiddleboxTracker::new(cfg.scheme, cfg.ports);
    let gw = *topo.default_gateway();
    let at_gw = (gw.switch, gw.port);
    let now = w.now();

    for _pass in 0..2 {
        for &id in &conns {
            let conn = w.connection(id).clone();
            let bs = w.controller.state().ue(conn.imsi).unwrap().bs;
            let station = *topo.base_station(bs);
            let mut up = build_flow_packet(conn.ue_tuple, 64, 0, b"ping");
            let at_radio = (station.access_switch, station.radio_port);
            let out = walk_both(&mut w.net, &mut reference, topo, &mut up, at_radio, now).unwrap();
            assert_eq!(out, WalkOutcome::ExitedGateway { switch: gw.switch });
            let echo = conn.internet_tuple.unwrap().reverse();
            let mut down = build_flow_packet(echo, 200, 0, b"pong");
            let out = walk_both(&mut w.net, &mut reference, topo, &mut down, at_gw, now).unwrap();
            assert_eq!(
                out,
                WalkOutcome::DeliveredToRadio {
                    switch: station.access_switch
                }
            );
        }
    }
    // the two passes above are the second pass, walked by both walkers
    for &id in &conns {
        let key = w.connection(id).key.unwrap();
        w.net.middleboxes.assert_consistent(&key).unwrap();
    }

    // a TTL too short for the path fails the same way in both
    for &id in &conns {
        let echo = w.connection(id).internet_tuple.unwrap().reverse();
        let mut starved = build_flow_packet(echo, 2, 0, b"pong");
        let err =
            walk_both(&mut w.net, &mut reference, topo, &mut starved, at_gw, now).unwrap_err();
        assert!(err.to_string().contains("TTL exhausted mid-walk"), "{err}");
    }
    // a stranger's packet dies at the gateway in both
    let mut stray = build_flow_packet(
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
    let out = walk_both(&mut w.net, &mut reference, topo, &mut stray, at_gw, now).unwrap();
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

/// A rule that fires on exactly one header state arriving on one port.
fn exactly(t: FiveTuple, in_port: PortNo) -> Match {
    Match {
        in_port: Some(in_port),
        src_prefix: Some(Ipv4Prefix::host(t.src)),
        dst_prefix: Some(Ipv4Prefix::host(t.dst)),
        src_port: Some((t.src_port, u16::MAX)),
        dst_port: Some((t.dst_port, u16::MAX)),
        proto: Some(t.proto),
        version: None,
    }
}

/// One walk per protocol and access-edge mark through every kind of
/// rewrite: the edge's uplink rewrite (with and without a DSCP mark),
/// `RewriteSrcForward`, `SetDscpForward` into a middlebox,
/// `RewritePortBitsForward` on the source and on the destination port,
/// `RewriteDstForward` and the edge's downlink rewrite. Each hop's rule
/// matches exactly the state the previous hop left.
#[test]
fn every_rewrite_keeps_the_carried_view_in_step() {
    let topo = small_topology();
    let (gw, c1, agg, acc) = (SwitchId(0), SwitchId(1), SwitchId(3), SwitchId(5));
    let station = *topo.base_station(BaseStationId(0));
    let fw = topo.middleboxes()[0];
    assert_eq!((station.access_switch, fw.switch), (acc, c1));
    let port = |from, to| topo.port_towards(from, to).unwrap();
    let loc = |host| Ipv4Addr::new(10, 0, 0, host);
    let deadline = SimTime::from_secs(60);
    for proto in [Protocol::Tcp, Protocol::Udp] {
        for mark in [Some(46), None] {
            // the header state after each hop
            let t0 = FiveTuple {
                src: Ipv4Addr::new(100, 64, 0, 9),
                dst: SERVER,
                src_port: 50_000,
                dst_port: 443,
                proto,
            };
            let t1 = FiveTuple {
                src: loc(9),
                src_port: 0x0903,
                ..t0
            };
            let t2 = FiveTuple {
                src: loc(10),
                src_port: 0x0a04,
                ..t1
            };
            let t3 = FiveTuple {
                src_port: 0x4204,
                ..t2
            };
            let t4 = FiveTuple {
                dst_port: 0x11bb,
                ..t3
            };
            let t5 = FiveTuple {
                dst: loc(20),
                dst_port: 0x0c05,
                ..t4
            };
            let t6 = FiveTuple {
                dst: Ipv4Addr::new(100, 64, 0, 1),
                dst_port: 40_000,
                ..t5
            };
            let mut net = PhysicalNetwork::new(&topo);
            let uplink = MicroflowAction::RewriteSrc {
                addr: t1.src,
                port: t1.src_port,
                out: port(acc, agg),
                dscp: mark,
            };
            let downlink = MicroflowAction::RewriteDst {
                addr: t6.dst,
                port: t6.dst_port,
                out: station.radio_port,
            };
            let edge = &mut net.switch_mut(acc).microflow;
            edge.install(t0, uplink, deadline).unwrap();
            edge.install(t5, downlink, deadline).unwrap();
            let swap = |field, value| Action::RewritePortBitsForward {
                field,
                value,
                mask: 0xff00,
                out: match field {
                    PortField::Src => port(c1, gw),
                    PortField::Dst => port(gw, c1),
                },
            };
            let rules = [
                (
                    agg,
                    exactly(t1, port(agg, acc)),
                    Action::RewriteSrcForward {
                        addr: t2.src,
                        port: t2.src_port,
                        out: port(agg, c1),
                    },
                ),
                (
                    c1,
                    exactly(t2, port(c1, agg)),
                    Action::SetDscpForward {
                        dscp: 10,
                        out: fw.port,
                    },
                ),
                (c1, exactly(t2, fw.port), swap(PortField::Src, 0x4200)),
                (gw, exactly(t3, port(gw, c1)), swap(PortField::Dst, 0x1100)),
                (
                    c1,
                    exactly(t4, port(c1, gw)),
                    Action::RewriteDstForward {
                        addr: t5.dst,
                        port: t5.dst_port,
                        out: port(c1, agg),
                    },
                ),
                (
                    agg,
                    exactly(t5, port(agg, c1)),
                    Action::Forward(port(agg, acc)),
                ),
            ];
            for (sw, matcher, action) in rules {
                net.switch_mut(sw)
                    .table
                    .install(100, matcher, action)
                    .unwrap();
            }

            let mut reference = MiddleboxTracker::default();
            let mut packet = build_flow_packet(t0, 64, 0, b"ping");
            let at_radio = (acc, station.radio_port);
            let out = walk_both(
                &mut net,
                &mut reference,
                &topo,
                &mut packet,
                at_radio,
                SimTime::ZERO,
            )
            .unwrap();
            assert_eq!(out, WalkOutcome::DeliveredToRadio { switch: acc });
            assert_eq!(net.last_walk_trail, [acc, agg, c1, c1, gw, c1, agg, acc]);
            let view = HeaderView::parse(&packet).unwrap();
            assert_eq!((view.tuple, view.dscp), (t6, 10));
            // the firewall saw the state the marking hop left, once
            let marked = HeaderView {
                tuple: t2,
                dscp: 10,
                tcp_flags: 0,
            };
            let (key, uplink) = reference.key_of(&marked).unwrap();
            assert!(uplink);
            let seen = net.middleboxes.counts(fw.id, &key);
            assert_eq!((seen, seen.uplink), (reference.counts(fw.id, &key), 1));
            assert_eq!(net.middleboxes.total_packets(), 1);
        }
    }
}
