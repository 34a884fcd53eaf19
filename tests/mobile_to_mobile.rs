//! Mobile-to-mobile traffic (paper §7): UEs in the same core network
//! talk directly — through the clause's middlebox chain but never via
//! the gateway. "Compared to today's cellular networks where all
//! traffic has to go via the P-GW, SoftCell's routing scheme is more
//! efficient."

use softcell::packet::Protocol;
use softcell::policy::clause::ClauseId;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::{SimWorld, WalkOutcome};
use softcell::topology::{small_topology, CellularParams};
use softcell::types::{BaseStationId, MiddleboxKind, UeImsi};

fn world(topo: &softcell::topology::Topology) -> SimWorld<'_> {
    let mut w = SimWorld::new(topo, ServicePolicy::example_carrier_a(1));
    for i in 0..4 {
        w.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }
    w
}

#[test]
fn m2m_traffic_avoids_the_gateway() {
    let topo = small_topology();
    let mut w = world(&topo);
    w.attach(UeImsi(0), BaseStationId(0)).unwrap();
    w.attach(UeImsi(1), BaseStationId(3)).unwrap();

    let c = w
        .start_m2m_connection(UeImsi(0), UeImsi(1), 443, Protocol::Tcp)
        .unwrap();
    let out = w.send_m2m(c, true, b"hello peer").unwrap();
    assert!(matches!(out, WalkOutcome::DeliveredToRadio { .. }));

    // the walk never touched the gateway switch
    let gw = topo.default_gateway().switch;
    assert!(
        !w.net.last_walk_trail.contains(&gw),
        "m2m traffic detoured via the gateway: {:?}",
        w.net.last_walk_trail
    );

    // ...but it did traverse the clause's firewall
    let fw = topo.instances_of(MiddleboxKind::Firewall)[0];
    assert!(w.net.middleboxes.connections_seen(fw) > 0);
}

#[test]
fn m2m_works_in_both_directions() {
    let topo = small_topology();
    let mut w = world(&topo);
    w.attach(UeImsi(0), BaseStationId(1)).unwrap();
    w.attach(UeImsi(1), BaseStationId(2)).unwrap();

    let c = w
        .start_m2m_connection(UeImsi(0), UeImsi(1), 5060, Protocol::Udp)
        .unwrap();
    for _ in 0..3 {
        assert!(matches!(
            w.send_m2m(c, true, b"invite").unwrap(),
            WalkOutcome::DeliveredToRadio { .. }
        ));
        assert!(matches!(
            w.send_m2m(c, false, b"ok").unwrap(),
            WalkOutcome::DeliveredToRadio { .. }
        ));
    }
    let conn = w.connection(c);
    assert_eq!(conn.uplink_sent, 3);
    assert_eq!(conn.downlink_delivered, 3);
}

#[test]
fn m2m_connection_opened_after_the_offline_pass_delivers_both_ways() {
    let topo = small_topology();
    let mut w = world(&topo);
    w.attach(UeImsi(0), BaseStationId(1)).unwrap();
    w.attach(UeImsi(1), BaseStationId(2)).unwrap();
    let before = w
        .start_m2m_connection(UeImsi(0), UeImsi(1), 443, Protocol::Tcp)
        .unwrap();
    w.send_m2m(before, true, b"before").unwrap();
    // Internet paths arriving station by station: an order the pass
    // improves on, so it migrates the m2m paths with them
    for bs in 0..4 {
        for clause in [2, 3, 5] {
            w.controller
                .request_policy_path(BaseStationId(bs), ClauseId(clause))
                .unwrap();
        }
    }
    let outcome = w.apply_reoptimization().unwrap();
    assert!(outcome.rules_after < outcome.rules_before, "{outcome:?}");

    let c = w
        .start_m2m_connection(UeImsi(0), UeImsi(1), 5060, Protocol::Udp)
        .unwrap();
    for _ in 0..3 {
        assert!(matches!(
            w.send_m2m(c, true, b"invite").unwrap(),
            WalkOutcome::DeliveredToRadio { .. }
        ));
        assert!(matches!(
            w.send_m2m(c, false, b"ok").unwrap(),
            WalkOutcome::DeliveredToRadio { .. }
        ));
    }
    let gw = topo.default_gateway().switch;
    assert!(!w.net.last_walk_trail.contains(&gw));
}

#[test]
fn m2m_same_ring_is_local() {
    // two stations in one access ring: traffic stays below the pod layer
    // whenever the clause's middlebox placement allows... with the
    // Table-1 firewall requirement it must still climb to the firewall,
    // but never to the gateway.
    let topo = CellularParams::paper(2).build().unwrap();
    let mut w = world(&topo);
    w.attach(UeImsi(0), BaseStationId(2)).unwrap();
    w.attach(UeImsi(1), BaseStationId(5)).unwrap();
    let c = w
        .start_m2m_connection(UeImsi(0), UeImsi(1), 443, Protocol::Tcp)
        .unwrap();
    let out = w.send_m2m(c, true, b"x").unwrap();
    assert!(matches!(out, WalkOutcome::DeliveredToRadio { .. }));
    let gw = topo.default_gateway().switch;
    assert!(!w.net.last_walk_trail.contains(&gw));
}

#[test]
fn m2m_paths_are_cached_per_station_pair() {
    let topo = small_topology();
    let mut w = world(&topo);
    for i in 0..3 {
        w.attach(UeImsi(i), BaseStationId(i as u32)).unwrap();
    }
    let c1 = w
        .start_m2m_connection(UeImsi(0), UeImsi(1), 443, Protocol::Tcp)
        .unwrap();
    w.send_m2m(c1, true, b"a").unwrap();
    let rules_after_first = w.net.total_rules();

    // a second m2m connection over the same station pair and clause
    // installs no new fabric rules
    let c2 = w
        .start_m2m_connection(UeImsi(0), UeImsi(1), 80, Protocol::Tcp)
        .unwrap();
    w.send_m2m(c2, true, b"b").unwrap();
    assert_eq!(w.net.total_rules(), rules_after_first);
}
