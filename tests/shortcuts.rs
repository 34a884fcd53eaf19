//! Mobility shortcuts (paper §5.1): long-lived flows get spliced from
//! the old policy path directly to the new base station, trading the
//! per-flow core state for less triangle-routing path stretch.

use softcell::packet::Protocol;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::SimWorld;
use softcell::topology::CellularParams;
use softcell::types::{BaseStationId, SimDuration, UeImsi};
use std::net::Ipv4Addr;

const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

#[test]
fn shortcut_cuts_the_triangle() {
    // k=2 topology; move the UE several ring positions away so the
    // triangle through the anchor is long enough to measure
    let topo = CellularParams::paper(2).build().unwrap();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    w.provision(SubscriberAttributes::default_home(UeImsi(0)));
    w.attach(UeImsi(0), BaseStationId(1)).unwrap();
    let c = w
        .start_connection(UeImsi(0), SERVER, 554, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();

    // move far along the ring (bs1 → bs6)
    w.handoff(UeImsi(0), BaseStationId(6)).unwrap();

    // triangle-routed downlink: via the anchor at bs1
    w.round_trip(c).unwrap();
    let hops_triangle = w.net.last_walk_hops;

    // splice the flow
    w.install_shortcut(c).unwrap();
    w.round_trip(c).unwrap();
    let hops_shortcut = w.net.last_walk_hops;

    assert!(
        hops_shortcut < hops_triangle,
        "shortcut must shorten the downlink: {hops_shortcut} vs {hops_triangle}"
    );
    // policy consistency holds either way: the splice leaves the
    // middlebox prefix of the old path intact
    w.assert_policy_consistency().unwrap();
}

#[test]
fn shortcut_rules_expire_with_the_transition() {
    let topo = CellularParams::paper(2).build().unwrap();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    w.provision(SubscriberAttributes::default_home(UeImsi(0)));
    w.attach(UeImsi(0), BaseStationId(1)).unwrap();
    let c = w
        .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();
    w.handoff(UeImsi(0), BaseStationId(5)).unwrap();
    w.install_shortcut(c).unwrap();
    w.round_trip(c).unwrap();

    let rules_with_shortcut = w.net.total_rules();
    w.advance(SimDuration::from_secs(600));
    assert!(w.expire_transitions().unwrap() > 0);
    assert!(
        w.net.total_rules() < rules_with_shortcut,
        "per-flow shortcut state is transient"
    );
}
