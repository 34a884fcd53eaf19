//! Control-plane failure drills across the full stack (paper §5.2).

use softcell::controller::core::CentralController;
use softcell::controller::failover::AgentLocationReport;
use softcell::packet::Protocol;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::SimWorld;
use softcell::topology::small_topology;
use softcell::types::{BaseStationId, SimDuration, SimTime, UeId, UeImsi};
use std::net::Ipv4Addr;

const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 80);

#[test]
fn controller_replica_rebuilds_locations_from_live_agents() {
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    for i in 0..7 {
        w.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }
    for i in 0..6u64 {
        w.attach(UeImsi(i), BaseStationId((i % 4) as u32)).unwrap();
    }
    // some traffic so the state is non-trivial
    for i in 0..6u64 {
        let c = w
            .start_connection(UeImsi(i), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
    }
    // a handoff so one UE's location is "fresh"
    w.handoff(UeImsi(0), BaseStationId(2)).unwrap();

    // the surviving replica holds the failed primary's slow state —
    // policy and subscribers — and lost none of it...
    let primary = &w.controller;
    let mut recovered =
        CentralController::new(&topo, *primary.config(), primary.state().policy().clone());
    for i in 0..7 {
        recovered.put_subscriber(*primary.state().subscriber(UeImsi(i)).unwrap());
    }
    assert_eq!(recovered.state().subscriber_count(), 7);
    // ...and rebuilds the fast state, locations and the address pool,
    // from the agents alone
    let reports: Vec<AgentLocationReport> = topo
        .base_stations()
        .iter()
        .map(|bs| AgentLocationReport::from_agent(w.agent(bs.id), SimTime::from_secs(1)))
        .collect();
    recovered.rebuild_locations(&reports).unwrap();

    assert_eq!(recovered.state().attached_count(), 6);
    for i in 0..6u64 {
        let (got, want) = (
            recovered.state().ue(UeImsi(i)).unwrap(),
            primary.state().ue(UeImsi(i)).unwrap(),
        );
        assert_eq!(
            (got.bs, got.permanent_ip),
            (want.bs, want.permanent_ip),
            "rebuilt location of {i} matches the agents' truth"
        );
    }
    // the next attach gets an address no restored UE holds
    let next = recovered
        .attach_ue(UeImsi(6), BaseStationId(1), UeId(60), SimTime::from_secs(2))
        .unwrap()
        .record;
    assert!(
        (0..6).all(|i| primary.state().ue(UeImsi(i)).unwrap().permanent_ip != next.permanent_ip),
        "{} handed out again",
        next.permanent_ip
    );
}

#[test]
fn agent_restart_preserves_service() {
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    for i in 0..2 {
        w.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }
    w.attach(UeImsi(0), BaseStationId(0)).unwrap();
    w.attach(UeImsi(1), BaseStationId(0)).unwrap();
    let c = w
        .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();

    // crash the bs0 agent and restart it from the controller
    let grants = w.controller.grants_for_station(BaseStationId(0)).unwrap();
    assert_eq!(grants.len(), 2);
    w.restart_agent(BaseStationId(0)).unwrap();

    // attached UEs survived; new flows classify correctly again
    let c2 = w
        .start_connection(UeImsi(1), SERVER, 554, Protocol::Tcp)
        .unwrap();
    w.round_trip(c2).unwrap();
    w.assert_policy_consistency().unwrap();
}

#[test]
fn agent_restart_keeps_reserved_ids_held() {
    // a location vacated by a handoff with a live flow stays reserved
    // for that flow (§5.1) across a restart of its station's agent
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    for i in 0..6 {
        w.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }
    let (bs0, bs1) = (BaseStationId(0), BaseStationId(1));
    for i in 0..3 {
        w.attach(UeImsi(i), bs0).unwrap();
    }
    w.attach(UeImsi(3), bs1).unwrap();
    let c = w
        .start_connection(UeImsi(1), SERVER, 443, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();
    w.handoff(UeImsi(1), bs1).unwrap();
    assert_eq!(w.controller.state().reserved_count(), 1, "(bs0, ue1)");

    w.restart_agent(bs0).unwrap();
    let ue_id = |w: &SimWorld<'_>, i| w.controller.state().ue(UeImsi(i)).unwrap().ue_id;
    // neither an attach nor a handoff arrival draws the reserved id
    w.attach(UeImsi(4), bs0).unwrap();
    assert_eq!(ue_id(&w, 4), UeId(3));
    w.handoff(UeImsi(3), bs0).unwrap();
    assert_eq!(ue_id(&w, 3), UeId(4));
    w.round_trip(c).unwrap();

    // once the transition ends the id comes back to the rebuilt agent
    let ttl = w.controller.mobility().transition_ttl;
    w.advance(ttl + SimDuration::from_secs(1));
    w.expire_transitions().unwrap();
    w.attach(UeImsi(5), bs0).unwrap();
    assert_eq!(ue_id(&w, 5), UeId(1));
    w.assert_policy_consistency().unwrap();
}
