//! Cross-crate integration tests: the whole SoftCell stack working
//! together — controller, agents, switches, packets, policies, mobility.

use softcell::packet::Protocol;
use softcell::policy::{BillingPlan, Provider, ServicePolicy, SubscriberAttributes};
use softcell::sim::{SimWorld, WalkOutcome};
use softcell::topology::{small_topology, CellularParams};
use softcell::types::{BaseStationId, MiddleboxKind, SimDuration, UeImsi};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

fn provision_home(world: &mut SimWorld<'_>, n: u64) {
    for i in 0..n {
        world.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }
}

#[test]
fn every_clause_of_table1_steers_correctly() {
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));

    let mut silver = SubscriberAttributes::default_home(UeImsi(0));
    silver.plan = BillingPlan::Silver;
    let mut partner = SubscriberAttributes::default_home(UeImsi(1));
    partner.provider = Provider::Partner(1);
    let mut foreign = SubscriberAttributes::default_home(UeImsi(2));
    foreign.provider = Provider::Foreign(7);
    for a in [silver, partner, foreign] {
        w.provision(a);
    }
    for i in 0..3 {
        w.attach(UeImsi(i), BaseStationId(i as u32)).unwrap();
    }

    let kind_of = |w: &SimWorld<'_>, key, up| -> Vec<MiddleboxKind> {
        w.net
            .middleboxes
            .chain_of(&key, up)
            .iter()
            .map(|m| topo.middlebox(*m).kind)
            .collect()
    };

    // silver video → firewall then transcoder, mirrored on the way back
    let c = w
        .start_connection(UeImsi(0), SERVER, 554, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();
    let key = w.connection(c).key.unwrap();
    assert_eq!(
        kind_of(&w, key, true),
        vec![MiddleboxKind::Firewall, MiddleboxKind::Transcoder]
    );
    assert_eq!(
        kind_of(&w, key, false),
        vec![MiddleboxKind::Transcoder, MiddleboxKind::Firewall]
    );

    // partner roamer video → firewall only (priority 6 clause wins)
    let c = w
        .start_connection(UeImsi(1), SERVER, 554, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();
    let key = w.connection(c).key.unwrap();
    assert_eq!(kind_of(&w, key, true), vec![MiddleboxKind::Firewall]);

    // foreign device → denied before the fabric
    let c = w
        .start_connection(UeImsi(2), SERVER, 80, Protocol::Tcp)
        .unwrap();
    let out = w.send_uplink(c, b"x").unwrap();
    assert!(matches!(out, WalkOutcome::Dropped { .. }));

    w.assert_policy_consistency().unwrap();
}

#[test]
fn many_ues_many_flows_shared_tags() {
    // all stations, all UEs, same clauses → the fabric state stays tiny
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    provision_home(&mut w, 16);
    for i in 0..16u64 {
        w.attach(UeImsi(i), BaseStationId((i % 4) as u32)).unwrap();
    }
    for i in 0..16u64 {
        for port in [80u16, 443, 554] {
            let c = w
                .start_connection(UeImsi(i), SERVER, port, Protocol::Tcp)
                .unwrap();
            w.round_trip(c).unwrap();
        }
    }
    w.assert_policy_consistency().unwrap();
    // 48 connections; tags bounded by (clauses × stations), not flows
    assert!(w.controller.installer().tags_in_use() <= 8 * 4);
    // gateway holds no per-flow state
    assert_eq!(
        w.net.switch(topo.default_gateway().switch).microflow.len(),
        0
    );
}

#[test]
fn randomized_mobility_churn_stays_consistent() {
    // A miniature of the workload replay on the k=2 three-layer
    // topology: attaches, flows, chained handoffs, detaches, with
    // policy-consistency asserted throughout. (This scenario found five
    // real bugs during development — keep it.)
    use softcell::workload::{EventKind, EventStream, EventStreamConfig};

    let topo = CellularParams::paper(2).build().unwrap();
    let nbs = topo.base_stations().len() as u32;
    for seed in 0..8u64 {
        let cfg = EventStreamConfig::busy(nbs, 16, seed);
        let trace = EventStream::generate(&cfg);
        let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
        provision_home(&mut w, 16);
        let mut conns: HashMap<UeImsi, Vec<softcell::sim::world::ConnId>> = HashMap::new();
        for ev in trace.events() {
            match ev.kind {
                EventKind::Attach { bs } => w.attach(ev.imsi, bs).unwrap(),
                EventKind::NewFlow { dst_port, udp, .. } => {
                    let proto = if udp { Protocol::Udp } else { Protocol::Tcp };
                    let c = w
                        .start_connection(ev.imsi, SERVER, dst_port, proto)
                        .unwrap();
                    if w.round_trip(c).is_ok() {
                        conns.entry(ev.imsi).or_default().push(c);
                    }
                }
                EventKind::Handoff { to, .. } => {
                    w.handoff(ev.imsi, to).unwrap();
                    if let Some(list) = conns.get(&ev.imsi) {
                        for &c in list.iter().rev().take(2) {
                            w.round_trip(c)
                                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                        }
                    }
                }
                EventKind::Detach { .. } => {
                    w.detach(ev.imsi).unwrap();
                    conns.remove(&ev.imsi);
                }
            }
        }
        w.assert_policy_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn transitions_expire_and_rules_come_down() {
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    provision_home(&mut w, 2);
    w.attach(UeImsi(0), BaseStationId(0)).unwrap();
    let c = w
        .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();
    let rules_before = w.net.total_rules();

    w.handoff(UeImsi(0), BaseStationId(3)).unwrap();
    w.round_trip(c).unwrap();
    assert!(w.net.total_rules() > rules_before, "mobility rules present");

    // after the soft timeout, per-UE mobility rules disappear
    w.advance(SimDuration::from_secs(600));
    w.expire_transitions().unwrap();
    assert_eq!(w.controller.mobility().transitions_active(), 0);
    // the pair tunnel (shared, long-lived) stays; per-UE rules are gone
    assert!(w.net.total_rules() < rules_before + 10);
}

#[test]
fn ue_ids_vacated_by_handoff_return_when_the_reservation_is_released() {
    // Regression: an id vacated by a handoff was never returned to its
    // station's pool when the controller released the reservation, so a
    // station ran out of UE ids after `max_ues_per_station()` UEs had
    // handed off away from it — with nobody attached there.
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    let max = u64::from(w.controller.config().scheme.max_ues_per_station());
    provision_home(&mut w, max);
    let (bs0, bs1) = (BaseStationId(0), BaseStationId(1));
    let ttl = w.controller.mobility().transition_ttl;
    for cycle in 0..2 * max {
        let imsi = UeImsi(cycle % 2);
        w.attach(imsi, bs0)
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        w.handoff(imsi, bs1).unwrap();
        if cycle % 2 == 0 {
            // the transition expires, then the UE leaves...
            w.advance(ttl + SimDuration::from_secs(1));
            w.expire_transitions().unwrap();
            w.detach(imsi).unwrap();
        } else {
            // ...or it leaves first and the detach aborts the transition
            w.detach(imsi).unwrap();
        }
        assert_eq!(w.controller.state().reserved_count(), 0);
    }
    // the pool is back to its initial reservable set: the station takes
    // a full house again, every id below the maximum exactly once
    let mut ids = std::collections::BTreeSet::new();
    for i in 0..max {
        w.attach(UeImsi(i), bs0)
            .unwrap_or_else(|e| panic!("refill {i}: {e}"));
        ids.insert(w.controller.state().ue(UeImsi(i)).unwrap().ue_id.0);
    }
    assert_eq!(ids.len() as u64, max);
    assert!(ids.iter().all(|id| u64::from(*id) < max));
}

#[test]
fn reserved_location_is_not_reassigned_during_transition() {
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    provision_home(&mut w, 3);
    w.attach(UeImsi(0), BaseStationId(0)).unwrap();
    let c = w
        .start_connection(UeImsi(0), SERVER, 443, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();
    let old_loc = w.connection(c).key.unwrap().loc;

    w.handoff(UeImsi(0), BaseStationId(1)).unwrap();
    assert_eq!(w.controller.state().reserved_count(), 1);

    // a newcomer at bs0 must NOT receive the reserved LocIP
    w.attach(UeImsi(1), BaseStationId(0)).unwrap();
    let c2 = w
        .start_connection(UeImsi(1), SERVER, 443, Protocol::Tcp)
        .unwrap();
    w.round_trip(c2).unwrap();
    let new_loc = w.connection(c2).key.unwrap().loc;
    assert_ne!(new_loc, old_loc, "§5.1: old address not reassigned");

    // and the old flow still works for the mover
    w.round_trip(c).unwrap();
    w.assert_policy_consistency().unwrap();
}

#[test]
fn cellular_topology_end_to_end() {
    // the synthetic three-layer topology (k=2, 20 stations) carries
    // traffic end to end, including ring members far from the uplink
    let topo = CellularParams::paper(2).build().unwrap();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    provision_home(&mut w, 20);
    for i in 0..20u64 {
        w.attach(UeImsi(i), BaseStationId(i as u32)).unwrap();
        let c = w
            .start_connection(UeImsi(i), SERVER, 443, Protocol::Tcp)
            .unwrap();
        w.round_trip(c).unwrap();
    }
    w.assert_policy_consistency().unwrap();
}

#[test]
fn qos_clause_marks_dscp_at_the_edge() {
    // Table 1 clause 5: fleet-tracking traffic carries low-latency QoS;
    // the marking is applied by the access-edge microflow rewrite and
    // rides the packet through the fabric (checked at gateway exit).
    use softcell::policy::DeviceType;
    let topo = small_topology();
    let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    let mut tracker = SubscriberAttributes::default_home(UeImsi(0));
    tracker.device = DeviceType::M2mFleetTracker;
    w.provision(tracker);
    w.provision(SubscriberAttributes::default_home(UeImsi(1)));
    w.attach(UeImsi(0), BaseStationId(0)).unwrap();
    w.attach(UeImsi(1), BaseStationId(0)).unwrap();

    // fleet tracker mqtt → clause 2 (low latency, dscp 46)
    let c = w
        .start_connection(UeImsi(0), SERVER, 8883, Protocol::Tcp)
        .unwrap();
    w.round_trip(c).unwrap();
    assert_eq!(
        w.last_uplink_dscp(),
        Some(46),
        "fleet-tracking traffic is marked EF"
    );

    // ordinary web traffic stays best-effort
    let c2 = w
        .start_connection(UeImsi(1), SERVER, 443, Protocol::Tcp)
        .unwrap();
    w.round_trip(c2).unwrap();
    assert_eq!(w.last_uplink_dscp(), Some(0));
}
