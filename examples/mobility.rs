//! Mobility walkthrough: policy consistency across a handoff (paper §5.1).
//!
//! A subscriber starts a long-lived video session at one base station,
//! moves to a station on the other side of the network, and keeps
//! streaming. The example shows the three mechanisms at work:
//!
//! 1. the old access switch anchors ongoing flows (the old
//!    location-dependent address keeps routing there);
//! 2. a base-station-pair tunnel carries anchored traffic to the new
//!    station (tag-swapped, no per-UE state in the core);
//! 3. new flows take fresh paths from the new location.
//!
//! Run with: `cargo run --example mobility`

use softcell::packet::Protocol;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::SimWorld;
use softcell::topology::small_topology;
use softcell::types::{BaseStationId, UeImsi};
use std::net::Ipv4Addr;

fn main() {
    let topo = small_topology();
    let mut world = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
    world.provision(SubscriberAttributes::default_home(UeImsi(7)));

    let server = Ipv4Addr::new(203, 0, 113, 80);
    world.attach(UeImsi(7), BaseStationId(0)).expect("attach");

    // a video session starts at bs0 (firewall > transcoder chain)
    let session = world
        .start_connection(UeImsi(7), server, 554, Protocol::Tcp)
        .expect("conn");
    world.round_trip(session).expect("first round trip");
    let key = world.connection(session).key.expect("active");
    let chain_before = world.net.middleboxes.chain_of(&key, true);
    let scheme = world.controller.config().scheme;
    let loc_before = scheme.decode(key.loc).expect("locip");
    println!(
        "session established at {}: LocIP {} (bs {}, ue {}), chain {:?}",
        BaseStationId(0),
        key.loc,
        loc_before.base_station,
        loc_before.ue,
        chain_before
    );

    // the UE moves to bs3 — the far side of the network
    world.handoff(UeImsi(7), BaseStationId(3)).expect("handoff");
    println!(
        "handoff complete: {} tunnels live under one mobility tag ({}), {} UEs in transition",
        world.controller.mobility().tunnel_count(),
        (world.controller.mobility().mobility_tag()).map_or("none".into(), |t| t.to_string()),
        world.controller.mobility().transitions_active()
    );

    // the old session keeps flowing, anchored through the old path
    for _ in 0..3 {
        world.round_trip(session).expect("post-handoff round trip");
    }
    world
        .assert_policy_consistency()
        .expect("same middlebox instances before and after the move");
    println!(
        "ongoing session survived the move: {} uplink / {} downlink packets delivered, \
         all through the original middlebox instances",
        world.connection(session).uplink_sent,
        world.connection(session).downlink_delivered
    );

    // a brand-new flow uses the new location
    let fresh = world
        .start_connection(UeImsi(7), server, 443, Protocol::Tcp)
        .expect("conn");
    world.round_trip(fresh).expect("fresh flow");
    let fresh_key = world.connection(fresh).key.expect("active");
    let loc_after = scheme.decode(fresh_key.loc).expect("locip");
    println!(
        "new flow after the move uses LocIP {} (bs {}) — fresh path, no anchor",
        fresh_key.loc, loc_after.base_station
    );
    assert_eq!(loc_after.base_station, BaseStationId(3));
    assert_eq!(loc_before.base_station, BaseStationId(0));

    // transition state is transient: expire it and count the teardowns
    world.advance(softcell::types::SimDuration::from_secs(600));
    let torn_down = world.expire_transitions().expect("teardown applies");
    println!("transition expired after its soft timeout: {torn_down} per-UE rules torn down");
    println!("\nmobility walkthrough complete.");
}
