//! Algorithm 1 ⇄ data plane equivalence by replay.
//!
//! The Figure-7 experiments trust the controller's shadow tables; this
//! test closes the loop: install a few hundred policy paths with random
//! middlebox chains, lower every shadow delta to *physical* switches,
//! then inject real downlink packets at the gateway for every installed
//! path and check each one (a) reaches its origin base station's access
//! switch and (b) traverses exactly the path's middlebox instances in
//! reverse (downlink) order — including paths whose loops forced tag
//! swaps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softcell::controller::install::Direction;
use softcell::controller::ops::lower_delta;
use softcell::controller::{PathInstaller, TagPolicy};
use softcell::packet::{build_flow_packet, FiveTuple, Protocol};
use softcell::sim::{PhysicalNetwork, WalkOutcome};
use softcell::topology::{CellularParams, PolicyPath, ShortestPaths, Topology};
use softcell::types::{
    AddressingScheme, BaseStationId, LocIp, MiddleboxId, PortEmbedding, SimTime, UeId,
};
use std::net::Ipv4Addr;

fn random_paths(topo: &Topology, n: usize, seed: u64) -> Vec<PolicyPath> {
    let mut sp = ShortestPaths::new(topo);
    let mut rng = StdRng::seed_from_u64(seed);
    let gw = topo.default_gateway().switch;
    let stations = topo.base_stations().len();
    let mbs = topo.middlebox_count();
    (0..n)
        .map(|i| {
            let m = 1 + rng.gen_range(0..4usize);
            let mut chain: Vec<MiddleboxId> = Vec::new();
            while chain.len() < m {
                let cand = MiddleboxId(rng.gen_range(0..mbs as u32));
                if !chain.contains(&cand) {
                    chain.push(cand);
                }
            }
            let bs = BaseStationId((i % stations) as u32);
            sp.route_policy_path(bs, &chain, gw).unwrap()
        })
        .collect()
}

#[test]
fn replayed_downlink_packets_follow_their_installed_paths() {
    let topo = CellularParams::paper(2).build().unwrap();
    let scheme = AddressingScheme::default_scheme();
    let ports = PortEmbedding::default_embedding();
    let mut installer = PathInstaller::new(&topo, scheme, TagPolicy::default());
    let mut net = PhysicalNetwork::new(&topo);
    net.middleboxes = softcell::sim::MiddleboxTracker::new(scheme, ports);

    let paths = random_paths(&topo, 200, 99);
    let mut tags = Vec::with_capacity(paths.len());
    let carrier = scheme.carrier();
    for p in &paths {
        let report = installer.install_path(p, Direction::Downlink).unwrap();
        tags.push((report.entry_tag(), report.exit_tag()));
        for (sw, delta) in installer.last_deltas(Direction::Downlink) {
            let op = lower_delta(&topo, &ports, carrier, Direction::Downlink, *sw, delta).unwrap();
            net.apply(&op).unwrap();
        }
    }

    let gw = *topo.default_gateway();
    for (i, p) in paths.iter().enumerate() {
        // a downlink packet towards this path's origin, carrying the
        // entry tag the classifier would have embedded
        let loc = scheme
            .encode(LocIp::new(p.origin, UeId((i % 7) as u16)))
            .unwrap();
        let slot = (i % 32) as u16;
        let (entry_tag, exit_tag) = tags[i];
        let tuple = FiveTuple {
            src: Ipv4Addr::new(203, 0, 113, 99),
            dst: loc,
            src_port: 443,
            dst_port: ports.encode(entry_tag, slot).unwrap(),
            proto: Protocol::Tcp,
        };
        // the delivery microflow at the origin's access switch, keyed by
        // the tuple as it arrives (tag swaps may have rewritten the tag
        // bits to the path's exit tag)
        let access = topo.base_station(p.origin).access_switch;
        let radio = topo.base_station(p.origin).radio_port;
        let arriving = FiveTuple {
            dst_port: ports.encode(exit_tag, slot).unwrap(),
            ..tuple
        };
        let permanent = Ipv4Addr::new(100, 64, 1, (i % 250) as u8);
        net.switch_mut(access)
            .microflow
            .install(
                arriving,
                softcell::dataplane::MicroflowAction::RewriteDst {
                    addr: permanent,
                    port: 50_000,
                    out: radio,
                },
                SimTime::from_secs(3600),
            )
            .unwrap();

        let mut buf = build_flow_packet(tuple, 200, 0, b"replay");
        net.trace = std::env::var("TRACE_PATH").ok().as_deref() == Some(&i.to_string());
        let out = net
            .walk(&topo, &mut buf, gw.switch, gw.port, 0, SimTime::ZERO)
            .unwrap_or_else(|e| panic!("path {i}: {e}"));
        net.trace = false;

        match out {
            WalkOutcome::DeliveredToRadio { switch } => {
                assert_eq!(switch, access, "path {i} delivered at the wrong station");
            }
            other => panic!("path {i}: unexpected outcome {other:?}"),
        }
        // delivery restored the permanent endpoint
        {
            let v = softcell::packet::HeaderView::parse(&buf).unwrap();
            assert_eq!(v.dst(), permanent, "path {i}: permanent address restored");
        }
        // clean up the microflow entry so later same-tuple paths from the
        // same station key freshly
        net.switch_mut(access).microflow.remove(&arriving);
        // reinstall for the chain inspection below (the walk consumed it)
        let _ = (entry_tag, exit_tag);

        // and it traversed exactly the reversed middlebox chain
        // (key from the pre-delivery form of the packet: the arriving
        // tuple before the permanent-address restore)
        let arriving_buf = build_flow_packet(arriving, 64, 0, b"");
        let view = softcell::packet::HeaderView::parse(&arriving_buf).unwrap();
        let (key, _) = net.middleboxes.key_of(&view).unwrap();
        let expected: Vec<MiddleboxId> = p.middleboxes().into_iter().rev().collect();
        let chains = net.middleboxes.all_chains(&key, false);
        let seen = chains.last().cloned().unwrap_or_default();
        assert_eq!(seen, expected, "path {i} chain mismatch");
    }
}

#[test]
fn rule_counts_match_between_shadow_and_physical() {
    // every shadow delta lowered exactly once → physical table sizes
    // equal shadow rule counts, switch by switch
    let topo = CellularParams::paper(2).build().unwrap();
    let scheme = AddressingScheme::default_scheme();
    let ports = PortEmbedding::default_embedding();
    let mut installer = PathInstaller::new(&topo, scheme, TagPolicy::default());
    let mut net = PhysicalNetwork::new(&topo);
    let carrier = scheme.carrier();

    for p in random_paths(&topo, 150, 7) {
        installer.install_path(&p, Direction::Downlink).unwrap();
        for (sw, delta) in installer.last_deltas(Direction::Downlink) {
            let op = lower_delta(&topo, &ports, carrier, Direction::Downlink, *sw, delta).unwrap();
            net.apply(&op).unwrap();
        }
    }

    let shadow_counts = installer.shadows(Direction::Downlink).rule_counts();
    for (i, &expected) in shadow_counts.iter().enumerate() {
        let physical = net.switch(softcell::types::SwitchId(i as u32)).table.len();
        assert_eq!(
            physical, expected,
            "switch {i}: physical {physical} vs shadow {expected}"
        );
    }
}
