//! Metro workload replay: a synthetic trace drives a k=4 cellular core.
//!
//! Generates a per-UE event stream (attaches, flows, handoffs, detaches
//! — the §6.1 workload shape at laptop scale), replays it against a
//! full SoftCell deployment on the three-layer k=4 topology (160 base
//! stations), and reports what the control plane actually did: cache
//! hit ratios at the local agents (the Table-2 quantity), policy paths
//! and tags installed, switch table occupancy by band (policy paths'
//! tag rules, the location stage's Type 3 rules that carry their last
//! legs, mobility legs by direction, shortcuts, and the per-UE redirect
//! and launch rules of UEs in transition), and the mobility machinery's
//! activity.
//!
//! Run with: `cargo run --release --example metro_workload`

use softcell::controller::mobility::MOBILITY_PRIORITY;
use softcell::dataplane::matcher::{Direction, RuleType};
use softcell::dataplane::Match;
use softcell::packet::Protocol;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::SimWorld;
use softcell::topology::{CellularParams, SwitchRole, Topology};
use softcell::types::{Ipv4Prefix, UeImsi};
use softcell::workload::{EventKind, EventStream, EventStreamConfig};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Flow-table rules by band.
#[derive(Default)]
struct Bands {
    /// Policy-path tag rules (Algorithm 1's Types 1 and 2).
    policy: usize,
    /// The location stage: Type 3 rules, one station block each, that
    /// carry every tag's last leg.
    location: usize,
    /// Mobility legs: the mobility tag and a station block's prefix.
    legs_down: usize,
    legs_up: usize,
    /// §5.1 shortcut rules, per flow.
    shortcuts: usize,
    /// The redirect and launch rules of UEs in transition.
    per_ue: usize,
}

/// The rules of the non-access switches' tables and of the access
/// switches', by band.
fn rule_bands(topo: &Topology, world: &SimWorld<'_>) -> [Bands; 2] {
    let ctl = &world.controller;
    let (tag, ports) = (ctl.mobility().mobility_tag(), ctl.config().ports);
    let is_leg = |dir, prefix: Option<Ipv4Prefix>, m: &Match| {
        (tag.zip(prefix)).is_some_and(|(t, p)| Match::tag_and_prefix(dir, t, p, &ports) == *m)
    };
    let mut bands = [Bands::default(), Bands::default()];
    for node in topo.switches() {
        let at = &mut bands[usize::from(node.role == SwitchRole::Access)];
        for rule in world.net.switch(node.id).table.iter() {
            let m = &rule.matcher;
            let band = if is_leg(Direction::Downlink, m.dst_prefix, m) {
                &mut at.legs_down
            } else if is_leg(Direction::Uplink, m.src_prefix, m) {
                &mut at.legs_up
            } else if rule.priority == MOBILITY_PRIORITY + 100 {
                &mut at.shortcuts
            } else if rule.priority == MOBILITY_PRIORITY {
                &mut at.per_ue
            } else if RuleType::of(m) == RuleType::PrefixOnly {
                &mut at.location
            } else {
                &mut at.policy
            };
            *band += 1;
        }
    }
    bands
}

fn main() {
    // the network: k=4 → 160 base stations, 33 fabric switches
    let topo = CellularParams::paper(4).build().expect("topology");
    let mut world = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));

    // the workload: 300 UEs over 10 simulated minutes
    let cfg = EventStreamConfig::busy(topo.base_stations().len() as u32, 300, 99);
    let trace = EventStream::generate(&cfg);
    println!(
        "trace: {} events over {}s ({} attaches, {} flows, {} handoffs, {} detaches)",
        trace.len(),
        cfg.duration.as_secs_f64(),
        trace.count(|k| matches!(k, EventKind::Attach { .. })),
        trace.count(|k| matches!(k, EventKind::NewFlow { .. })),
        trace.count(|k| matches!(k, EventKind::Handoff { .. })),
        trace.count(|k| matches!(k, EventKind::Detach { .. })),
    );

    for i in 0..300 {
        world.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }

    let server = Ipv4Addr::new(203, 0, 113, 9);
    let mut conns: HashMap<UeImsi, Vec<softcell::sim::world::ConnId>> = HashMap::new();
    let mut counts = (0u64, 0u64, 0u64, 0u64, 0u64); // ok flows, denied, handoffs, attaches, detaches
    let mut last_time = softcell::types::SimTime::ZERO;

    for ev in trace.events() {
        world.advance(ev.time - last_time);
        last_time = ev.time;
        match ev.kind {
            EventKind::Attach { bs } => {
                world.attach(ev.imsi, bs).expect("attach");
                counts.3 += 1;
            }
            EventKind::NewFlow { dst_port, udp, .. } => {
                let proto = if udp { Protocol::Udp } else { Protocol::Tcp };
                let conn = world
                    .start_connection(ev.imsi, server, dst_port, proto)
                    .expect("conn");
                match world.round_trip(conn) {
                    Ok(()) => {
                        counts.0 += 1;
                        conns.entry(ev.imsi).or_default().push(conn);
                    }
                    Err(_) => counts.1 += 1, // denied or dropped
                }
            }
            EventKind::Handoff { to, .. } => {
                world.handoff(ev.imsi, to).expect("handoff");
                counts.2 += 1;
                // traffic continues on every live connection of this UE
                if let Some(list) = conns.get(&ev.imsi) {
                    for &c in list.iter().rev().take(2) {
                        world.round_trip(c).expect("post-handoff traffic");
                    }
                }
            }
            EventKind::Detach { .. } => {
                world.detach(ev.imsi).expect("detach");
                conns.remove(&ev.imsi);
                counts.4 += 1;
            }
        }
    }

    world
        .assert_policy_consistency()
        .expect("every connection stayed on its middlebox chain");

    println!("\nreplay complete:");
    println!(
        "  {} flows carried end-to-end, {} denied/dropped, {} handoffs, {} attaches, {} detaches",
        counts.0, counts.1, counts.2, counts.3, counts.4
    );

    // local-agent control-plane load (the Table-2 quantity)
    let (mut hits, mut misses) = (0u64, 0u64);
    for bs in topo.base_stations() {
        let s = world.agent(bs.id).stats();
        hits += s.cache_hits;
        misses += s.cache_misses;
    }
    println!(
        "  agent tag caches: {hits} hits / {misses} misses ({:.1}% hit ratio)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );

    println!(
        "  controller: {} policy paths installed, {} tags in use, {} tunnels under one mobility tag ({}), {} transitions",
        world.controller.installer().paths_installed(),
        world.controller.installer().tags_in_use(),
        world.controller.mobility().tunnel_count(),
        (world.controller.mobility().mobility_tag()).map_or("none".into(), |t| t.to_string()),
        world.controller.mobility().transitions_active(),
    );
    println!("  fabric rules installed: {}", world.net.total_rules());
    let switches = ["core switches", "access switches"];
    for (at, bands) in switches.iter().zip(rule_bands(&topo, &world)) {
        println!(
            "    {at}: {} policy, {} location (Type 3), {} mobility legs ({} downlink, {} uplink), {} shortcut, {} per-UE mobility",
            bands.policy,
            bands.location,
            bands.legs_down + bands.legs_up,
            bands.legs_down,
            bands.legs_up,
            bands.shortcuts,
            bands.per_ue,
        );
    }
    println!(
        "  middlebox packets observed: {}",
        world.net.middleboxes.total_packets()
    );

    // the §3.2 offline pass: recompute all live paths in chain-grouped
    // order and migrate if it wins
    let outcome = world.apply_reoptimization().expect("reoptimize");
    println!(
        "  offline recompute: {} -> {} rules ({} paths replayed, tags {} -> {})",
        outcome.rules_before,
        outcome.rules_after,
        outcome.paths_replayed,
        outcome.tags_before,
        outcome.tags_after
    );

    // traffic still flows after the migration (fresh classification;
    // pick any UE that is still attached)
    let someone = world
        .controller
        .state()
        .attached()
        .next()
        .expect("someone is attached")
        .imsi;
    let c = world
        .start_connection(someone, server, 443, Protocol::Tcp)
        .expect("post-reopt conn");
    world.round_trip(c).expect("post-reopt round trip");
    println!("  post-recompute traffic: OK");
}
