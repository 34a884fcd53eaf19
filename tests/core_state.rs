//! Core switches hold no per-UE mobility state (paper §5.1).
//!
//! A moving UE's state stays at the access edge: its downlink redirect
//! and its flows' launch rules at the anchor's access switch, its
//! microflow copies at the new one. What the fabric between them holds
//! belongs to per-destination trees: anchored downlink rides the one
//! mobility tag and the UE's LocIP at its current station along the path
//! to it, anchored uplink the mobility tag and the anchor LocIP along
//! the path back. A switch sorts the stations into blocks — the largest
//! aligned blocks of station ids whose every station it reaches through
//! one next hop, each on its own tree — and holds one leg per (block,
//! direction), matching the mobility tag and the block's LocIP prefix,
//! shared by every tunnel that crosses it towards any station of the
//! block. So core tables grow neither with the UEs in transition nor
//! with the station pairs they move between, and the tag space does not
//! grow with the stations.
//!
//! On `paper(4)` (160 stations, three layers), scripted and seeded
//! random move sequences — A→B→C→A chains, returns to an anchor, moves
//! inside a live transition, tunnels shared by several UEs and run both
//! ways, shortcuts, detaches and expiries — are checked after every
//! step:
//!
//! 1. no non-access switch holds a rule scoped to one address (`/32`),
//!    apart from §5.1 shortcut rules, which are per-flow by design;
//! 2. the tunnel legs are exactly the blocks of the live trees: a leg
//!    for each switch between the two access switches of a live
//!    tunnel's downlink path (matching the block of its current station
//!    there) and of its uplink path (its anchor's block), one next hop
//!    per (switch, block, direction) — every `MOBILITY_PRIORITY` rule
//!    not scoped to one address is such an uplink leg. The blocks are
//!    computed here from shortest paths, not read from the controller.
//!    And `tags_in_use` less the policy paths' tags is 1 while any
//!    tunnel lives, else 0;
//! 3. every live connection still round-trips (uplink and downlink
//!    walked) through the middlebox instances it started with.
//!
//! A last gate runs Figure 7's largest network, `paper(8)` (1 280
//! stations): 1 100 UEs each move to the next station with a live
//! connection, so 1 100 tunnels live at once — more than the tag space
//! holds tags.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softcell::controller::mobility::MOBILITY_PRIORITY;
use softcell::dataplane::matcher::Direction;
use softcell::dataplane::{Action, Match, MicroflowAction};
use softcell::packet::{build_flow_packet, FiveTuple, Protocol};
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::sim::world::ConnId;
use softcell::sim::{SimWorld, WalkOutcome};
use softcell::topology::{CellularParams, ShortestPaths, SwitchRole, Topology};
use softcell::types::{
    AddressingScheme, BaseStationId, Ipv4Prefix, PortNo, SimDuration, SwitchId, UeImsi,
};

const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

/// Shortcut rules sit above the tunnel redirect, per flow (§5.1).
const SHORTCUT_PRIORITY: u16 = MOBILITY_PRIORITY + 100;

/// Destination ports the flows use: web (firewall), video (firewall
/// then transcoder) and the catch-all clause.
const PORTS: [u16; 3] = [443, 554, 80];

/// Stations the moves pick from on `paper(4)`: two in one access ring,
/// and one in each of three other pods, so tunnels cross the
/// aggregation and core layers, are shared by several UEs and run both
/// ways between a pair.
const STATIONS: [u32; 5] = [3, 7, 47, 88, 125];

/// What the mobility rules on the fabric add up to after one step.
#[derive(Debug, Default)]
struct Legs {
    /// `MOBILITY_PRIORITY` rules on non-access switches.
    core: usize,
    /// Shortcut rules on non-access switches.
    shortcuts: usize,
}

/// The stations' blocks at each switch, found from shortest paths: a
/// switch's block of a station is the largest aligned block of station
/// ids around it whose every station's path from the switch takes the
/// same second switch (a block holds no station of the switch's own).
struct Blocks {
    topo: Topology,
    paths: ShortestPaths,
    /// Per switch, each station's second switch on the path to it.
    next: HashMap<SwitchId, Vec<Option<SwitchId>>>,
}

impl Blocks {
    fn new(topo: &Topology) -> Blocks {
        Blocks {
            topo: topo.clone(),
            paths: ShortestPaths::new(topo),
            next: HashMap::new(),
        }
    }

    /// The LocIP prefix of `dest`'s block at `sw`.
    fn of(&mut self, sw: SwitchId, dest: BaseStationId, scheme: &AddressingScheme) -> Ipv4Prefix {
        let Blocks { topo, paths, next } = self;
        let next = next.entry(sw).or_insert_with(|| {
            let stations = topo.base_stations().iter();
            let mut second = |access| paths.path(sw, access).ok()?.get(1).copied();
            stations.map(|bs| second(bs.access_switch)).collect()
        });
        let (d, bits) = (dest.index(), scheme.max_base_stations().trailing_zeros());
        let mut shift = 0;
        while u32::from(shift) < bits {
            let size = 1 << (shift + 1);
            let first = d / size * size;
            if !(first..(first + size).min(next.len())).all(|s| next[s] == next[d]) {
                break;
            }
            shift += 1;
        }
        scheme
            .station_block(dest, shift)
            .expect("a station's block")
    }
}

/// Checks the three properties of the module doc, `policy_tags` being
/// what the policy paths opened so far hold; returns what the
/// non-access switches held.
fn check(w: &mut SimWorld<'_>, blocks: &mut Blocks, policy_tags: usize, at: &str) -> Legs {
    let topo = &blocks.topo.clone();
    let access = |sw: &SwitchId| topo.switch(*sw).role == SwitchRole::Access;
    let host = |p: Option<Ipv4Prefix>| p.is_some_and(|p| p.len() == 32);
    let ctl = &w.controller;
    let (ports, scheme) = (ctl.config().ports, ctl.config().scheme);
    let mobility = ctl.mobility();

    // the tag: one, held while any tunnel lives
    let tunnels = mobility.tunnel_count();
    assert_eq!(
        mobility.mobility_tag().is_some(),
        tunnels > 0,
        "{at}: the mobility tag is held without live tunnels, or missing with them"
    );
    assert_eq!(
        ctl.installer().tags_in_use() - policy_tags,
        usize::from(tunnels > 0),
        "{at}: the tags beside the policy paths' are not the one mobility tag"
    );

    // the trees: a leg at each middle hop of each live path, one next
    // hop per (switch, block of the destination there, direction)
    let mut trees: HashMap<(SwitchId, Ipv4Prefix, Direction), PortNo> = HashMap::new();
    for ((anchor, current), down, up) in mobility.tunnels() {
        for (path, dest, dir) in [
            (down, current, Direction::Downlink),
            (up, anchor, Direction::Uplink),
        ] {
            for hop in path.windows(3) {
                let out = topo.port_towards(hop[1], hop[2]).expect("linked hop");
                let block = blocks.of(hop[1], dest, &scheme);
                let had = trees.insert((hop[1], block, dir), out);
                assert!(
                    had.is_none_or(|o| o == out),
                    "{at}: two live paths leave {} towards {block} ({dir:?}) on different ports",
                    hop[1]
                );
            }
        }
    }
    // a leg: a rule matching the mobility tag and a prefix of its
    // direction's address, and nothing else
    let leg_of = |m: &Match| {
        let tag = mobility.mobility_tag()?;
        [
            (Direction::Downlink, m.dst_prefix),
            (Direction::Uplink, m.src_prefix),
        ]
        .into_iter()
        .find_map(|(dir, prefix)| {
            let prefix = prefix?;
            (Match::tag_and_prefix(dir, tag, prefix, &ports) == *m).then_some((prefix, dir))
        })
    };

    let mut legs = Legs::default();
    let mut fabric: HashMap<(SwitchId, Ipv4Prefix, Direction), PortNo> = HashMap::new();
    for node in topo.switches() {
        for rule in w.net.switch(node.id).table.iter() {
            let per_address = host(rule.matcher.src_prefix) || host(rule.matcher.dst_prefix);
            let leg = leg_of(&rule.matcher);
            if rule.priority == MOBILITY_PRIORITY && !per_address || leg.is_some() {
                let Some((block, dir)) = leg else {
                    panic!("{at}: {} holds {rule}, a leg of no live tree", node.id)
                };
                let Action::Forward(out) = rule.action else {
                    panic!("{at}: leg {rule} at {} does not forward", node.id)
                };
                assert!(
                    fabric.insert((node.id, block, dir), out).is_none(),
                    "{at}: {} holds two legs towards {block} ({dir:?})",
                    node.id
                );
            }
            if access(&node.id) {
                continue;
            }
            if rule.priority == SHORTCUT_PRIORITY {
                legs.shortcuts += 1;
                continue;
            }
            assert!(
                !per_address,
                "{at}: core switch {} holds a per-UE rule {rule}",
                node.id
            );
            if rule.priority == MOBILITY_PRIORITY {
                legs.core += 1;
            }
        }
    }
    assert_eq!(
        fabric, trees,
        "{at}: the legs are not the blocks of the live trees"
    );
    w.assert_policy_consistency()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    legs
}

fn world(topo: &Topology, ues: u64) -> SimWorld<'_> {
    let mut w = SimWorld::new(topo, ServicePolicy::example_carrier_a(1));
    for i in 0..ues {
        w.provision(SubscriberAttributes::default_home(UeImsi(i)));
    }
    w
}

/// Opens a flow on `port` and round-trips it, adding the tags a policy
/// path it needed took to `policy_tags`: a flow takes no mobility tag.
fn open(w: &mut SimWorld<'_>, policy_tags: &mut usize, imsi: UeImsi, port: u16) -> ConnId {
    let before = w.controller.installer().tags_in_use();
    let c = w
        .start_connection(imsi, SERVER, port, Protocol::Tcp)
        .expect("connection");
    w.round_trip(c).expect("first round trip");
    *policy_tags += w.controller.installer().tags_in_use() - before;
    c
}

#[test]
fn scripted_moves_leave_no_per_ue_state_in_the_core() {
    let topo = CellularParams::paper(4).build().unwrap();
    let mut blocks = Blocks::new(&topo);
    let mut w = world(&topo, 3);
    let mut policy = 0;
    let [a, b, c, d] = [3, 47, 125, 7].map(BaseStationId);
    let (ue0, ue1, ue2) = (UeImsi(0), UeImsi(1), UeImsi(2));
    let mut step = 0;
    let mut next = |what: &str| {
        step += 1;
        format!("step {step} ({what})")
    };

    w.attach(ue0, a).unwrap();
    w.attach(ue1, a).unwrap();
    w.attach(ue2, b).unwrap();
    for port in PORTS {
        open(&mut w, &mut policy, ue0, port);
    }
    let ue1_web = open(&mut w, &mut policy, ue1, PORTS[0]);
    open(&mut w, &mut policy, ue2, PORTS[1]);
    check(
        &mut w,
        &mut blocks,
        policy,
        &next("flows open, nobody moved"),
    );

    // ue1 rides the tunnel ue0 built; ue2 runs the pair the other way
    w.handoff(ue0, b).unwrap();
    let first = check(&mut w, &mut blocks, policy, &next("ue0 A→B"));
    assert!(first.core > 0, "the A→B tunnel crosses the core");
    w.handoff(ue1, b).unwrap();
    let shared = check(&mut w, &mut blocks, policy, &next("ue1 A→B"));
    assert_eq!(
        shared.core, first.core,
        "a second UE on the A→B tunnel adds no core rule"
    );
    w.handoff(ue2, a).unwrap();
    check(&mut w, &mut blocks, policy, &next("ue2 B→A"));
    assert_eq!(
        w.controller.mobility().tunnel_count(),
        2,
        "the pair's two tunnels, under the one mobility tag"
    );

    // A→B→C→A for ue0, with a new flow anchored at each stop
    open(&mut w, &mut policy, ue0, PORTS[2]);
    w.handoff(ue0, c).unwrap();
    check(
        &mut w,
        &mut blocks,
        policy,
        &next("ue0 B→C inside its transition"),
    );
    assert_eq!(
        w.controller.mobility().tunnel_count(),
        4,
        "A→B, B→A, A→C and B→C, under the one mobility tag"
    );
    open(&mut w, &mut policy, ue0, PORTS[1]);
    w.handoff(ue0, a).unwrap();
    check(
        &mut w,
        &mut blocks,
        policy,
        &next("ue0 C→A, back at its first anchor"),
    );

    // a shortcut is per-flow by design; a ring-local move; a return
    w.install_shortcut(ue1_web).unwrap();
    let spliced = check(&mut w, &mut blocks, policy, &next("ue1 shortcut"));
    assert!(spliced.shortcuts > 0, "the splice crosses the core");
    w.handoff(ue1, d).unwrap();
    check(&mut w, &mut blocks, policy, &next("ue1 B→D"));
    w.handoff(ue1, a).unwrap();
    check(&mut w, &mut blocks, policy, &next("ue1 D→A, home"));

    // a detach ends one transition, expiry the rest: tunnels collected
    w.detach(ue2).unwrap();
    check(&mut w, &mut blocks, policy, &next("ue2 detached"));
    w.advance(w.controller.mobility().transition_ttl + SimDuration::from_secs(1));
    w.expire_transitions().unwrap();
    let quiet = check(&mut w, &mut blocks, policy, &next("transitions expired"));
    assert_eq!(w.controller.mobility().tunnel_count(), 0);
    assert_eq!((quiet.core, quiet.shortcuts), (0, 0));
}

#[test]
fn random_moves_leave_no_per_ue_state_in_the_core() {
    const UES: u64 = 10;
    let topo = CellularParams::paper(4).build().unwrap();
    let mut blocks = Blocks::new(&topo);
    let (mut moves, mut peak, mut shared) = (0, 0, 0);
    for seed in 0..4u64 {
        let mut w = world(&topo, UES);
        let mut policy = 0;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conns: HashMap<UeImsi, Vec<ConnId>> = HashMap::new();
        let station = |rng: &mut StdRng| BaseStationId(STATIONS[rng.gen_range(0..STATIONS.len())]);
        for step in 0..120 {
            let imsi = UeImsi(rng.gen_range(0..UES));
            let at = w.controller.state().ue(imsi).map(|r| r.bs).ok();
            let what = match (at, rng.gen_range(0..20)) {
                (None, _) => {
                    w.attach(imsi, station(&mut rng)).unwrap();
                    "attach"
                }
                (Some(_), 0..=5) => {
                    if conns.get(&imsi).map_or(0, Vec::len) < 6 {
                        let port = PORTS[rng.gen_range(0..PORTS.len())];
                        let c = open(&mut w, &mut policy, imsi, port);
                        conns.entry(imsi).or_default().push(c);
                    }
                    "flow"
                }
                (Some(from), 6..=15) => {
                    let to = station(&mut rng);
                    if to != from {
                        w.handoff(imsi, to).unwrap();
                        moves += 1;
                    }
                    "handoff"
                }
                (Some(_), 16) => {
                    // a splice may find no flow to cut: it then changes nothing
                    if let Some(&c) = conns.get(&imsi).and_then(|l| l.last()) {
                        let _ = w.install_shortcut(c);
                    }
                    "shortcut"
                }
                (Some(_), 17 | 18) => {
                    w.detach(imsi).unwrap();
                    conns.remove(&imsi);
                    "detach"
                }
                (Some(_), _) => {
                    // a quiet minute: idle flows and old transitions end
                    w.advance(SimDuration::from_secs(61));
                    let now = w.now();
                    for sw in w.net.switches_mut() {
                        sw.microflow.expire_idle(now);
                    }
                    w.retire_expired_flows();
                    w.expire_transitions().unwrap();
                    "quiet minute"
                }
            };
            w.advance(SimDuration::from_secs(1));
            let legs = check(
                &mut w,
                &mut blocks,
                policy,
                &format!("seed {seed} step {step} ({what})"),
            );
            peak = peak.max(legs.core);
            let mobility = w.controller.mobility();
            if mobility.tunnel_count() < mobility.transitions_active() {
                shared += 1;
            }
        }
    }
    assert!(moves > 100, "the UEs moved ({moves} handoffs)");
    assert!(peak > 0, "some tunnel crossed the core");
    assert!(shared > 0, "some tunnel carried several UEs");
}

/// The one behaviour the shared uplink legs change, on purpose: an
/// anchored uplink packet whose transition has ended while its tunnel
/// lives on for another UE rides the anchor's tree to the anchor's
/// access switch, where no launch rule matches it and the table miss
/// hands it to that station's agent. With per-UE reverse rules it
/// stopped at the tunnel's first hop past the new access switch, whose
/// rule was gone.
#[test]
fn a_stale_anchored_uplink_packet_stops_at_the_anchor() {
    let topo = CellularParams::paper(4).build().unwrap();
    let mut w = world(&topo, 2);
    let mut policy = 0;
    let [a, b] = [3, 125].map(BaseStationId);
    let (ue0, ue1) = (UeImsi(0), UeImsi(1));
    w.attach(ue0, a).unwrap();
    w.attach(ue1, a).unwrap();
    let c0 = open(&mut w, &mut policy, ue0, 443);
    open(&mut w, &mut policy, ue1, 443);

    // ue0's transition ends while ue1's keeps the A→B tunnel alive:
    // with the 120 s soft timeout, ue0's ends at 120 s and ue1's at 220 s
    assert_eq!(
        w.controller.mobility().transition_ttl,
        SimDuration::from_secs(120)
    );
    w.handoff(ue0, b).unwrap();
    w.advance(SimDuration::from_secs(100));
    w.handoff(ue1, b).unwrap();
    w.advance(SimDuration::from_secs(30));
    w.expire_transitions().unwrap();
    assert_eq!(w.controller.mobility().transitions_active(), 1);
    assert_eq!(w.controller.mobility().tunnel_count(), 1);

    // ue0's carried uplink entry at B still sends into the tunnel
    let (access_a, station_b) = (topo.base_station(a).access_switch, topo.base_station(b));
    let tuple: FiveTuple = w.connection(c0).ue_tuple;
    let entry = w.net.switch(station_b.access_switch).microflow.peek(&tuple);
    assert!(matches!(
        entry.map(|e| e.action),
        Some(MicroflowAction::RewriteSrc { .. })
    ));
    let mut packet = build_flow_packet(tuple, 64, 0, b"stale");
    let version = w.net.switch(station_b.access_switch).ingress_version;
    let now = w.now();
    let outcome = w
        .net
        .walk(
            &topo,
            &mut packet,
            station_b.access_switch,
            station_b.radio_port,
            version,
            now,
        )
        .unwrap();
    assert!(
        matches!(outcome, WalkOutcome::PuntedToAgent { switch, .. } if switch == access_a),
        "the stale packet stops at the anchor's access switch: {outcome:?}"
    );
}

/// Figure 7's largest network, `paper(8)` (1 280 stations), with 1 100
/// UEs in transition at once: UE i attaches at station i, opens one
/// connection, moves to station i + 1 and round-trips there, so 1 100
/// tunnels live together. A tag per station ending a tunnel would need
/// 1 101 tags of the 1 024 the port embedding holds, and refuse moves
/// from UE 1 022 on; the one mobility tag refuses none.
#[test]
fn figure7_scale_moves_fit_one_mobility_tag() {
    const UES: u32 = 1_100;
    let topo = CellularParams::paper(8).build().unwrap();
    let mut blocks = Blocks::new(&topo);
    assert!(topo.base_stations().len() > UES as usize);
    let mut w = world(&topo, u64::from(UES));
    let mut policy = 0;
    for i in 0..UES {
        let imsi = UeImsi(i.into());
        w.attach(imsi, BaseStationId(i)).unwrap();
        let c = open(&mut w, &mut policy, imsi, PORTS[0]);
        w.handoff(imsi, BaseStationId(i + 1))
            .unwrap_or_else(|e| panic!("UE {i}'s handoff refused: {e}"));
        w.round_trip(c)
            .unwrap_or_else(|e| panic!("UE {i} after its move: {e}"));
    }
    assert_eq!(w.controller.mobility().tunnel_count(), UES as usize);
    assert_eq!(
        w.controller.installer().tags_in_use(),
        policy + 1,
        "the policy paths' tags and the one mobility tag"
    );
    check(&mut w, &mut blocks, policy, "paper(8), 1 100 UEs moved");
}
