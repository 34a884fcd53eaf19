//! Regression lock on the `drain_ops` ordering invariant.
//!
//! `CentralController::drain_ops` returns rule operations in exact
//! emission order, and operations touching the *same switch* are never
//! reordered relative to each other. That per-switch FIFO property is
//! what makes the barrier at the end of each `flow_mod_batch` group
//! sufficient for consistency: a switch that applies each batch's ops
//! in order and fences at the barrier reconstructs the controller's
//! intended rule sequence, no matter how batches for *different*
//! switches interleave in flight.
//!
//! This test drives real policy-path installations (multi-switch op
//! streams with rule adds and priority interactions), then checks that
//! `batch_by_switch`:
//!  * preserves the per-switch subsequence exactly,
//!  * orders groups by first appearance,
//!
//! and that replaying the batches yields a byte-identical fabric to
//! applying the raw stream directly.
//!
//! A second test pins a handoff's place in that stream: its ops join
//! the pending stream in the order its plan used to return them, the
//! superseded transition's teardown first (less the rules the move
//! installs again unchanged, which stay up) and a collected tunnel's
//! legs last. A third pins a shortcut's and an expiry's: each input's ops
//! are what the engine's methods used to return instead of queueing.

mod common;

use common::{fabric_dump, policy, subscribers, SERVER};
use softcell::controller::agent::microflow_pair;
use softcell::controller::mobility::FlowRecord;
use softcell::controller::ops::batch_by_switch;
use softcell::controller::{CentralController, ControllerConfig, Input, RuleOp};
use softcell::packet::{FiveTuple, Protocol};
use softcell::policy::clause::ClauseId;
use softcell::sim::PhysicalNetwork;
use softcell::topology::small_topology;
use softcell::types::{BaseStationId, LocIp, SimTime, SwitchId, UeId, UeImsi};

#[test]
fn drained_ops_preserve_per_switch_order_and_batch_replay_is_identical() {
    let topo = small_topology();
    let cfg = ControllerConfig::simulation();
    let mut ctl = CentralController::new(&topo, cfg, policy());
    for attrs in subscribers(4) {
        ctl.put_subscriber(attrs);
    }

    // several path installations across stations and clauses WITHOUT
    // draining in between: the pending stream spans many switches
    for (i, bs) in (0..4u32).enumerate() {
        ctl.attach_ue(
            UeImsi(i as u64),
            BaseStationId(bs),
            UeId(0),
            SimTime::default(),
        )
        .expect("attach");
    }
    let mut demanded = Vec::new();
    for bs in 0..4u32 {
        for clause in 0..4u16 {
            if ctl
                .request_policy_path(BaseStationId(bs), ClauseId(clause))
                .is_ok()
            {
                demanded.push((bs, clause));
            }
        }
    }
    assert!(demanded.len() >= 4, "policy installed several paths");

    let ops = ctl.drain_ops();
    assert!(!ops.is_empty());
    let switches: std::collections::BTreeSet<SwitchId> = ops.iter().map(|o| o.switch()).collect();
    assert!(switches.len() >= 3, "ops span several switches");

    let batches = batch_by_switch(ops.clone());

    // 1. every batch is single-switch
    for b in &batches {
        assert!(!b.ops.is_empty());
        for op in &b.ops {
            assert_eq!(op.switch(), b.switch, "batch mixes switches");
        }
    }

    // 2. batches appear in first-appearance order of their switch
    let mut seen = Vec::new();
    for op in &ops {
        if !seen.contains(&op.switch()) {
            seen.push(op.switch());
        }
    }
    assert_eq!(
        batches.iter().map(|b| b.switch).collect::<Vec<_>>(),
        seen,
        "batch order is the switches' first-appearance order"
    );

    // 3. the per-switch subsequence is preserved exactly
    for b in &batches {
        let direct: Vec<_> = ops.iter().filter(|o| o.switch() == b.switch).collect();
        let batched: Vec<_> = b.ops.iter().collect();
        assert_eq!(
            format!("{direct:?}"),
            format!("{batched:?}"),
            "per-switch op order changed for {:?}",
            b.switch
        );
    }

    // 4. replaying the batches produces a byte-identical fabric
    let mut direct_net = PhysicalNetwork::new(&topo);
    direct_net.apply_all(&ops).expect("direct apply");
    let mut batched_net = PhysicalNetwork::new(&topo);
    for b in &batches {
        batched_net.apply_all(&b.ops).expect("batched apply");
    }
    assert_eq!(
        fabric_dump(&topo, &direct_net),
        fabric_dump(&topo, &batched_net),
        "batch replay must equal the raw op stream"
    );
}

/// One op as the pinned lists below spell it.
fn line(op: &RuleOp) -> String {
    match op {
        RuleOp::Install {
            switch,
            priority,
            matcher,
            action,
        } => format!("install {switch:?} {priority} {matcher} -> {action}"),
        RuleOp::Remove { switch, matcher } => format!("remove {switch:?} {matcher}"),
    }
}

/// A UE with two live flows moves twice, station 0 → 3 → 2, and each
/// move's ops are read off `drain_ops`: the first builds the (0 → 3)
/// tunnel; the second supersedes the live transition (the removal of
/// its rules that change comes first), builds the (0 → 2) tunnel, and
/// drops the last reference on (0 → 3), whose legs the (0 → 2) tunnel
/// does not share come down last.
fn two_moves() -> [Vec<String>; 2] {
    let topo = small_topology();
    let cfg = ControllerConfig::simulation();
    let mut ctl = CentralController::new(&topo, cfg, policy());
    for attrs in subscribers(4) {
        ctl.put_subscriber(attrs);
    }
    let home = BaseStationId(0);
    let grant = ctl
        .attach_ue(UeImsi(0), home, UeId(0), SimTime::ZERO)
        .expect("attach");
    let tags = ctl
        .request_policy_path(home, ClauseId(5))
        .expect("catch-all path");
    ctl.drain_ops();
    let loc = cfg.scheme.encode(LocIp::new(home, UeId(0))).expect("loc");
    let ip = grant.record.permanent_ip;
    let radio = topo.base_station(home).radio_port;
    let mut flows: Vec<FlowRecord> = (0..2u16)
        .map(|slot| {
            let tuple = FiveTuple {
                src: ip,
                dst: SERVER,
                src_port: 40_000 + slot,
                dst_port: 443,
                proto: Protocol::Tcp,
            };
            microflow_pair(&cfg.ports, &tags, loc, ip, radio, tuple, slot).expect("flow")
        })
        .collect();
    let mut moves = [Vec::new(), Vec::new()];
    for (i, to) in [BaseStationId(3), BaseStationId(2)].into_iter().enumerate() {
        let plan = ctl
            .handoff(UeImsi(0), to, UeId(0), &flows, SimTime::from_secs(i as u64))
            .expect("handoff");
        assert!(plan.ops.is_empty(), "the plan carries no ops");
        let ops = ctl.drain_ops();
        moves[i] = ops.iter().map(line).collect();
        flows = plan.carried_records().collect();
    }
    assert_eq!(ctl.mobility().tunnel_count(), 1, "(0 → 3) was collected");
    assert_eq!(ctl.mobility().transitions_active(), 1);
    moves
}

/// The first move's ops as a handoff that returned them in its plan
/// gave them (its `plan.ops` followed by `drain_ops()`), the tunnel's
/// legs keyed by station block: the (0 → 3) tunnel takes the mobility
/// tag (0x0040), installs a downlink leg matching it at each middle
/// switch of the path from station 0, then an uplink leg at each middle
/// switch of the path back (no in-port: every station of a block leaves
/// the switch through one next hop), then at station 0's access switch
/// the UE's redirect, readdressing its downlink to its LocIP at station
/// 3 (10.0.6.0), and one launch rule per flow, whose in-port is the
/// uplink path's last hop. A leg's prefix is its block's: sw3 and sw1
/// reach stations 2 and 3 through one next hop, so their downlink legs
/// match both (10.0.4.0/22), and sw4 and sw1 reach stations 0 and 1
/// through one, so their uplink legs match 10.0.0.0/22; sw4 splits
/// stations 2 and 3, and sw3 stations 0 and 1, so theirs match one
/// station's /23.
const FIRST_MOVE: [&str; 9] = [
    "install sw3 30022 dst=10.0.4.0/22,dst_port=0x0040/0xffc0 -> forward(p1)",
    "install sw1 30022 dst=10.0.4.0/22,dst_port=0x0040/0xffc0 -> forward(p3)",
    "install sw4 30023 dst=10.0.6.0/23,dst_port=0x0040/0xffc0 -> forward(p4)",
    "install sw4 60000 src=10.0.0.0/22,src_port=0x0040/0xffc0 -> forward(p1)",
    "install sw1 60000 src=10.0.0.0/22,src_port=0x0040/0xffc0 -> forward(p2)",
    "install sw3 60000 src=10.0.0.0/23,src_port=0x0040/0xffc0 -> forward(p3)",
    "install sw5 60000 dst=10.0.0.0/32 -> redirect_dst(10.0.6.0,0x0040/0xffc0)->forward(p1)",
    "install sw5 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0040/0xffff -> swap_tag(Src,0x0000/0xffc0)->forward(p1)",
    "install sw5 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0041/0xffff -> swap_tag(Src,0x0000/0xffc0)->forward(p1)",
];

/// The second move's, the same way. The superseded transition's rules
/// sit at station 0's access switch alone, and only its redirect
/// changes (it now readdresses to 10.0.4.0): its removal comes first,
/// while the launch rules, which the new transition installs unchanged,
/// stay up and are neither removed nor installed again. The (0 → 2)
/// tunnel shares the /22 legs at sw3 and sw1 and the whole uplink path
/// with (0 → 3), so it installs only sw4's leg towards station 2; then
/// the new redirect, then the collected (0 → 3) tunnel's one leg no
/// other tunnel holds. The mobility tag stays.
const SECOND_MOVE: [&str; 4] = [
    "remove sw5 dst=10.0.0.0/32",
    "install sw4 30023 dst=10.0.4.0/23,dst_port=0x0040/0xffc0 -> forward(p3)",
    "install sw5 60000 dst=10.0.0.0/32 -> redirect_dst(10.0.4.0,0x0040/0xffc0)->forward(p1)",
    "remove sw4 dst=10.0.6.0/23,dst_port=0x0040/0xffc0",
];

#[test]
fn a_handoff_drains_the_ops_its_plan_used_to_carry() {
    let [first, second] = two_moves();
    assert_eq!(first, FIRST_MOVE);
    assert_eq!(second, SECOND_MOVE);
}

/// The rule ops that `install_shortcut` and `expire_transitions`
/// returned before they queued them, with the tunnel's legs keyed by
/// station block: one UE with a live flow moves from station 0 to 3, a
/// shortcut splices its downlink, and then its transition expires — its
/// redirect, launch rule and shortcut first, then the collected
/// tunnel's legs, the downlink ones towards station 3's blocks and then
/// the uplink ones towards station 0's, each in its path's order.
const SHORTCUT: [&str; 2] = [
    "install sw1 60100 dst=10.0.0.0/32,dst_port=0x0000/0xffff,proto=tcp -> forward(p3)",
    "install sw4 60100 dst=10.0.0.0/32,dst_port=0x0000/0xffff,proto=tcp -> forward(p4)",
];
const EXPIRY: [&str; 10] = [
    "remove sw5 dst=10.0.0.0/32",
    "remove sw5 in_port=p1,src=10.0.0.0/32,src_port=0x0040/0xffff",
    "remove sw1 dst=10.0.0.0/32,dst_port=0x0000/0xffff,proto=tcp",
    "remove sw4 dst=10.0.0.0/32,dst_port=0x0000/0xffff,proto=tcp",
    "remove sw3 dst=10.0.4.0/22,dst_port=0x0040/0xffc0",
    "remove sw1 dst=10.0.4.0/22,dst_port=0x0040/0xffc0",
    "remove sw4 dst=10.0.6.0/23,dst_port=0x0040/0xffc0",
    "remove sw4 src=10.0.0.0/22,src_port=0x0040/0xffc0",
    "remove sw1 src=10.0.0.0/22,src_port=0x0040/0xffc0",
    "remove sw3 src=10.0.0.0/23,src_port=0x0040/0xffc0",
];

#[test]
fn a_shortcut_and_an_expiry_drain_the_ops_they_used_to_return() {
    let topo = small_topology();
    let cfg = ControllerConfig::simulation();
    let mut ctl = CentralController::new(&topo, cfg, policy());
    for attrs in subscribers(4) {
        ctl.put_subscriber(attrs);
    }
    let (home, imsi) = (BaseStationId(0), UeImsi(0));
    let grant = ctl
        .attach_ue(imsi, home, UeId(0), SimTime::ZERO)
        .expect("attach");
    let tags = ctl
        .request_policy_path(home, ClauseId(5))
        .expect("catch-all path");
    let route = ctl.routed_path(home, ClauseId(5)).expect("routed");
    let old_path: Vec<SwitchId> = route.hops.iter().map(|h| h.switch).collect();
    let loc = cfg.scheme.encode(LocIp::new(home, UeId(0))).expect("loc");
    let ip = grant.record.permanent_ip;
    let tuple = FiveTuple {
        src: ip,
        dst: SERVER,
        src_port: 40_000,
        dst_port: 443,
        proto: Protocol::Tcp,
    };
    let radio = topo.base_station(home).radio_port;
    let flow = microflow_pair(&cfg.ports, &tags, loc, ip, radio, tuple, 0).expect("flow");
    ctl.handoff(imsi, BaseStationId(3), UeId(0), &[flow], SimTime::ZERO)
        .expect("handoff");
    ctl.drain_ops();

    let shortcut = |old_path: Vec<SwitchId>| Input::Shortcut {
        imsi,
        old_path,
        downlink: flow.downlink_original,
        now: SimTime::from_secs(1),
    };
    // no switch to meet at: refused, and nothing queued
    assert!(ctl.apply(&shortcut(Vec::new())).is_err());
    assert!(ctl.drain_ops().is_empty(), "a failed shortcut queued ops");
    ctl.apply(&shortcut(old_path)).expect("shortcut");
    let spliced: Vec<String> = ctl.drain_ops().iter().map(line).collect();
    assert_eq!(spliced, SHORTCUT);
    ctl.apply(&Input::Expire {
        now: SimTime::from_secs(1_000),
    })
    .expect("expiry");
    let expired: Vec<String> = ctl.drain_ops().iter().map(line).collect();
    assert_eq!(expired, EXPIRY);
}
