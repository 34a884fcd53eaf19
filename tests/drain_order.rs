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
//! superseded transition's teardown first and a collected tunnel's legs
//! last.

mod common;

use common::{fabric_dump, policy, subscribers, SERVER};
use softcell::controller::agent::microflow_pair;
use softcell::controller::mobility::FlowRecord;
use softcell::controller::ops::batch_by_switch;
use softcell::controller::{CentralController, ControllerConfig, RuleOp};
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
/// tunnel; the second supersedes the live transition (its teardown
/// comes first), builds the (0 → 2) tunnel, and drops the last
/// reference on (0 → 3), whose legs come down last.
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
/// gave them: its `plan.ops` followed by `drain_ops()`.
const FIRST_MOVE: [&str; 9] = [
    "install sw3 30008 dst=10.0.0.0/8,dst_port=0x0040/0xffc0 -> forward(p1)",
    "install sw1 30008 dst=10.0.0.0/8,dst_port=0x0040/0xffc0 -> forward(p3)",
    "install sw4 30008 dst=10.0.0.0/8,dst_port=0x0040/0xffc0 -> forward(p4)",
    "install sw5 60000 dst=10.0.0.0/32 -> swap_tag(Dst,0x0040/0xffc0)->forward(p1)",
    "install sw4 60000 in_port=p4,src=10.0.0.0/32,src_port=0x0040/0xffc0 -> forward(p1)",
    "install sw1 60000 in_port=p3,src=10.0.0.0/32,src_port=0x0040/0xffc0 -> forward(p2)",
    "install sw3 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0040/0xffc0 -> forward(p3)",
    "install sw5 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0040/0xffff -> swap_tag(Src,0x0000/0xffc0)->forward(p1)",
    "install sw5 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0041/0xffff -> swap_tag(Src,0x0000/0xffc0)->forward(p1)",
];

/// The second move's, the same way: the superseded transition's
/// teardown, the (0 → 2) tunnel and rules, then the collected (0 → 3)
/// tunnel's legs.
const SECOND_MOVE: [&str; 18] = [
    "remove sw5 dst=10.0.0.0/32",
    "remove sw4 in_port=p4,src=10.0.0.0/32,src_port=0x0040/0xffc0",
    "remove sw1 in_port=p3,src=10.0.0.0/32,src_port=0x0040/0xffc0",
    "remove sw3 in_port=p1,src=10.0.0.0/32,src_port=0x0040/0xffc0",
    "remove sw5 in_port=p1,src=10.0.0.0/32,src_port=0x0040/0xffff",
    "remove sw5 in_port=p1,src=10.0.0.0/32,src_port=0x0041/0xffff",
    "install sw3 30008 dst=10.0.0.0/8,dst_port=0x0080/0xffc0 -> forward(p1)",
    "install sw1 30008 dst=10.0.0.0/8,dst_port=0x0080/0xffc0 -> forward(p3)",
    "install sw4 30008 dst=10.0.0.0/8,dst_port=0x0080/0xffc0 -> forward(p3)",
    "install sw5 60000 dst=10.0.0.0/32 -> swap_tag(Dst,0x0080/0xffc0)->forward(p1)",
    "install sw4 60000 in_port=p3,src=10.0.0.0/32,src_port=0x0080/0xffc0 -> forward(p1)",
    "install sw1 60000 in_port=p3,src=10.0.0.0/32,src_port=0x0080/0xffc0 -> forward(p2)",
    "install sw3 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0080/0xffc0 -> forward(p3)",
    "install sw5 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0080/0xffff -> swap_tag(Src,0x0000/0xffc0)->forward(p1)",
    "install sw5 60000 in_port=p1,src=10.0.0.0/32,src_port=0x0081/0xffff -> swap_tag(Src,0x0000/0xffc0)->forward(p1)",
    "remove sw3 dst=10.0.0.0/8,dst_port=0x0040/0xffc0",
    "remove sw1 dst=10.0.0.0/8,dst_port=0x0040/0xffc0",
    "remove sw4 dst=10.0.0.0/8,dst_port=0x0040/0xffc0",
];

#[test]
fn a_handoff_drains_the_ops_its_plan_used_to_carry() {
    let [first, second] = two_moves();
    assert_eq!(first, FIRST_MOVE);
    assert_eq!(second, SECOND_MOVE);
}
