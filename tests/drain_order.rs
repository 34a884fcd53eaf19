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

mod common;

use common::{fabric_dump, policy, subscribers};
use softcell::controller::ops::batch_by_switch;
use softcell::controller::{CentralController, ControllerConfig};
use softcell::policy::clause::ClauseId;
use softcell::sim::PhysicalNetwork;
use softcell::topology::small_topology;
use softcell::types::{BaseStationId, SimTime, SwitchId, UeId, UeImsi};

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
