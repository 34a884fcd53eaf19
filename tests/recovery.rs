//! `kill -9` recovery drill for the replicated control plane.
//!
//! Runs [`softcell_replica::controller_kill_drill`] — a region leader
//! killed mid-handoff-storm, fail-over, agent re-homing, the storm
//! resumed, and survivors checked byte-for-byte against the pre-kill
//! oracle — then checks what only this process's global registry shows:
//! the recovery duration lands in the exported telemetry report, and the
//! lifecycle instants are in order.

use softcell_replica::controller_kill_drill;
use softcell_telemetry::Registry;

#[test]
fn leader_kill_mid_handoff_storm_leaves_zero_residue() {
    controller_kill_drill().expect("kill -9 drill converges");

    // The recovery-time histogram is populated and lands in the
    // exported telemetry report.
    let snap = Registry::global().snapshot();
    let hist = snap
        .histogram("softcell_replica_recovery_time_us")
        .expect("recovery histogram registered");
    assert!(hist.count >= 1, "fail-over duration recorded");
    assert!(
        snap.report().contains("softcell_replica_recovery_time_us"),
        "recovery histogram missing from the telemetry report"
    );

    // The drill's lifecycle instants sit in the one span ring, on the
    // one trace clock, so their order is readable from one snapshot:
    // the kill precedes the fail-over, which precedes the first re-home.
    let first = |kind: &str| {
        snap.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.start_us)
            .min()
            .unwrap_or_else(|| panic!("no {kind:?} instant in the snapshot"))
    };
    let (killed, failed_over, rehomed) = (
        first("controller_killed"),
        first("fail_over"),
        first("rehome"),
    );
    assert!(
        killed <= failed_over && failed_over <= rehomed,
        "lifecycle out of order: killed@{killed} fail_over@{failed_over} rehome@{rehomed}"
    );
}
