//! `kill -9` recovery drill for the replicated control plane.
//!
//! The scenario the replication design exists for: a three-controller
//! cluster runs a cross-region handoff storm, the region leader is
//! killed mid-storm with no teardown, survivors fail over, agents
//! re-home to the deterministic successor, and the storm resumes. The
//! gate demands *zero residue*: the survivors' log-replayed state must
//! match the dead leader's frozen pre-kill snapshot byte-for-byte,
//! detached UEs must stay detached through the re-home replay, every
//! surviving UE must keep its original permanent IP, and the recovery
//! duration must land in the exported telemetry report.

use std::collections::HashMap;
use std::time::Duration;

use softcell_ctlchan::{Message, PacketIn};
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_replica::{rehome_agent, Cluster, Link, ReplicaStore};
use softcell_telemetry::Registry;
use softcell_types::{
    AddressingScheme, BaseStationId, ControllerId, Membership, PolicyTag, PortEmbedding, PortNo,
    SimTime, UeImsi,
};

use softcell_controller::agent::LocalAgent;
use softcell_controller::wire::ChannelController;

const UES: u64 = 12;
const DETACHED: [u64; 3] = [9, 10, 11];

/// One base station per seat, each led by that seat under `view`.
fn stations(view: &Membership, seats: usize) -> Vec<BaseStationId> {
    (0..seats as u32)
        .map(|seat| {
            (0..1024u32)
                .map(BaseStationId)
                .find(|bs| view.leader_of_station(*bs) == Some(ControllerId(seat)))
                .expect("every seat leads some station")
        })
        .collect()
}

struct Cell {
    agent: LocalAgent,
    ctl: ChannelController<Link>,
}

impl Cell {
    fn open(cluster: &Cluster, bs: BaseStationId) -> Cell {
        Cell {
            agent: LocalAgent::new(
                bs,
                PortNo(2),
                AddressingScheme::default_scheme(),
                PortEmbedding::default_embedding(),
            ),
            ctl: cluster.connect_agent(bs).expect("connect agent"),
        }
    }
}

/// Moves `imsi` from cell `from` to cell `to`: the source agent forgets
/// it locally (radio-level departure), the target attaches it — the
/// controller upsert keeps the permanent IP, and the replicated
/// last-writer-wins register makes the newer location stick on every
/// replica regardless of arrival order.
fn handoff(cells: &mut [Cell], from: usize, to: usize, imsi: UeImsi, now: SimTime) {
    cells[from].agent.evict(imsi).expect("evict at source");
    let c = &mut cells[to];
    c.agent
        .handle_attach(imsi, &mut c.ctl, now)
        .expect("re-attach at target");
}

/// Asks `seat` for the clause-0 path of `bs` and checks the reply is the
/// one flow-mod frame — a batch stamped with the answering seat, one
/// barrier-fenced group for the station. Returns `(seq, tag)`.
fn ask_path(cluster: &Cluster, seat: usize, bs: BaseStationId) -> (u32, PolicyTag) {
    let reply = cluster
        .node(seat)
        .handle_agent(&Message::PacketIn(PacketIn::PathRequest {
            bs,
            clause: ClauseId(0),
        }))
        .expect("path request");
    let Message::FlowModBatch { shard, seq, groups } = &reply else {
        panic!("expected FlowModBatch, got {reply:?}");
    };
    assert_eq!(usize::from(*shard), seat, "stamped with the answering seat");
    assert_eq!(groups.len(), 1);
    assert!(groups[0].barrier);
    assert_eq!(groups[0].bs, bs);
    assert_eq!(groups[0].mods.len(), 1);
    (*seq, groups[0].mods[0].tags.uplink_entry)
}

#[test]
fn leader_kill_mid_handoff_storm_leaves_zero_residue() {
    let cluster = Cluster::start(
        3,
        2,
        &ServicePolicy::example_carrier_a(1),
        &(0..UES)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect::<Vec<_>>(),
        Duration::from_millis(400),
    )
    .expect("cluster start");
    let view = cluster.membership().expect("bootstrap view");
    let bss = stations(&view, 3);
    let mut cells: Vec<Cell> = bss.iter().map(|&bs| Cell::open(&cluster, bs)).collect();

    // Storm, act one: every UE attaches, spread across the regions, and
    // each region leader installs a core path for its station.
    let mut clock = 0u64;
    let mut ip_of = HashMap::new();
    for i in 0..UES {
        clock += 1;
        let c = &mut cells[(i % 3) as usize];
        let rec = c
            .agent
            .handle_attach(UeImsi(i), &mut c.ctl, SimTime(clock))
            .expect("attach");
        ip_of.insert(UeImsi(i), rec.permanent_ip);
    }
    let installed: Vec<PolicyTag> = bss
        .iter()
        .enumerate()
        .map(|(seat, &bs)| ask_path(&cluster, seat, bs).1)
        .collect();

    // Act two: a cross-region handoff ring (every UE moves one region
    // over) plus a few permanent detaches, leaving tombstones that the
    // later re-home replay must NOT resurrect.
    for i in 0..UES {
        clock += 1;
        let from = (i % 3) as usize;
        handoff(&mut cells, from, (from + 1) % 3, UeImsi(i), SimTime(clock));
    }
    for imsi in DETACHED {
        let cell = ((imsi % 3) as usize + 1) % 3;
        let c = &mut cells[cell];
        c.agent
            .handle_detach(UeImsi(imsi), &mut c.ctl)
            .expect("detach");
    }

    // Quiesce point: every op above is quorum-committed (replies are
    // commit-gated), so the leader's state right now is the recovery
    // oracle. Freeze it, then kill -9.
    let oracle = cluster.node(0).snapshot_bytes();
    cluster.kill(0);
    assert!(
        cells[0]
            .ctl
            .channel()
            .probe(Duration::from_millis(100))
            .is_err(),
        "agent must observe leader death via probe"
    );

    let after = cluster.fail_over(&[ControllerId(0)]).expect("fail-over");
    assert_eq!(after.epoch(), 2);

    // Acceptance criterion: the survivors' log-replayed state matches
    // the pre-kill oracle byte-for-byte — nothing lost, nothing extra.
    assert_eq!(cluster.node(1).snapshot_bytes(), oracle, "seat 1 vs oracle");
    assert_eq!(cluster.node(2).snapshot_bytes(), oracle, "seat 2 vs oracle");

    // The orphaned region's agent re-homes to the deterministic
    // successor and replays its UEs through resync.
    clock += 1;
    let successor = after
        .leader_of_station(bss[0])
        .expect("successor leads the orphaned region");
    let cell0 = &mut cells[0];
    let new_home =
        rehome_agent(&cluster, &mut cell0.ctl, &mut cell0.agent, SimTime(clock)).expect("re-home");
    assert_eq!(new_home, successor);

    // Act three: the storm resumes across the shrunken cluster,
    // including handoffs back onto the re-homed region.
    for i in 0..UES {
        if DETACHED.contains(&i) {
            continue;
        }
        clock += 1;
        let from = ((i % 3) as usize + 1) % 3;
        handoff(&mut cells, from, (from + 1) % 3, UeImsi(i), SimTime(clock));
    }
    // The successor reuses the committed path tag rather than minting a
    // fresh one — installed paths are part of the replicated slow state.
    let (seq, tag) = ask_path(&cluster, successor.seat(), bss[0]);
    assert_eq!(tag, installed[0], "re-asked path keeps its tag");
    assert_eq!(
        u32::from(tag.0) / 256,
        0,
        "tag still from the dead seat's slab: committed installs survive"
    );
    let (seq_again, tag_again) = ask_path(&cluster, successor.seat(), bss[0]);
    assert_eq!(tag_again, tag);
    assert!(seq_again >= seq, "a seat's seq never runs backwards");

    // Zero residue, checked on the parsed stores of both survivors:
    // exactly the live UEs, original permanent IPs, tombstones intact.
    let s1 = cluster.node(1).snapshot_bytes();
    let s2 = cluster.node(2).snapshot_bytes();
    assert_eq!(s1, s2, "survivors converge byte-for-byte after the storm");
    let store = ReplicaStore::restore(&s1).expect("snapshot parses");
    assert_eq!(store.ue_count(), UES as usize - DETACHED.len());
    assert_eq!(store.path_count(), 3);
    for i in 0..UES {
        let entry = store.ue(UeImsi(i));
        if DETACHED.contains(&i) {
            assert!(entry.is_none(), "detached UE {i} resurrected: residue");
        } else {
            let entry = entry.unwrap_or_else(|| panic!("UE {i} lost in recovery"));
            assert_eq!(entry.permanent_ip, ip_of[&UeImsi(i)], "UE {i} IP drifted");
        }
    }

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
