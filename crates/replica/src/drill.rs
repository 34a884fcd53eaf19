//! The `kill -9` recovery drill for the replicated control plane.
//!
//! The scenario the replication design exists for: a three-controller
//! cluster runs a cross-region handoff storm, the region leader is
//! killed mid-storm with no teardown, survivors fail over, agents
//! re-home to the deterministic successor, and the storm resumes. The
//! drill demands *zero residue*: the survivors' state must match the
//! dead leader's frozen pre-kill snapshot byte-for-byte, detached UEs
//! must stay detached through the re-home replay, every surviving UE
//! must keep its original permanent IP, and a re-asked path must keep
//! the tag the dead seat committed. `tests/recovery.rs` and the
//! campaign's `controller-kill` overlay both run it.

use std::collections::HashMap;
use std::time::Duration;

use softcell_controller::agent::LocalAgent;
use softcell_controller::wire::ChannelController;
use softcell_ctlchan::{Message, PacketIn};
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_types::{
    AddressingScheme, BaseStationId, ControllerId, Error, PolicyTag, PortEmbedding, PortNo, Result,
    SimTime, UeImsi,
};

use crate::cluster::{rehome_agent, Cluster, Link};
use crate::store::ReplicaStore;

const UES: u64 = 12;
const DETACHED: [u64; 3] = [9, 10, 11];

/// A failed drill check.
fn diverged(what: String) -> Error {
    Error::InvalidState(format!("kill -9 drill: {what}"))
}

/// `Ok` when `holds`, else the divergence `what` describes.
fn check(holds: bool, what: impl FnOnce() -> String) -> Result<()> {
    holds.then_some(()).ok_or_else(|| diverged(what()))
}

/// One agent and its channel to the seat leading its station.
struct Cell {
    agent: LocalAgent,
    ctl: ChannelController<Link>,
}

/// Moves `imsi` from cell `from` to cell `to`: the source agent forgets
/// it locally (radio-level departure), the target attaches it — the
/// controller upsert keeps the permanent IP, and the replicated
/// last-writer-wins register makes the newer location stick on every
/// replica regardless of arrival order.
fn handoff(cells: &mut [Cell], from: usize, to: usize, imsi: UeImsi, now: SimTime) -> Result<()> {
    cells[from].agent.evict(imsi)?;
    let c = &mut cells[to];
    c.agent.handle_attach(imsi, &mut c.ctl, now)?;
    Ok(())
}

/// Asks `seat` for the clause-0 path of `bs` and checks the reply is the
/// one flow-mod frame — a batch stamped with the answering seat, one
/// barrier-fenced group for the station. Returns `(seq, tag)`.
fn ask_path(cluster: &Cluster, seat: usize, bs: BaseStationId) -> Result<(u32, PolicyTag)> {
    let reply = cluster
        .node(seat)
        .handle_agent(&Message::PacketIn(PacketIn::PathRequest {
            bs,
            clause: ClauseId(0),
        }))
        .ok_or_else(|| diverged("a path request went unanswered".into()))?;
    match &reply {
        Message::FlowModBatch { shard, seq, groups }
            if usize::from(*shard) == seat
                && groups.len() == 1
                && groups[0].barrier
                && groups[0].bs == bs
                && groups[0].mods.len() == 1 =>
        {
            Ok((*seq, groups[0].mods[0].tags.uplink_entry))
        }
        other => Err(diverged(format!(
            "seat {seat} answered a path request for {bs} with {other:?}"
        ))),
    }
}

/// Runs the drill; the first divergence is the error.
pub fn controller_kill_drill() -> Result<()> {
    let subscribers: Vec<SubscriberAttributes> = (0..UES)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let cluster = Cluster::start(
        3,
        2,
        &ServicePolicy::example_carrier_a(1),
        &subscribers,
        Duration::from_millis(400),
    )?;
    let view = cluster.membership()?;
    // one base station per seat, each led by that seat
    let bss = (0..3u32)
        .map(|seat| {
            (0..1024u32)
                .map(BaseStationId)
                .find(|bs| view.leader_of_station(*bs) == Some(ControllerId(seat)))
                .ok_or_else(|| diverged(format!("seat {seat} leads no station")))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut cells = bss
        .iter()
        .map(|&bs| {
            Ok(Cell {
                agent: LocalAgent::new(
                    bs,
                    PortNo(2),
                    AddressingScheme::default_scheme(),
                    PortEmbedding::default_embedding(),
                ),
                ctl: cluster.connect_agent(bs)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;

    // Storm, act one: every UE attaches, spread across the regions, and
    // each region leader installs a core path for its station.
    let mut clock = 0u64;
    let mut ip_of = HashMap::new();
    for i in 0..UES {
        clock += 1;
        let c = &mut cells[(i % 3) as usize];
        let rec = c
            .agent
            .handle_attach(UeImsi(i), &mut c.ctl, SimTime(clock))?;
        ip_of.insert(UeImsi(i), rec.permanent_ip);
    }
    let installed = (0..3)
        .map(|seat| Ok(ask_path(&cluster, seat, bss[seat])?.1))
        .collect::<Result<Vec<_>>>()?;

    // Act two: a cross-region handoff ring (every UE moves one region
    // over) plus a few permanent detaches, leaving tombstones that the
    // later re-home replay must NOT resurrect.
    for i in 0..UES {
        clock += 1;
        let from = (i % 3) as usize;
        handoff(&mut cells, from, (from + 1) % 3, UeImsi(i), SimTime(clock))?;
    }
    for imsi in DETACHED {
        let c = &mut cells[((imsi % 3) as usize + 1) % 3];
        c.agent.handle_detach(UeImsi(imsi), &mut c.ctl)?;
    }

    // Quiesce point: every op above is quorum-committed (replies are
    // commit-gated), so the leader's state right now is the recovery
    // oracle. Freeze it, then kill -9.
    let oracle = cluster.node(0).snapshot_bytes();
    cluster.kill(0);
    let probe = cells[0].ctl.channel().probe(Duration::from_millis(100));
    check(probe.is_err(), || {
        "the killed leader answered a probe".into()
    })?;
    let after = cluster.fail_over(&[ControllerId(0)])?;
    check(after.epoch() == 2, || {
        format!("fail-over reached epoch {}", after.epoch())
    })?;
    // The survivors' state matches the pre-kill oracle byte-for-byte —
    // nothing lost, nothing extra.
    for seat in [1, 2] {
        check(cluster.node(seat).snapshot_bytes() == oracle, || {
            format!("seat {seat} differs from the pre-kill oracle")
        })?;
    }

    // The orphaned region's agent re-homes to the deterministic
    // successor and replays its UEs through resync.
    clock += 1;
    let successor = after
        .leader_of_station(bss[0])
        .ok_or_else(|| diverged("no successor leads the orphaned region".into()))?;
    let cell0 = &mut cells[0];
    let new_home = rehome_agent(&cluster, &mut cell0.ctl, &mut cell0.agent, SimTime(clock))?;
    check(new_home == successor, || {
        format!("agent re-homed to {new_home}, the deterministic successor is {successor}")
    })?;

    // Act three: the storm resumes across the shrunken cluster,
    // including handoffs back onto the re-homed region.
    for i in (0..UES).filter(|i| !DETACHED.contains(i)) {
        clock += 1;
        let from = ((i % 3) as usize + 1) % 3;
        handoff(&mut cells, from, (from + 1) % 3, UeImsi(i), SimTime(clock))?;
    }
    // The successor reuses the committed path tag — from the dead
    // seat's slab — rather than minting a fresh one: installed paths are
    // part of the replicated slow state.
    let (seq, tag) = ask_path(&cluster, successor.seat(), bss[0])?;
    check(tag == installed[0] && tag.0 / 256 == 0, || {
        format!(
            "re-asked path got {tag:?}, the dead seat committed {:?}",
            installed[0]
        )
    })?;
    let (seq_again, tag_again) = ask_path(&cluster, successor.seat(), bss[0])?;
    check(tag_again == tag && seq_again >= seq, || {
        format!("second ask: {tag_again:?} at seq {seq_again} after {tag:?} at seq {seq}")
    })?;

    // Zero residue, checked on the parsed stores of both survivors:
    // exactly the live UEs, original permanent IPs, tombstones intact.
    let s1 = cluster.node(1).snapshot_bytes();
    check(cluster.node(2).snapshot_bytes() == s1, || {
        "survivors differ after the resumed storm".into()
    })?;
    let store = ReplicaStore::restore(&s1)?;
    let (ues, paths) = (store.ue_count(), store.path_count());
    check(ues == UES as usize - DETACHED.len() && paths == 3, || {
        format!("survivors hold {ues} UEs and {paths} paths")
    })?;
    for i in 0..UES {
        let imsi = UeImsi(i);
        let ip = store.ue(imsi).map(|e| e.permanent_ip);
        let want = (!DETACHED.contains(&i)).then(|| ip_of[&imsi]);
        check(ip == want, || {
            format!("{imsi} holds {ip:?}, expected {want:?}")
        })?;
    }
    Ok(())
}
