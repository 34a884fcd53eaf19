//! The `kill -9` recovery drill for the replicated control plane.
//!
//! The scenario the replication design exists for: a three-controller
//! cluster runs a storm of moves across three stations, the leader is
//! killed mid-storm with no teardown, survivors fail over, every agent
//! re-homes to the new leader, and the storm resumes. Until handoff
//! joins the log, a move is a detach at one station and an attach at
//! the next. The drill demands *zero residue*: the survivors' logs must
//! match the dead leader's frozen pre-kill log byte-for-byte, detached
//! UEs must stay detached through the re-home replay, every live UE
//! must hold the address its last released attach carried, a re-asked
//! path must get the tags committed before the kill, all five fields,
//! and `seq` must never decrease. `tests/recovery.rs` and the campaign's
//! `controller-kill` overlay both run it.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use softcell_controller::agent::LocalAgent;
use softcell_controller::wire::ChannelController;
use softcell_ctlchan::{Frame, Message, PacketIn, WirePathTags};
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_types::{
    AddressingScheme, BaseStationId, ControllerId, Error, PortEmbedding, PortNo, Result, SimTime,
    UeImsi,
};

use crate::cluster::{rehome_agent, Cluster, Link};

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

/// One agent and its channel to the leader.
struct Cell {
    agent: LocalAgent,
    ctl: ChannelController<Link>,
}

/// Moves `imsi` from cell `from` to cell `to`: the source agent
/// detaches it, the target attaches it. Returns the address the attach
/// was granted.
fn move_ue(
    cells: &mut [Cell],
    from: usize,
    to: usize,
    imsi: UeImsi,
    now: SimTime,
) -> Result<Ipv4Addr> {
    let c = &mut cells[from];
    c.agent.handle_detach(imsi, &mut c.ctl)?;
    let c = &mut cells[to];
    Ok(c.agent.handle_attach(imsi, &mut c.ctl, now)?.permanent_ip)
}

/// Asks for the clause-0 path of `bs` over `ctl`, which `seat` serves,
/// and checks the reply is the one flow-mod frame — a batch stamped
/// with the answering seat, one barrier-fenced group for the station.
/// Returns `(seq, tags)`.
fn ask_path(
    ctl: &mut ChannelController<Link>,
    seat: usize,
    bs: BaseStationId,
) -> Result<(u32, WirePathTags)> {
    let ask = Message::PacketIn(PacketIn::PathRequest {
        bs,
        clause: ClauseId(0),
    });
    let raw = ctl.channel().request(&ask)?;
    let reply = Frame::new_checked(raw.as_slice())?.message()?.into_static();
    match &reply {
        Message::FlowModBatch { shard, seq, groups }
            if usize::from(*shard) == seat
                && groups.len() == 1
                && groups[0].barrier
                && groups[0].bs == bs
                && groups[0].mods.len() == 1 =>
        {
            Ok((*seq, groups[0].mods[0].tags))
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
    let leader = cluster
        .membership()?
        .leader()
        .ok_or_else(|| diverged("the bootstrap view has no leader".into()))?
        .seat();
    let bss: Vec<BaseStationId> = (0..3).map(BaseStationId).collect();
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

    // Storm, act one: every UE attaches, spread across the stations, and
    // each station gets a core path.
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
    let mut seq = 0;
    let mut installed = Vec::new();
    for (cell, &bs) in cells.iter_mut().zip(&bss) {
        let (s, tags) = ask_path(&mut cell.ctl, leader, bs)?;
        check(s > seq, || format!("seq {s} after {seq}"))?;
        seq = s;
        installed.push(tags);
    }

    // Act two: a ring of moves (every UE moves one station over) plus a
    // few permanent detaches, which the later re-home replay must NOT
    // resurrect.
    for i in 0..UES {
        clock += 1;
        let from = (i % 3) as usize;
        let ip = move_ue(&mut cells, from, (from + 1) % 3, UeImsi(i), SimTime(clock))?;
        ip_of.insert(UeImsi(i), ip);
    }
    for imsi in DETACHED {
        let c = &mut cells[((imsi % 3) as usize + 1) % 3];
        c.agent.handle_detach(UeImsi(imsi), &mut c.ctl)?;
    }

    // Quiesce point: every input above is committed (replies are
    // commit-gated), so the leader's log right now is the recovery
    // oracle. Freeze it, then kill -9.
    let oracle = cluster.node(leader).log_bytes();
    cluster.kill(leader);
    let probe = cells[0].ctl.channel().probe(Duration::from_millis(100));
    check(probe.is_err(), || {
        "the killed leader answered a probe".into()
    })?;
    let after = cluster.fail_over(&[ControllerId(leader as u32)])?;
    check(after.epoch() == 2, || {
        format!("fail-over reached epoch {}", after.epoch())
    })?;
    let survivors: Vec<usize> = (0..3).filter(|&s| s != leader).collect();
    // The survivors hold the pre-kill log byte-for-byte — nothing lost,
    // nothing extra.
    for &seat in &survivors {
        check(cluster.node(seat).log_bytes() == oracle, || {
            format!("seat {seat} differs from the pre-kill oracle")
        })?;
    }

    // Every agent re-homes to the new leader and replays its UEs through
    // resync.
    let successor = after
        .leader()
        .ok_or_else(|| diverged("the new view has no leader".into()))?;
    for cell in &mut cells {
        clock += 1;
        let new_home = rehome_agent(&cluster, &mut cell.ctl, &mut cell.agent, SimTime(clock))?;
        check(new_home == successor, || {
            format!("agent re-homed to {new_home}, the new leader is {successor}")
        })?;
    }

    // Act three: the storm resumes across the shrunken cluster.
    for i in (0..UES).filter(|i| !DETACHED.contains(i)) {
        clock += 1;
        let from = ((i % 3) as usize + 1) % 3;
        let ip = move_ue(&mut cells, from, (from + 1) % 3, UeImsi(i), SimTime(clock))?;
        ip_of.insert(UeImsi(i), ip);
    }
    // The successor answers with the tags committed before the kill —
    // installed paths are replicated slow state — and its seq continues
    // the dead leader's log.
    for ((cell, &bs), &tags) in cells.iter_mut().zip(&bss).zip(&installed) {
        let (s, got) = ask_path(&mut cell.ctl, successor.seat(), bs)?;
        check(got == tags && s > seq, || {
            format!(
                "re-asked path of {bs} got {got:?} at seq {s}; committed {tags:?}, last seq {seq}"
            )
        })?;
        seq = s;
    }

    // Zero residue on both survivors: one log, exactly the live UEs, at
    // the addresses their last attaches were granted.
    let log = cluster.node(survivors[0]).log_bytes();
    for &seat in &survivors {
        let node = cluster.node(seat);
        check(node.log_bytes() == log, || {
            "survivors differ after the resumed storm".into()
        })?;
        let ues = node.read(|c| c.state().attached_count());
        let paths = node.path_count();
        check(
            ues == UES as usize - DETACHED.len() && paths == bss.len(),
            || format!("seat {seat} holds {ues} UEs and {paths} paths"),
        )?;
        for i in 0..UES {
            let imsi = UeImsi(i);
            let ip = node.ue(imsi).map(|e| e.permanent_ip);
            let want = (!DETACHED.contains(&i)).then(|| ip_of[&imsi]);
            check(ip == want, || {
                format!("seat {seat}: {imsi} holds {ip:?}, expected {want:?}")
            })?;
        }
    }
    Ok(())
}
