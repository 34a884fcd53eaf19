//! Cross-shard handoff under seeded interleavings.
//!
//! A handoff into a station owned by another shard spans shard
//! boundaries: the moving UE's owner shard must rendezvous with the
//! target station's owner (reserve a UE id), run the engine plan, then
//! rendezvous with the target's owner again (adopt). The scheduler seed
//! injects yields around every rendezvous, so sweeping seeds drives the
//! distinct interleavings of the two-shard exchange.
//!
//! The message count is pinned, not just nonzero: the budget is
//! computed from the trace, so a rendezvous that changes no state
//! cannot creep back in unnoticed.
//!
//! Every interleaving must converge to the single-threaded result, and
//! — reusing the fault-churn residue discipline — after detaching every
//! UE and expiring transitions and idle microflows, no location
//! reservation, tunnel or microflow entry may survive under any seed.

mod common;

use common::{
    assert_sessions_refine, compare, fabric_dump, materialize, materialize_net, policy,
    reference_run_full, session_port_groups, subscribers, SERVER,
};
use softcell::controller::sharded::{ShardEvent, ShardEventKind, ShardedController};
use softcell::controller::ControllerConfig;
use softcell::topology::small_topology;
use softcell::types::{shard_of_station, shard_of_ue, BaseStationId, SimDuration, SimTime, UeImsi};

const SHARDS: usize = 4;
const UES: u64 = 8;

/// Two stations guaranteed to hash to different shards.
fn cross_shard_pair(shards: usize) -> (BaseStationId, BaseStationId) {
    for a in 0..4u32 {
        for b in 0..4u32 {
            let (a, b) = (BaseStationId(a), BaseStationId(b));
            if a != b && shard_of_station(a, shards) != shard_of_station(b, shards) {
                return (a, b);
            }
        }
    }
    panic!("no cross-shard station pair among 4 stations at {shards} shards");
}

/// Builds a handoff-heavy trace: every UE attaches at one end of the
/// cross-shard pair, opens flows, bounces to the other end and back,
/// then detaches. Half the UEs start at each end so rendezvous traffic
/// flows in both directions at once.
fn build_trace(shards: usize) -> Vec<ShardEvent> {
    let (a, b) = cross_shard_pair(shards);
    let mut events = Vec::new();
    let mut t = 0u64;
    let mut port = 40_000u16;
    let mut push = |time: u64, imsi: u64, kind: ShardEventKind| {
        events.push(ShardEvent {
            time: SimTime(time),
            imsi: UeImsi(imsi),
            kind,
        });
    };
    for imsi in 0..UES {
        let (home, away) = if imsi % 2 == 0 { (a, b) } else { (b, a) };
        t += 1;
        push(t, imsi, ShardEventKind::Attach { bs: home });
        for _ in 0..2 {
            t += 1;
            push(
                t,
                imsi,
                ShardEventKind::NewFlow {
                    bs: home,
                    dst: SERVER,
                    src_port: port,
                    dst_port: 443,
                    udp: false,
                },
            );
            port += 1;
        }
        t += 1;
        push(
            t,
            imsi,
            ShardEventKind::Handoff {
                from: home,
                to: away,
            },
        );
        t += 1;
        push(
            t,
            imsi,
            ShardEventKind::NewFlow {
                bs: away,
                dst: SERVER,
                src_port: port,
                dst_port: 80,
                udp: false,
            },
        );
        port += 1;
        t += 1;
        push(
            t,
            imsi,
            ShardEventKind::Handoff {
                from: away,
                to: home,
            },
        );
    }
    // interleave the detaches after all the churn
    for imsi in 0..UES {
        t += 1;
        let home = if imsi % 2 == 0 { a } else { b };
        push(t, imsi, ShardEventKind::Detach { bs: home });
    }
    events
}

/// The cross-shard messages a clean trace needs: an event talks to a
/// station's owner only when that is not the UE's own shard — an attach
/// twice (reserve, adopt), a handoff twice at the *target* station only
/// (reserve, adopt; the vacated station is not told), a detach once
/// (release).
fn rendezvous_budget(events: &[ShardEvent], shards: usize) -> u64 {
    events
        .iter()
        .map(|ev| {
            let (bs, messages) = match ev.kind {
                ShardEventKind::Attach { bs } => (bs, 2),
                ShardEventKind::Handoff { to, .. } => (to, 2),
                ShardEventKind::Detach { bs } => (bs, 1),
                ShardEventKind::NewFlow { .. } => return 0,
            };
            if shard_of_station(bs, shards) == shard_of_ue(ev.imsi, shards) {
                0
            } else {
                messages
            }
        })
        .sum()
}

fn interleave_sweep(shards: usize, sched_seeds: std::ops::Range<u64>) {
    let topo = small_topology();
    let events = build_trace(shards);
    let sessions = session_port_groups(&events);
    let budget = rendezvous_budget(&events, shards);
    assert!(budget > 0, "the trace must cross shards");

    let (reference, mut ref_ctl, mut ref_net) = reference_run_full(&topo, UES, &events);
    assert_sessions_refine(&sessions, &reference, "reference");

    // reference residue: everything the churn created expires cleanly
    let late = events.last().unwrap().time + SimDuration::from_secs(10_000);
    let ops = ref_ctl.expire_transitions(late);
    ref_net.apply_all(&ops).expect("reference expiry ops");
    for sw in ref_net.switches_mut() {
        sw.microflow.expire_idle(late);
    }
    assert_eq!(ref_ctl.state().attached_count(), 0);
    assert_eq!(
        ref_ctl.state().reserved_count(),
        0,
        "reference leaked locations"
    );
    let ref_expired_fabric = fabric_dump(&topo, &ref_net);

    for sched_seed in sched_seeds {
        let sc = ShardedController::new(&topo, ControllerConfig::simulation(), shards)
            .with_sched_seed(sched_seed);
        let mut run = sc.run(policy(), &subscribers(UES), &events);
        assert_eq!(
            run.stats.skipped, 0,
            "seed {sched_seed}: clean trace must not skip"
        );
        assert_eq!(
            run.stats.handoffs,
            2 * UES,
            "seed {sched_seed}: every handoff completed"
        );
        assert!(
            run.stats.cross_shard_handoffs == 2 * UES,
            "seed {sched_seed}: the station pair spans shards"
        );
        assert_eq!(
            run.stats.rendezvous_messages, budget,
            "seed {sched_seed}: exactly the messages the trace needs"
        );

        let dump = materialize(&topo, &run);
        compare(&reference, &dump, &format!("seed {sched_seed}"));
        assert_sessions_refine(&sessions, &dump, &format!("seed {sched_seed}"));

        // residue: the same expiry discipline as fault_churn — no leaked
        // reservations, transitions, tunnels or microflow entries, and
        // the expired fabric matches the reference byte-for-byte
        let mut net = materialize_net(&topo, &run);
        let ops = run.engine.expire_transitions(late);
        net.apply_all(&ops).expect("sharded expiry ops");
        for sw in net.switches_mut() {
            sw.microflow.expire_idle(late);
        }
        assert_eq!(run.engine.state().attached_count(), 0);
        assert_eq!(
            run.engine.state().reserved_count(),
            0,
            "seed {sched_seed}: leaked location reservations"
        );
        assert_eq!(
            run.engine.mobility().transitions_active(),
            0,
            "seed {sched_seed}: leaked transitions"
        );
        assert_eq!(
            run.engine.mobility().tunnel_count(),
            0,
            "seed {sched_seed}: leaked tunnels"
        );
        let micro: usize = topo
            .switches()
            .iter()
            .map(|s| net.switch(s.id).microflow.len())
            .sum();
        assert_eq!(micro, 0, "seed {sched_seed}: leaked microflow entries");
        assert_eq!(
            fabric_dump(&topo, &net),
            ref_expired_fabric,
            "seed {sched_seed}: expired fabric diverged"
        );
    }
}

#[test]
fn cross_shard_handoff_converges_under_every_interleaving() {
    interleave_sweep(SHARDS, 0..16);
}

#[test]
fn sixteen_shard_interleavings_converge() {
    // the widest configuration the throughput gate exercises: more
    // shards than stations, so most shards only ever act as ticketed
    // engine clients while the station owners rendezvous
    interleave_sweep(16, 0..6);
}

#[test]
fn same_shard_handoff_needs_no_rendezvous_messages() {
    // a single UE bouncing between two stations owned by the same shard
    // (shards=1 collapses all station owners) must complete with zero
    // cross-thread rendezvous messages — the id pools are updated inline
    let topo = small_topology();
    let events = build_trace(SHARDS);
    let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 1).with_sched_seed(3);
    let run = sc.run(policy(), &subscribers(UES), &events);
    assert_eq!(run.stats.skipped, 0);
    assert_eq!(run.stats.handoffs, 2 * UES);
    assert_eq!(run.stats.cross_shard_handoffs, 0);
    assert_eq!(run.stats.rendezvous_messages, 0);
}
