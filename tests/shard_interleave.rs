//! Handoffs between two stations under seeded interleavings.
//!
//! Every UE bounces between the same two stations, half starting at
//! each end, so with the UEs spread over the shards several workers hit
//! the same two UE-id pools — which live beside the engine, under the
//! ticket — and the same (station, clause) paths, in ticket order. The
//! scheduler seed injects yields before every ticket wait, so sweeping
//! seeds varies which shard reaches its ticket first.
//!
//! Every interleaving must converge to the single-threaded result, and
//! — reusing the fault-churn residue discipline — after detaching every
//! UE and expiring transitions and idle microflows, no location
//! reservation, tunnel or microflow entry may survive under any seed.
//! No message may cross a shard boundary: a ticket holder waits on no
//! other thread.

mod common;

use common::{
    assert_sessions_refine, compare, fabric_dump, materialize, materialize_net, policy,
    reference_run_full, session_port_groups, subscribers, SERVER,
};
use softcell::controller::sharded::{ShardEvent, ShardEventKind, ShardedController};
use softcell::controller::{ControllerConfig, Input};
use softcell::topology::small_topology;
use softcell::types::{BaseStationId, SimDuration, SimTime, UeImsi};

const SHARDS: usize = 4;
const UES: u64 = 8;

/// Builds a handoff-heavy trace: every UE attaches at one end of a
/// station pair, opens flows, bounces to the other end and back, then
/// detaches. Half the UEs start at each end so both stations' id pools
/// take arrivals and departures at once.
fn build_trace() -> Vec<ShardEvent> {
    let (a, b) = (BaseStationId(0), BaseStationId(1));
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

fn interleave_sweep(shards: usize, sched_seeds: std::ops::Range<u64>) {
    let topo = small_topology();
    let events = build_trace();
    let (reference, _, mut ref_ctl, mut ref_net) = reference_run_full(&topo, UES, &events);
    assert_sessions_refine(&topo, &ref_net, &session_port_groups(&events));

    // reference residue: everything the churn created expires cleanly
    let late = events.last().unwrap().time + SimDuration::from_secs(10_000);
    ref_ctl.apply(&Input::Expire { now: late }).expect("expiry");
    ref_net
        .apply_all(&ref_ctl.drain_ops())
        .expect("reference expiry ops");
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
        assert_eq!(
            run.stats.rendezvous_messages, 0,
            "seed {sched_seed}: no message crosses a shard boundary"
        );

        let dump = materialize(&topo, &run);
        compare(&reference, &dump, &format!("seed {sched_seed}"));

        // residue: the same expiry discipline as fault_churn — no leaked
        // reservations, transitions, tunnels or microflow entries, and
        // the expired fabric matches the reference byte-for-byte
        let mut net = materialize_net(&topo, &run);
        run.engine
            .apply(&Input::Expire { now: late })
            .expect("expiry");
        net.apply_all(&run.engine.drain_ops())
            .expect("sharded expiry ops");
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
    // seed 0 jitters like any other: "unseeded" is no seed, not seed 0
    interleave_sweep(SHARDS, 0..16);
}

#[test]
fn sixteen_shard_interleavings_converge() {
    // the widest configuration the throughput gate exercises: more
    // shards than UEs, so some workers get no events at all
    interleave_sweep(16, 0..6);
}

#[test]
fn unseeded_and_seeded_runs_write_the_same_fabric() {
    // a production run (no seed, never yields for jitter) and every
    // seeded one must put byte-identical rules on the switches
    let topo = small_topology();
    let events = build_trace();
    let run = |seed: Option<u64>| {
        let sc = ShardedController::new(&topo, ControllerConfig::simulation(), SHARDS);
        let sc = match seed {
            Some(seed) => sc.with_sched_seed(seed),
            None => sc,
        };
        let run = sc.run(policy(), &subscribers(UES), &events);
        assert_eq!(run.stats.skipped, 0, "seed {seed:?}");
        fabric_dump(&topo, &materialize_net(&topo, &run))
    };
    let unseeded = run(None);
    for seed in 0..16 {
        assert_eq!(run(Some(seed)), unseeded, "seed {seed}: fabric diverged");
    }
}
