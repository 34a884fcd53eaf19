//! Differential oracle for the sharded controller core.
//!
//! The same seeded workload is driven through two implementations:
//!
//! * **reference** — the single-threaded `CentralController` with one
//!   real `LocalAgent` per base station, applied to a `PhysicalNetwork`
//!   exactly the way the simulator does it;
//! * **sharded** — `ShardedController` at 1, 2, 4, 8 and 16 shards, whose
//!   ticket-stamped batch streams and per-event outcomes are replayed
//!   onto a fresh `PhysicalNetwork`.
//!
//! The final fabric flow tables must be **byte-identical** (rule ids
//! included: the merged batch stream reproduces the exact global op
//! order), and so must the microflow tables and controller state,
//! permanent addresses included: the engine assigns them from its own
//! pool under each attach's ticket, in trace order at any shard count.
//! The reference itself is checked to give each attachment session's
//! flows exactly one permanent address, and the engine inputs it made
//! are replayed through `CentralController::apply` on a fresh engine,
//! which must reproduce its op batches and state byte for byte.

mod common;

use common::{
    assert_replay_matches, assert_sessions_refine, compare, materialize, policy,
    reference_run_full, session_port_groups, subscribers, SERVER,
};
use std::sync::mpsc;
use std::time::Duration;

use softcell::controller::sharded::{EventOutcome, ShardEvent, ShardEventKind, ShardedController};
use softcell::controller::{ControllerConfig, Input};
use softcell::topology::small_topology;
use softcell::types::{BaseStationId, SimTime, UeImsi};
use softcell::workload::{EventKind, EventStream, EventStreamConfig};

const UES: u64 = 24;

/// Converts the generated trace, giving every flow a globally-unique
/// source port (40000 + event index) — the flow identity the session
/// check leans on.
fn convert(events: &[softcell::workload::TraceEvent]) -> Vec<ShardEvent> {
    assert!(events.len() < 25_000, "source ports must stay unique");
    events
        .iter()
        .enumerate()
        .map(|(idx, ev)| {
            let kind = match ev.kind {
                EventKind::Attach { bs } => ShardEventKind::Attach { bs },
                EventKind::NewFlow { bs, dst_port, udp } => ShardEventKind::NewFlow {
                    bs,
                    dst: SERVER,
                    src_port: 40_000 + idx as u16,
                    dst_port,
                    udp,
                },
                EventKind::Handoff { from, to } => ShardEventKind::Handoff { from, to },
                EventKind::Detach { bs } => ShardEventKind::Detach { bs },
            };
            ShardEvent {
                time: ev.time,
                imsi: ev.imsi,
                kind,
            }
        })
        .collect()
}

fn oracle(workload_seed: u64) {
    let topo = small_topology();
    let stream = EventStream::generate(&EventStreamConfig::busy(4, UES, workload_seed));
    let events = convert(stream.events());
    assert!(!events.is_empty());
    let (reference, inputs, _, ref_net) = reference_run_full(&topo, UES, &events);
    assert!(reference.flow_stats.0 > 0, "workload produced flows");
    assert!(inputs.iter().any(|i| matches!(i, Input::Handoff { .. })));
    assert_replay_matches(&topo, UES, &inputs, &reference);
    assert_sessions_refine(&topo, &ref_net, &session_port_groups(&events));

    for shards in [1usize, 2, 4, 8, 16] {
        let sc = ShardedController::new(&topo, ControllerConfig::simulation(), shards)
            .with_sched_seed(workload_seed.wrapping_mul(31) + shards as u64);
        let run = sc.run(policy(), &subscribers(UES), &events);
        assert_eq!(
            run.stats.skipped, 0,
            "{shards} shards: clean trace must not skip events"
        );
        assert_eq!(run.outcomes.len(), events.len());
        assert!(!run.merged_batches().is_empty());
        // the merged stream is compared with the reference's op for op
        let dump = materialize(&topo, &run);
        compare(&reference, &dump, &format!("{shards} shards"));
        // ticketed flow demands are exactly the coordinated flow events
        // (per-UE tickets: a later UE may re-demand a key its waiter peers
        // already resolved, so demands can exceed cache misses)
        assert_eq!(
            run.stats.coordinated,
            run.stats.attaches + run.stats.detaches + run.stats.handoffs + run.stats.flow_demands,
            "{shards} shards: every coordinated event is accounted for"
        );
        assert!(
            run.stats.flow_demands >= run.stats.cache_misses,
            "{shards} shards: every cache miss rode a ticketed demand"
        );
    }
}

#[test]
fn sharded_controller_matches_single_threaded_oracle() {
    oracle(7);
}

#[test]
fn sharded_controller_matches_oracle_second_seed() {
    oracle(1913);
}

#[test]
fn events_at_a_station_the_topology_lacks_are_skipped_at_every_shard_count() {
    // An attach at a missing station used to succeed, and the UE's first
    // flow then panicked the worker on the station lookup: one shard
    // panicked the run, two left the other worker waiting forever for the
    // dead one's ticket. A refused handoff leaves its UE where the
    // pre-pass did not expect it, and a flow there for a path nobody
    // demanded used to wait forever at any shard count. The run goes on
    // a thread of its own, so a hang fails here instead of stalling the
    // suite.
    let (missing, home) = (BaseStationId(9999), BaseStationId(0));
    let event = |t, imsi, kind| ShardEvent {
        time: SimTime(t),
        imsi: UeImsi(imsi),
        kind,
    };
    let flow = |bs| ShardEventKind::NewFlow {
        bs,
        dst: SERVER,
        src_port: 40_000,
        dst_port: 443,
        udp: false,
    };
    let events = vec![
        event(0, 1, ShardEventKind::Attach { bs: missing }),
        event(1, 1, flow(missing)),
        event(2, 2, ShardEventKind::Attach { bs: home }),
        event(
            3,
            2,
            ShardEventKind::Handoff {
                from: home,
                to: missing,
            },
        ),
        event(4, 2, flow(home)),
    ];
    for shards in [1usize, 2, 4] {
        let (tx, rx) = mpsc::channel();
        let events = events.clone();
        std::thread::spawn(move || {
            let topo = small_topology();
            let sc = ShardedController::new(&topo, ControllerConfig::simulation(), shards);
            let run = sc.run(policy(), &subscribers(4), &events);
            let _ = tx.send((run.outcomes, run.stats));
        });
        let (outcomes, stats) = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{shards} shards: the run panicked or hung ({e})"));
        let skipped = |i: usize, why: &str| {
            assert!(
                matches!(&outcomes[i], EventOutcome::Skipped { reason } if reason.contains(why)),
                "{shards} shards, event {i}: {:?}",
                outcomes[i]
            );
        };
        skipped(0, "attach failed: not found: base station bs9999");
        skipped(1, "not attached at bs9999");
        skipped(3, "handoff failed: not found: base station bs9999");
        skipped(4, "no earlier event demanded the path");
        assert_eq!((stats.attaches, stats.handoffs, stats.skipped), (1, 0, 4));
    }
}
