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
//! flows exactly one permanent address.

mod common;

use common::{
    assert_sessions_refine, compare, materialize, policy, reference_run_full, session_port_groups,
    subscribers, SERVER,
};
use softcell::controller::ops::SwitchBatch;
use softcell::controller::sharded::{
    SeqBatches, ShardEvent, ShardEventKind, ShardedController, ShardedRun,
};
use softcell::controller::ControllerConfig;
use softcell::topology::small_topology;
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

/// `merged_batches()` as it was when it returned owned batches: every
/// batch cloned, in ticket order. The borrowed merge is checked against
/// it element for element.
fn merged_batches_cloned(run: &ShardedRun<'_>) -> Vec<SwitchBatch> {
    let mut all: Vec<&SeqBatches> = run.shard_batches.iter().flatten().collect();
    all.sort_by_key(|s| s.seq);
    all.iter().flat_map(|s| s.batches.iter().cloned()).collect()
}

fn oracle(workload_seed: u64) {
    let topo = small_topology();
    let stream = EventStream::generate(&EventStreamConfig::busy(4, UES, workload_seed));
    let events = convert(stream.events());
    assert!(!events.is_empty());
    let (reference, _, ref_net) = reference_run_full(&topo, UES, &events);
    assert!(reference.flow_stats.0 > 0, "workload produced flows");
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
        let (merged, cloned) = (run.merged_batches(), merged_batches_cloned(&run));
        assert!(!merged.is_empty());
        assert!(
            merged.iter().copied().eq(&cloned),
            "{shards} shards: borrowed merge differs from the cloned one"
        );
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
