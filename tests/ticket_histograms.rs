//! The sharded engine's ticket histograms are kept per worker and
//! absorbed into the global registry when each worker finishes. One run
//! must add exactly one sample per ticket to each of them: a worker whose
//! counts were dropped instead of merged shows up here.
//!
//! A test binary of its own, with one test: nothing else in the process
//! writes the global registry while the run is counted.

mod common;

use common::{policy, subscribers, SERVER};
use softcell::controller::sharded::{ShardEvent, ShardEventKind, ShardedController};
use softcell::controller::ControllerConfig;
use softcell::topology::small_topology;
use softcell::workload::{EventKind, EventStream, EventStreamConfig};
use softcell_telemetry::Registry;

const UES: u64 = 24;

#[test]
fn a_two_shard_run_adds_one_sample_per_ticket_to_each_ticket_histogram() {
    let topo = small_topology();
    let stream = EventStream::generate(&EventStreamConfig::busy(4, UES, 7));
    let events: Vec<ShardEvent> = stream
        .events()
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
        .collect();
    let registry = Registry::global();
    let histograms = [
        registry.histogram("softcell_controller_ticket_wait_ns"),
        registry.histogram("softcell_controller_engine_lock_wait_ns"),
        registry.histogram("softcell_controller_engine_busy_ns"),
    ];
    let before: Vec<u64> = histograms.iter().map(|h| h.count()).collect();

    let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 2);
    let run = sc.run(policy(), &subscribers(UES), &events);

    assert_eq!(run.stats.skipped, 0);
    assert!(run.stats.coordinated > 100, "the trace takes many tickets");
    for (h, before) in histograms.iter().zip(before) {
        assert_eq!(h.count() - before, run.stats.coordinated);
    }
}
