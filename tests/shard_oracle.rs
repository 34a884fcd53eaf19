//! Differential oracle for the trace driver (`ShardedController`).
//!
//! The same trace is driven through two implementations:
//!
//! * **reference** — the single-threaded `CentralController` with one
//!   real `LocalAgent` per base station, applied to a `PhysicalNetwork`
//!   exactly the way the simulator does it;
//! * **driver** — `ShardedController::run`, whose op log and per-event
//!   outcomes are replayed onto a fresh `PhysicalNetwork`.
//!
//! The final fabric flow tables must be **byte-identical** (rule ids
//! included: the log reproduces the exact op order), and so must the
//! microflow tables and controller state, permanent addresses included.
//! The reference itself is checked to give each attachment session's
//! flows exactly one permanent address, and the engine inputs it made
//! are replayed through `CentralController::apply` on a fresh engine,
//! which must reproduce its op batches and state byte for byte.
//!
//! The inputs are two seeded busy traces and a handoff-heavy one, whose
//! UEs bounce between two stations; after it, detaching every UE and
//! expiring transitions and idle microflows must leave no location
//! reservation, tunnel or microflow entry behind.

mod common;

use common::{
    assert_replay_matches, assert_sessions_refine, compare, fabric_dump, materialize,
    materialize_net, policy, reference_run_full, session_port_groups, subscribers, SERVER,
};

use softcell::controller::sharded::{
    EventOutcome, ShardEvent, ShardEventKind, ShardedController, ShardedRun,
};
use softcell::controller::{CentralController, ControllerConfig, Input};
use softcell::sim::PhysicalNetwork;
use softcell::topology::small_topology;
use softcell::types::{BaseStationId, SimDuration, SimTime, UeImsi};
use softcell::workload::{EventKind, EventStream, EventStreamConfig};

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

/// Drives `events` of `ues` subscribers through the reference and the
/// driver on `small_topology()` and asserts they agree. Returns the
/// reference's live engine and network, and the driver's run, for
/// follow-up checks.
fn oracle(
    ues: u64,
    events: &[ShardEvent],
) -> (CentralController, PhysicalNetwork, ShardedRun<'static>) {
    let topo = small_topology();
    let (reference, inputs, ref_ctl, ref_net) = reference_run_full(&topo, ues, events);
    assert!(reference.flow_stats.0 > 0, "the trace has flows");
    assert!(inputs.iter().any(|i| matches!(i, Input::Handoff { .. })));
    assert_replay_matches(&topo, ues, &inputs, &reference);
    assert_sessions_refine(&topo, &ref_net, &session_port_groups(events));

    let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 1);
    let run = sc.run(policy(), &subscribers(ues), events);
    assert_eq!(run.stats.skipped, 0, "a clean trace skips no event");
    assert_eq!(run.outcomes.len(), events.len());
    assert!(!run.merged_batches().is_empty());
    // the log is compared with the reference's op for op
    compare(&reference, &materialize(&topo, &run), "driver");
    let s = run.stats;
    assert_eq!(
        s.coordinated,
        s.attaches + s.detaches + s.handoffs + s.flow_demands,
        "every event that asked the engine to change something is accounted for"
    );
    assert_eq!(
        s.flow_demands, s.cache_misses,
        "every demand installed its path"
    );
    (ref_ctl, ref_net, run)
}

fn seeded(workload_seed: u64) {
    const UES: u64 = 24;
    let stream = EventStream::generate(&EventStreamConfig::busy(4, UES, workload_seed));
    let events = convert(stream.events());
    assert!(!events.is_empty());
    oracle(UES, &events);
}

#[test]
fn sharded_controller_matches_single_threaded_oracle() {
    seeded(7);
}

#[test]
fn sharded_controller_matches_oracle_second_seed() {
    seeded(1913);
}

/// A handoff-heavy trace: every UE attaches at one end of a station
/// pair, opens flows, bounces to the other end and back, then detaches.
/// Half the UEs start at each end, so both stations' id pools take
/// arrivals and departures at once.
fn bouncing_trace(ues: u64) -> Vec<ShardEvent> {
    let (a, b) = (BaseStationId(0), BaseStationId(1));
    let mut events = Vec::new();
    let mut t = 0u64;
    let mut port = 40_000u16;
    let mut push = |imsi: u64, kind: ShardEventKind| {
        t += 1;
        events.push(ShardEvent {
            time: SimTime(t),
            imsi: UeImsi(imsi),
            kind,
        });
    };
    let mut flow = |bs, dst_port| {
        let src_port = port;
        port += 1;
        ShardEventKind::NewFlow {
            bs,
            dst: SERVER,
            src_port,
            dst_port,
            udp: false,
        }
    };
    for imsi in 0..ues {
        let (home, away) = if imsi % 2 == 0 { (a, b) } else { (b, a) };
        push(imsi, ShardEventKind::Attach { bs: home });
        push(imsi, flow(home, 443));
        push(imsi, flow(home, 443));
        push(
            imsi,
            ShardEventKind::Handoff {
                from: home,
                to: away,
            },
        );
        push(imsi, flow(away, 80));
        push(
            imsi,
            ShardEventKind::Handoff {
                from: away,
                to: home,
            },
        );
    }
    // the detaches after all the churn
    for imsi in 0..ues {
        let home = if imsi % 2 == 0 { a } else { b };
        push(imsi, ShardEventKind::Detach { bs: home });
    }
    events
}

#[test]
fn a_handoff_heavy_trace_matches_the_oracle_and_leaves_no_residue() {
    const UES: u64 = 8;
    let topo = small_topology();
    let events = bouncing_trace(UES);
    let (mut ref_ctl, mut ref_net, mut run) = oracle(UES, &events);
    assert_eq!(run.stats.handoffs, 2 * UES, "every handoff completed");

    // the same expiry discipline as fault_churn on both sides: no
    // leaked reservations, transitions, tunnels or microflow entries,
    // and the expired fabrics byte-identical
    let late = events.last().unwrap().time + SimDuration::from_secs(10_000);
    let mut net = materialize_net(&topo, &run);
    for (ctl, net) in [(&mut ref_ctl, &mut ref_net), (&mut run.engine, &mut net)] {
        ctl.apply(&Input::Expire { now: late }).expect("expiry");
        net.apply_all(&ctl.drain_ops()).expect("expiry ops");
        for sw in net.switches_mut() {
            sw.microflow.expire_idle(late);
        }
        assert_eq!(ctl.state().attached_count(), 0);
        assert_eq!(ctl.state().reserved_count(), 0, "leaked reservations");
        assert_eq!(ctl.mobility().transitions_active(), 0, "leaked transitions");
        assert_eq!(ctl.mobility().tunnel_count(), 0, "leaked tunnels");
        let micro: usize = topo
            .switches()
            .iter()
            .map(|s| net.switch(s.id).microflow.len())
            .sum();
        assert_eq!(micro, 0, "leaked microflow entries");
    }
    assert_eq!(
        fabric_dump(&topo, &net),
        fabric_dump(&topo, &ref_net),
        "expired fabric diverged"
    );
}

#[test]
fn events_at_a_missing_station_are_skipped_and_a_refused_handoff_leaves_the_ue_served() {
    // An attach at a missing station used to succeed, and the UE's first
    // flow then panicked on the station lookup. A refused handoff leaves
    // its UE where it was, and the UE's next flow there is served: the
    // engine routes its path on demand.
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
    let topo = small_topology();
    let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 1);
    let run = sc.run(policy(), &subscribers(4), &events);
    let skipped = |i: usize, why: &str| {
        assert!(
            matches!(&run.outcomes[i], EventOutcome::Skipped { reason } if reason.contains(why)),
            "event {i}: {:?}",
            run.outcomes[i]
        );
    };
    skipped(0, "attach failed: not found: base station bs9999");
    skipped(1, "not attached at bs9999");
    skipped(3, "handoff failed: not found: base station bs9999");
    let EventOutcome::Flow(served) = &run.outcomes[4] else {
        panic!("served at the station it never left: {:?}", run.outcomes[4]);
    };
    assert!(served.bs == home && !served.cache_hit);
    let s = run.stats;
    assert_eq!((s.attaches, s.handoffs, s.skipped), (1, 0, 3));
}
