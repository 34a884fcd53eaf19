//! Heap-allocation budgets for the three operations a mobility-heavy
//! signalling mix is made of: a cache-hit flow on the sharded engine, a
//! tag-cache hit at a local agent, and a handoff at the central
//! controller.
//!
//! Counts, not timings: every scenario is a fixed sequence on a fixed
//! topology, so the number of allocator calls repeats exactly and the
//! gate does not flake on a loaded host. Each budget is written down
//! from what the tree achieves, beside the count the same scenario gave
//! at the commit before the event path stopped recompiling classifiers,
//! cloning tunnels and regrowing its vectors — a change that brings
//! that work back fails here.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running (or the harness reporting one) beside the measured
//! region would be counted into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use softcell::controller::agent::microflow_pair;
use softcell::controller::mobility::FlowRecord;
use softcell::controller::sharded::{ShardEvent, ShardEventKind, ShardedController};
use softcell::controller::{CentralController, ControllerConfig, LocalAgent};
use softcell::dataplane::Switch;
use softcell::packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell::policy::clause::ClauseId;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::topology::{small_topology, Topology};
use softcell::types::{BaseStationId, LocIp, SimTime, UeId, UeImsi};

/// Counts every call that obtains memory: `alloc`, `alloc_zeroed` (the
/// default forwards to `alloc`) and `realloc` — a vector that regrows is
/// exactly what the budgets are about.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed increment of a static counter, which neither allocates nor
// touches the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls made while `f` runs (on any thread).
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);
const CATCH_ALL: ClauseId = ClauseId(5);

fn controller(topo: &Topology) -> CentralController<'_> {
    let mut ctl = CentralController::new(
        topo,
        ControllerConfig::simulation(),
        ServicePolicy::example_carrier_a(1),
    );
    for i in 0..8 {
        ctl.put_subscriber(SubscriberAttributes::default_home(UeImsi(i)));
    }
    ctl
}

fn uplink(src: Ipv4Addr, src_port: u16) -> FiveTuple {
    FiveTuple {
        src,
        dst: SERVER,
        src_port,
        dst_port: 443,
        proto: Protocol::Tcp,
    }
}

/// `CentralController::handoff` of a UE with `k` live flows, station 0 →
/// station 3, after another UE's move has built the (0 → 3) tunnel and
/// warmed the path cache: what is counted is the per-handoff work alone.
fn handoff_allocations(k: u16) -> u64 {
    let topo = small_topology();
    let mut ctl = controller(&topo);
    let cfg = *ctl.config();
    let (from, to) = (BaseStationId(0), BaseStationId(3));
    let tags = ctl.request_policy_path(from, CATCH_ALL).unwrap();
    let flows_of = |ctl: &mut CentralController<'_>, imsi: u64, n: u16| -> Vec<FlowRecord> {
        let id = UeId(imsi as u16);
        let grant = ctl
            .attach_ue(UeImsi(imsi), from, id, SimTime::ZERO)
            .unwrap();
        let loc = cfg.scheme.encode(LocIp::new(from, id)).unwrap();
        let radio = topo.base_station(from).radio_port;
        let ip = grant.record.permanent_ip;
        (0..n)
            .map(|slot| {
                let tuple = uplink(ip, 40_000 + slot);
                microflow_pair(&cfg.ports, &tags, loc, ip, radio, tuple, slot).unwrap()
            })
            .collect()
    };
    let warm = flows_of(&mut ctl, 0, 1);
    let flows = flows_of(&mut ctl, 1, k);
    ctl.handoff(UeImsi(0), to, UeId(0), &warm, SimTime::ZERO)
        .unwrap();
    let (n, plan) = allocations(|| ctl.handoff(UeImsi(1), to, UeId(1), &flows, SimTime::ZERO));
    assert_eq!(plan.unwrap().carried_flows.len(), usize::from(k));
    n
}

/// 32 tag-cache hits of one UE at a `LocalAgent`, after the miss that
/// filled the cache.
fn agent_hit_allocations() -> u64 {
    let topo = small_topology();
    let mut ctl = controller(&topo);
    let cfg = *ctl.config();
    let bs = topo.base_station(BaseStationId(0));
    let mut agent = LocalAgent::new(bs.id, bs.radio_port, cfg.scheme, cfg.ports);
    let mut switch = Switch::access(bs.access_switch);
    let rec = agent
        .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
        .unwrap();
    let views: Vec<HeaderView> = (0..33)
        .map(|i| {
            let packet = build_flow_packet(uplink(rec.permanent_ip, 40_000 + i), 64, 0, &[]);
            HeaderView::parse(&packet).unwrap()
        })
        .collect();
    agent
        .handle_new_flow(&views[0], &mut ctl, &mut switch, SimTime::ZERO)
        .unwrap();
    let (n, ()) = allocations(|| {
        for view in &views[1..] {
            agent
                .handle_new_flow(view, &mut ctl, &mut switch, SimTime::ZERO)
                .unwrap();
        }
    });
    assert_eq!(agent.stats().cache_hits, 32);
    n
}

/// 400 cache-hit flows (8 UEs × 50) through a 2-shard
/// `ShardedController`: a run with them minus the same run without.
fn sharded_hit_allocations() -> u64 {
    let topo = small_topology();
    let subscribers: Vec<_> = (0..8)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let event = |imsi, kind| ShardEvent {
        time: SimTime::ZERO,
        imsi: UeImsi(imsi),
        kind,
    };
    let bs = BaseStationId(0);
    let flow = |imsi, src_port| {
        let kind = ShardEventKind::NewFlow {
            bs,
            dst: SERVER,
            src_port,
            dst_port: 443,
            udp: false,
        };
        event(imsi, kind)
    };
    // every UE's first flow is ticketed (its demand for the path)
    let mut events: Vec<ShardEvent> = (0..8)
        .map(|i| event(i, ShardEventKind::Attach { bs }))
        .chain((0..8).map(|i| flow(i, 30_000)))
        .collect();
    let run = |events: &[ShardEvent]| {
        let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 2);
        let (n, run) =
            allocations(|| sc.run(ServicePolicy::example_carrier_a(1), &subscribers, events));
        assert_eq!(run.stats.skipped, 0);
        (n, run.stats.cache_hits)
    };
    run(&events); // registers the engine's metrics, once per process
    let (without, hits_without) = run(&events);
    events.extend((0..400).map(|i| flow(u64::from(i % 8), 40_000 + i)));
    let (with, hits_with) = run(&events);
    assert_eq!(hits_with - hits_without, 400);
    with - without
}

#[test]
fn allocations_per_operation_stay_within_budget() {
    // (scenario, allocations now, budget, allocations at the parent)
    let measured = [
        // A handoff with k ≥ 1 carried flows costs `a + b·k` allocations
        // with a = 11 and b = 0: the plan's and the transition's vectors
        // are sized from k and nothing is allocated per flow (the
        // parent's 26 at k = 1 grew to 31 at k = 8 and on from there as
        // its vectors doubled). With no flows only the reservation
        // bookkeeping allocates.
        ("handoff, 0 flows", handoff_allocations(0), 2, 11),
        ("handoff, 1 flow", handoff_allocations(1), 11, 26),
        ("handoff, 8 flows", handoff_allocations(8), 11, 31),
        // the flow list, the slot words and the microflow table growing
        ("32 agent tag-cache hits", agent_hit_allocations(), 9, 12),
        // one `installs` vector per flow is the outcome's shape; the
        // rest is the per-UE flow list and the outcome vector growing
        (
            "400 sharded cache-hit flows",
            sharded_hit_allocations(),
            452,
            477,
        ),
    ];
    for (what, n, budget, parent) in measured {
        println!("{what}: {n} allocations (budget {budget}, parent {parent})");
    }
    for (what, n, budget, parent) in measured {
        assert!(n <= budget, "{what}: {n} allocations, budget {budget}");
        assert!(budget < parent, "{what}: the budget is the improvement");
    }
}
