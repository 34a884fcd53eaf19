//! Heap-allocation budgets for the operations a mobility-heavy
//! signalling mix is made of: a cache-hit flow on the sharded engine, a
//! tag-cache hit at a local agent, a handoff at the central controller
//! (and the tunnel a move collects, which must allocate nothing), and
//! the ticket a handoff takes on the sharded engine; for the two
//! halves of a tag-cache miss, routing a policy path and installing it
//! through Algorithm 1; and for cloning the topology every engine holds.
//!
//! Counts, not timings: every scenario is a fixed sequence on a fixed
//! topology, so the number of allocator calls repeats exactly and the
//! gate does not flake on a loaded host. Each budget is written down
//! from what the tree achieves, beside the count the same scenario gave
//! before the change that set the budget — before the event path
//! stopped recompiling classifiers, cloning tunnels and regrowing its
//! vectors, before a handoff's ops joined the engine's one stream and
//! its planning buffers were reused, before a sharded flow's entries
//! moved inline and a ticket's ops into its shard's one log, or before
//! routing walked its trees
//! straight into one hop list and Algorithm 1 stopped keeping a scan
//! list and a copy of its plans' tags and chain pushes per path. A change
//! that brings that work back fails here.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running (or the harness reporting one) beside the measured
//! region would be counted into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use softcell::controller::agent::microflow_pair;
use softcell::controller::install::Direction;
use softcell::controller::mobility::FlowRecord;
use softcell::controller::sharded::{ShardEvent, ShardEventKind, ShardedController, ShardedStats};
use softcell::controller::{
    CentralController, ControllerConfig, LocalAgent, PathInstaller, TagPolicy,
};
use softcell::dataplane::Switch;
use softcell::packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell::policy::clause::ClauseId;
use softcell::policy::{ServicePolicy, SubscriberAttributes};
use softcell::topology::{small_topology, CellularParams, PolicyPath, ShortestPaths, Topology};
use softcell::types::{AddressingScheme, BaseStationId, LocIp, MiddleboxId, SimTime, UeId, UeImsi};

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

fn controller(topo: &Topology) -> CentralController {
    let mut ctl = CentralController::new(
        topo,
        ControllerConfig::simulation(),
        ServicePolicy::example_carrier_a(1),
    );
    for i in 0..64 {
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

/// A controller on `small_topology` with the catch-all path installed at
/// station 0, and a closure attaching UE `imsi` there with `n` live flows
/// on that path.
fn handoff_fixture() -> (
    CentralController,
    impl Fn(&mut CentralController, u64, u16) -> Vec<FlowRecord>,
) {
    let topo = small_topology();
    let mut ctl = controller(&topo);
    let cfg = *ctl.config();
    let from = BaseStationId(0);
    let tags = ctl.request_policy_path(from, CATCH_ALL).unwrap();
    let flows_of = move |ctl: &mut CentralController, imsi: u64, n: u16| -> Vec<FlowRecord> {
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
    (ctl, flows_of)
}

/// `CentralController::handoff` of `movers` UEs with `k` live flows each,
/// station 0 → station 3, after another UE's move with `k` flows has
/// built the (0 → 3) tunnel and warmed the path cache and the planning
/// buffers: what is counted is the per-handoff work alone.
fn handoff_allocations(k: u16, movers: u64) -> u64 {
    let (mut ctl, flows_of) = handoff_fixture();
    let to = BaseStationId(3);
    let warm = flows_of(&mut ctl, 0, k.max(1));
    let flows: Vec<_> = (1..=movers)
        .map(|imsi| flows_of(&mut ctl, imsi, k))
        .collect();
    ctl.handoff(UeImsi(0), to, UeId(0), &warm, SimTime::ZERO)
        .unwrap();
    ctl.drain_ops();
    let (n, plans) = allocations(|| {
        let mut moves = (1..=movers).zip(&flows);
        moves.try_for_each(|(imsi, flows)| {
            let plan = ctl.handoff(UeImsi(imsi), to, UeId(imsi as u16), flows, SimTime::ZERO)?;
            assert_eq!(plan.carried_flows.len(), usize::from(k));
            Ok::<_, softcell::types::Error>(())
        })
    });
    plans.unwrap();
    n
}

/// The second handoff of a UE still in transition from its first, with
/// `k` live flows: station 0 → 3, then 3 → 2. Other UEs' moves hold the
/// (0 → 3) and (0 → 2) tunnels, so the counted move neither builds nor
/// collects one; it supersedes the first move's transition. (Three of
/// them, so the engine's map of reserved locations does not reach a
/// growth step on the counted move: a map's amortised growth is not a
/// move's own cost.)
fn second_handoff_allocations(k: u16) -> u64 {
    let (mut ctl, flows_of) = handoff_fixture();
    let (first, second) = (BaseStationId(3), BaseStationId(2));
    for (imsi, to) in [(0, first), (1, second), (3, second)] {
        let warm = flows_of(&mut ctl, imsi, k);
        ctl.handoff(UeImsi(imsi), to, UeId(imsi as u16), &warm, SimTime::ZERO)
            .unwrap();
    }
    let flows = flows_of(&mut ctl, 2, k);
    let plan = ctl
        .handoff(UeImsi(2), first, UeId(2), &flows, SimTime::ZERO)
        .unwrap();
    let moved: Vec<FlowRecord> = plan.carried_records().collect();
    ctl.drain_ops();
    let (n, plan) = allocations(|| ctl.handoff(UeImsi(2), second, UeId(2), &moved, SimTime::ZERO));
    assert_eq!(plan.unwrap().carried_flows.len(), usize::from(k));
    assert_eq!(ctl.mobility().tunnel_count(), 2);
    n
}

/// What collecting a tunnel allocates: a UE with one flow moves station
/// 0 → 3 and back, and the return drops the last reference on (0 → 3) —
/// less the same return while another UE's move keeps the tunnel up
/// (and where the first run's other UE moves to station 2 instead, so
/// the engine's maps hold as many UEs, reservations and transitions).
/// A first tunnel, to station 1, is collected before either: the tag
/// pool's free list grows once, not with every tag a drop returns.
fn tunnel_drop_allocations() -> i64 {
    let (home, away) = (BaseStationId(0), BaseStationId(3));
    let returning = |keep: bool| {
        let (mut ctl, flows_of) = handoff_fixture();
        let warm = flows_of(&mut ctl, 2, 1);
        ctl.handoff(UeImsi(2), BaseStationId(1), UeId(2), &warm, SimTime::ZERO)
            .unwrap();
        ctl.detach_ue(UeImsi(2)).unwrap();
        let other = if keep { away } else { BaseStationId(2) };
        let warm = flows_of(&mut ctl, 1, 1);
        ctl.handoff(UeImsi(1), other, UeId(1), &warm, SimTime::ZERO)
            .unwrap();
        let flows = flows_of(&mut ctl, 0, 1);
        let plan = ctl
            .handoff(UeImsi(0), away, UeId(0), &flows, SimTime::ZERO)
            .unwrap();
        let moved: Vec<FlowRecord> = plan.carried_records().collect();
        ctl.drain_ops();
        let (n, plan) =
            allocations(|| ctl.handoff(UeImsi(0), home, UeId(0), &moved, SimTime::ZERO));
        assert_eq!(plan.unwrap().carried_flows.len(), 1);
        assert_eq!(ctl.mobility().tunnel_count(), 1);
        n as i64
    };
    returning(false) - returning(true)
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

fn event(imsi: u64, kind: ShardEventKind) -> ShardEvent {
    ShardEvent {
        time: SimTime::ZERO,
        imsi: UeImsi(imsi),
        kind,
    }
}

fn flow(imsi: u64, src_port: u16) -> ShardEvent {
    let kind = ShardEventKind::NewFlow {
        bs: BaseStationId(0),
        dst: SERVER,
        src_port,
        dst_port: 443,
        udp: false,
    };
    event(imsi, kind)
}

/// Allocations of a 2-shard run of `events` plus `extra` minus those of
/// the same run without `extra`, and the difference in `stats` by `stat`.
fn sharded_extra_allocations(
    events: &[ShardEvent],
    extra: &[ShardEvent],
    stat: impl Fn(&ShardedStats) -> u64,
) -> (u64, u64) {
    let topo = small_topology();
    let subscribers: Vec<_> = (0..64)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let run = |events: &[ShardEvent]| {
        let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 2);
        let (n, run) =
            allocations(|| sc.run(ServicePolicy::example_carrier_a(1), &subscribers, events));
        assert_eq!(run.stats.skipped, 0);
        (n, stat(&run.stats))
    };
    run(events); // registers the engine's metrics, once per process
    let (without, stat_without) = run(events);
    let (with, stat_with) = run(&[events, extra].concat());
    (with - without, stat_with - stat_without)
}

/// `ues` UEs attached at station 0, each with its first flow there (the
/// ticketed demand for the path).
fn attached_with_a_flow(ues: u64) -> Vec<ShardEvent> {
    let bs = BaseStationId(0);
    (0..ues)
        .map(|i| event(i, ShardEventKind::Attach { bs }))
        .chain((0..ues).map(|i| flow(i, 30_000)))
        .collect()
}

/// 400 cache-hit flows (8 UEs × 50) through a 2-shard
/// `ShardedController`: a run with them minus the same run without.
fn sharded_hit_allocations() -> u64 {
    let hits: Vec<ShardEvent> = (0..400)
        .map(|i| flow(u64::from(i % 8), 40_000 + i))
        .collect();
    let (n, more_hits) =
        sharded_extra_allocations(&attached_with_a_flow(8), &hits, |s| s.cache_hits);
    assert_eq!(more_hits, 400);
    n
}

/// `n` handoff tickets through a 2-shard `ShardedController`, each a UE
/// with one flow moving station 0 → 3 after another UE's move built the
/// tunnel — the scenario `handoff_allocations(1)` times on the engine
/// alone: a run with them minus the same run without.
fn sharded_handoff_allocations(n: u64) -> u64 {
    let handoff = |imsi| {
        let (from, to) = (BaseStationId(0), BaseStationId(3));
        event(imsi, ShardEventKind::Handoff { from, to })
    };
    let mut events = attached_with_a_flow(n + 1);
    events.push(handoff(0));
    let moves: Vec<ShardEvent> = (1..=n).map(handoff).collect();
    let (allocs, more_handoffs) = sharded_extra_allocations(&events, &moves, |s| s.handoffs);
    assert_eq!(more_handoffs, n);
    allocs
}

/// One `route_policy_path` of a five-middlebox chain on `paper(2)`, once
/// an earlier route of the chain has built its six BFS trees.
fn route_allocations() -> u64 {
    let topo = CellularParams::paper(2).build().unwrap();
    let chain: Vec<MiddleboxId> = (0..5).map(MiddleboxId).collect();
    let gw = topo.default_gateway().switch;
    let mut sp = ShortestPaths::new(&topo);
    sp.route_policy_path(BaseStationId(0), &chain, gw).unwrap();
    let (n, path) = allocations(|| sp.route_policy_path(BaseStationId(1), &chain, gw));
    assert_eq!(path.unwrap().middleboxes(), chain);
    n
}

/// The cold downlink install, into one fresh `PathInstaller`, of every
/// station's path through each of the twelve ordered pairs of the first
/// four middleboxes on `paper(2)` (routed beforehand): allocations, and
/// how many installs made them.
fn install_allocations() -> (u64, usize) {
    let topo = CellularParams::paper(2).build().unwrap();
    let gw = topo.default_gateway().switch;
    let mut sp = ShortestPaths::new(&topo);
    let pairs = (0..4).flat_map(|a| (0..4).filter(move |&b| b != a).map(move |b| [a, b]));
    let paths: Vec<PolicyPath> = pairs
        .flat_map(|pair| (0..topo.base_stations().len() as u32).map(move |bs| (pair, bs)))
        .map(|([a, b], bs)| {
            let chain = [MiddleboxId(a), MiddleboxId(b)];
            sp.route_policy_path(BaseStationId(bs), &chain, gw).unwrap()
        })
        .collect();
    let scheme = AddressingScheme::default_scheme();
    let mut installer = PathInstaller::new(&topo, scheme, TagPolicy::default());
    let (n, ()) = allocations(|| {
        for path in &paths {
            installer.install_path(path, Direction::Downlink).unwrap();
        }
    });
    (n, paths.len())
}

/// One clone of a `paper(4)` topology: the handle every engine holds.
fn topology_clone_allocations() -> u64 {
    let topo = CellularParams::paper(4).build().unwrap();
    let (n, clone) = allocations(|| topo.clone());
    assert_eq!(clone.switch_count(), topo.switch_count());
    n
}

#[test]
fn allocations_per_operation_stay_within_budget() {
    let (installs, paths) = install_allocations();
    assert_eq!(paths, 240);
    // (scenario, allocations now, budget, allocations at the parent)
    let measured = [
        // A UE's first handoff with k ≥ 1 carried flows costs 8
        // allocations whatever k: the plan's three microflow vectors,
        // its transition's four at their exact size and the UE's first
        // reservation record. Its rule ops join the engine's stream,
        // which keeps its room across drains, and it plans into buffers
        // the mobility manager reuses (the parent built both per move,
        // and shrank the teardown). With no flows only the reservation
        // bookkeeping allocates.
        ("handoff, 0 flows", handoff_allocations(0, 1), 2, 11),
        ("handoff, 1 flow", handoff_allocations(1, 1), 8, 11),
        ("handoff, 8 flows", handoff_allocations(8, 1), 8, 11),
        // A move that supersedes a live transition refills that
        // transition's vectors: the plan's three, and the reserved
        // locations growing by the one the first move vacated.
        (
            "second handoff of a UE in transition, 8 flows",
            second_handoff_allocations(8),
            4,
            11,
        ),
        // the flow list, the slot words and the microflow table growing
        ("32 agent tag-cache hits", agent_hit_allocations(), 9, 12),
        // the per-UE flow lists and the shard queues growing: a flow's
        // entries sit inline in its outcome (the parent allocated a
        // vector for them), and a worker sizes its outcomes to its queue
        (
            "400 sharded cache-hit flows",
            sharded_hit_allocations(),
            42,
            452,
        ),
        // What 16 handoff tickets on 2 shards allocate beyond the engine's
        // own 16 handoffs. Nothing per ticket: a ticket's ops move from
        // the engine's stream through a reused buffer into the shard's
        // one log. What is left is per run — each worker's first use of
        // its buffer and grouping scratch, and the doubling of its queue
        // and log — and grows with log N, and with the ops a ticket
        // moves. The parent also logged each move's per-UE uplink rule
        // at every hop of the tunnel; the tunnel's own uplink legs are
        // logged once, with the move that builds it.
        (
            "16 handoff tickets, beyond the engine's own",
            sharded_handoff_allocations(16) - handoff_allocations(1, 16),
            10,
            16,
        ),
        // The hop list, allocated once at its final length: the first
        // pass sums the legs' lengths from the trees. The parent made a
        // vector per leg and regrew the hop list.
        ("route a five-middlebox chain", route_allocations(), 1, 9),
        // The per-path vectors left (decisions, segments, a segment's
        // decisions, plans, a reused tag's record, the report's tags)
        // and the tables growing, the location stage's included.
        // Decomposition's index, the candidate list and the two costing
        // records are reused between installs; the parent also
        // allocated the candidate list per segment, and a tag rule on
        // the last leg where the location stage now answers.
        ("240 cold install_path calls", installs, 1909, 2228),
        // A reference-count bump: the graph is shared, not copied. The
        // parent deep-copied its vectors and maps.
        (
            "clone a paper(4) topology",
            topology_clone_allocations(),
            0,
            205,
        ),
    ];
    for (what, n, budget, parent) in measured {
        println!("{what}: {n} allocations (budget {budget}, parent {parent})");
    }
    // Collecting a tunnel allocates nothing: its leg removals land in
    // the stream's room, and its leg and station-tag maps only shrink.
    let dropped = tunnel_drop_allocations();
    println!("dropping a tunnel: {dropped} allocations beyond the move");
    assert_eq!(dropped, 0, "dropping a tunnel allocates");
    for (what, n, budget, parent) in measured {
        assert!(n <= budget, "{what}: {n} allocations, budget {budget}");
        assert!(budget < parent, "{what}: the budget is the improvement");
    }
}
