//! The trace driver: one loop that feeds a signalling trace, event by
//! event, to one path-installation engine, standing in for the base
//! stations' local agents.
//!
//! Each event is handled on the calling thread, in trace order. An
//! attach, a handoff or a detach goes to the engine (a
//! [`CentralController`]), and so does a flow whose (station, clause)
//! policy path is not routed yet; every other flow is the local agent's
//! work alone (§4.2): classification against the subscriber's
//! precompiled classifier, a flow slot, and the flow's microflow entries
//! from the routed path's tags. The per-UE records are the types a
//! `LocalAgent` runs — its [`FlowSlots`], its [`FlowRecord`]s, entries
//! from [`microflow_pair`] ([`crate::agent`]) — not copies of them, so
//! the two cannot drift in id or slot discipline. The stations' UE-id
//! [`IdPool`]s, which a deployment keeps at each station's agent, are
//! held beside the engine.
//!
//! After each event the engine's rule ops are grouped per switch into
//! the run's one log, so the log is exactly the stream a single-threaded
//! controller drains, each event's ops grouped the same way — rule ids
//! included. `tests/shard_oracle.rs` checks this against a driver built
//! from real `LocalAgent`s.
//!
//! # Why one thread
//!
//! Algorithm 1 is order-dependent — the tags of the k-th path depend on
//! every path installed before it — so the engine takes a trace's
//! changes one event at a time whatever the thread count. UE worker
//! threads in front of it, passing each engine-changing event through
//! one mutex in trace order, never beat one thread (`sharded.scaling`
//! read 0.76–1.01; DESIGN.md §10). The paper leaves the parallel
//! per-flow work to the stations' agents (§4.2). The `Shard*` names and
//! the shard count of [`ShardedController::new`] stay only because the
//! benchmark harness names them.

use std::net::Ipv4Addr;
use std::ops::{Deref, Range};

use softcell_dataplane::MicroflowAction;
use softcell_packet::{FiveTuple, Protocol};
use softcell_policy::clause::{AccessControl, ClauseId};
use softcell_policy::{ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_telemetry::Registry;
use softcell_topology::Topology;
use softcell_types::{
    BaseStationId, Error, FxHashMap, IdPool, LocIp, Result, SimDuration, SimTime, SwitchId, UeId,
    UeImsi,
};

use crate::agent::{microflow_pair, FlowSlots, MICROFLOW_IDLE};
use crate::core::{CentralController, ControllerConfig};
use crate::mobility::FlowRecord;
use crate::ops::{RuleOp, SwitchGrouper};
use crate::state::UeRecord;

/// One input event, the sharded controller's unit of work. Mirrors the
/// workload generator's trace events, with the flow endpoints made
/// explicit so the caller fully determines each flow's five-tuple
/// (except the source address, which is the UE's permanent IP).
#[derive(Clone, Copy, Debug)]
pub struct ShardEvent {
    /// When the event happens.
    pub time: SimTime,
    /// The subscriber.
    pub imsi: UeImsi,
    /// What happened.
    pub kind: ShardEventKind,
}

/// The event body.
#[derive(Clone, Copy, Debug)]
pub enum ShardEventKind {
    /// UE attaches at a station.
    Attach {
        /// The station.
        bs: BaseStationId,
    },
    /// UE opens a new uplink flow (the packet-in path).
    NewFlow {
        /// Station the UE is at.
        bs: BaseStationId,
        /// Remote endpoint.
        dst: Ipv4Addr,
        /// UE-side source port.
        src_port: u16,
        /// Destination port (drives classification).
        dst_port: u16,
        /// UDP instead of TCP.
        udp: bool,
    },
    /// UE moves between stations.
    Handoff {
        /// Station it leaves.
        from: BaseStationId,
        /// Station it enters.
        to: BaseStationId,
    },
    /// UE detaches.
    Detach {
        /// Station it leaves.
        bs: BaseStationId,
    },
}

/// What processing one event produced — everything a materializer needs
/// to replay the run onto a data plane.
#[derive(Clone, Debug)]
pub enum EventOutcome {
    /// Attach succeeded.
    Attached {
        /// The controller record.
        record: UeRecord,
    },
    /// A flow was classified and its microflow rules synthesized.
    Flow(FlowDecision),
    /// A handoff completed.
    HandedOff(HandoffOutcome),
    /// Detach succeeded.
    Detached {
        /// The record as it was before detaching.
        record: UeRecord,
    },
    /// The event could not be processed (inconsistent trace, exhaustion);
    /// the reason is kept for diagnostics.
    Skipped {
        /// Why.
        reason: String,
    },
}

/// Microflow rules for one new flow at its access switch.
#[derive(Clone, Debug)]
pub struct FlowDecision {
    /// Station the flow entered at.
    pub bs: BaseStationId,
    /// The access switch the entries belong to.
    pub access: SwitchId,
    /// Clause that matched.
    pub clause: ClauseId,
    /// Policy denied the flow (the single entry is a drop).
    pub denied: bool,
    /// Whether the engine had routed the policy path already (the agent
    /// tag-cache-hit equivalent).
    pub cache_hit: bool,
    /// Entries to install, with [`ShardedController::microflow_idle`]
    /// from `time`.
    pub installs: FlowInstalls,
    /// Event time (deadline base).
    pub time: SimTime,
}

/// One microflow entry: the flow key at the access switch and what it
/// does.
type MicroflowInstall = (FiveTuple, MicroflowAction);

/// A flow's microflow entries, held inline (so `Debug` and `PartialEq`
/// see only these) and borrowed as a slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowInstalls {
    /// A denied flow's drop.
    One(MicroflowInstall),
    /// The uplink and the downlink entry.
    Two([MicroflowInstall; 2]),
}

impl Deref for FlowInstalls {
    type Target = [MicroflowInstall];

    fn deref(&self) -> &[MicroflowInstall] {
        match self {
            FlowInstalls::One(entry) => std::slice::from_ref(entry),
            FlowInstalls::Two(pair) => pair,
        }
    }
}

impl<'a> IntoIterator for &'a FlowInstalls {
    type Item = &'a MicroflowInstall;
    type IntoIter = std::slice::Iter<'a, MicroflowInstall>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Microflow surgery of one handoff.
#[derive(Clone, Debug)]
pub struct HandoffOutcome {
    /// The vacated station's access switch.
    pub old_access: SwitchId,
    /// The new station's access switch.
    pub new_access: SwitchId,
    /// Entries to remove at the old access switch.
    pub removals: Vec<FiveTuple>,
    /// Entries to install at the new access switch (300 s deadline from
    /// `time`, as the simulator applies handoff copies).
    pub installs: Vec<(FiveTuple, MicroflowAction)>,
    /// Event time.
    pub time: SimTime,
}

/// Run counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Events processed.
    pub events: u64,
    /// Successful attaches.
    pub attaches: u64,
    /// Successful detaches.
    pub detaches: u64,
    /// Successful handoffs.
    pub handoffs: u64,
    /// Always 0: no message crosses a shard boundary. Kept because the
    /// frozen `perf/` harness reads it; the next benchmark-kind PR drops
    /// the field and its `sharded.rendezvous_messages` metric together.
    pub rendezvous_messages: u64,
    /// Flows processed.
    pub flows: u64,
    /// Flows whose policy path the engine had routed already (the agent
    /// tag-cache-hit equivalent).
    pub cache_hits: u64,
    /// Flows that installed their policy path.
    pub cache_misses: u64,
    /// Flows that asked the engine to change something: their (station,
    /// clause) path was not routed yet. Each is a cache miss unless the
    /// install failed. `coordinated == attaches + detaches + handoffs +
    /// flow_demands` on clean runs.
    pub flow_demands: u64,
    /// Always 0: every path is planned and committed in one engine call.
    /// Kept because the frozen `perf/` harness reads it; the next
    /// benchmark-kind PR drops the field and its
    /// `sharded.commit_replanned` metric together.
    pub commit_replanned: u64,
    /// Flows denied by policy.
    pub denied: u64,
    /// Events skipped.
    pub skipped: u64,
    /// Events that asked the engine to change something: every attach,
    /// handoff and detach that reached it, and every flow demand.
    pub coordinated: u64,
}

/// One switch's ops of one event, borrowed from a run's log: a
/// barrier-delimited batch in the sense of [`crate::ops::SwitchBatch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchOps<'a> {
    /// The target switch.
    pub switch: SwitchId,
    /// Its ops, in engine emission order.
    pub ops: &'a [RuleOp],
}

/// Everything a run produced.
pub struct ShardedRun<'t> {
    /// The engine after the run.
    pub engine: CentralController,
    /// Per-event outcomes, indexed like the input events.
    pub outcomes: Vec<EventOutcome>,
    /// Counters.
    pub stats: ShardedStats,
    /// Every event's rule ops, grouped per switch (see `SwitchGrouper`),
    /// in event order.
    ops: Vec<RuleOp>,
    /// (switch, its ops in `ops`), in event order.
    groups: Vec<(SwitchId, Range<usize>)>,
    /// Borrows nothing: the parameter stays only because `perf/` names it.
    marker: std::marker::PhantomData<&'t ()>,
}

impl ShardedRun<'_> {
    /// The run's rule ops as the batch sequence a single-threaded
    /// controller emits: each event's ops grouped per switch, in the
    /// engine's emission order within a switch, events in trace order.
    /// The per-batch barrier makes cross-batch ordering on one switch
    /// explicit (see [`crate::ops::batch_by_switch`]). The batches are
    /// borrowed from the run, not cloned.
    pub fn merged_batches(&self) -> Vec<SwitchOps<'_>> {
        self.groups
            .iter()
            .map(|&(switch, ref range)| SwitchOps {
                switch,
                ops: &self.ops[range.clone()],
            })
            .collect()
    }
}

/// The trace driver: configuration plus [`run`](Self::run). One
/// instance can run many traces.
pub struct ShardedController {
    topo: Topology,
    cfg: ControllerConfig,
}

/// One attached UE — what its station's local agent holds for it.
struct ShardUe {
    ue_id: UeId,
    permanent_ip: Ipv4Addr,
    bs: BaseStationId,
    slots: FlowSlots,
    flows: Vec<FlowRecord>,
}

/// Hands out an id at `bs`, held until it is released. The id a handoff
/// vacates is *not* released — the old location stays reserved (§5.1).
fn reserve_ue_id(
    pools: &mut FxHashMap<BaseStationId, IdPool>,
    bs: BaseStationId,
    max: u32,
) -> Result<UeId> {
    pools
        .entry(bs)
        .or_insert_with(|| IdPool::new(max))
        .allocate()
        .map(|id| UeId(id as u16))
        .ok_or_else(|| Error::Exhausted(format!("base station {bs} out of UE ids")))
}

/// Returns an id: a reservation whose attach or handoff failed, or a
/// detached UE's.
fn release_ue_id(pools: &mut FxHashMap<BaseStationId, IdPool>, bs: BaseStationId, id: UeId) {
    if let Some(pool) = pools.get_mut(&bs) {
        pool.release(u32::from(id.0));
    }
}

/// One run in progress: the engine, the state the stations' agents
/// hold beside it, and what the run has produced so far.
struct Driver {
    topo: Topology,
    cfg: ControllerConfig,
    engine: CentralController,
    /// The stations' UE-id pools.
    pools: FxHashMap<BaseStationId, IdPool>,
    /// Every subscriber's classifier: the engine's compiled copies,
    /// shared by pointer.
    classifiers: FxHashMap<UeImsi, UeClassifier>,
    ues: FxHashMap<UeImsi, ShardUe>,
    grouper: SwitchGrouper,
    ops: Vec<RuleOp>,
    groups: Vec<(SwitchId, Range<usize>)>,
    stats: ShardedStats,
}

/// An event's outcome, or why it was skipped.
type Handled = std::result::Result<EventOutcome, String>;

impl Driver {
    fn handle(&mut self, idx: usize, ev: ShardEvent) -> EventOutcome {
        self.stats.events += 1;
        // Trace root per event: the engine's own spans nest under it via
        // the thread-local context. Disarmed sampling makes this a single
        // atomic load.
        let mut root = Registry::global().tracer().root(match ev.kind {
            ShardEventKind::Attach { .. } => "shard_attach",
            ShardEventKind::NewFlow { .. } => "shard_new_flow",
            ShardEventKind::Handoff { .. } => "shard_handoff",
            ShardEventKind::Detach { .. } => "shard_detach",
        });
        root.set_label(idx as u64);
        let handled = match ev.kind {
            ShardEventKind::Attach { bs } => self.attach(ev, bs),
            ShardEventKind::NewFlow {
                bs,
                dst,
                src_port,
                dst_port,
                udp,
            } => self.flow(ev, bs, dst, src_port, dst_port, udp),
            ShardEventKind::Handoff { from, to } => self.handoff(ev, from, to),
            ShardEventKind::Detach { bs: _ } => self.detach(ev),
        };
        // what the event queued in the engine's stream, grouped per switch
        let pending = &mut self.engine.pending_ops;
        if !pending.is_empty() {
            let groups = &mut self.groups;
            self.grouper.group(pending, &mut self.ops, |switch, range| {
                groups.push((switch, range));
            });
            pending.clear();
        }
        handled.unwrap_or_else(|reason| {
            self.stats.skipped += 1;
            EventOutcome::Skipped { reason }
        })
    }

    fn attach(&mut self, ev: ShardEvent, bs: BaseStationId) -> Handled {
        if self.ues.contains_key(&ev.imsi) {
            return Err(format!("{} already attached", ev.imsi));
        }
        self.stats.coordinated += 1;
        let max_ids = self.cfg.scheme.max_ues_per_station();
        let (engine, pools) = (&mut self.engine, &mut self.pools);
        let grant = reserve_ue_id(pools, bs, max_ids)
            .and_then(|id| {
                engine
                    .attach_ue(ev.imsi, bs, id, ev.time)
                    .inspect_err(|_| release_ue_id(pools, bs, id))
            })
            .map_err(|e| format!("attach failed: {e}"))?;
        self.ues.insert(
            ev.imsi,
            ShardUe {
                ue_id: grant.record.ue_id,
                permanent_ip: grant.record.permanent_ip,
                bs,
                slots: FlowSlots::default(),
                flows: Vec::new(),
            },
        );
        self.stats.attaches += 1;
        Ok(EventOutcome::Attached {
            record: grant.record,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn flow(
        &mut self,
        ev: ShardEvent,
        bs: BaseStationId,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        udp: bool,
    ) -> Handled {
        self.stats.flows += 1;
        let proto = if udp { Protocol::Udp } else { Protocol::Tcp };
        let classifier = self.classifiers.get(&ev.imsi).ok_or("unknown subscriber")?;
        let entry = classifier
            .classify(proto, dst_port)
            .ok_or("policy matches nothing for this flow")?;
        let ue = self
            .ues
            .get_mut(&ev.imsi)
            .filter(|u| u.bs == bs)
            .ok_or_else(|| format!("{} not attached at {bs}", ev.imsi))?;
        let tuple = FiveTuple {
            src: ue.permanent_ip,
            dst,
            src_port,
            dst_port,
            proto,
        };
        let station = self.topo.base_station(bs);
        let (access, radio) = (station.access_switch, station.radio_port);
        let decision = |cache_hit, denied, installs| {
            EventOutcome::Flow(FlowDecision {
                bs,
                access,
                clause: entry.clause,
                denied,
                cache_hit,
                installs,
                time: ev.time,
            })
        };

        if entry.access == AccessControl::Deny {
            self.stats.denied += 1;
            return Ok(decision(
                true,
                true,
                FlowInstalls::One((tuple, MicroflowAction::Drop)),
            ));
        }

        // a path the engine has routed already answers from its cache
        // and changes nothing; any other is this flow's demand
        let cache_hit = self.engine.routed_path(bs, entry.clause).is_some();
        if !cache_hit {
            self.stats.coordinated += 1;
            self.stats.flow_demands += 1;
        }
        let tags = self
            .engine
            .request_policy_path(bs, entry.clause)
            .map_err(|e| format!("path request failed: {e}"))?;
        if cache_hit {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }

        let loc_addr = self
            .cfg
            .scheme
            .encode(LocIp::new(bs, ue.ue_id))
            .map_err(|e| format!("loc encode failed: {e}"))?;
        let slot = ue
            .slots
            .allocate(self.cfg.ports.flow_slots())
            .ok_or("all flow slots active")?;
        let ports = &self.cfg.ports;
        let flow = microflow_pair(ports, &tags, loc_addr, ue.permanent_ip, radio, tuple, slot)
            .map_err(|e| format!("port encode failed: {e}"))?;
        ue.flows.push(flow);
        Ok(decision(
            cache_hit,
            false,
            FlowInstalls::Two([
                (flow.uplink, flow.up_action),
                (flow.downlink, flow.down_action),
            ]),
        ))
    }

    fn handoff(&mut self, ev: ShardEvent, from: BaseStationId, to: BaseStationId) -> Handled {
        const SAME: &str = "handoff to the same station";
        if from == to {
            return Err(SAME.into());
        }
        let ue = self
            .ues
            .get_mut(&ev.imsi)
            .ok_or_else(|| format!("{} not attached", ev.imsi))?;
        // the station being vacated is the one the UE is at (the trace's
        // `from` names it on consistent traces)
        let from = ue.bs;
        if from == to {
            return Err(SAME.into());
        }

        // Reserve an id at the target station and run the engine plan;
        // the vacated station's pool is not touched (its id stays held,
        // §5.1).
        self.stats.coordinated += 1;
        let max_ids = self.cfg.scheme.max_ues_per_station();
        let (engine, pools) = (&mut self.engine, &mut self.pools);
        let plan = reserve_ue_id(pools, to, max_ids)
            .and_then(|new_id| {
                engine
                    .handoff(ev.imsi, to, new_id, &ue.flows, ev.time)
                    .inspect_err(|_| release_ue_id(pools, to, new_id))
            })
            .map_err(|e| format!("handoff failed: {e}"))?;

        // re-key the flows exactly as the arriving agent adopts them
        ue.bs = to;
        ue.ue_id = plan.new.ue_id;
        ue.slots.clear();
        ue.flows.clear();
        ue.flows.extend(plan.carried_records());
        for f in &ue.flows {
            ue.slots
                .occupy(self.cfg.ports.decode(f.downlink.dst_port).1);
        }

        self.stats.handoffs += 1;
        Ok(EventOutcome::HandedOff(HandoffOutcome {
            old_access: self.topo.base_station(from).access_switch,
            new_access: self.topo.base_station(to).access_switch,
            removals: plan.old_microflow_removals,
            installs: plan.new_microflow_installs,
            time: ev.time,
        }))
    }

    fn detach(&mut self, ev: ShardEvent) -> Handled {
        if !self.ues.contains_key(&ev.imsi) {
            return Err(format!("{} not attached", ev.imsi));
        }
        self.stats.coordinated += 1;
        let pools = &mut self.pools;
        let record = self
            .engine
            .detach_ue(ev.imsi)
            .inspect(|record| release_ue_id(pools, record.bs, record.ue_id))
            .map_err(|e| format!("detach failed: {e}"))?;
        self.ues.remove(&ev.imsi);
        self.stats.detaches += 1;
        Ok(EventOutcome::Detached { record })
    }
}

impl ShardedController {
    /// Creates a trace driver. The shard count is accepted and ignored:
    /// every run is one loop on the calling thread, whatever it says.
    pub fn new(topo: &Topology, cfg: ControllerConfig, _shards: usize) -> Self {
        ShardedController {
            topo: topo.clone(),
            cfg,
        }
    }

    /// Runs a trace to completion on the calling thread, one event at a
    /// time in trace order, and returns the outcomes, the op log and the
    /// engine.
    pub fn run(
        &self,
        policy: ServicePolicy,
        subscribers: &[SubscriberAttributes],
        events: &[ShardEvent],
    ) -> ShardedRun<'static> {
        let mut engine = CentralController::new(&self.topo, self.cfg, policy);
        for attrs in subscribers {
            engine.put_subscriber(*attrs);
        }
        // compiled once per plan, so each IMSI's entry shares its plan's
        // table: the engine's attaches and handoffs hand out these same
        // copies
        let classifiers = subscribers
            .iter()
            .filter_map(|attrs| Some((attrs.imsi, engine.classifier_of(attrs.imsi).ok()?)))
            .collect();
        let mut driver = Driver {
            topo: self.topo.clone(),
            cfg: self.cfg,
            engine,
            pools: FxHashMap::default(),
            classifiers,
            ues: FxHashMap::default(),
            grouper: SwitchGrouper::default(),
            ops: Vec::new(),
            groups: Vec::new(),
            stats: ShardedStats::default(),
        };
        let mut outcomes = Vec::with_capacity(events.len());
        for (idx, ev) in events.iter().enumerate() {
            outcomes.push(driver.handle(idx, *ev));
        }

        let stats = driver.stats;
        let g = Registry::global();
        for (name, v) in [
            ("softcell_controller_sharded_events_total", stats.events),
            ("softcell_controller_sharded_attaches_total", stats.attaches),
            ("softcell_controller_sharded_detaches_total", stats.detaches),
            ("softcell_controller_sharded_handoffs_total", stats.handoffs),
            ("softcell_controller_sharded_flows_total", stats.flows),
            (
                "softcell_controller_sharded_cache_hits_total",
                stats.cache_hits,
            ),
            (
                "softcell_controller_sharded_cache_misses_total",
                stats.cache_misses,
            ),
            (
                "softcell_controller_sharded_flow_demands_total",
                stats.flow_demands,
            ),
            ("softcell_controller_sharded_denied_total", stats.denied),
            ("softcell_controller_sharded_skipped_total", stats.skipped),
            (
                "softcell_controller_sharded_coordinated_total",
                stats.coordinated,
            ),
        ] {
            g.counter(name).add(v);
        }

        ShardedRun {
            engine: driver.engine,
            outcomes,
            stats,
            ops: driver.ops,
            groups: driver.groups,
            marker: std::marker::PhantomData,
        }
    }

    /// The idle deadline the materializer must give flow microflow
    /// entries: the one a new local agent gives them.
    pub fn microflow_idle() -> SimDuration {
        MICROFLOW_IDLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_topology::small_topology;

    fn subs(n: u64) -> Vec<SubscriberAttributes> {
        (0..n)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect()
    }

    const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn flow(t: u64, imsi: u64, bs: u32, src_port: u16, dst_port: u16) -> ShardEvent {
        ShardEvent {
            time: SimTime(t),
            imsi: UeImsi(imsi),
            kind: ShardEventKind::NewFlow {
                bs: BaseStationId(bs),
                dst: SERVER,
                src_port,
                dst_port,
                udp: false,
            },
        }
    }

    fn attach(t: u64, imsi: u64, bs: u32) -> ShardEvent {
        ShardEvent {
            time: SimTime(t),
            imsi: UeImsi(imsi),
            kind: ShardEventKind::Attach {
                bs: BaseStationId(bs),
            },
        }
    }

    #[test]
    fn attach_flow_detach_roundtrip() {
        let topo = small_topology();
        let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 4);
        let events = vec![
            attach(0, 0, 0),
            attach(0, 1, 1),
            flow(1, 0, 0, 40_000, 443),
            flow(2, 1, 1, 40_001, 443),
            flow(3, 0, 0, 40_002, 80),
            ShardEvent {
                time: SimTime(4),
                imsi: UeImsi(0),
                kind: ShardEventKind::Detach {
                    bs: BaseStationId(0),
                },
            },
        ];
        let run = sc.run(ServicePolicy::example_carrier_a(1), &subs(2), &events);
        assert_eq!(run.stats.attaches, 2);
        assert_eq!(run.stats.flows, 3);
        assert_eq!(run.stats.cache_misses, 2, "one demand per (bs, clause)");
        assert_eq!(run.stats.cache_hits, 1);
        assert_eq!(run.stats.detaches, 1);
        assert_eq!(run.stats.skipped, 0);
        assert_eq!(run.engine.state().attached_count(), 1);
        assert!(matches!(run.outcomes[2], EventOutcome::Flow(_)));
        // both demands produced fabric batches
        let merged = run.merged_batches();
        assert!(!merged.is_empty());
    }

    #[test]
    fn poisoned_key_recovers_when_another_ue_demands() {
        // A flow of a UE whose attach failed must not keep the path from
        // the UEs that did attach: the next demand installs it, and the
        // flows after it are cache hits.
        let topo = small_topology();
        let mut cfg = ControllerConfig::simulation();
        // a two-address pool with one assignable address (.0 is
        // reserved), so the second attach fails
        cfg.permanent_pool =
            softcell_types::Ipv4Prefix::from_bits(u32::from(Ipv4Addr::new(100, 64, 0, 0)), 31);
        let sc = ShardedController::new(&topo, cfg, 1);
        let events = vec![
            attach(0, 0, 0),
            attach(1, 1, 0),            // pool exhausted: skipped
            flow(2, 1, 0, 40_000, 443), // ue1 not attached: skipped
            flow(3, 0, 0, 40_001, 443), // ue0's demand: installs the path
            flow(4, 0, 0, 40_002, 443), // served from the routed path
        ];
        let run = sc.run(ServicePolicy::example_carrier_a(1), &subs(2), &events);
        assert_eq!(run.stats.attaches, 1);
        assert!(
            matches!(&run.outcomes[1], EventOutcome::Skipped { reason } if reason.contains("exhausted")),
            "{:?}",
            run.outcomes[1]
        );
        assert!(
            matches!(&run.outcomes[2], EventOutcome::Skipped { reason } if reason.contains("not attached")),
            "{:?}",
            run.outcomes[2]
        );
        let EventOutcome::Flow(f) = &run.outcomes[3] else {
            panic!(
                "ue0's demand must succeed after ue1's skip: {:?}",
                run.outcomes[3]
            );
        };
        assert!(!f.cache_hit, "ue0's flow installed the path");
        let EventOutcome::Flow(f) = &run.outcomes[4] else {
            panic!("the path is routed now: {:?}", run.outcomes[4]);
        };
        assert!(f.cache_hit, "second flow rides the routed path");
        assert_eq!(run.stats.cache_misses, 1);
        assert_eq!(run.stats.cache_hits, 1);
    }

    #[test]
    fn a_failed_path_request_skips_every_flow_that_needs_the_path() {
        // the failed install routes nothing, so the next flow of the key
        // asks the engine again, and fails the same way
        let topo = small_topology();
        let mut cfg = ControllerConfig::simulation();
        cfg.tag_policy.capacity = 0; // every install fails: tag space empty
        let sc = ShardedController::new(&topo, cfg, 1);
        let events = vec![
            attach(0, 0, 0),
            flow(1, 0, 0, 40_000, 443), // demand: the engine fails
            flow(2, 0, 0, 40_001, 443), // demands again: fails again
        ];
        let run = sc.run(ServicePolicy::example_carrier_a(1), &subs(1), &events);
        assert!(
            matches!(&run.outcomes[1], EventOutcome::Skipped { reason } if reason.contains("path request failed")),
            "{:?}",
            run.outcomes[1]
        );
        assert!(
            matches!(&run.outcomes[2], EventOutcome::Skipped { reason } if reason.contains("path request failed")),
            "{:?}",
            run.outcomes[2]
        );
        assert_eq!(run.stats.cache_hits, 0);
        assert_eq!(run.stats.cache_misses, 0, "nothing installed");
        assert_eq!(run.stats.flow_demands, 2);
    }

    #[test]
    fn handoff_rekeys_flows_and_reserves_the_old_slot() {
        let topo = small_topology();
        let sc = ShardedController::new(&topo, ControllerConfig::simulation(), 4);
        let events = vec![
            attach(0, 0, 0),
            flow(1, 0, 0, 40_000, 443),
            ShardEvent {
                time: SimTime(2),
                imsi: UeImsi(0),
                kind: ShardEventKind::Handoff {
                    from: BaseStationId(0),
                    to: BaseStationId(3),
                },
            },
        ];
        let run = sc.run(ServicePolicy::example_carrier_a(1), &subs(1), &events);
        assert_eq!(run.stats.handoffs, 1);
        assert_eq!(run.stats.skipped, 0);
        let EventOutcome::HandedOff(h) = &run.outcomes[2] else {
            panic!("handoff outcome expected, got {:?}", run.outcomes[2]);
        };
        assert_eq!(h.removals.len(), 1, "downlink moved away");
        assert_eq!(h.installs.len(), 2, "uplink + downlink copies");
        assert_eq!(
            run.engine.state().ue(UeImsi(0)).unwrap().bs,
            BaseStationId(3)
        );
        assert_eq!(run.engine.state().reserved_count(), 1, "old slot reserved");
    }

    #[test]
    fn a_refused_handoff_leaves_the_ue_where_it_was() {
        // regression: the engine recorded a handoff that then failed, so
        // the engine had the UE at the new station and its agent at the
        // old one. The UE's later events must be served where it really
        // is.
        let topo = small_topology();
        let (a, b) = (0, 1);
        let handoff = ShardEvent {
            time: SimTime(2),
            imsi: UeImsi(a),
            kind: ShardEventKind::Handoff {
                from: BaseStationId(0),
                to: BaseStationId(3),
            },
        };
        let events = vec![
            attach(0, a, 0),
            attach(0, b, 1),
            flow(1, a, 0, 40_000, 443),
            flow(1, b, 1, 40_001, 443),
            handoff,                    // needs the mobility tag: none is left
            flow(3, a, 0, 40_002, 443), // never left station 0: served there
            flow(4, a, 3, 40_003, 443), // and is not at station 3
            flow(5, b, 1, 40_004, 443),
        ];
        let run = |cfg, events: &[ShardEvent]| {
            let sc = ShardedController::new(&topo, cfg, 1);
            sc.run(ServicePolicy::example_carrier_a(1), &subs(2), events)
        };
        // a tag space the two policy paths use up
        let mut cfg = ControllerConfig::simulation();
        let paths_only = run(cfg, &events[..4]);
        cfg.tag_policy.capacity = paths_only.engine.installer().tags_in_use() as u16;

        let r = run(cfg, &events);
        assert!(
            matches!(&r.outcomes[4], EventOutcome::Skipped { reason }
                if reason == "handoff failed: resource exhausted: no tag left for tunnel"),
            "{:?}",
            r.outcomes[4]
        );
        let EventOutcome::Flow(served) = &r.outcomes[5] else {
            panic!("served at the old station: {:?}", r.outcomes[5]);
        };
        assert!(served.bs == BaseStationId(0) && served.cache_hit);
        assert!(
            matches!(&r.outcomes[6], EventOutcome::Skipped { reason }
                if reason.contains("not attached at")),
            "{:?}",
            r.outcomes[6]
        );
        assert!(matches!(&r.outcomes[7], EventOutcome::Flow(_)));
        let engine = r.engine.state();
        assert_eq!(engine.ue(UeImsi(a)).unwrap().bs, BaseStationId(0));
        assert_eq!(engine.reserved_count(), 0);
        assert_eq!(r.engine.mobility().transitions_active(), 0);
        assert_eq!(r.engine.mobility().tunnel_count(), 0);
    }
}
